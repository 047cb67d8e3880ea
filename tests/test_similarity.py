"""Tests for the histogram-distance oracle and its isolation guarantees."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.config import parse_config
from fedsim.data import generate_synthetic, partition
from fedsim.engine import build_state
from fedsim.similarity import ClassCountSubmission, SimilarityOracle

from reference import histogram_distance


class TestHistogramDistance:
    def test_identical_is_zero(self):
        assert histogram_distance([3, 5, 2], [3, 5, 2]) == 0.0

    def test_disjoint_is_two(self):
        assert histogram_distance([10, 0], [0, 10]) == 2.0
        assert histogram_distance([1, 0, 0], [0, 3, 4]) == 2.0

    def test_hand_value(self):
        # [5,5] -> (0.5, 0.5); [10,0] -> (1, 0); L1 = 0.5 + 0.5 = 1.
        assert histogram_distance([5, 5], [10, 0]) == pytest.approx(1.0)

    def test_scale_invariant_exact(self):
        # Same shape at different totals must give exactly zero.
        assert histogram_distance([1, 3], [2, 6]) == 0.0
        assert histogram_distance([2, 4, 6], [1, 2, 3]) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.integers(0, 20, size=6)
            b = rng.integers(0, 20, size=6)
            if a.sum() == 0 or b.sum() == 0:
                continue
            assert histogram_distance(a, b) == histogram_distance(b, a)

    def test_range_and_triangle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b, c = (rng.integers(0, 30, size=5) + 1 for _ in range(3))
            dab = histogram_distance(a, b)
            dbc = histogram_distance(b, c)
            dac = histogram_distance(a, c)
            assert 0.0 <= dab <= 2.0
            assert dac <= dab + dbc + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            histogram_distance([1, 2], [1, 2, 3])


def filled_oracle(counts_by_id, num_classes):
    oracle = SimilarityOracle(sorted(counts_by_id), num_classes)
    for cid, counts in counts_by_id.items():
        oracle.submit(ClassCountSubmission(client_id=cid, counts=tuple(counts)))
    return oracle


class TestOracle:
    def test_matrix_matches_pairwise_distance(self):
        counts = {0: (8, 2, 0), 1: (0, 5, 5), 2: (3, 3, 4)}
        matrix = filled_oracle(counts, 3).compute_matrix()
        for a in counts:
            for b in counts:
                assert matrix.block([a], [b])[0, 0] == pytest.approx(
                    histogram_distance(counts[a], counts[b])
                )

    @pytest.mark.parametrize("num_classes", [1, 2, 3, 7, 10, 17])
    def test_matrix_bytes_match_pair_loop(self, num_classes):
        # Reference: one histogram pair at a time, as the matrix was first
        # computed. The row-wise computation must reproduce it byte for byte.
        rng = np.random.default_rng(num_classes)
        counts = {}
        for cid in range(40):
            kind = cid % 4
            if kind == 0:  # single class
                c = np.zeros(num_classes, dtype=np.int64)
                c[rng.integers(num_classes)] = rng.integers(1, 500)
            elif kind == 1:  # disjoint halves
                c = np.zeros(num_classes, dtype=np.int64)
                half = slice(0, max(1, num_classes // 2)) if cid % 8 == 1 else slice(
                    num_classes // 2, num_classes
                )
                c[half] = rng.integers(1, 50, size=c[half].shape)
            else:
                c = rng.integers(0, 1000, size=num_classes)
                c[rng.integers(num_classes)] += 1
            counts[cid] = tuple(int(x) for x in c)
        ids = sorted(counts)
        normalized = [np.asarray(counts[c]) / np.asarray(counts[c]).sum() for c in ids]
        expected = np.zeros((len(ids), len(ids)))
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                d = float(np.abs(normalized[i] - normalized[j]).sum())
                expected[i, j] = d
                expected[j, i] = d
        matrix = filled_oracle(counts, num_classes).compute_matrix()
        assert matrix.values.tobytes() == expected.tobytes()

    def test_missing_submission_reported(self):
        oracle = SimilarityOracle([0, 1, 2], 2)
        oracle.submit(ClassCountSubmission(client_id=1, counts=(1, 1)))
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            oracle.compute_matrix()

    def test_duplicate_submission_rejected(self):
        oracle = SimilarityOracle([0], 2)
        oracle.submit(ClassCountSubmission(client_id=0, counts=(1, 1)))
        with pytest.raises(ValueError, match="already"):
            oracle.submit(ClassCountSubmission(client_id=0, counts=(1, 1)))

    def test_unknown_client_rejected(self):
        oracle = SimilarityOracle([0, 1], 2)
        with pytest.raises(ValueError, match="unknown"):
            oracle.submit(ClassCountSubmission(client_id=7, counts=(1, 1)))

    def test_wrong_length_rejected(self):
        oracle = SimilarityOracle([0], 3)
        with pytest.raises(ValueError):
            oracle.submit(ClassCountSubmission(client_id=0, counts=(1, 1)))

    def test_zero_histogram_rejected(self):
        oracle = SimilarityOracle([0], 2)
        with pytest.raises(ValueError):
            oracle.submit(ClassCountSubmission(client_id=0, counts=(0, 0)))

    def test_negative_counts_rejected(self):
        oracle = SimilarityOracle([0], 2)
        with pytest.raises(ValueError):
            oracle.submit(ClassCountSubmission(client_id=0, counts=(-1, 2)))

    def test_no_count_accessor(self):
        # Raw histograms must not be readable back; only the distance matrix
        # leaves the store.
        oracle = SimilarityOracle([0], 2)
        oracle.submit(ClassCountSubmission(client_id=0, counts=(3, 1)))
        public = [n for n in dir(oracle) if not n.startswith("_")]
        assert public == ["compute_matrix", "submit"]

    def test_concurrent_submissions(self):
        ids = list(range(32))
        oracle = SimilarityOracle(ids, 4)
        errors = []

        def worker(cid):
            try:
                oracle.submit(
                    ClassCountSubmission(client_id=cid, counts=(cid + 1, 2, 3, 4))
                )
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(c,)) for c in ids]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        matrix = oracle.compute_matrix()
        assert matrix.values.shape == (32, 32)


class TestMatrixValidation:
    def test_to_dict_roundtrips(self):
        matrix = filled_oracle({0: (1, 1), 3: (2, 0)}, 2).compute_matrix()
        doc = matrix.to_dict()
        assert doc["client_ids"] == [0, 3]
        assert doc["values"][0][1] == matrix.block([0], [3])[0, 0]


@st.composite
def histogram_queries(draw):
    """Histograms of 1-300 classes (past numpy's 8-way unrolled and 128-value
    pairwise summation blocks), with single-class and disjoint ones, and
    rows/cols of their client ids in any order, with repeats."""
    num_classes = draw(st.integers(1, 300))
    ids = sorted(draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = max(1, num_classes // 2)
    counts = {}
    for k, cid in enumerate(ids):
        c = np.zeros(num_classes, dtype=np.int64)
        if k % 3 == 0:  # a single class
            c[rng.integers(num_classes)] = rng.integers(1, 10**6)
        elif k % 3 == 1:  # halves, disjoint from the next such client's
            part = np.arange(half) if k % 2 else np.arange(half, num_classes)
            part = part if part.size else np.arange(num_classes)
            c[part] = rng.integers(0, 50, size=part.size)
            c[rng.choice(part)] += 1
        else:  # anything, zeros included
            c = rng.integers(0, 1000, size=num_classes) * rng.integers(0, 2, size=num_classes)
            c[rng.integers(num_classes)] += 1
        counts[cid] = tuple(int(x) for x in c)
    rows = draw(st.lists(st.sampled_from(ids), max_size=12))
    cols = draw(st.lists(st.sampled_from(ids), max_size=12))
    return counts, rows, cols


def pair_loop_distance(counts_a, counts_b) -> float:
    """The distance as the first dense matrix computed it, one pair at a time."""
    a, b = np.asarray(counts_a), np.asarray(counts_b)
    return float(np.abs(a / a.sum() - b / b.sum()).sum())


class TestOnDemandDistances:
    @settings(max_examples=200, deadline=None)
    @given(histogram_queries())
    def test_block_matches_pair_loop_bitwise(self, query):
        counts, rows, cols = query
        distances = filled_oracle(counts, len(next(iter(counts.values())))).compute_matrix()
        want = np.array(
            [[pair_loop_distance(counts[a], counts[b]) for b in cols] for a in rows]
        ).reshape(len(rows), len(cols))
        got = distances.block(rows, cols)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for a, b in zip(rows, cols):
            assert distances.block([a], [b])[0, 0].tobytes() == np.float64(
                pair_loop_distance(counts[a], counts[b])
            ).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(histogram_queries())
    def test_symmetric_zero_diagonal_and_in_range(self, query):
        counts, _, _ = query
        distances = filled_oracle(counts, len(next(iter(counts.values())))).compute_matrix()
        ids = distances.client_ids
        table = distances.block(ids, ids)
        assert np.all(np.isfinite(table))
        assert table.tobytes() == table.T.copy().tobytes()
        assert np.all(np.diagonal(table) == 0.0)
        # Disjoint histograms can land a few ulps above 2 after normalization.
        assert table.min() >= 0.0 and table.max() <= 2.0 + 1e-9
        assert distances.values.tobytes() == table.tobytes()

    def test_unknown_client_raises(self):
        distances = filled_oracle({0: (1, 1), 3: (2, 0)}, 2).compute_matrix()
        with pytest.raises(KeyError):
            distances.block([0], [5])

    def test_freeze_offload_setup_never_builds_the_dense_table(self):
        # 10 000 clients: a dense float64 table would take 800 MB, its
        # former validation more. The seed's distances keep clients x
        # classes floats.
        config = parse_config({
            "dataset": {"num_classes": 10, "samples_per_class": 5000, "input_dim": 2},
            "clients": {"count": 10000, "per_round": 50},
            "training": {"rounds": 1},
            "strategies": [{"name": "freeze_offload"}],
        })
        tracemalloc.start()
        try:
            state = build_state(config, config.strategies[0], 5)
            similarity = state.shared.similarity()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(similarity.client_ids) == 10000
        assert peak < 64 * 2**20


class TestPartitionDistances:
    def test_more_shared_classes_means_lower_distance(self):
        # Mean pairwise distance should fall as clients share more classes.
        # Checked across several seeds to keep it a property, not a fluke.
        for seed in range(10):
            data = generate_synthetic(10, 60, 4, seed=seed, noise_sigma=0.5)
            means = []
            for k in (2, 5, 10):
                parts = partition(
                    data, 8, mode="noniid", classes_per_client=k, seed=seed
                )
                oracle = SimilarityOracle(range(8), 10)
                for p in parts:
                    oracle.submit(
                        ClassCountSubmission(
                            client_id=p.client_id,
                            counts=tuple(int(x) for x in p.class_counts),
                        )
                    )
                values = oracle.compute_matrix().values
                means.append(values[np.triu_indices(8, k=1)].mean())
            assert means[0] > means[1] > means[2]

    def test_full_class_draw_approaches_global_mix(self):
        # k equal to the class count is statistically IID: with 1000+
        # samples per client every pairwise distance collapses below 0.1.
        data = generate_synthetic(4, 1300, 3, seed=7, noise_sigma=0.5)
        parts = partition(data, 4, mode="noniid", classes_per_client=4, seed=7)
        oracle = SimilarityOracle(range(4), 4)
        for p in parts:
            assert len(p.sample_indices) >= 1000
            oracle.submit(
                ClassCountSubmission(
                    client_id=p.client_id,
                    counts=tuple(int(x) for x in p.class_counts),
                )
            )
        values = oracle.compute_matrix().values
        off_diagonal = values[np.triu_indices(4, k=1)]
        assert float(off_diagonal.max()) < 0.1
