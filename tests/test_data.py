"""Tests for synthetic data generation and client partitioning."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim import data as data_module
from fedsim.data import (
    PartitionError,
    _largest_remainder,
    class_means,
    client_quotas,
    generate_synthetic,
    partition,
)
from fedsim.seeding import TAG_PARTITION, spawn_rng


KEYS = st.integers(0, 2**41) | st.sampled_from([0, 2**32 - 1, 2**32, 2**40])


@settings(max_examples=200, deadline=None)
@given(st.lists(KEYS, min_size=1, max_size=5))
def test_spawn_rng_streams_match_seeding_by_key_list(keys):
    # spawn_rng hands small keys to SeedSequence as one uint32 array; the
    # stream must be the one the list of keys seeds.
    expected = np.random.default_rng(np.random.SeedSequence(keys))
    assert spawn_rng(*keys).bit_generator.state == expected.bit_generator.state


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(
        num_classes=5, samples_per_class=40, input_dim=6, seed=3, noise_sigma=0.5
    )


class TestGenerate:
    def test_shapes_and_split(self, dataset):
        assert dataset.inputs.shape == (200, 6)
        assert dataset.labels.shape == (200,)
        assert dataset.train_indices.shape[0] == 160
        assert dataset.test_indices.shape[0] == 40
        together = np.concatenate([dataset.train_indices, dataset.test_indices])
        assert np.array_equal(np.sort(together), np.arange(200))

    def test_deterministic(self):
        a = generate_synthetic(4, 10, 3, seed=5)
        b = generate_synthetic(4, 10, 3, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.train_indices, b.train_indices)

    def test_seed_changes_noise(self):
        a = generate_synthetic(4, 10, 3, seed=5)
        b = generate_synthetic(4, 10, 3, seed=6)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_zero_noise_sits_on_class_means(self):
        data = generate_synthetic(4, 6, 3, seed=1, noise_sigma=0.0)
        means = class_means(4, 3)
        assert np.array_equal(data.inputs, means[data.labels])

    def test_zero_noise_is_nearest_mean_separable(self):
        # With no noise every sample equals its class mean exactly, so the
        # nearest-mean rule must score 100%.
        data = generate_synthetic(6, 8, 4, seed=2, noise_sigma=0.0)
        means = class_means(6, 4)
        dists = np.linalg.norm(data.inputs[:, None, :] - means[None, :, :], axis=2)
        assert np.array_equal(np.argmin(dists, axis=1), data.labels)

    def test_class_means_distinct(self):
        for c, d in [(2, 1), (5, 2), (10, 8), (9, 2)]:
            means = class_means(c, d)
            assert means.shape == (c, d)
            assert np.unique(means, axis=0).shape[0] == c

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 10, 3, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(3, 10, 3, seed=0, noise_sigma=-0.1)


class TestIidPartition:
    def test_disjoint_and_complete(self, dataset):
        parts = partition(dataset, 8, mode="iid", seed=0)
        all_idx = np.concatenate([p.sample_indices for p in parts])
        assert np.array_equal(np.sort(all_idx), dataset.train_indices)
        assert all_idx.shape[0] == np.unique(all_idx).shape[0]

    def test_counts_match_labels(self, dataset):
        parts = partition(dataset, 8, mode="iid", seed=0)
        for p in parts:
            counts = np.bincount(dataset.labels[p.sample_indices], minlength=5)
            assert np.array_equal(counts, p.class_counts)

    def test_roughly_stratified(self, dataset):
        # 160 train samples over 4 clients: each client should hold close to
        # a quarter of every class.
        parts = partition(dataset, 4, mode="iid", seed=0)
        for p in parts:
            for c in range(5):
                share = dataset.train_indices[
                    dataset.labels[dataset.train_indices] == c
                ].shape[0] / 4
                assert abs(p.class_counts[c] - share) <= 1

    def test_proportional_sizes(self, dataset):
        parts = partition(dataset, 4, mode="iid", sizes=[4, 2, 1, 1], seed=0)
        sizes = [p.size for p in parts]
        assert sum(sizes) == 160
        assert sizes[0] == pytest.approx(80, abs=5)
        assert sizes[1] == pytest.approx(40, abs=5)

    def test_deterministic(self, dataset):
        a = partition(dataset, 6, mode="iid", seed=4)
        b = partition(dataset, 6, mode="iid", seed=4)
        for x, y in zip(a, b):
            assert np.array_equal(x.sample_indices, y.sample_indices)

    @pytest.mark.parametrize("seed", range(8))
    def test_every_client_gets_a_sample_from_tiny_class_pools(self, seed):
        # 8 training samples in 5 classes over 6 clients: dealing each class
        # on its own can round a client down to nothing.
        tiny = generate_synthetic(num_classes=5, samples_per_class=2, input_dim=2, seed=seed)
        parts = partition(tiny, 6, mode="iid", seed=seed)
        assert min(p.size for p in parts) >= 1
        all_idx = np.concatenate([p.sample_indices for p in parts])
        assert np.array_equal(np.sort(all_idx), tiny.train_indices)

    @pytest.mark.parametrize("clients, sizes", [(4, "equal"), (6, "equal"), (5, [4, 1, 1, 2, 9])])
    def test_per_class_deal_unchanged_when_no_client_is_empty(self, dataset, clients, sizes):
        # Reference: the deal without the empty-client repair.
        rng = spawn_rng(7, TAG_PARTITION)
        weights = [float(q) for q in client_quotas(160, clients, sizes)]
        train_labels = dataset.labels[dataset.train_indices]
        expected = [[] for _ in range(clients)]
        for c in range(dataset.num_classes):
            pool = rng.permutation(dataset.train_indices[train_labels == c])
            start = 0
            for cid, take in enumerate(_largest_remainder(weights, pool.shape[0])):
                expected[cid].extend(pool[start : start + take].tolist())
                start += take
        parts = partition(dataset, clients, mode="iid", sizes=sizes, seed=7)
        for part, want in zip(parts, expected, strict=True):
            assert part.sample_indices.tolist() == sorted(want)

    @settings(max_examples=150, deadline=None)
    @given(
        num_classes=st.integers(2, 6),
        samples_per_class=st.integers(1, 6),
        data=st.data(),
    )
    def test_empty_client_repair_matches_full_rescan(self, num_classes, samples_per_class, data):
        # Reference: the deal, then a repair that rescans every client for
        # each empty one and takes from the largest (the lowest id among
        # equals), as the partitioner first did.
        tiny = generate_synthetic(num_classes, samples_per_class, 2, seed=1)
        n_train = tiny.train_indices.shape[0]
        clients = data.draw(st.integers(1, n_train))
        sizes = data.draw(st.sampled_from(["equal", "weights"]))
        if sizes == "weights":
            sizes = data.draw(st.lists(st.integers(1, 9), min_size=clients, max_size=clients))
        seed = data.draw(st.integers(0, 50))
        quotas = client_quotas(n_train, clients, sizes)
        if min(quotas) < 1:
            with pytest.raises(PartitionError):
                partition(tiny, clients, mode="iid", sizes=sizes, seed=seed)
            return
        rng = spawn_rng(seed, TAG_PARTITION)
        weights = [float(q) for q in quotas]
        train_labels = tiny.labels[tiny.train_indices]
        expected = [[] for _ in range(clients)]
        for c in range(num_classes):
            pool = rng.permutation(tiny.train_indices[train_labels == c])
            start = 0
            for cid, take in enumerate(_largest_remainder(weights, pool.shape[0])):
                expected[cid].extend(pool[start : start + take].tolist())
                start += take
        for cid in range(clients):
            if not expected[cid]:
                donor = max(range(clients), key=lambda i: (len(expected[i]), -i))
                expected[cid].append(expected[donor].pop())
        parts = partition(tiny, clients, mode="iid", sizes=sizes, seed=seed)
        for part, want in zip(parts, expected, strict=True):
            assert part.sample_indices.tolist() == sorted(want)

    def test_partition_seed_independent_of_dataset(self, dataset):
        a = partition(dataset, 6, mode="iid", seed=4)
        b = partition(dataset, 6, mode="iid", seed=5)
        assert any(
            not np.array_equal(x.sample_indices, y.sample_indices)
            for x, y in zip(a, b)
        )


class TestLabelSkewPartition:
    def test_exactly_k_classes(self, dataset):
        for k in (1, 2, 3):
            parts = partition(
                dataset, 5, mode="noniid", classes_per_client=k, seed=1
            )
            for p in parts:
                assert np.count_nonzero(p.class_counts) == k

    def test_disjoint(self, dataset):
        parts = partition(dataset, 5, mode="noniid", classes_per_client=2, seed=1)
        all_idx = np.concatenate([p.sample_indices for p in parts])
        assert all_idx.shape[0] == np.unique(all_idx).shape[0]
        assert np.all(np.isin(all_idx, dataset.train_indices))

    def test_counts_match_labels(self, dataset):
        parts = partition(dataset, 5, mode="noniid", classes_per_client=2, seed=1)
        for p in parts:
            counts = np.bincount(dataset.labels[p.sample_indices], minlength=5)
            assert np.array_equal(counts, p.class_counts)

    def test_k_equal_to_num_classes_allowed(self, dataset):
        parts = partition(dataset, 4, mode="noniid", classes_per_client=5, seed=2)
        for p in parts:
            assert np.count_nonzero(p.class_counts) == 5

    def test_deterministic(self, dataset):
        a = partition(dataset, 5, mode="noniid", classes_per_client=2, seed=9)
        b = partition(dataset, 5, mode="noniid", classes_per_client=2, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.sample_indices, y.sample_indices)

    def test_many_clients_shortage_still_k_classes(self):
        # 20 clients drawing 3 classes from 4 stresses the shared-class
        # shortage path; the k-nonzero guarantee must survive.
        data = generate_synthetic(4, 50, 3, seed=7, noise_sigma=0.3)
        parts = partition(data, 20, mode="noniid", classes_per_client=3, seed=3)
        for p in parts:
            assert np.count_nonzero(p.class_counts) == 3

    @settings(max_examples=100, deadline=None)
    @given(
        num_classes=st.integers(2, 6),
        samples_per_class=st.integers(1, 30),
        data=st.data(),
    )
    @example(num_classes=4, samples_per_class=50, data=None)
    def test_deal_matches_one_sample_at_a_time(self, num_classes, samples_per_class, data):
        # Reference: the deal as first written, one sample per client and
        # sweep. The example is the shortage case above, where the demands
        # are scaled down before the deal.
        def one_at_a_time(pool, demand):
            shares = [[] for _ in demand]
            remaining, cursor = list(demand), 0
            while any(r > 0 for r in remaining):
                for pos in range(len(demand)):
                    if remaining[pos] > 0:
                        shares[pos].append(int(pool[cursor]))
                        cursor += 1
                        remaining[pos] -= 1
            return [np.asarray(share, dtype=np.int64) for share in shares]

        if data is None:
            source = generate_synthetic(4, 50, 3, seed=7, noise_sigma=0.3)
            clients, k, sizes, seed = 20, 3, "equal", 3
        else:
            source = generate_synthetic(num_classes, samples_per_class, 2, seed=1)
            n_train = source.train_indices.shape[0]
            k = data.draw(st.integers(1, num_classes))
            clients = data.draw(st.integers(1, max(1, n_train // k)))
            sizes = data.draw(st.sampled_from(["equal", "weights"]))
            if sizes == "weights":
                sizes = data.draw(st.lists(st.integers(1, 9), min_size=clients, max_size=clients))
            seed = data.draw(st.integers(0, 50))

        def run():
            try:
                return partition(source, clients, "noniid", k, sizes, seed)
            except PartitionError as exc:
                return str(exc)

        with mock.patch.object(data_module, "_deal_round_robin", one_at_a_time):
            expected = run()
        got = run()
        if isinstance(expected, str):
            assert got == expected
            return
        for part, want in zip(got, expected, strict=True):
            assert np.array_equal(part.sample_indices, want.sample_indices)
            assert np.array_equal(part.class_counts, want.class_counts)

    def test_requires_k(self, dataset):
        with pytest.raises(PartitionError):
            partition(dataset, 5, mode="noniid")

    def test_rejects_k_above_num_classes(self, dataset):
        with pytest.raises(PartitionError):
            partition(dataset, 5, mode="noniid", classes_per_client=6)


class TestValidation:
    def test_too_many_clients(self, dataset):
        with pytest.raises(PartitionError):
            partition(dataset, 161, mode="iid")

    def test_bad_mode(self, dataset):
        with pytest.raises(PartitionError):
            partition(dataset, 4, mode="dirichlet")

    def test_bad_sizes_length(self, dataset):
        with pytest.raises(PartitionError):
            partition(dataset, 4, mode="iid", sizes=[1, 2, 3])

    def test_nonpositive_weight(self, dataset):
        with pytest.raises(PartitionError):
            partition(dataset, 3, mode="iid", sizes=[1, 0, 2])

    def test_quota_below_k(self, dataset):
        # 160 samples over 80 clients leaves 2 per client, below k=3.
        with pytest.raises(PartitionError):
            partition(dataset, 80, mode="noniid", classes_per_client=3)

