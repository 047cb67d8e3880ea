"""Release acceptance checks.

Each test here covers one numbered criterion from the package's release
checklist, end to end and at full scale. Run with ``pytest -v`` to get one
pass/fail line per criterion. The experiment-level checks (6 through 11)
share three fixed seeds and a 10-class synthetic dataset with 1,000 samples
per class; the 2,000-sample test split keeps accuracy noise near one
percent so the thresholds below are meaningful.
"""

import math
import time

import numpy as np
import pytest

from fedsim.config import parse_config
from fedsim.engine import (
    BatchCursor,
    DeadlineDrop,
    FedAvg,
    FedProx,
    FreezeOffload,
    Tifl,
    aggregate_fedavg,
    aggregate_fednova,
    build_state,
    run_experiment,
    run_round,
)
from fedsim.model import Batch, backward_full, forward, init_model
from fedsim.profiling import ClientProfile, PhaseTimings
from fedsim.scheduling import build_schedule, find_offload_point

from distance_table import DistanceTable
from reference import cross_entropy, histogram_distance, member_rows

SEEDS = (5, 8, 12)


def experiment_config(mode="noniid", classes_per_client=3):
    partition = {"mode": mode}
    if mode == "noniid":
        partition["classes_per_client"] = classes_per_client
    return parse_config({
        "dataset": {"num_classes": 10, "samples_per_class": 1000,
                    "input_dim": 8, "noise_sigma": 0.8},
        "partition": partition,
        "clients": {"count": 24, "per_round": 3,
                    "speed_low": 0.1, "speed_high": 1.0},
        "training": {"rounds": 100, "local_updates": 16, "batch_size": 32,
                     "learning_rate": 0.05, "hidden_dim": 32},
    })


def mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs)


@pytest.fixture(scope="module")
def headline_runs():
    """Criterion 6 experiment: four strategies on non-IID(3), three seeds."""
    cfg = experiment_config()
    strategies = {
        "fedavg": FedAvg(),
        "freeze_offload": FreezeOffload(similarity_factor=1.0),
        "tifl": Tifl(num_tiers=3),
        "deadline": DeadlineDrop(multiplier=1.0),
    }
    results, walls = {}, {}
    for seed in SEEDS:
        start = time.perf_counter()
        for name, strategy in strategies.items():
            results[name, seed] = run_experiment(cfg, strategy, seed)
        walls[seed] = time.perf_counter() - start
    return results, walls


@pytest.fixture(scope="module")
def factor_sweep_runs():
    """Criterion 9 experiment: similarity factor sweep on non-IID(2)."""
    cfg = experiment_config(classes_per_client=2)
    return {
        (f, seed): run_experiment(cfg, FreezeOffload(similarity_factor=f), seed)
        for f in (0.0, 1.0, 5.0)
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def partition_sweep_runs(factor_sweep_runs):
    """Criterion 10 experiment: same budget, three partition regimes."""
    runs = {}
    for label, mode, k in [("iid", "iid", None), ("noniid5", "noniid", 5)]:
        cfg = experiment_config(mode=mode, classes_per_client=k)
        for seed in SEEDS:
            runs[label, seed] = run_experiment(
                cfg, FreezeOffload(similarity_factor=1.0), seed
            )
    for seed in SEEDS:
        runs["noniid2", seed] = factor_sweep_runs[1.0, seed]
    return runs


def test_criterion_01_offload_point_matches_brute_force():
    # The scanned cost is the max of two lines in d, hence convex, so the
    # early exit must agree with exhaustive search on cost and point. Ties
    # on a flat stretch resolve to the last minimizer in both.
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(1000):
        t_a = float(rng.uniform(1e-6, 10.0))
        t_b = float(rng.uniform(1e-6, 10.0))
        x_b = float(rng.uniform(1e-6, 10.0))
        r_a = int(rng.integers(1, 201))
        r_b = int(rng.integers(1, 201))
        got_cost, got_d = find_offload_point(t_a, t_b, x_b, r_a, r_b)
        best, best_d = math.inf, 0
        costs = []
        for d in range(1, min(r_a, r_b) + 1):
            c = max((r_a - d) * t_a + d * x_b, (r_b - d) * t_b)
            costs.append(c)
            if c <= best:
                best, best_d = c, d
        assert got_cost == best
        assert got_d == best_d
        # Local-minimum property, meaningful if a non-convex cost ever
        # sneaks in through a future edit.
        i = got_d - 1
        if i > 0:
            assert costs[i] <= costs[i - 1]
        if i + 1 < len(costs):
            assert costs[i] <= costs[i + 1]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 1: PASS (1000 instances exact, {elapsed:.2f}s)")


def test_criterion_02_schedule_invariants_and_f0_invariance():
    rng = np.random.default_rng(2002)
    start = time.perf_counter()

    def random_profiles(n):
        profiles = []
        for cid in range(n):
            full = float(rng.uniform(0.1, 10.0))
            profiles.append(ClientProfile(
                client_id=cid,
                timings=PhaseTimings(ff=0.15 * full, fc=0.05 * full,
                                     bc=0.15 * full, bf=0.65 * full),
                remaining_updates=int(rng.integers(1, 201)),
            ))
        return profiles

    def random_similarity(n):
        values = rng.uniform(0.0, 2.0, size=(n, n))
        values = (values + values.T) / 2.0
        np.fill_diagonal(values, 0.0)
        return DistanceTable(values=values, client_ids=tuple(range(n)))

    for trial in range(500):
        n = int(rng.integers(2, 49))
        profiles = random_profiles(n)
        factor = float(rng.choice([0.0, 0.5, 1.0, 5.0]))
        schedule = build_schedule(profiles, random_similarity(n), factor)

        sending, receiving = set(schedule.sending_ids), set(schedule.receiving_ids)
        assert not sending & receiving
        assert sending | receiving == set(range(n))
        by_id = {p.client_id: p for p in profiles}
        seen_strong, seen_weak = set(), set()
        for a in schedule.assignments:
            assert a.weak_client_id in sending
            assert a.strong_client_id in receiving
            assert a.strong_client_id not in seen_strong
            assert a.weak_client_id not in seen_weak
            seen_strong.add(a.strong_client_id)
            seen_weak.add(a.weak_client_id)
            bound = min(by_id[a.weak_client_id].remaining_updates,
                        by_id[a.strong_client_id].remaining_updates)
            assert 1 <= a.offload_point <= bound
            assert a.estimated_completion > 0.0
        if trial % 5 == 0:
            base = build_schedule(profiles, random_similarity(n), 0.0)
            other = build_schedule(profiles, random_similarity(n), 0.0)
            assert base.assignments == other.assignments
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 2: PASS (500 schedules, {elapsed:.2f}s)")


def test_criterion_03_gradients_match_finite_differences():
    def rebuild(flat, template):
        shapes = [a.shape for a in template.arrays()]
        sizes = [int(np.prod(s)) for s in shapes]
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        from fedsim.model import PartitionedModel

        return PartitionedModel(
            *[p.reshape(s) for p, s in zip(parts, shapes)],
            num_classes=template.num_classes,
        )

    worst = 0.0
    eps = 1e-5
    for pair in range(50):
        rng = np.random.default_rng(3000 + pair)
        model = init_model(5, 4, 3, seed=3000 + pair)
        batch = Batch(
            inputs=rng.standard_normal((8, 5)),
            labels=rng.integers(0, 3, size=8),
        )
        grads = backward_full(model, batch)
        analytic = np.concatenate([
            grads.feature_weights.ravel(),
            grads.feature_bias.ravel(),
            grads.classifier_weights.ravel(),
            grads.classifier_bias.ravel(),
        ])
        flat = np.concatenate([a.ravel() for a in model.arrays()])
        for i in range(flat.shape[0]):
            up, down = flat.copy(), flat.copy()
            up[i] += eps
            down[i] -= eps
            _, p_up = forward(rebuild(up, model), batch)
            _, p_down = forward(rebuild(down, model), batch)
            numeric = (
                cross_entropy(p_up, batch.labels)
                - cross_entropy(p_down, batch.labels)
            ) / (2 * eps)
            rel = abs(numeric - analytic[i]) / max(abs(numeric), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4
    print(f"criterion 3: PASS (50 pairs, max relative error {worst:.2e})")


def test_criterion_04_aggregation_equivalences():
    rng = np.random.default_rng(4004)
    models = [init_model(6, 5, 4, seed=40 + i) for i in range(5)]
    weights = [float(w) for w in rng.uniform(1.0, 50.0, size=5)]

    merged = aggregate_fedavg(models[0], member_rows(models), weights)
    total = sum(weights)
    for pos, arr in enumerate(merged.arrays()):
        oracle = sum((w / total) * m.arrays()[pos] for m, w in zip(models, weights))
        assert np.allclose(arr, oracle, rtol=0.0, atol=1e-14)

    base = init_model(6, 5, 4, seed=99)
    nova = aggregate_fednova(base, member_rows(models), weights, [11] * 5)
    for a, b in zip(nova.arrays(), merged.arrays()):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)

    cfg = parse_config({
        "dataset": {"num_classes": 4, "samples_per_class": 60, "input_dim": 4},
        "clients": {"count": 8, "per_round": 3},
        "training": {"rounds": 10, "local_updates": 8, "batch_size": 8,
                     "hidden_dim": 8},
    })
    avg_state = build_state(cfg, FedAvg(), seed=7)
    prox_state = build_state(cfg, FedProx(mu=0.0), seed=7)
    for r in range(10):
        ta = run_round(avg_state, r)
        tp = run_round(prox_state, r)
        assert ta.duration == tp.duration
        assert ta.accuracy == tp.accuracy
        for a, b in zip(avg_state.global_model.arrays(),
                        prox_state.global_model.arrays()):
            assert np.array_equal(a, b)
    print("criterion 4: PASS (fedavg oracle, fednova uniform steps,"
          " fedprox mu=0 bitwise over 10 rounds)")


def test_criterion_05_distance_properties_exact():
    # The float distance is checked against exact integer arithmetic on the
    # cross-multiplied form, so every property below is verified without
    # any floating-point tolerance.
    rng = np.random.default_rng(5005)

    def exact_l1(a, b):
        # sum |a_i/A - b_i/B| == sum |a_i*B - b_i*A| / (A*B), all in ints.
        big_a, big_b = int(a.sum()), int(b.sum())
        num = sum(abs(int(x) * big_b - int(y) * big_a) for x, y in zip(a, b))
        return num, big_a * big_b

    for _ in range(1000):
        c = int(rng.integers(2, 13))
        a = rng.integers(0, 101, size=c)
        b = rng.integers(0, 101, size=c)
        e = rng.integers(0, 101, size=c)
        for v in (a, b, e):
            if v.sum() == 0:
                v[int(rng.integers(0, c))] = 1

        d_ab = histogram_distance(a, b)
        assert histogram_distance(b, a) == d_ab
        assert histogram_distance(a, a) == 0.0
        scale = int(rng.integers(2, 1000))
        assert histogram_distance(a * scale, b) == d_ab

        num, den = exact_l1(a, b)
        assert 0 <= num <= 2 * den
        assert d_ab == pytest.approx(num / den, rel=0.0, abs=1e-12)

        num_ae, den_ae = exact_l1(a, e)
        num_be, den_be = exact_l1(b, e)
        # Triangle inequality on the common denominator A*B*E, exact.
        big_e = int(e.sum())
        lhs = num * big_e
        rhs = num_ae * int(b.sum()) + num_be * int(a.sum())
        assert lhs <= rhs
    print("criterion 5: PASS (1000 vector sets, integer-exact)")


def test_criterion_06_headline_time_reduction(headline_runs):
    results, walls = headline_runs
    reductions = []
    for seed in SEEDS:
        freeze = results["freeze_offload", seed].summary.total_time
        fedavg = results["fedavg", seed].summary.total_time
        tifl = results["tifl", seed].summary.total_time
        reduction = 100.0 * (1.0 - freeze / fedavg)
        reductions.append(reduction)
        assert reduction >= 15.0, f"seed {seed}: only {reduction:.1f}% vs fedavg"
        assert freeze < tifl, f"seed {seed}: {freeze:.1f} not below tifl {tifl:.1f}"
        assert walls[seed] < 120.0
    formatted = "/".join(f"{r:.1f}" for r in reductions)
    print(f"criterion 6: PASS (reductions {formatted}% on seeds {SEEDS},"
          f" all below tifl)")


def test_criterion_07_round_duration_shift(headline_runs):
    results, _ = headline_runs
    medians = []
    for seed in SEEDS:
        freeze = float(np.median(
            [t.duration for t in results["freeze_offload", seed].traces]
        ))
        fedavg = float(np.median(
            [t.duration for t in results["fedavg", seed].traces]
        ))
        medians.append((freeze, fedavg))
        assert freeze < fedavg, f"seed {seed}: median {freeze:.2f} >= {fedavg:.2f}"
    formatted = ", ".join(f"{a:.1f}<{b:.1f}" for a, b in medians)
    print(f"criterion 7: PASS (median durations {formatted})")


def test_criterion_08_deadline_degrades_accuracy(headline_runs):
    results, _ = headline_runs
    gaps = []
    for seed in SEEDS:
        fedavg = results["fedavg", seed].summary
        deadline = results["deadline", seed].summary
        gaps.append(fedavg.final_accuracy - deadline.final_accuracy)
        assert deadline.total_time < fedavg.total_time
    gap = mean(gaps)
    assert gap >= 0.03, f"mean accuracy gap {gap:.4f} below 0.03"
    print(f"criterion 8: PASS (mean accuracy gap {gap:.4f}, time lower on"
          f" every seed)")


def test_criterion_09_similarity_factor_tradeoff(factor_sweep_runs):
    for seed in SEEDS:
        durations = [
            factor_sweep_runs[f, seed].summary.mean_round_duration
            for f in (0.0, 1.0, 5.0)
        ]
        assert durations[0] <= durations[1] <= durations[2], (
            f"seed {seed}: durations {durations} not non-decreasing in f"
        )
    acc = {
        f: mean(factor_sweep_runs[f, seed].summary.final_accuracy
                for seed in SEEDS)
        for f in (0.0, 1.0, 5.0)
    }
    assert acc[1.0] >= acc[0.0]
    assert acc[5.0] >= acc[0.0]
    print(f"criterion 9: PASS (durations rise with f on every seed; accuracy"
          f" {acc[0.0]:.4f} -> {acc[1.0]:.4f}/{acc[5.0]:.4f})")


def test_criterion_10_noniid_accuracy_ordering(partition_sweep_runs):
    accs = {
        label: mean(partition_sweep_runs[label, seed].summary.final_accuracy
                    for seed in SEEDS)
        for label in ("iid", "noniid5", "noniid2")
    }
    assert accs["iid"] > accs["noniid5"] > accs["noniid2"], accs
    print(f"criterion 10: PASS (accuracy {accs['iid']:.4f} >"
          f" {accs['noniid5']:.4f} > {accs['noniid2']:.4f})")


def test_criterion_11_byte_identical_traces(headline_runs, tmp_path):
    from fedsim.cli import write_trace

    results, _ = headline_runs
    cfg = experiment_config()
    seed = SEEDS[0]
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for name, strategy in [("fedavg", FedAvg()),
                           ("freeze_offload", FreezeOffload(similarity_factor=1.0))]:
        path_a = write_trace(str(first), results[name, seed])
        rerun = run_experiment(cfg, strategy, seed)
        path_b = write_trace(str(second), rerun)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read()
    print(f"criterion 11: PASS (reruns byte-identical on seed {seed})")
