"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json

import pytest

import run
from calibrate import NOMINAL_QUANTUM_S, RefClock
from tracer import TARGETS, Tracer, _resolve

fedsim = run.import_fedsim()

# Small enough to run in seconds; every strategy, so that every wrapper fires,
# and 2 replicates x 6 strategies x 10 rounds = 120 rounds for the p90.
TINY = {
    "default_seed": 5,
    "replicates": 2,
    "workloads": {
        "tiny": {
            "config": {
                "dataset": {"num_classes": 4, "samples_per_class": 60, "input_dim": 8, "noise_sigma": 0.3},
                "partition": {"mode": "noniid", "classes_per_client": 2},
                "clients": {"count": 12, "per_round": 4},
                "training": {"rounds": 10, "local_updates": 4, "batch_size": 8},
                "strategies": [
                    {"name": "fedavg"},
                    {"name": "fedprox", "mu": 0.01},
                    {"name": "fednova"},
                    {"name": "tifl", "tiers": 2},
                    {"name": "deadline", "multiplier": 1.0},
                    {"name": "freeze_offload", "similarity_factor": 1.0},
                ],
            },
            "cli": {"replicates": 2, "rounds": 10},
        }
    },
}


def _group(seed, tmp_path, tracer=None):
    doc = run.workload_doc(TINY["workloads"]["tiny"], seed, 1)
    tally = run.Tally()
    _, _, records = run.run_group(fedsim, doc, seed, "test", tally, tmp_path, run.RefClock(), tracer)
    assert not tally.failures
    return {k: r["digest"] for k, r in records.items()}


def test_wrappers_leave_outputs_byte_identical(tmp_path):
    originals = [vars(_resolve(owner))[attr] for owner, attr, _ in TARGETS]
    before = _group(5, tmp_path)
    tracer = Tracer()
    with tracer.installed():
        assert all(
            vars(_resolve(owner))[attr] is not original
            for (owner, attr, _), original in zip(TARGETS, originals)
        )
        traced = _group(5, tmp_path, tracer)
    after = _group(5, tmp_path)
    assert before == traced == after
    assert all(
        vars(_resolve(owner))[attr] is original
        for (owner, attr, _), original in zip(TARGETS, originals)
    )
    spans = tracer.summary()
    assert spans["engine.run_round"][0] == 6 * 10
    assert spans["engine.local_train"][2] <= spans["engine.local_train"][1]
    assert tracer.counts["engine.steps_wasted"] > 0  # deadline drops


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(x) for x in range(1, 101)]
    p90 = run.tail_percentile(samples, 0.9)
    assert p90 == 90.0
    assert sum(1 for x in samples if x > p90) >= run.TAIL_SAMPLES
    assert run.tail_percentile(list(reversed(samples)), 0.9) == p90
    with pytest.raises(ValueError):
        run.tail_percentile(samples[:99], 0.9)


def test_calibration_removes_quanta_and_rescales_to_the_nominal_quantum():
    clock = RefClock()
    q = 2 * NOMINAL_QUANTUM_S  # a host at half the nominal speed
    serial = clock.add(10.0, 11.0)
    pooled = clock.add(20.0, 21.0)
    clock.add_quanta([(10.0 + 0.1 * i, q, q, 1) for i in range(10)])
    clock.add_quanta([(20.0 + 0.1 * i, q, q, 2 + i % 2) for i in range(10)])
    assert clock.net(serial) == pytest.approx(1.0 - 10 * q)
    assert clock.seconds(serial) == pytest.approx((1.0 - 10 * q) / 2)
    # Two processes ran quanta side by side: half their host time is removed.
    assert clock.net(pooled) == pytest.approx(1.0 - 5 * q)
    # A span timed in CPU time loses the CPU time of its quanta.
    cpu = clock.add(10.0, 11.0, 0.8)
    assert clock.seconds(cpu) == pytest.approx((0.8 - 10 * q) / 2)
    # A span with no quanta near it uses the nearest ones.
    far = clock.add(40.0, 40.5)
    assert clock.seconds(far) == pytest.approx(0.5 / 2)


def test_corrupted_golden_fails_an_experiment_without_stopping(tmp_path):
    unchecked = dict(TINY, default_seed=None)
    recorded = run.run_workload(fedsim, unchecked, "tiny", 5, 0.0, False, {}, tmp_path)
    assert recorded["failed"] == 0
    golden = {"tiny": {"experiments": recorded["digests"], "cli": {"5": recorded["cli_files"]}}}

    clean = run.run_workload(fedsim, TINY, "tiny", 5, 0.0, False, golden, tmp_path)
    assert clean["failed"] == 0 and clean["failed_frac"] == 0

    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    corrupted = json.loads(path.read_text())
    corrupted["tiny"]["experiments"]["fednova/6"] = "0" * 64
    result = run.run_workload(fedsim, TINY, "tiny", 5, 0.0, False, corrupted, tmp_path)
    assert result["failed"] == 1
    assert result["failed_frac"] > 0
    assert list(result["failures"]) == ["cycle 2 fednova/6"]
    assert result["metrics"]["rounds_per_s"] > 0


def test_missing_golden_fails_only_on_the_default_seed(tmp_path):
    other = run.run_workload(fedsim, TINY, "tiny", 9, 0.0, False, {}, tmp_path)
    assert other["failed"] == 0
    default = run.run_workload(fedsim, TINY, "tiny", 5, 0.0, False, {}, tmp_path)
    assert default["failed"] > 0
