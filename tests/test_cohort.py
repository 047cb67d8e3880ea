"""Round planning and stacked cohort training.

The golden digests below were recorded before rounds were split into a
timing-only plan and a stacked executor; they pin traces and final models of
a small config under every strategy, so any change to the arithmetic or the
order of a round's steps shows up as a digest mismatch. Model bytes hold for
one numpy build, SIMD target and OpenBLAS kernel, so a mismatch's message
names the environment the digests were recorded in and the one it ran in.
"""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import engine
from fedsim import model as model_module
from fedsim.config import parse_config
from fedsim.errors import ConfigError
from fedsim.engine import (
    BatchCursor,
    CohortCursor,
    DeadlineDrop,
    FedAvg,
    FedNova,
    FedProx,
    FreezeOffload,
    Tifl,
    build_state,
    execute_offloaded,
    local_train,
    plan_round,
    run_experiment,
    run_experiments,
    run_round,
)
from fedsim.model import (
    Arena,
    Batch,
    DivergenceError,
    FeatureBlock,
    Gradients,
    PartitionedModel,
    ShapeError,
    Workspace,
    backward_frozen,
    backward_full,
    init_model,
    sgd_step,
    sgd_step_in_place,
    split,
)
from fedsim.seeding import TAG_BATCHES, TAG_PROFILE, TAG_SELECTION, spawn_rng

from reference import environment_note


def small_config(latency=None, **training):
    return parse_config(
        {
            "latency": latency or {},
            "dataset": {"num_classes": 4, "samples_per_class": 60, "input_dim": 4},
            "partition": {"mode": "noniid", "classes_per_client": 2},
            "clients": {"count": 10, "per_round": 5},
            "training": {
                "rounds": 4,
                "local_updates": 8,
                "batch_size": 8,
                "learning_rate": 0.05,
                "hidden_dim": 8,
                **training,
            },
        }
    )


def run_digest(config, strategy, seed):
    """sha256 over every trace field and the final global model's bytes."""
    state = build_state(config, strategy, seed)
    traces = [run_round(state, r) for r in range(config.training.rounds)]
    return trace_digest(traces, state.global_model)


def schedule_doc(plan):
    """The schedule as the digests were recorded, round index included."""
    if plan.schedule is None:
        return None
    return {**dataclasses.asdict(plan.schedule), "round_index": plan.round_index}


def record_docs(plan):
    """Each handoff as the audit row the digests were recorded with: the weak
    client's plan plus its assignment's offload point."""
    assignments = plan.schedule.assignments if plan.schedule else ()
    points = {a.weak_client_id: a.offload_point for a in assignments}
    return [
        {
            "weak_client_id": p.client_id,
            "strong_client_id": p.receiver,
            "offload_point": points[p.client_id],
            "full_batches": p.full_steps,
            "frozen_batches": p.frozen_steps,
            "offloaded_batches": p.frozen_steps,
            "handoff_time": p.handoff_time,
        }
        for p in plan.offload_records
    ]


def trace_digest(traces, model):
    h = hashlib.sha256()
    for t in traces:
        row = {
            "round": t.round_index,
            "duration": repr(t.duration),
            "accuracy": repr(t.accuracy),
            "selected": list(t.selected),
            "dropped": list(t.dropped),
            "completion": sorted([p.client_id, repr(p.completion)] for p in t.clients),
            "num_offloads": t.num_offloads,
            "schedule": schedule_doc(t),
            "records": record_docs(t),
        }
        h.update(json.dumps(row, sort_keys=True).encode())
    for a in model.arrays():
        h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return h.hexdigest()


GOLDEN = {
    "fedavg": "9b5d88e016668b80fac944ebdfd2874159bde48ea0bbf6e75553cc2e5213686c",
    "fedprox_mu0.01": "94d7db22b819402ec96e105ee2eadd765ef82dd125ce3653b3307c8fd6c6f405",
    "fednova": "ab8ee9a0ba773e270b234f202f68eb7643e39ccd8db1a649207df031acfc81b5",
    "tifl_t2": "c09f583e8e5a8f3e2ae4998a0c93ddfb53d412a5c94c0efbbc46e41d06b64ec9",
    "deadline_m1": "123a5ee070742a11cf26c9fec2f8df5ba92b8875e01a8aa77584eb3d4c4cd9bf",
    "freeze_offload_f1": "b099af4b829da81e3742b07aa516b8d28ccf69ce4138a019690afc70c3a412ce",
}
# freeze_offload with transfer latency, noisy two-batch profiles and a slow
# dispatch: at 6 s some weak clients have passed their offload point when the
# schedule arrives; at 40 s most have finished and their offloads are skipped.
GOLDEN_LATENCY = {
    6.0: "41fc5d623979449569e0257475a8795a8c9e1fb1578a5ae9eeb651b30887849c",
    40.0: "eecf7ffc3696aee05a5fcc83e2b119c3b55552d1f654b2a7b543ad07ddeb0455",
}

# freeze_offload at a larger scale: 40 of 200 clients per round, with a slow
# dispatch and noisy profiles, gives 8-14 offloads per round and four or five
# distinct step counts in each phase, with partitions smaller than a batch.
GOLDEN_COHORT_40 = "3b7fd70615fc92c93048dd4db6f41dea8c31edb6076cccddffb6ab5143973dc6"
COHORT_40_STRATEGY = FreezeOffload(profile_batches=2, profile_noise_sigma=0.2)


def cohort_40_config():
    return parse_config(
        {
            "latency": {"dispatch": 3.0, "transfer": 1.0},
            "dataset": {"num_classes": 4, "samples_per_class": 300, "input_dim": 4},
            "partition": {"mode": "noniid", "classes_per_client": 2},
            "clients": {"count": 200, "per_round": 40},
            "training": {
                "rounds": 3,
                "local_updates": 12,
                "batch_size": 8,
                "learning_rate": 0.05,
                "hidden_dim": 8,
            },
        }
    )


STRATEGIES = [
    FedAvg(),
    FedProx(mu=0.01),
    FedNova(),
    Tifl(num_tiers=2),
    DeadlineDrop(multiplier=1.0),
    FreezeOffload(similarity_factor=1.0),
]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.label)
def test_golden_digest(strategy):
    digest = run_digest(small_config(), strategy, seed=3)
    assert digest == GOLDEN[strategy.label], environment_note()


@pytest.mark.parametrize("dispatch", sorted(GOLDEN_LATENCY))
def test_golden_digest_freeze_offload_with_latency(dispatch):
    config = small_config(latency={"dispatch": dispatch, "transfer": 2.0}, local_updates=12)
    strategy = FreezeOffload(profile_batches=2, profile_noise_sigma=0.2)
    assert run_digest(config, strategy, seed=4) == GOLDEN_LATENCY[dispatch], environment_note()


def test_golden_digest_freeze_offload_cohort_of_40():
    digest = run_digest(cohort_40_config(), COHORT_40_STRATEGY, seed=6)
    assert digest == GOLDEN_COHORT_40, environment_note()


# --------------------------------------------------------------------------
# Lanes trained in lockstep equal each lane alone
# --------------------------------------------------------------------------


def record_lockstep(monkeypatch):
    """Record, per `_lockstep` call, the lanes in its stack and their
    handoff steps, read from the block lengths."""
    calls = []
    original = engine._lockstep

    def recording(start, own, donated, *args):
        handoffs = {len(own[m]) - len(donated[m]) for m in donated}
        calls.append(({lane for lane, _ in own}, handoffs))
        return original(start, own, donated, *args)

    monkeypatch.setattr(engine, "_lockstep", recording)
    return calls


def assert_lanes_match_alone(config, tasks, results):
    assert [(r.strategy_label, r.seed) for r in results] == [(s.label, seed) for s, seed in tasks]
    for (strategy, seed), result in zip(tasks, results):
        alone = run_experiment(config, strategy, seed)
        assert trace_digest(result.traces, result.final_model) == trace_digest(
            alone.traces, alone.final_model
        )
        assert json.dumps(result.summary.to_dict()) == json.dumps(alone.summary.to_dict())


# Every strategy, FedProx at two mu values, so that the full phases train as
# one stack per mu.
LANE_STRATEGIES = [*STRATEGIES, FedProx(mu=0.5)]


def test_lockstep_lanes_match_each_lane_alone(monkeypatch):
    config = small_config()
    tasks = [(strategy, seed) for strategy in LANE_STRATEGIES for seed in (3, 4)]
    calls = record_lockstep(monkeypatch)
    results = run_experiments(config, tasks)
    # Each round, all 14 lanes train as one stack per FedProx mu.
    stacks = [lanes for lanes, _ in calls]
    assert stacks.count({0, 1, 4, 5, 6, 7, 8, 9, 10, 11}) == config.training.rounds
    assert stacks.count({2, 3}) == config.training.rounds  # mu 0.01
    assert stacks.count({12, 13}) == config.training.rounds  # mu 0.5
    monkeypatch.undo()
    assert_lanes_match_alone(config, tasks, results)
    # Seed 3 of each strategy is pinned by the golden digests, recorded
    # before lanes trained together.
    for (strategy, seed), result in zip(tasks, results):
        if seed == 3 and strategy.label in GOLDEN:
            digest = trace_digest(result.traces, result.final_model)
            assert digest == GOLDEN[strategy.label], environment_note()
    deadline = [r for (s, _), r in zip(tasks, results) if isinstance(s, DeadlineDrop)]
    assert all(any(t.dropped for t in r.traces) for r in deadline)


def test_lockstep_ragged_freeze_offload_lanes_match_each_lane_alone(monkeypatch):
    # The freeze_offload lanes, with their handoffs at ragged steps, train
    # in one stack with a FedAvg lane.
    config = cohort_40_config()
    tasks = [(COHORT_40_STRATEGY, 6), (FedAvg(), 6), (COHORT_40_STRATEGY, 7)]
    calls = record_lockstep(monkeypatch)
    results = run_experiments(config, tasks)
    # Each round: one stack of all three lanes, with several handoff steps.
    assert len(calls) == config.training.rounds
    assert all(lanes == {0, 1, 2} and len(steps) >= 3 for lanes, steps in calls)
    monkeypatch.undo()
    digest = trace_digest(results[0].traces, results[0].final_model)
    assert digest == GOLDEN_COHORT_40, environment_note()
    assert_lanes_match_alone(config, tasks, results)


def test_divergence_names_the_first_diverged_lane_in_task_order():
    config = small_config(learning_rate=1e308)
    # A deadline this tight drops every client, so its lane trains nothing
    # and cannot diverge; the next lane in task order is named.
    tasks = [(DeadlineDrop(multiplier=0.01), 3), (FedAvg(), 5), (FedAvg(), 4)]
    with pytest.raises(ConfigError, match=r"training: diverged in round 0 \(seed 5\): non-finite"):
        run_experiments(config, tasks)
    with pytest.raises(ConfigError, match=r"diverged in round 0 \(seed 4\)"):
        run_experiments(config, tasks[::-1])


# --------------------------------------------------------------------------
# Stacked training equals per-client training
# --------------------------------------------------------------------------

DATA_RNG = np.random.default_rng(11)
INPUTS = DATA_RNG.standard_normal((60, 4))
LABELS = DATA_RNG.integers(0, 3, size=60)
# Members with partitions smaller than, near and well above the batch size,
# so that some streams reshuffle inside a step and some between steps.
MEMBER_INDICES = [np.arange(0, 5), np.arange(5, 18), np.arange(18, 58), np.arange(58, 60)]


def member_cursors():
    return [
        BatchCursor(INPUTS, LABELS, idx, 8, np.random.default_rng(100 + k))
        for k, idx in enumerate(MEMBER_INDICES)
    ]


def draw_blocks(cursors, steps):
    """Each cursor's next `steps` batches as a (steps, batch_size) index block."""
    return [c._take(steps * 8).reshape(steps, 8) for c in cursors]


def member_models():
    return [init_model(4, 6, 3, seed=20 + k) for k in range(len(MEMBER_INDICES))]


def stack(models):
    """The models as one stack, laid out as one block, as training takes it."""
    arrays = [np.stack(parts) for parts in zip(*(m.arrays() for m in models))]
    return PartitionedModel(*arrays, num_classes=models[0].num_classes).copy()


def first_row(stacked):
    return PartitionedModel(*(a[0] for a in stacked.arrays()), num_classes=stacked.num_classes)


def train_alone(model, cursor, steps, lr, prox_mu=0.0, anchor=None):
    """`local_train` on `model` alone, as a stack of one, on the next
    `steps` batches of its own stream."""
    anchor = None if anchor is None else stack([anchor])
    cohort = CohortCursor(INPUTS, LABELS, draw_blocks([cursor], steps))
    return first_row(local_train(stack([model]), cohort, steps, lr, prox_mu, anchor))


def offload_alone(model, cursor, steps, lr):
    """`execute_offloaded` on `model`'s blocks alone, as a stack of one, on
    the next `steps` batches of the receiver's stream."""
    cohort = CohortCursor(INPUTS, LABELS, draw_blocks([cursor], steps))
    trained = execute_offloaded(*split(stack([model])), cohort, steps, lr)
    return FeatureBlock(trained.weights[0], trained.bias[0])


def assert_rows_equal(stacked_arrays, per_member):
    for k, member_arrays in enumerate(per_member):
        for a, b in zip(stacked_arrays, member_arrays):
            assert a[k].tobytes() == b.tobytes()


@pytest.mark.parametrize("prox_mu", [0.0, 0.01, 0.5], ids=lambda mu: f"full-{mu}")
def test_local_train_stacked_matches_per_client(prox_mu):
    anchor = init_model(4, 6, 3, seed=99) if prox_mu else None
    cursors = member_cursors()
    # Two calls on the same streams: the second starts where the first ended.
    reference = []
    for model, cursor in zip(member_models(), cursors):
        for steps in (5, 3):
            model = train_alone(model, cursor, steps, 0.1, prox_mu=prox_mu, anchor=anchor)
        reference.append(model.arrays())

    stacked = stack(member_models())
    cursors = member_cursors()
    for steps in (5, 3):
        stacked = local_train(
            stacked,
            CohortCursor(INPUTS, LABELS, draw_blocks(cursors, steps)),
            steps,
            0.1,
            prox_mu=prox_mu,
            anchor=None if anchor is None else stack([anchor] * len(cursors)),
        )
    assert_rows_equal(stacked.arrays(), reference)


def test_execute_offloaded_stacked_matches_per_client():
    reference = []
    for model, cursor in zip(member_models(), member_cursors()):
        trained = offload_alone(model, cursor, 6, 0.1)
        reference.append((trained.weights, trained.bias))

    feature, snapshot = split(stack(member_models()))
    trained = execute_offloaded(
        feature, snapshot, CohortCursor(INPUTS, LABELS, draw_blocks(member_cursors(), 6)), 6, 0.1
    )
    assert_rows_equal((trained.weights, trained.bias), reference)


def test_local_train_ragged_stack_matches_per_client():
    # One call trains members with 1, 3, 3 and 6 steps: each joins the
    # stack for its own last steps and comes out as trained alone.
    steps = [1, 3, 3, 6]
    anchor = init_model(4, 6, 3, seed=99)
    reference = []
    for model, cursor, n in zip(member_models(), member_cursors(), steps):
        model = train_alone(model, cursor, n, 0.1, prox_mu=0.01, anchor=anchor)
        reference.append(model.arrays())
    start = stack(member_models())
    before = [a.copy() for a in start.arrays()]
    blocks = [c._take(n * 8).reshape(n, 8) for c, n in zip(member_cursors(), steps)]
    anchors = stack([anchor] * len(steps))
    trained = local_train(
        start, CohortCursor(INPUTS, LABELS, blocks), max(steps), 0.1, prox_mu=0.01, anchor=anchors
    )
    assert_rows_equal(trained.arrays(), reference)
    # The model passed in is left as it was and shares nothing with the result.
    for a, b, c in zip(start.arrays(), before, trained.arrays()):
        assert a.tobytes() == b.tobytes()
        assert not np.shares_memory(a, c)


def test_local_train_with_handoffs_matches_each_clients_three_phases():
    # Weak members hand off at steps 4, 2 and 2 of 6. Alone, each trains its
    # full steps, then its classifier-only steps on its own stream, and its
    # donated block trains from the handoff on another stream. Stacked as
    # [donated rows][full row][weak rows], one call trains all of it.
    steps, handoffs = 6, [4, 2, 2]
    own = member_cursors()
    donors = [BatchCursor(INPUTS, LABELS, idx, 8, np.random.default_rng(200 + k))
              for k, idx in enumerate(MEMBER_INDICES[:3])]
    starts = member_models()
    expected = []
    for i, f in enumerate(handoffs):
        full = train_alone(starts[i], own[i], f, 0.1, prox_mu=0.01, anchor=starts[i])
        classifier = full
        for _ in range(steps - f):
            classifier = reference_step(classifier, own[i].next_batch(), 0.1, "frozen")
        feature = offload_alone(full, donors[i], steps - f, 0.1)
        expected.append((feature.weights, feature.bias, *classifier.arrays()[2:]))
    full_member = train_alone(starts[3], own[3], steps, 0.1, prox_mu=0.01, anchor=starts[3])

    own = member_cursors()
    donors = [BatchCursor(INPUTS, LABELS, idx, 8, np.random.default_rng(200 + k))
              for k, idx in enumerate(MEMBER_INDICES[:3])]
    blocks = [c._take((steps - f) * 8).reshape(steps - f, 8) for c, f in zip(donors, handoffs)]
    blocks += [own[k]._take(steps * 8).reshape(steps, 8) for k in (3, 0, 1, 2)]
    start = stack([starts[k] for k in (0, 1, 2, 3, 0, 1, 2)])
    cursor = CohortCursor(INPUTS, LABELS, blocks, len(handoffs))
    assert cursor.mode == (4, 4)
    trained = local_train(start, cursor, steps, 0.1, prox_mu=0.01, anchor=start)
    arrays = trained.arrays()
    assert_rows_equal(arrays, [()] * 3 + [full_member.arrays()])
    for i, want in enumerate(expected):
        got = (arrays[0][i], arrays[1][i], arrays[2][4 + i], arrays[3][4 + i])
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_cohort_cursor_rejects_handoffs_without_their_rows():
    blocks = [np.zeros((n, 8), dtype=np.int64) for n in (2, 6, 6, 6)]
    CohortCursor(INPUTS, LABELS, blocks, 1)
    # Too many donated rows for the stack, and a row after the donated ones
    # that does not run every step.
    with pytest.raises(ValueError, match="handoff"):
        CohortCursor(INPUTS, LABELS, blocks, 3)
    with pytest.raises(ValueError, match="handoff"):
        CohortCursor(INPUTS, LABELS, blocks[:1] + blocks[:1] + blocks[1:], 1)


@pytest.mark.parametrize("size", [1, 5, 16, 40])
def test_cursor_take_matches_step_by_step_loop(size):
    # Reference: the stream as first written, one chunk of a pass at a time.
    def reference_takes(rng, indices, counts):
        order, pos = rng.permutation(indices), 0
        for n in counts:
            out = []
            while n > 0:
                if pos >= order.shape[0]:
                    order, pos = rng.permutation(indices), 0
                chunk = order[pos : pos + n]
                out.append(chunk)
                pos += chunk.shape[0]
                n -= chunk.shape[0]
            yield np.concatenate(out)

    indices = np.arange(10, 10 + size)
    counts = [int(n) for n in np.random.default_rng(size).integers(1, 3 * size + 2, size=60)]
    counts += [size, size, 2 * size, 1]
    cursor = BatchCursor(INPUTS, LABELS, indices, 8, np.random.default_rng(7))
    expected = reference_takes(np.random.default_rng(7), indices, counts)
    for n, want in zip(counts, expected):
        assert np.array_equal(cursor._take(n), want)


def test_cohort_cursor_serves_each_members_batches():
    # Members with 1, 2, 2 and 4 steps: each runs the last of the 4 steps,
    # and each step serves the members that have joined, as a suffix of the
    # stack.
    steps = [1, 2, 2, 4]
    plain = member_cursors()
    cohort = CohortCursor(
        INPUTS, LABELS, [c._take(n * 8).reshape(n, 8) for c, n in zip(member_cursors(), steps)]
    )
    assert cohort.mode == (4, 4)
    for step in range(4):
        batch = cohort.next_batch()
        running = [k for k, n in enumerate(steps) if n >= 4 - step]
        assert batch.inputs.shape == (len(running), 8, 4)
        for row, k in enumerate(running):
            expected = plain[k].next_batch()
            assert np.array_equal(batch.inputs[row], expected.inputs)
            assert np.array_equal(batch.labels[row], expected.labels)


@pytest.mark.parametrize("arena", [None, Arena()], ids=["new", "arena"])
def test_cohort_cursor_serves_each_rows_stream_with_handoffs(arena):
    # Donated rows that join at steps 4, 2 and 2 of 6, on their receivers'
    # streams, then a full row and three weak rows on their own streams.
    # Each step gathers only its own batch, so the cursor holds one step's
    # inputs whatever the step count; each batch row is what that row's own
    # stream serves at that step.
    steps, handoffs = 6, [4, 2, 2]

    def streams():
        donors = [BatchCursor(INPUTS, LABELS, idx, 8, np.random.default_rng(200 + k))
                  for k, idx in enumerate(MEMBER_INDICES[:3])]
        own = member_cursors()
        return donors + [own[k] for k in (3, 0, 1, 2)]

    counts = [steps - f for f in handoffs] + [steps] * 4
    blocks = [c._take(n * 8).reshape(n, 8) for c, n in zip(streams(), counts)]
    for _ in range(2):  # the second cursor reuses the arena's arrays
        cursor = CohortCursor(INPUTS, LABELS, blocks, len(handoffs), arena)
        assert cursor._inputs.shape == (len(blocks), 8, 4)
        plain = streams()
        for step in range(steps):
            batch = cursor.next_batch()
            running = [k for k, n in enumerate(counts) if n >= steps - step]
            assert batch.labels.shape == (len(running), 8)
            assert np.shares_memory(batch.inputs, cursor._inputs)
            for row, k in enumerate(running):
                expected = plain[k].next_batch()
                assert np.array_equal(batch.inputs[row], expected.inputs)
                assert np.array_equal(batch.labels[row], expected.labels)


@pytest.mark.parametrize("bad", [len(INPUTS), -1])
@pytest.mark.parametrize("arena", [None, Arena()], ids=["new", "arena"])
def test_cohort_cursor_rejects_samples_outside_the_data(bad, arena):
    # The gather writes into its arrays in numpy's `clip` mode, which would
    # clamp an index out of range; the cursor checks them first.
    blocks = [np.arange(16).reshape(2, 8), np.arange(16, 32).reshape(2, 8)]
    blocks[1][1, 3] = bad
    with pytest.raises(IndexError, match=f"sample index {bad} is out of bounds for 60 samples"):
        CohortCursor(INPUTS, LABELS, blocks, arena=arena)
    blocks[1][1, 3] = len(INPUTS) - 1
    batch = CohortCursor(INPUTS, LABELS, blocks, arena=arena).next_batch()
    assert np.array_equal(batch.inputs, INPUTS[np.stack([b[0] for b in blocks])])


def test_cohort_cursor_rejects_mixed_batch_sizes():
    blocks = [np.arange(16).reshape(2, 8), np.arange(8).reshape(2, 4)]
    with pytest.raises(ValueError, match="batch size"):
        CohortCursor(INPUTS, LABELS, blocks)
    with pytest.raises(ValueError, match="step count"):
        CohortCursor(INPUTS, LABELS, [np.arange(16).reshape(2, 8), np.arange(8).reshape(1, 8)])


def test_cohort_cursor_lays_blocks_out_with_no_copy_of_them():
    # Each run of rows that join at one step is copied straight into the
    # index block; the cursor makes no copy of the blocks on the way.
    rng = np.random.default_rng(0)
    steps = [40] * 15 + [60] * 15 + [100] * 230
    blocks = [rng.integers(0, len(LABELS), (n, 8)) for n in steps]
    size = sum(b.nbytes for b in blocks)
    arena = Arena()
    CohortCursor(INPUTS, LABELS, blocks, 30, arena)
    tracemalloc.start()
    try:
        cursor = CohortCursor(INPUTS, LABELS, blocks, 30, arena)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 20
    index = cursor._index
    for row, block in enumerate(blocks):
        assert np.array_equal(index[100 - len(block) :, row], block)
        assert not index[: 100 - len(block), row].any()


# --------------------------------------------------------------------------
# In-place steps equal the allocating reference
# --------------------------------------------------------------------------


def reference_step(model, batch, lr, mode, prox_mu=0.0, anchor=None):
    """One step through the allocating functions, as the engine took it before."""
    if mode == "frozen":
        return sgd_step(model, backward_frozen(model, batch), lr)
    grads = backward_full(model, batch)
    if mode == "feature":
        return PartitionedModel(
            model.feature_weights - lr * grads.feature_weights,
            model.feature_bias - lr * grads.feature_bias,
            model.classifier_weights,
            model.classifier_bias,
            model.num_classes,
        )
    if prox_mu != 0.0:
        raw = (grads.feature_weights, grads.feature_bias, grads.classifier_weights, grads.classifier_bias)
        grads = Gradients(
            *(g + prox_mu * (p - a) for g, p, a in zip(raw, model.arrays(), anchor.arrays()))
        )
    return sgd_step(model, grads, lr)


def pair(mode, rows):
    """The pair of row counts that takes `mode`'s step on every row of a
    stack of `rows`, for `sgd_step_in_place`."""
    return (rows * (mode != "frozen"), rows * (mode != "feature"))


MODES = [("full", 0.0), ("full", 0.01), ("frozen", 0.0), ("feature", 0.0)]
# The step sums over the classes as numpy sums a contiguous axis: one after
# another below 8, in blocks of 8 up to 128, by halves above.
CLASS_COUNTS = (2, 7, 8, 9, 10, 17, 130)


@pytest.mark.parametrize("mode, prox_mu", MODES)
@pytest.mark.parametrize("members", [1, 3, 32, 100])
def test_in_place_step_matches_reference_as_members_leave(mode, prox_mu, members):
    check_members_leave(mode, prox_mu, members, per_member_anchor=False)


@pytest.mark.parametrize("members", [3, 32, 100])
def test_in_place_step_with_one_anchor_per_member(members):
    # Lanes in lockstep pull each member toward its own lane's model.
    check_members_leave("full", 0.01, members, per_member_anchor=True)


def check_members_leave(mode, prox_mu, members, per_member_anchor):
    for classes in CLASS_COUNTS:
        check_members_leave_with(classes, mode, prox_mu, members, per_member_anchor)


def check_members_leave_with(classes, mode, prox_mu, members, per_member_anchor):
    # Batch 32 and hidden 32: at 32 members and up, each (K, batch, hidden)
    # buffer is 256 KB or more, past glibc's 128 KB mmap threshold.
    input_dim, hidden, batch = 8, 32, 32
    rng = np.random.default_rng(members)
    steps = np.sort(rng.integers(1, 6, size=members))
    steps[-1] = 6
    models = [init_model(input_dim, hidden, classes, seed=k) for k in range(members)]
    anchors = [init_model(input_dim, hidden, classes, seed=1000 + per_member_anchor * k)
               for k in range(members)]
    # Without one anchor per member, every row is pulled toward the same one.
    anchor = stack(anchors)
    inputs = rng.standard_normal((6, members, batch, input_dim))
    labels = rng.integers(0, classes, size=(6, members, batch))

    stacked = stack(models)
    workspace = Workspace(stacked, batch)
    left = {}
    for step in range(6):
        first = int(np.searchsorted(steps, step, side="right"))
        for k in range(first):
            left.setdefault(k, [a[k].copy() for a in stacked.arrays()])
        sgd_step_in_place(
            stacked,
            Batch(inputs[step, first:], labels[step, first:]),
            workspace,
            0.05,
            pair(mode, members),
            prox_mu,
            anchor,
        )
    for k, model in enumerate(models):
        for step in range(steps[k]):
            model = reference_step(
                model, Batch(inputs[step, k], labels[step, k]), 0.05, mode, prox_mu, anchors[k]
            )
        for a, b in zip(stacked.arrays(), model.arrays()):
            assert a[k].tobytes() == b.tobytes(), f"{classes} classes, member {k}"
        # A member that left kept its bytes while the rest trained on.
        for a, kept in zip(stacked.arrays(), left.get(k, ())):
            assert a[k].tobytes() == kept.tobytes()
    assert len(left) == int(np.sum(steps < 6))


@pytest.mark.parametrize("mode, prox_mu", MODES)
def test_in_place_step_matches_reference_on_a_lone_model(mode, prox_mu):
    # A lone model steps as a stack of one. Batch 9, so that dividing by the
    # batch size and multiplying by its inexact inverse would differ.
    for classes in CLASS_COUNTS:
        rng = np.random.default_rng(3)
        model = init_model(5, 7, classes, seed=8)
        anchor = init_model(5, 7, classes, seed=9)
        trained = stack([model])
        workspace = Workspace(trained, 9)
        for _ in range(4):
            batch = Batch(rng.standard_normal((9, 5)), rng.integers(0, classes, size=9))
            model = reference_step(model, batch, 0.1, mode, prox_mu, anchor)
            one = Batch(batch.inputs[None], batch.labels[None])
            sgd_step_in_place(trained, one, workspace, 0.1, pair(mode, 1), prox_mu, stack([anchor]))
        for a, b in zip(first_row(trained).arrays(), model.arrays()):
            assert a.tobytes() == b.tobytes(), f"{classes} classes"


@pytest.mark.parametrize(
    "rows, k, f, c",
    [
        (5, 5, 3, 3),
        (6, 4, 3, 2),
        (7, 5, 5, 4),
        (4, 4, 1, 4),
        (4, 4, 4, 1),
        (6, 5, 2, 2),
        (6, 4, 6, 6),
    ],
)
def test_in_place_step_moves_each_block_on_its_rows(rows, k, f, c):
    # One step runs the last k of the stack's rows: the first min(f, k) of
    # those move the feature block, the last min(c, k) the classifier, so
    # (6, 6) on 4 of 6 rows is a full step of the 4. Each row comes out
    # as its own mode's reference step: full (with the proximal pull) in
    # both ranges, feature or frozen in one, unmoved in neither.
    for classes in CLASS_COUNTS:
        check_block_rows(classes, rows, k, f, c)


def check_block_rows(classes, rows, k, f, c):
    rng = np.random.default_rng(100 * rows + 10 * k + f)
    models = [init_model(5, 7, classes, seed=r) for r in range(rows)]
    anchors = [init_model(5, 7, classes, seed=50 + r) for r in range(rows)]
    stacked = stack(models)
    batch = Batch(rng.standard_normal((k, 9, 5)), rng.integers(0, classes, size=(k, 9)))
    sgd_step_in_place(stacked, batch, Workspace(stacked, 9), 0.1, (f, c), 0.01, stack(anchors))
    modes = {(True, True): "full", (True, False): "feature", (False, True): "frozen"}
    for r, model in enumerate(models):
        i = r - (rows - k)
        mode = modes.get((0 <= i < f, i >= 0 and i >= k - c))
        if mode is not None:
            mu = 0.01 if mode == "full" else 0.0
            model = reference_step(
                model, Batch(batch.inputs[i], batch.labels[i]), 0.1, mode, mu, anchors[r]
            )
        for a, b in zip(stacked.arrays(), model.arrays()):
            assert a[r].tobytes() == b.tobytes(), f"{classes} classes, row {r}"


@pytest.mark.parametrize(
    "mode",
    [
        pytest.param((3, 3), id="full"),
        pytest.param((0, 3), id="frozen"),
        pytest.param((3, 0), id="feature"),
        pytest.param((5, 5), id="full-capped"),
    ],
)
def test_in_place_step_checks_every_member(mode):
    # The batch has 3 of the stack's 5 rows.
    rng = np.random.default_rng(5)
    stacked = stack([init_model(4, 6, 3, seed=k) for k in range(5)])
    before = [a.copy() for a in stacked.arrays()]
    workspace = Workspace(stacked, 8)
    inputs = rng.standard_normal((3, 8, 4))
    labels = rng.integers(0, 3, size=(3, 8))
    bad_labels = labels.copy()
    bad_labels[1, 4] = 3
    with pytest.raises(ValueError, match="labels must lie"):
        sgd_step_in_place(stacked, Batch(inputs, bad_labels), workspace, 0.1, mode)
    bad_inputs = inputs.copy()
    bad_inputs[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite gradient"):
        sgd_step_in_place(stacked, Batch(bad_inputs, labels), workspace, 0.1, mode)
    # Neither failed step moved a parameter of any member.
    for a, b in zip(stacked.arrays(), before):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError, match="negative row count"):
        sgd_step_in_place(stacked, Batch(inputs, labels), workspace, 0.1, (-1, 3))


@pytest.mark.parametrize("mode", ["full", "feature"])
def test_in_place_step_that_overflows_moves_nothing(mode):
    # The gradients are finite, but lr * g overflows in the feature block.
    # A stack laid out as one block takes the full step on the whole block.
    rng = np.random.default_rng(5)
    models = [init_model(4, 6, 3, seed=k) for k in range(3)]
    batch = Batch(100.0 * rng.standard_normal((3, 8, 4)), rng.integers(0, 3, size=(3, 8)))
    if mode == "full":
        # The reference step raises on the same step.
        with pytest.raises(DivergenceError, match="non-finite gradient values"):
            reference_step(models[1], Batch(batch.inputs[1], batch.labels[1]), 1.7e308, mode)
    for stacked in (stack(models), stack(models).copy()):
        before = [a.copy() for a in stacked.arrays()]
        workspace = Workspace(stacked, 8)
        with pytest.raises(DivergenceError, match="non-finite gradient values"):
            sgd_step_in_place(stacked, batch, workspace, 1.7e308, pair(mode, 3))
        for a, b in zip(stacked.arrays(), before):
            assert a.tobytes() == b.tobytes()


def test_training_takes_only_stacks():
    # A model trains alone as a stack of one. A lone model, a stack of
    # other rows than the workspace's or not laid out as one block, and an
    # anchor that is not such a stack are refused before anything moves.
    model = init_model(4, 6, 3, seed=0)
    rng = np.random.default_rng(0)
    batch = Batch(rng.standard_normal((1, 8, 4)), rng.integers(0, 3, size=(1, 8)))
    with pytest.raises(ShapeError, match="one stack"):
        Workspace(model, 8)
    workspace = Workspace(stack([model]), 8)
    for wrong in (model, stack([model, model])):
        with pytest.raises(ShapeError, match="stack of 1"):
            sgd_step_in_place(wrong, batch, workspace, 0.1, (1, 1))
    lone_batch = Batch(batch.inputs[0], batch.labels[0])
    with pytest.raises(ShapeError, match="labels of shape"):
        sgd_step_in_place(stack([model]), lone_batch, workspace, 0.1, (1, 1))
    with pytest.raises(ShapeError, match="anchor"):
        sgd_step_in_place(stack([model]), batch, workspace, 0.1, (1, 1), 0.01, model)
    stacked = stack([model])
    loose = PartitionedModel(*(a.copy() for a in stacked.arrays()), num_classes=3)
    for trained, prox_mu, anchor in [(loose, 0.0, None), (stacked, 0.01, loose)]:
        before = [a.copy() for a in trained.arrays()]
        with pytest.raises(ShapeError, match="one block"):
            sgd_step_in_place(trained, batch, workspace, 0.1, (1, 1), prox_mu, anchor)
        for a, b in zip(trained.arrays(), before):
            assert a.tobytes() == b.tobytes()
    with pytest.raises(ShapeError, match="one stack"):
        local_train(model, CohortCursor(INPUTS, LABELS, [np.arange(16).reshape(2, 8)]), 2, 0.1)


def test_workspace_rejects_batches_that_do_not_fit():
    stacked = stack([init_model(4, 6, 3, seed=k) for k in range(3)])
    workspace = Workspace(stacked, 8)
    rng = np.random.default_rng(0)
    for shape in [(4, 8), (3, 7), (8,)]:
        batch = Batch(rng.standard_normal((*shape, 4)), np.zeros(shape, dtype=np.int64))
        with pytest.raises(ShapeError):
            sgd_step_in_place(stacked, batch, workspace, 0.1, (3, 3))


SIGNED = [np.int64, np.int32, np.int8, ">i4"]


@pytest.mark.parametrize(
    "dtype, bad",
    [(t, -1) for t in SIGNED] + [(t, 3) for t in [*SIGNED, np.uint8, np.uint64]],
)
def test_a_label_out_of_range_moves_nothing(dtype, bad):
    # One max over the labels read as unsigned words finds a label below 0
    # or at num_classes (3), whatever the integer type, before any move.
    rng = np.random.default_rng(9)
    stacked = stack([init_model(4, 6, 3, seed=k) for k in range(3)])
    before = stacked.block.copy()
    workspace = Workspace(stacked, 8)
    labels = rng.integers(0, 3, size=(3, 8)).astype(dtype)
    labels[2, 5] = bad
    for mode in [(3, 3), (0, 3), (3, 0)]:
        with pytest.raises(ValueError, match=rf"labels must lie in \[0, 3\).*{bad}"):
            sgd_step_in_place(
                stacked, Batch(rng.standard_normal((3, 8, 4)), labels), workspace, 0.1, mode
            )
    assert stacked.block.tobytes() == before.tobytes()


@pytest.mark.parametrize("bad", [-1, 3])
def test_local_train_refuses_a_label_out_of_range_before_any_move(bad):
    # The first step's batch holds the bad label: the stack handed in and
    # the copy that trains in the arena both keep their bytes.
    labels = LABELS.copy()
    cursors = member_cursors()
    blocks = draw_blocks(cursors, 3)
    labels[blocks[1][0, 4]] = bad
    start = stack(member_models())
    before = start.block.copy()
    arena = Arena()
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
        local_train(start, CohortCursor(INPUTS, labels, blocks, arena=arena), 3, 0.1, arena=arena)
    assert start.block.tobytes() == before.tobytes()
    trained = arena.get("trained", (start.size,))
    assert trained.tobytes() == before.tobytes()


def test_a_workspace_trains_another_model_or_anchor_of_its_shape():
    # A step's program is valid for the model and the anchor it was built
    # for: the same workspace, handed a second stack or a second anchor of
    # the same shape, trains that one as the reference does and leaves the
    # other stack's bytes as they were.
    for classes in (2, 10, 130):
        rng = np.random.default_rng(classes)
        rows = 3
        models = {
            name: [init_model(5, 7, classes, seed=10 * i + r) for r in range(rows)]
            for i, name in enumerate("ab")
        }
        anchors = {
            name: [init_model(5, 7, classes, seed=100 + 10 * i + r) for r in range(rows)]
            for i, name in enumerate("AB")
        }
        stacks = {name: stack(ms) for name, ms in models.items()}
        anchor_stacks = {name: stack(ms) for name, ms in anchors.items()}
        workspace = Workspace(stacks["a"], 9)
        for name, anchor in [("a", "A"), ("b", "A"), ("b", "B"), ("a", "B"), ("a", "A")]:
            other = stacks["b" if name == "a" else "a"]
            kept = other.block.copy()
            batch = Batch(
                rng.standard_normal((rows, 9, 5)), rng.integers(0, classes, size=(rows, 9))
            )
            sgd_step_in_place(
                stacks[name], batch, workspace, 0.1, (rows, rows), 0.01, anchor_stacks[anchor]
            )
            assert other.block.tobytes() == kept.tobytes()
            models[name] = [
                reference_step(m, Batch(x, y), 0.1, "full", 0.01, a)
                for m, x, y, a in zip(models[name], batch.inputs, batch.labels, anchors[anchor])
            ]
            for r, m in enumerate(models[name]):
                for a, b in zip(stacks[name].arrays(), m.arrays()):
                    assert a[r].tobytes() == b.tobytes(), f"{classes} classes, {name} row {r}"


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_step_programs_serve_any_sequence_of_shapes(data):
    # One workspace steps a stack through a sequence of (k, mode) shapes and
    # back to an earlier one: each shape's program is built once and each
    # row comes out bitwise as its own sequence of reference steps.
    classes = data.draw(st.sampled_from(CLASS_COUNTS))
    n = data.draw(st.integers(1, 5))
    shape = st.tuples(st.integers(1, n), st.integers(0, n + 1), st.integers(0, n + 1))
    shapes = data.draw(st.lists(shape, min_size=1, max_size=6))
    shapes += [shapes[data.draw(st.integers(0, len(shapes) - 1))]]
    prox_mu = data.draw(st.sampled_from([0.0, 0.01]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    models = [init_model(5, 7, classes, seed=r) for r in range(n)]
    anchors = [init_model(5, 7, classes, seed=50 + r) for r in range(n)]
    stacked, anchor = stack(models), stack(anchors)
    workspace = Workspace(stacked, 9)
    modes = {(True, True): "full", (True, False): "feature", (False, True): "frozen"}
    for k, f, c in shapes:
        batch = Batch(rng.standard_normal((k, 9, 5)), rng.integers(0, classes, size=(k, 9)))
        sgd_step_in_place(stacked, batch, workspace, 0.1, (f, c), prox_mu, anchor)
        for r in range(n - k, n):
            i = r - (n - k)
            mode = modes.get((i < f, i >= k - c))
            if mode is not None:
                mu = prox_mu if mode == "full" else 0.0
                one = Batch(batch.inputs[i], batch.labels[i])
                models[r] = reference_step(models[r], one, 0.1, mode, mu, anchors[r])
    assert len(workspace._views) == len({(k, (f, c)) for k, f, c in shapes})
    for r, model in enumerate(models):
        for a, b in zip(stacked.arrays(), model.arrays()):
            assert a[r].tobytes() == b.tobytes(), f"{classes} classes, row {r}"


# --------------------------------------------------------------------------
# Round memory is kept across rounds, and nothing handed out lives in it
# --------------------------------------------------------------------------


def record_round_memory(monkeypatch):
    """Per `local_train` call: the cursor's gathered inputs, the stack it
    trains and the workspace's gradients, each as its flat array."""
    calls = []
    train, step = engine.local_train, engine.sgd_step_in_place

    def training(model, cursor, *args):
        calls.append({"batches": cursor._inputs})
        return train(model, cursor, *args)

    def stepping(model, batch, workspace, *args):
        gradients = workspace._buffers[7]
        calls[-1].update(stack=model.block, gradients=gradients.block)
        return step(model, batch, workspace, *args)

    monkeypatch.setattr(engine, "local_train", training)
    monkeypatch.setattr(engine, "sgd_step_in_place", stepping)
    return calls


def test_warm_rounds_of_a_lane_train_in_the_same_memory(monkeypatch):
    config = small_config(rounds=4)
    calls = record_round_memory(monkeypatch)
    state = build_state(config, FedAvg(), seed=3)
    assert state.arena is None  # made at the first round
    for r in range(3):
        run_round(state, r)
    for name in ("batches", "stack", "gradients"):
        assert np.shares_memory(calls[1][name], calls[2][name]), name
    # The config's last round lets the arena go.
    run_round(state, 3)
    assert state.arena is None
    # A run keeps one arena for all its rounds, and each stack of a round is
    # aggregated before the next trains: the FedAvg and the FedProx stack of
    # every round, here of one size, train in the same buffers.
    calls.clear()
    run_experiments(config, [(FedAvg(), 3), (FedProx(), 3)])
    assert len(calls) == 2 * config.training.rounds
    for name in ("batches", "stack", "gradients"):
        for call in calls[1:]:
            assert np.shares_memory(calls[0][name], call[name]), name


def test_only_the_index_block_grows_with_local_updates():
    # Only the index block holds a value per step; every other array of the
    # arena, the step's batch among them, is the same size at 4 and 32 local
    # updates.
    sizes = []
    for updates in (4, 32):
        state = build_state(small_config(local_updates=updates), FedAvg(), seed=3)
        run_round(state, 0)
        sizes.append({name: a.size for name, a in state.arena._arrays.items()})
    short, long = sizes
    assert set(short) == set(long)
    assert long.pop("index") == 8 * short.pop("index")
    assert short == long


def test_evaluation_runs_in_the_workspace_activations(monkeypatch):
    workspaces = []
    step = engine.sgd_step_in_place

    def stepping(model, batch, workspace, *args):
        workspaces.append(workspace)
        return step(model, batch, workspace, *args)

    monkeypatch.setattr(engine, "sgd_step_in_place", stepping)
    state = build_state(small_config(), FedAvg(), seed=3)
    run_round(state, 0)
    arena, arrays = state.arena, dict(state.arena._arrays)
    buffers = workspaces[-1]._buffers[:4]  # hidden, dhidden, logits, by_class
    assert all(np.shares_memory(b, arrays["activations"]) for b in buffers)
    passes = []
    forward_logits = engine.forward_logits

    def recording(model, batch, out=None):
        passes.append(out)
        return forward_logits(model, batch, out)

    monkeypatch.setattr(engine, "forward_logits", recording)
    accuracy = engine.evaluate_accuracy(state.global_model, state.dataset, arena)
    assert accuracy == engine.evaluate_accuracy(state.global_model, state.dataset)
    hidden, logits = passes[0]
    assert np.shares_memory(hidden, buffers[0])
    assert np.shares_memory(logits, arrays["activations"])
    # Evaluation maps nothing training has not.
    assert arena._arrays.keys() == arrays.keys()
    assert all(arena._arrays[name] is a for name, a in arrays.items())


@pytest.mark.parametrize("updates, nbytes", [(4, 22720), (64, 41920)])
def test_round_memory_estimate(monkeypatch, updates, nbytes):
    # 5 kept rows of 76 parameters and batches of 8 samples: per row four
    # models, and per sample an index for each step, one step's 4 inputs
    # and label, and the workspace's 2 x (8 hidden units + 4 classes).
    assert nbytes == 8 * 5 * (4 * 76 + 8 * (updates + 4 + 1 + 2 * (8 + 4)))
    estimates = []
    guard = engine.out_of_memory_as_config_error

    def recording(what, size):
        estimates.append((what, size))
        return guard(what, size)

    state = build_state(small_config(local_updates=updates), FedAvg(), seed=3)
    monkeypatch.setattr(engine, "out_of_memory_as_config_error", recording)
    run_round(state, 0)
    assert estimates == [
        (
            f"round 0's training: 5 stacked models of 76 parameters and {updates} batches"
            " of 8 samples",
            nbytes,
        )
    ]


def test_a_later_stacks_divergence_leaves_every_lane_as_it_was():
    # The mu-0 stack trains first and the FedProx stack diverges: no lane's
    # model may change before every stack of the round has trained.
    config = small_config()
    states = [build_state(config, FedAvg(), seed=3), build_state(config, FedProx(mu=1e308), seed=4)]
    before = states[0].global_model
    saved = [a.tobytes() for a in before.arrays()]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConfigError, match=r"diverged in round 0 \(seed 4\)"):
            engine._run_lanes(states, 0, engine._LaneData.of(states), Arena())
    assert states[0].global_model is before
    assert [a.tobytes() for a in before.arrays()] == saved


def test_members_gather_into_the_start_block(monkeypatch):
    # A lane's members are gathered into one (members, parameters) array on
    # the start stack's block, which the round already holds, so a warm
    # round maps nothing new.
    received = []
    for name in ("aggregate_fedavg", "aggregate_fednova"):
        original = getattr(engine, name)

        def recording(*args, original=original):
            received.append(args[1])
            return original(*args)

        monkeypatch.setattr(engine, name, recording)
    config = small_config()
    for strategy in (FedNova(), FreezeOffload()):
        state = build_state(config, strategy, seed=3)
        run_round(state, 0)
        arena, arrays = state.arena, dict(state.arena._arrays)
        run_round(state, 1)
        assert np.shares_memory(received[-1], arrays["start"])
        assert arena._arrays.keys() == arrays.keys()
        assert all(arena._arrays[name] is a for name, a in arrays.items())


class Watched(np.ndarray):
    """An array that records each ufunc applied to it, by name."""

    ufuncs: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        Watched.ufuncs.append(ufunc.__name__)
        inputs = [a.view(np.ndarray) if isinstance(a, Watched) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("strategy", [FedAvg(), FedNova(), FreezeOffload()], ids=lambda s: s.label)
def test_aggregation_makes_as_many_calls_for_any_cohort(monkeypatch, strategy):
    # A lane's aggregation makes the same C calls, whatever the number of
    # members (cohorts of 5 and 40), and reads the trained stack only
    # through them: no arithmetic runs on a member's rows of it.
    lockstep, aggregate = engine._lockstep, engine._aggregate
    calls = []

    def watching(*args):
        trained, rows = lockstep(*args)
        arrays = (a.view(Watched) for a in trained.arrays())
        return PartitionedModel(*arrays, num_classes=trained.num_classes), rows

    def recording(*args):
        names = []

        def profile(frame, event, arg):
            if event == "c_call":
                names.append(getattr(arg, "__qualname__", repr(arg)))

        sys.setprofile(profile)
        try:
            return aggregate(*args)
        finally:
            sys.setprofile(None)
            calls.append(names)

    monkeypatch.setattr(engine, "_lockstep", watching)
    monkeypatch.setattr(engine, "_aggregate", recording)
    Watched.ufuncs.clear()
    run_round(build_state(small_config(), strategy, seed=3), 0)
    run_round(build_state(cohort_40_config(), strategy, seed=6), 0)
    small, large = calls
    assert small.count("Watched.take") == 4
    assert small == large
    assert Watched.ufuncs == []


def test_a_round_opens_no_stream_one_by_one(monkeypatch):
    # The kept clients' batch streams and the selected clients' profile
    # streams are opened in one `spawn_rngs` pass per round.
    keys = []
    spawn = engine.spawn_rng

    def recording(*args):
        keys.append(args)
        return spawn(*args)

    monkeypatch.setattr(engine, "spawn_rng", recording)
    config = small_config()
    for strategy in [*STRATEGIES, FreezeOffload(profile_noise_sigma=0.2)]:
        state = build_state(config, strategy, seed=3)
        for r in range(config.training.rounds):
            run_round(state, r)
    tags = {k[1] for k in keys}
    assert TAG_SELECTION in tags
    assert not tags & {TAG_BATCHES, TAG_PROFILE}
    # Many lanes open a round's batch streams in one pass per seed, for
    # every lane of that seed: a client that several lanes keep is in it
    # once per lane.
    passes = []
    spawn_many = engine.spawn_rngs

    def opening(keys, ids):
        passes.append((keys, list(ids)))
        return spawn_many(keys, ids)

    monkeypatch.setattr(engine, "spawn_rngs", opening)
    run_experiments(config, [(strategy, seed) for seed in (3, 4) for strategy in STRATEGIES])
    batches = [(keys, ids) for keys, ids in passes if keys[1] == TAG_BATCHES]
    rounds = range(config.training.rounds)
    assert sorted(k for k, _ in batches) == [(s, TAG_BATCHES, r) for s in (3, 4) for r in rounds]
    assert all(len(ids) > len(set(ids)) for _, ids in batches)


def test_a_seed_past_32_bits_serves_each_row_its_own_stream(monkeypatch):
    # A seed of 2**32 or more reaches SeedSequence as two words, so a batch
    # stream's last key goes through its mixing of words past the pool.
    # Every row of a round's index block holds its client's stream, drawn
    # alone: a donated row, from its handoff on, the receiver's batches
    # after the receiver's own.
    seed = 2**32 + 5
    stacks = []
    lockstep, train = engine._lockstep, engine.local_train

    def recording(start, own, donated, *args):
        stacks.append([own, donated])
        return lockstep(start, own, donated, *args)

    def training(model, cursor, *args, **kwargs):
        stacks[-1].append(cursor._index.copy())
        return train(model, cursor, *args, **kwargs)

    monkeypatch.setattr(engine, "_lockstep", recording)
    monkeypatch.setattr(engine, "local_train", training)
    config = small_config()
    updates, inputs, labels = config.training.local_updates, INPUTS, LABELS
    state = build_state(config, FreezeOffload(profile_noise_sigma=0.2), seed=seed)
    inputs, labels = state.dataset.inputs, state.dataset.labels
    handoffs = 0
    for r in range(config.training.rounds):
        stacks.clear()
        trace = run_round(state, r)
        ((own, donated, index),) = stacks
        weak = sorted(donated, key=lambda m: len(donated[m]))
        full = [m for m in own if m not in donated]
        receiver = {p.client_id: p.receiver for p in trace.clients}
        # Per row: the client whose stream it reads, the first batch of the
        # stream it reads and the step at which it joins.
        rows = [(receiver[cid], updates, updates - len(donated[lane, cid])) for lane, cid in weak]
        rows += [(cid, 0, 0) for _, cid in full + weak]
        assert index.shape[:2] == (updates, len(rows))
        for row, (cid, first, join) in enumerate(rows):
            stream = lone_batches(state, r, cid, first + updates - join)[first:]
            for step, batch in zip(range(join, updates), stream, strict=True):
                assert np.array_equal(inputs[index[step, row]], batch.inputs)
                assert np.array_equal(labels[index[step, row]], batch.labels)
        handoffs += len(weak)
    assert handoffs > 0


def test_a_round_raises_no_warning():
    # NumPy 2 warns when a scalar integer operation overflows; seeding a
    # round's streams must not.
    config = small_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for strategy in (FedAvg(), FedNova(), FreezeOffload(profile_noise_sigma=0.2)):
            for seed in (3, 2**32 + 5):
                run_round(build_state(config, strategy, seed=seed), 0)


def test_nothing_handed_out_shares_the_arena():
    config = small_config()
    state = build_state(config, FreezeOffload(), seed=3)
    kept = []
    for r in range(config.training.rounds):
        run_round(state, r)
        kept.append((state.global_model, [a.tobytes() for a in state.global_model.arrays()]))
    # Each round's global model keeps its bytes through the later rounds.
    for model, saved in kept:
        assert [a.tobytes() for a in model.arrays()] == saved
    # A final model keeps its bytes through other runs in the process.
    first = run_experiment(config, FedAvg(), 3)
    saved = [a.tobytes() for a in first.final_model.arrays()]
    run_experiment(config, FedAvg(), 4)
    run_experiments(config, [(FedProx(), 3), (FreezeOffload(), 4)])
    assert [a.tobytes() for a in first.final_model.arrays()] == saved
    # So does a model that `local_train` returns, through a second call.
    start = stack(member_models())

    def cursor():
        return CohortCursor(INPUTS, LABELS, draw_blocks(member_cursors(), 4))

    trained = local_train(start, cursor(), 4, 0.1)
    saved = [a.tobytes() for a in trained.arrays()]
    again = local_train(start, cursor(), 4, 0.1)
    assert [a.tobytes() for a in trained.arrays()] == saved
    assert [a.tobytes() for a in again.arrays()] == saved
    assert not np.shares_memory(trained.block, again.block)


# --------------------------------------------------------------------------
# Dropped deadline clients are never trained
# --------------------------------------------------------------------------


def lone_batches(state, round_index, cid, steps):
    """The first `steps` batches of client cid's stream in a round, drawn alone."""
    cursor = BatchCursor(
        state.dataset.inputs,
        state.dataset.labels,
        state.client(cid).partition.sample_indices,
        state.config.training.batch_size,
        spawn_rng(state.seed, TAG_BATCHES, round_index, cid),
    )
    return [cursor.next_batch() for _ in range(steps)]


def batch_rows(batch):
    """One key per member row of a (possibly stacked) batch."""
    inputs = batch.inputs.reshape(-1, *batch.inputs.shape[-2:])
    labels = batch.labels.reshape(-1, batch.labels.shape[-1])
    return [x.tobytes() + y.tobytes() for x, y in zip(inputs, labels)]


def test_fednova_tau_is_the_plans_step_count(monkeypatch):
    # FedNova normalises each client's update by the steps it ran on its own
    # model, which the round plan gives.
    received = []
    original = engine.aggregate_fednova

    def recording(global_model, models, weights, local_steps):
        received.append(list(local_steps))
        return original(global_model, models, weights, local_steps)

    monkeypatch.setattr(engine, "aggregate_fednova", recording)
    config = small_config()
    state = build_state(config, FedNova(), seed=3)
    for r in range(config.training.rounds):
        trace = run_round(state, r)
        assert received[r] == [p.full_steps + p.frozen_steps for p in trace.clients if not p.dropped]
    assert len(received) == config.training.rounds
    assert {t for steps in received for t in steps} == {config.training.local_updates}


def test_deadline_round_never_trains_dropped_clients(monkeypatch):
    # Every batch row local_train consumes is recorded; over a round they
    # must be exactly the batches of the kept clients' own streams, so no
    # dropped client's stream reaches training.
    served = []
    original = engine.local_train

    def recording(model, cursor, updates, *args, **kwargs):
        next_batch = cursor.next_batch

        def serve():
            batch = next_batch()
            served.extend(batch_rows(batch))
            return batch

        cursor.next_batch = serve
        return original(model, cursor, updates, *args, **kwargs)

    monkeypatch.setattr(engine, "local_train", recording)
    config = small_config()
    updates = config.training.local_updates
    state = build_state(config, DeadlineDrop(multiplier=1.0), seed=3)
    drops = 0
    for r in range(config.training.rounds):
        served.clear()
        trace = run_round(state, r)
        kept = set(trace.selected) - set(trace.dropped)
        expected = Counter(
            row for cid in kept for b in lone_batches(state, r, cid, updates) for row in batch_rows(b)
        )
        assert Counter(served) == expected
        for cid in trace.dropped:
            dropped_rows = {row for b in lone_batches(state, r, cid, updates) for row in batch_rows(b)}
            assert not dropped_rows & set(served)
        drops += len(trace.dropped)
    assert drops > 0
    # Skipping the dropped clients changes no output.
    digest = run_digest(config, DeadlineDrop(multiplier=1.0), seed=3)
    assert digest == GOLDEN["deadline_m1"], environment_note()


def test_phase_gathers_serve_each_stream_in_phase_order(monkeypatch):
    # Each kept client's stream is drawn from once per round; its index
    # blocks, in order, are the batches the stream serves alone: its own
    # steps (full then classifier-only for a weak client), then the donated
    # block's steps for a receiver.
    # The cursors themselves, held so that no id is reused within a round.
    takes = []
    original_take = BatchCursor._take

    def counting(self, n):
        takes.append(self)
        return original_take(self, n)

    monkeypatch.setattr(BatchCursor, "_take", counting)
    config = cohort_40_config()
    state = build_state(config, COHORT_40_STRATEGY, seed=6)
    frozen_counts = set()
    for r in range(config.training.rounds):
        plan = plan_round(state, r)
        takes.clear()
        (streams,) = engine._batch_streams([state], [plan])
        own, donated = engine._phase_blocks(state, plan, streams)
        weak = {p.client_id: p.receiver for p in plan.clients if p.receiver is not None}
        assert len(weak) >= 8
        assert {len(b) for b in own.values()} == {config.training.local_updates}
        frozen_counts |= {len(b) for b in donated.values()}
        sequences = {cid: [own[cid]] for cid in own}
        for cid, receiver in weak.items():
            sequences[receiver].append(donated[cid])
        assert set(sequences) == {p.client_id for p in plan.clients if not p.dropped}
        # One take per kept client, each from its own stream over its own
        # samples: the clients' partitions are disjoint.
        assert len({id(cursor) for cursor in takes}) == len(takes) == len(sequences)
        streamed = {cursor._indices.tobytes() for cursor in takes}
        owned = {
            state.client(cid).partition.sample_indices.astype(np.int64).tobytes()
            for cid in sequences
        }
        assert streamed == owned
        for cid, blocks in sequences.items():
            rows = np.concatenate(blocks)
            for row, batch in zip(rows, lone_batches(state, r, cid, len(rows)), strict=True):
                assert np.array_equal(state.dataset.inputs[row], batch.inputs)
                assert np.array_equal(state.dataset.labels[row], batch.labels)
    assert len(frozen_counts) >= 3


# --------------------------------------------------------------------------
# One lockstep phase per round
# --------------------------------------------------------------------------


def quick_start_config():
    """The README quick start."""
    return parse_config(
        {
            "dataset": {
                "num_classes": 10,
                "samples_per_class": 1000,
                "input_dim": 8,
                "noise_sigma": 0.8,
            },
            "partition": {"mode": "noniid", "classes_per_client": 3},
            "clients": {"count": 24, "per_round": 3, "speed_low": 0.1, "speed_high": 1.0},
            "training": {
                "rounds": 100,
                "local_updates": 16,
                "batch_size": 32,
                "learning_rate": 0.05,
                "hidden_dim": 32,
            },
        }
    )


def count_steps_per_round(monkeypatch):
    """Count `sgd_step_in_place` calls, one entry per round of all lanes."""
    counts = []
    step, run_lanes = engine.sgd_step_in_place, engine._run_lanes

    def stepping(*args, **kwargs):
        counts[-1] += 1
        return step(*args, **kwargs)

    def running(*args, **kwargs):
        counts.append(0)
        return run_lanes(*args, **kwargs)

    monkeypatch.setattr(engine, "sgd_step_in_place", stepping)
    monkeypatch.setattr(engine, "_run_lanes", running)
    return counts


def test_quick_start_freeze_offload_rounds_run_local_updates_steps(monkeypatch):
    # A round with handoffs runs no more lockstep steps than one without:
    # the classifier-only and donated steps run beside the full ones.
    config = quick_start_config()
    counts = count_steps_per_round(monkeypatch)
    result = run_experiment(config, FreezeOffload(), seed=5)
    assert counts == [config.training.local_updates] * config.training.rounds
    assert sum(len(t.offload_records) for t in result.traces) >= 50


def test_a_lockstep_call_builds_each_step_program_once(monkeypatch):
    # A quick-start freeze_offload round steps on more running-row counts
    # as donated rows join the stack; each count's program is built at its
    # first step and serves the rest of the round.
    builds, steps = [], []
    views = model_module._StepViews

    class Counting(views):
        def __init__(self, buffers, k, mode, *args):
            builds.append((k, mode))
            super().__init__(buffers, k, mode, *args)

    step = engine.sgd_step_in_place

    def stepping(model, batch, workspace, lr, mode, *args):
        steps.append((batch.labels.shape[0], mode))
        return step(model, batch, workspace, lr, mode, *args)

    monkeypatch.setattr(model_module, "_StepViews", Counting)
    monkeypatch.setattr(engine, "sgd_step_in_place", stepping)
    config = quick_start_config()
    state = build_state(config, FreezeOffload(), seed=5)
    shapes = []
    for r in range(12):
        builds.clear()
        steps.clear()
        run_round(state, r)
        assert len(steps) == config.training.local_updates
        assert builds == list(dict.fromkeys(steps))
        shapes.append(len(builds))
    assert max(shapes) >= 2, shapes


def test_ragged_lanes_run_local_updates_steps_per_prox_mu_stack(monkeypatch):
    # Two freeze_offload lanes with handoffs at several steps per round, a
    # FedAvg lane and a FedProx lane: one stack per FedProx mu.
    config = cohort_40_config()
    tasks = [(COHORT_40_STRATEGY, 6), (FedAvg(), 6), (COHORT_40_STRATEGY, 7), (FedProx(0.5), 6)]
    counts = count_steps_per_round(monkeypatch)
    results = run_experiments(config, tasks)
    assert counts == [2 * config.training.local_updates] * config.training.rounds
    for r in range(config.training.rounds):
        handoffs = {p.full_steps for res in results for p in res.traces[r].offload_records}
        assert len(handoffs) >= 3


def test_train_lanes_rejects_a_plan_that_breaks_the_one_phase_layout():
    config = small_config()
    updates = config.training.local_updates
    state = build_state(config, FreezeOffload(), seed=3)
    plan = next(p for p in (plan_round(state, r) for r in range(4)) if p.offload_records)
    weak = next(i for i, p in enumerate(plan.clients) if p.receiver is not None)
    alone = next(i for i, p in enumerate(plan.clients) if p.receiver is None and not p.dropped)
    w, a = plan.clients[weak], plan.clients[alone]
    for index, broken in [
        (weak, dataclasses.replace(w, full_steps=w.full_steps - 1)),
        (alone, dataclasses.replace(a, full_steps=updates - 1, frozen_steps=1)),
    ]:
        clients = list(plan.clients)
        clients[index] = broken
        doctored = dataclasses.replace(plan, clients=tuple(clients))
        with pytest.raises(ValueError, match=r"local_updates \(8\)"):
            engine._train_lanes([state], [doctored], engine._LaneData.of([state]), Arena())


# --------------------------------------------------------------------------
# Plan invariants on random small configs
# --------------------------------------------------------------------------


@st.composite
def configs(draw):
    count = draw(st.integers(2, 8))
    updates = draw(st.integers(2, 10))
    profiling = {
        "profile_batches": draw(st.integers(1, updates - 1)),
        "profile_noise_sigma": draw(st.sampled_from([0.0, 0.1, 0.5])),
    }
    raw = {
        "dataset": {"num_classes": 3, "samples_per_class": 30, "input_dim": 3},
        "partition": draw(
            st.sampled_from([{"mode": "iid"}, {"mode": "noniid", "classes_per_client": 2}])
        ),
        "clients": {"count": count, "per_round": draw(st.integers(min(2, count), count))},
        "training": {
            "rounds": 2,
            "local_updates": updates,
            "batch_size": draw(st.integers(1, 6)),
            "hidden_dim": 4,
        },
        "latency": {
            "dispatch": draw(st.sampled_from([0.0, 0.5, 3.0, 20.0])),
            "transfer": draw(st.sampled_from([0.0, 1.0, 5.0])),
        },
        # freeze_offload first and twice, as the plan varies most under it.
        "strategies": [
            draw(
                st.sampled_from(
                    [
                        {"name": "freeze_offload", "similarity_factor": 1.0, **profiling},
                        {"name": "freeze_offload", "similarity_factor": 0.0, **profiling},
                        {"name": "fedavg"},
                        {"name": "fedprox", "mu": 0.1},
                        {"name": "fednova"},
                        {"name": "tifl", "tiers": min(2, count)},
                        {"name": "deadline", "multiplier": draw(st.sampled_from([0.3, 0.8, 1.0]))},
                    ]
                )
            )
        ],
    }
    if draw(st.booleans()):
        factors = st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count)
        raw["clients"]["speed_factors"] = draw(factors)
    return parse_config(raw), draw(st.integers(0, 2**16))


def at_least(a, b, clock):
    """a >= b up to the rounding of times taken relative to `clock`."""
    return a >= b - 1e-12 * max(1.0, clock + abs(b))


@settings(max_examples=40, deadline=None)
@given(configs())
def test_plan_invariants(case):
    config, seed = case
    updates = config.training.local_updates
    transfer = config.latency.transfer
    state = build_state(config, config.strategies[0], seed)
    for r in range(config.training.rounds):
        start = state.clock
        trace = run_round(state, r)
        plan = trace
        assert state.clock >= start
        assert [p.client_id for p in plan.clients] == list(trace.selected)
        weak = [p for p in plan.clients if p.receiver is not None]
        receivers = [p.receiver for p in weak]
        assert len(set(receivers)) == len(receivers)
        assert not set(receivers) & {p.client_id for p in weak}
        records = trace.offload_records
        assert set(records) == set(weak)
        handoffs = [p.handoff_time for p in records]
        assert handoffs == sorted(handoffs)
        for p in plan.clients:
            assert all(math.isfinite(t) and t >= 0.0 for t in p.submit_times)
            # Every kept client runs exactly its budget of its own steps, and
            # a handoff donates the weak client's classifier-only steps: so a
            # round trains as one lockstep phase of `updates` steps.
            if not p.dropped:
                assert p.full_steps + p.frozen_steps == updates
            assert (p.handoff_time is None) == (p.receiver is None)
            if p.receiver is not None:
                assert p.full_steps + p.frozen_steps == updates
                assert p.frozen_steps >= 1
                assert p.receiver in trace.selected
                assert len(p.submit_times) == 2
                handoff = p.handoff_time
                classifier_part, feature_part = p.submit_times
                assert math.isfinite(handoff) and 0.0 <= handoff <= classifier_part
                assert at_least(feature_part, handoff + transfer, start)
                own_budget = updates * state.client(p.receiver).timings.full_time
                assert at_least(feature_part, own_budget, start)
            elif p.dropped:
                assert p.full_steps == 0
            else:
                assert (p.full_steps, p.frozen_steps) == (updates, 0)
        included = [p.completion for p in plan.clients if not p.dropped]
        if included:
            assert trace.duration == max(included)
        assert trace.dropped == tuple(p.client_id for p in plan.clients if p.dropped)


# --------------------------------------------------------------------------
# Golden plan digest over seeded random configs
# --------------------------------------------------------------------------


def random_plan_config(rng):
    """A small valid config with a random strategy, latencies, timings and
    profile noise: a plan is a function of these alone."""
    count = int(rng.integers(2, 13))
    updates = int(rng.integers(2, 13))
    partition = [{"mode": "iid"}, {"mode": "noniid", "classes_per_client": 2}][
        int(rng.integers(2))
    ]
    per_round = int(rng.integers(min(2, count), count + 1))
    # Drawn whatever the strategy, so that each later draw comes from the
    # same point of the stream; only a freeze_offload entry reads them.
    profiling = {
        "profile_batches": int(rng.integers(1, updates)),
        "profile_noise_sigma": float(rng.choice([0.0, 0.1, 0.5])),
    }
    raw = {
        "dataset": {"num_classes": 3, "samples_per_class": 30, "input_dim": 2},
        "partition": partition,
        "clients": {"count": count, "per_round": per_round},
        "training": {"rounds": 3, "local_updates": updates, "batch_size": 2, "hidden_dim": 2},
        "latency": {
            "dispatch": float(rng.choice([0.0, 0.5, 3.0, 20.0])),
            "transfer": float(rng.choice([0.0, 1.0, 5.0])),
        },
    }
    if rng.random() < 0.5:
        raw["clients"]["speed_factors"] = [float(f) for f in rng.uniform(0.01, 1.0, count)]
    else:
        low = float(rng.uniform(0.05, 1.0))
        raw["clients"].update(speed_low=low, speed_high=float(rng.uniform(low, 1.0)))
    if rng.random() < 0.3:
        phases = ("ff", "fc", "bc", "bf")
        raw["profile"] = {"base": {k: float(rng.uniform(1e-3, 2.0)) for k in phases}}
    factor = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
    raw["strategies"] = [
        [
            {"name": "freeze_offload", "similarity_factor": factor, **profiling},
            {"name": "freeze_offload", "similarity_factor": 1.0, **profiling},
            {"name": "deadline", "multiplier": float(rng.choice([0.5, 0.8, 1.0, 1.5]))},
            {"name": "fedavg"},
            {"name": "tifl", "tiers": min(3, count)},
        ][int(rng.integers(5))]
    ]
    return parse_config(raw)


def plan_doc(plan):
    return {
        "round": plan.round_index,
        "clients": [
            # The recorded digest lists the donated steps, which are the
            # classifier-only steps, after them.
            [p.client_id, p.full_steps, p.frozen_steps, p.frozen_steps, p.receiver, p.dropped,
             [repr(t) for t in p.submit_times]]
            for p in plan.clients
        ],
        "deadline": repr(plan.deadline),
        "schedule": schedule_doc(plan),
        "records": record_docs(plan),
    }


# Recorded before the event-queue planner gave way to straight-line plans.
GOLDEN_PLANS = "0cccdb2fa9cd579e804b1f46e09673ece9e537b95cb1eef09c04ba2ca0954e6e"


def plan_digest():
    """The digest of every round plan of 200 drawn configs, and their handoffs."""
    rng = np.random.default_rng(2022)
    h = hashlib.sha256()
    handoffs = 0
    for _ in range(200):
        config = random_plan_config(rng)
        state = build_state(config, config.strategies[0], int(rng.integers(2**16)))
        state.clock = float(rng.choice([0.0, 0.1, 12345.678]))
        for r in range(config.training.rounds):
            plan = plan_round(state, r)
            handoffs += len(plan.offload_records)
            h.update(json.dumps(plan_doc(plan), sort_keys=True).encode())
    return h.hexdigest(), handoffs


def test_golden_plan_digest():
    digest, handoffs = plan_digest()
    assert handoffs > 100
    assert digest == GOLDEN_PLANS


def test_golden_plan_digest_on_another_numeric_build():
    # Plans are host-independent. numpy's AVX2 loops in place of its AVX-512
    # ones and an OpenBLAS kernel without FMA change the models' last bits,
    # but no plan's. The child reports whether numpy took the override.
    child = (
        "import numpy._core._multiarray_umath as umath\n"
        "from test_cohort import plan_digest\n"
        "print(plan_digest()[0], umath.__cpu_features__.get('X86_V4'))\n"
    )
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, tests]),
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
        OPENBLAS_CORETYPE="Sandybridge",
    )
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    digest, x86_v4 = done.stdout.split()
    assert x86_v4 in ("False", "None"), "numpy still dispatches to its X86_V4 loops"
    assert digest == GOLDEN_PLANS
