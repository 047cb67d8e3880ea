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
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import engine
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
from fedsim.seeding import TAG_BATCHES, spawn_rng

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

    def recording(start, own, donated, data, learning_rate, prox_mu=0.0):
        handoffs = {len(own[m]) - len(donated[m]) for m in donated}
        calls.append(({lane for lane, _ in own}, handoffs))
        return original(start, own, donated, data, learning_rate, prox_mu)

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
    arrays = [np.stack(parts) for parts in zip(*(m.arrays() for m in models))]
    return PartitionedModel(*arrays, num_classes=models[0].num_classes)


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


def test_cohort_cursor_rejects_mixed_batch_sizes():
    blocks = [np.arange(16).reshape(2, 8), np.arange(8).reshape(2, 4)]
    with pytest.raises(ValueError, match="batch size"):
        CohortCursor(INPUTS, LABELS, blocks)
    with pytest.raises(ValueError, match="step count"):
        CohortCursor(INPUTS, LABELS, [np.arange(16).reshape(2, 8), np.arange(8).reshape(1, 8)])


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
    [(5, 5, 3, 3), (6, 4, 3, 2), (7, 5, 5, 4), (4, 4, 1, 4), (6, 5, 2, 2), (6, 4, 6, 6)],
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
    rng = np.random.default_rng(5)
    models = [init_model(4, 6, 3, seed=k) for k in range(3)]
    stacked = stack(models)
    before = [a.copy() for a in stacked.arrays()]
    workspace = Workspace(stacked, 8)
    batch = Batch(100.0 * rng.standard_normal((3, 8, 4)), rng.integers(0, 3, size=(3, 8)))
    if mode == "full":
        # The reference step raises on the same step.
        with pytest.raises(DivergenceError, match="non-finite gradient values"):
            reference_step(models[1], Batch(batch.inputs[1], batch.labels[1]), 1.7e308, mode)
    with pytest.raises(DivergenceError, match="non-finite gradient values"):
        sgd_step_in_place(stacked, batch, workspace, 1.7e308, pair(mode, 3))
    for a, b in zip(stacked.arrays(), before):
        assert a.tobytes() == b.tobytes()


def test_training_takes_only_stacks():
    # A model trains alone as a stack of one. A lone model, a stack of
    # other rows than the workspace's, and an anchor that is not a stack
    # with the model's rows are refused before anything moves.
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
        own, donated = engine._phase_blocks(state, plan)
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
            engine._train_lanes([state], [doctored], engine._LaneData.of([state]))


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


def test_golden_plan_digest():
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
    assert handoffs > 100
    assert h.hexdigest() == GOLDEN_PLANS
