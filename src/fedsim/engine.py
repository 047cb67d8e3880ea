"""Virtual-time federated training engine.

A round runs in two passes.

* The plan (`plan_round`) computes the round's timeline from the state's
  clock and moves the clock to the round's end; nothing else moves it. A
  round's steps come in a fixed order (clients profile, the federator
  schedules once the last report is in, a straggler hands off and then
  submits two parts), so each strategy's `plan` writes every time as a
  closed-form expression of the per-batch costs of the four-phase timing
  model in `profiling`: the submit times, the freeze_offload schedule, the
  handoffs and the deadline drops follow from timings, speed tiers and
  similarity distances, never from model values. The plan trains nothing:
  it is a `RoundPlan` that gives each selected client a `ClientPlan`: its
  full and classifier-only step counts, its submit times, whether it is
  dropped and, for a client that hands off, the receiver and the handoff
  time. A handoff is described there and nowhere else. Virtual time never
  waits on wall-clock time.
* The executor trains the plan. Training is real: every client the plan
  keeps runs SGD on its own partition, so model quality reacts to the
  strategy as round durations do. A dropped client runs no steps. A round
  trains its kept clients stacked, in lockstep, as one phase of
  `local_updates` steps: their parameters and batches carry a leading
  cohort axis (see `model`). Every kept client runs exactly `local_updates`
  steps of its own, so every row of the stack runs to the same last step.
  A weak client's row switches from full steps to classifier-only steps at
  its handoff step, in place, and at that step a donated row joins the
  stack as a copy of it and from then on moves only its feature block, on
  the receiver's batches. So at each step the rows that run, the rows that
  move the feature block and the rows that move the classifier are each
  one range of the stack, and one `local_train` call trains the round. The
  call trains a copy of the stack in place, in a `model.Workspace` that
  holds every per-step intermediate, so a step allocates no array the size
  of the stack's activations, only a value per sample for the one-hot
  labels and the finite check's masks. FedProx's anchor is the stack's own
  start rows: each row is pulled toward its row of the stack passed in,
  which training leaves as it is. A client's batches for a round come from
  one stream, whatever lane keeps it: the round opens a seed's kept
  clients' streams in one seeding pass (`seeding.spawn_rngs`) and reads
  each in one take of the most steps any lane needs from it, its own steps
  and then the longest donated block it trains; a `CohortCursor` copies
  every row's batch indices straight into one index block and gathers
  each step's batch as the step trains. Every client sees the batches it
  would draw alone, in the same order, and comes out bitwise equal to
  training alone, a weak client as its full, classifier-only and donated
  steps one after another. A lane aggregates
  its kept clients' rows of the trained stack, gathered into one
  (members, parameters) array, in one reduction, bitwise the sum of adding
  them one after another. A round's `RoundTrace` is its plan plus its
  accuracy.
* The round's memory is kept from round to round in a `model.Arena`, made
  at the first round: the batch indices, one step's batch, the start stack
  and its trained copy, each laid out as one flat block, and the
  workspace. Only the indices, an integer per sample and step, grow with
  `local_updates`. So a warm round maps no new pages, and a step in which
  every row moves both blocks moves the whole parameter block in one
  pass. Once a stack has trained, its start block holds each lane's
  members' parameters in turn for aggregation, and evaluation runs its
  forward pass in the workspace's activations: the round reads neither
  again. What a round hands out, its global model, is never the arena's.

`run_experiments` runs several experiments, each a (strategy, seed) *lane*
with its own model and clock on its seed's shared data (`SeedData`, built
once per seed: the dataset and the clients), in lockstep, one round at a
time (`_run_lanes`): a round is planned and then trained. Every lane plans
the round from its own clock; then all lanes train it as one stack per
FedProx mu, each row pulled toward its own lane's global model. Each stack
is aggregated as soon as it has trained, so the next trains in the same
arena; once all have trained, each lane takes its new model and evaluates
it. A row of a stack trains as its lane alone would, so each lane's traces
and models are bitwise those of running it alone; `run_experiment` and
`run_round` are the one-lane case. A run keeps one arena; `run_round`
keeps one on the lane's `ExperimentState`.

Each strategy is a `Strategy` subclass below; its docstring says what it does
in a round. Planning calls its methods; training and aggregation read it
only as data, through `prox_mu` and `normalized_averaging`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import groupby
from typing import Any, ClassVar, Sequence

import numpy as np

from .data import ClientPartition, Dataset, PartitionError, generate_synthetic, partition
from .errors import ConfigError, out_of_memory_as_config_error
from .model import (
    Arena,
    Batch,
    ClassifierBlock,
    DivergenceError,
    FeatureBlock,
    PartitionedModel,
    Workspace,
    forward,
    forward_logits,
    init_model,
    merge,
    on_block,
    sgd_step_in_place,
    softmax,
    split,
)

# The allocating reference step functions. Training runs through
# `sgd_step_in_place`; these stay bound here because perfbench/tracer.py
# looks them up on this module.
from .model import backward_frozen, backward_full, sgd_step  # noqa: F401
from .profiling import ClientProfile, PhaseTimings, measure, scale_timings
from .scheduling import OffloadSchedule, build_schedule
from .seeding import (
    TAG_BATCHES,
    TAG_MODEL_INIT,
    TAG_PROFILE,
    TAG_SELECTION,
    TAG_SPEEDS,
    left_sum,
    spawn_rng,
    spawn_rngs,
)
from .similarity import ClassCountSubmission, HistogramDistances, SimilarityOracle


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------
#
# Each strategy is one class, described once, here: `name` is its YAML name,
# each field is one YAML knob, and its methods are its round behaviour. The
# config parser and echo read the fields through `dataclasses.fields`: a
# field's default is the knob's default, its metadata holds its lower bound
# (`ge` or `gt`), its YAML key where it differs from the field name (`key`)
# and, for a knob that names the run, its format in the `label`.


class Strategy:
    """A round strategy; the defaults are FedAvg's.

    The engine tells strategies apart only through these: in each round
    `plan` (which calls `select` and returns the round's `RoundPlan`), then
    two values that training reads as data: `prox_mu`, the FedProx pull, and
    `normalized_averaging`, whether aggregation is FedNova's rather than
    FedAvg's. The config parser adds the problems `check` finds with the
    `clients` and `training` sections.
    """

    name: ClassVar[str]
    prox_mu: ClassVar[float] = 0.0
    normalized_averaging: ClassVar[bool] = False

    @property
    def label(self) -> str:
        """The name, then each labelled field's value in its format, joined by `_`."""
        parts = [
            f.metadata["label"].format(getattr(self, f.name))
            for f in fields(self)
            if "label" in f.metadata
        ]
        return "_".join([self.name, *parts])

    def select(self, state: ExperimentState, round_index: int) -> list[int]:
        per_round = state.config.clients.per_round
        return select_clients(len(state.clients), per_round, round_index, state.seed)

    def plan(self, state: ExperimentState, round_index: int) -> RoundPlan:
        """Every selected client submits its whole model after its budget."""
        return _whole_models(state, round_index, self.select(state, round_index))

    def check(self, clients, training) -> list[str]:
        return []


@dataclass(frozen=True)
class FedAvg(Strategy):
    """Every selected client trains its full budget; weighted average."""

    name: ClassVar[str] = "fedavg"


@dataclass(frozen=True)
class FedProx(Strategy):
    """FedAvg plus a proximal pull toward the round's global model."""

    name: ClassVar[str] = "fedprox"
    mu: float = field(default=0.01, metadata={"ge": 0, "label": "mu{:g}"})

    @property
    def prox_mu(self) -> float:
        return self.mu


@dataclass(frozen=True)
class FedNova(Strategy):
    """FedAvg's selection with normalized averaging by local step counts."""

    name: ClassVar[str] = "fednova"
    normalized_averaging: ClassVar[bool] = True


@dataclass(frozen=True)
class Tifl(Strategy):
    """Clients pre-grouped into speed tiers; each round samples one tier,
    round-robin."""

    name: ClassVar[str] = "tifl"
    num_tiers: int = field(default=3, metadata={"ge": 1, "key": "tiers", "label": "t{}"})

    def select(self, state, round_index):
        tiers = state.shared.tiers(self.num_tiers)
        tier = tiers[round_index % len(tiers)]
        take = min(state.config.clients.per_round, len(tier))
        return sorted(tier[i] for i in select_clients(len(tier), take, round_index, state.seed))

    def check(self, clients, training):
        if self.num_tiers > clients.count:
            return [f"strategies: tifl tiers cannot exceed clients.count ({clients.count})"]
        return []


@dataclass(frozen=True)
class DeadlineDrop(Strategy):
    """FedAvg, but contributions estimated to arrive after a deadline, a
    multiple of the cohort's mean estimated completion, are dropped; a
    dropped client trains nothing."""

    name: ClassVar[str] = "deadline"
    multiplier: float = field(default=1.0, metadata={"gt": 0, "label": "m{:g}"})

    def plan(self, state, round_index):
        selected = self.select(state, round_index)
        updates = state.config.training.local_updates
        completions = {cid: updates * state.client(cid).timings.full_time for cid in selected}
        deadline = self.multiplier * (left_sum(completions.values()) / len(completions))
        dropped = frozenset(cid for cid in selected if completions[cid] > deadline)
        return _whole_models(state, round_index, selected, deadline, dropped)


@dataclass(frozen=True)
class FreezeOffload(Strategy):
    """Clients profile their first batches, the federator pairs stragglers
    with fast receivers, stragglers freeze their feature block and finish
    classifier-only while the receiver trains the frozen block's remaining
    updates on its own data; the federator recombines both parts.

    A weak client with budget U and offload point op trains U - op full
    batches (batches already executed when the schedule arrives count toward
    that target; if it has been passed the handoff is immediate), hands its
    feature block plus a classifier snapshot to the receiver, and finishes
    its remaining updates classifier-only. The receiver first completes its
    own budget, then trains the received feature block for the same
    remaining updates on its own data. Every update of the weak client's
    budget therefore executes exactly once per block, split across the two
    machines after the handoff. The weak client's `ClientPlan` records the
    handoff: the receiver, the handoff time and the step counts.
    """

    name: ClassVar[str] = "freeze_offload"
    similarity_factor: float = field(default=1.0, metadata={"ge": 0, "label": "f{:g}"})
    profile_batches: int = field(default=1, metadata={"ge": 1})
    profile_noise_sigma: float = field(default=0.0, metadata={"ge": 0})

    def plan(self, state, round_index):
        selected = self.select(state, round_index)
        start, updates = state.clock, state.config.training.local_updates
        latency = state.config.latency
        # A client the schedule leaves alone submits its whole model.
        clients = {p.client_id: p for p in _whole_models(state, round_index, selected).clients}
        # Clients train from the first batch and report once they have
        # profiled; the federator schedules when the last report is in, and
        # the schedule arrives a dispatch latency later.
        computed_at = max(
            start + self.profile_batches * state.client(cid).timings.full_time for cid in selected
        )
        arrival = computed_at + latency.dispatch
        # Noiseless profiles draw nothing, so they need no streams.
        if self.profile_noise_sigma != 0.0:
            rngs = spawn_rngs((state.seed, TAG_PROFILE, round_index), selected)
        else:
            rngs = [None] * len(selected)
        profiles = [
            self._profile(state, round_index, cid, computed_at, rng)
            for cid, rng in zip(selected, rngs)
        ]
        similarity = state.shared.similarity()
        schedule = build_schedule(profiles, similarity, self.similarity_factor)

        for a in schedule.assignments:
            weak, strong = state.client(a.weak_client_id), state.client(a.strong_client_id)
            done = _batches_done(start, weak.timings.full_time, arrival, updates)
            if done >= updates:
                # Finished before the schedule arrived; its whole submission
                # stands and nothing is offloaded.
                continue
            full = max(done, updates - a.offload_point)
            remaining = updates - full
            handoff = max(arrival, start + full * weak.timings.full_time)
            # The receiver trains the donated block only after its own budget.
            own_done = start + updates * strong.timings.full_time
            donated_start = max(handoff + latency.transfer, own_done)
            clients[weak.client_id] = ClientPlan(
                client_id=weak.client_id,
                full_steps=full,
                submit_times=(
                    (handoff + remaining * weak.timings.frozen_time) - start,
                    (donated_start + remaining * strong.timings.bf) - start,
                ),
                frozen_steps=remaining,
                receiver=strong.client_id,
                handoff_time=handoff - start,
            )
        return RoundPlan(round_index, tuple(clients.values()), deadline=None, schedule=schedule)

    def _profile(self, state, round_index, cid, computed_at, rng) -> ClientProfile:
        """Client cid's profile as the federator holds it at `computed_at`,
        its noise drawn from `rng`, the client's profile stream, if noisy."""
        c = state.client(cid)
        updates = state.config.training.local_updates
        done = _batches_done(state.clock, c.timings.full_time, computed_at, updates)
        try:
            return measure(
                cid, c.timings, updates - done, self.profile_batches, self.profile_noise_sigma, rng
            )
        except ValueError as exc:
            if rng is None:
                raise
            # The noise overflowed a profiled phase time.
            problem = (
                f"strategies: {self.label} profile_noise_sigma {self.profile_noise_sigma:g}"
                f" breaks the profiles in round {round_index} (seed {state.seed}): {exc}"
            )
            raise ConfigError([problem]) from exc

    def check(self, clients, training):
        if self.profile_batches >= training.local_updates:
            return [
                "strategies: freeze_offload profile_batches must be <"
                f" training.local_updates ({training.local_updates})"
            ]
        return []


STRATEGIES = (FedAvg, FedProx, FedNova, Tifl, DeadlineDrop, FreezeOffload)


# --------------------------------------------------------------------------
# Client-side pieces
# --------------------------------------------------------------------------


class BatchCursor:
    """Deterministic endless stream of mini-batches over a client's samples.

    `_round_batches` reads a round's batches in one `_take`, for every lane
    of the seed; `next_batch` serves one batch. Training reads the batches
    through a `CohortCursor`.
    """

    def __init__(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        indices: np.ndarray,
        batch_size: int,
        rng: np.random.Generator,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if indices.shape[0] < 1:
            raise ValueError("cursor needs at least one sample")
        self._inputs = inputs
        self._labels = labels
        self._indices = np.asarray(indices, dtype=np.int64)
        self.batch_size = batch_size
        self._rng = rng
        # No pass is drawn until the first take.
        self._order = self._indices[:0]
        self._pos = 0

    def _take(self, n: int) -> np.ndarray:
        """The next n sample indices.

        Each pass over the samples is a fresh permutation, drawn when the
        previous pass is used up. The passes one take needs are drawn in one
        `permuted` call, which shuffles row after row with the same draws as
        that many `permutation` calls.
        """
        pos, order = self._pos, self._order
        if pos + n <= order.shape[0]:
            self._pos = pos + n
            return order[pos : pos + n]
        n -= order.shape[0] - pos
        size = self._indices.shape[0]
        passes = -(-n // size)
        fresh = np.empty((passes, size), np.int64)
        fresh[:] = self._indices
        self._rng.permuted(fresh, axis=1, out=fresh)
        self._order = fresh[-1]
        self._pos = n - (passes - 1) * size
        if pos == order.shape[0]:
            return fresh.ravel()[:n]
        return np.concatenate([order[pos:], fresh.ravel()[:n]])

    def next_batch(self) -> Batch:
        idx = self._take(self.batch_size)
        return Batch(inputs=self._inputs[idx], labels=self._labels[idx])


class CohortCursor:
    """Stacked batches of a cohort that trains in lockstep, and the rows that join it.

    `blocks` holds each row's sample indices, one row of `batch_size` indices
    per step it runs, with the rows in order of step count. Every row runs
    until the last step, so a row with fewer steps joins the stack later,
    and the rows that run a step are a suffix of the stack. On construction
    the indices are laid out step-major, as one (steps, rows, batch_size)
    block: the blocks of each run of rows that join at one step are copied
    straight into their rows of it, in one `np.stack`, and the block is then
    checked to lie in the data. `next_batch` then gathers one step
    from the shared data arrays, one `take` for the inputs and one for the
    labels, into one step's worth of arrays, and serves it as a Batch of
    shape (k, batch_size, input_dim) for the k rows that run it, whose row i
    is what that row's own cursor serves at that step. A batch is valid
    until the next call. The index block and the step's arrays are
    `arena`'s, which the cursor then holds until the arena's next use; only
    the index block grows with the step count.

    The first d = `donated` rows of the stack, the donated rows, pair with
    the last d, the weak rows, in order. Donated row i joins at its handoff
    step as a copy of weak row i (`join` makes the copy) and from then on
    moves only its feature block; weak row i takes full steps until that
    step and classifier-only steps from there on. The rows in between take
    full steps throughout. So the rows that move the feature block are the
    first n - d that run each step, and the rows that move the classifier
    the last n - d of a stack of n: `mode` is the pair (n - d, n - d) for
    every step of `sgd_step_in_place`, and (n, n), a full step for every
    row that runs, without donated rows.
    """

    def __init__(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        blocks: list[np.ndarray],
        arena: Arena,
        donated: int = 0,
    ) -> None:
        steps = [b.shape[0] for b in blocks]
        if steps != sorted(steps):
            raise ValueError("cohort members must come in order of step count")
        size = blocks[0].shape[1]
        if any(b.shape[1] != size for b in blocks):
            raise ValueError("cohort members must share one batch size")
        last, rows, d = steps[-1], len(blocks), donated
        joins = [last - n for n in steps]
        if d < 0 or 2 * d > rows or d and any(joins[d:]):
            raise ValueError(
                "each handoff needs a donated row at the front of the stack and a weak"
                " row at the back, and every other row runs every step"
            )
        idx = self._index = arena.get("index", (last, rows, size), np.int64)
        row = 0
        for count, run in groupby(blocks, key=len):
            run = list(run)
            into = idx[:, row : row + len(run)]
            # Steps before a row joins read sample 0 and are never served.
            into[: last - count] = 0
            np.stack(run, axis=1, out=into[last - count :])
            row += len(run)
        # `take` into a given array in its default mode first gathers into a
        # buffer of its own; in `clip` mode it writes in place but clamps an
        # index out of range, so the indices are checked here.
        low, high = (idx.min(), idx.max()) if idx.size else (0, 0)
        if low < 0 or high >= labels.shape[0]:
            bad = low if low < 0 else high
            raise IndexError(f"sample index {bad} is out of bounds for {labels.shape[0]} samples")
        self._data = inputs, labels
        self._inputs = arena.get("inputs", (rows, size) + inputs.shape[1:], inputs.dtype)
        self._labels = arena.get("labels", (rows, size), labels.dtype)
        self.batch_size = size
        self._first = np.searchsorted(steps, last - np.arange(last)).tolist()
        self._step = 0
        self.mode = (rows - d, rows - d)
        # The donated rows that join at each step, and their weak rows: the
        # rows with one handoff step are one range of each block.
        handoffs = joins[:d]
        self._joins = {}
        for step in set(handoffs):
            first = handoffs.index(step)
            stop = first + handoffs.count(step)
            self._joins[step] = (slice(first, stop), slice(rows - d + first, rows - d + stop))

    def join(self, model: PartitionedModel) -> None:
        """Copy the donated rows that join at the next step from their weak rows."""
        rows = self._joins.get(self._step)
        if rows is not None:
            into, source = rows
            for a in model.arrays():
                a[into] = a[source]

    def next_batch(self) -> Batch:
        step, first = self._step, self._first[self._step]
        self._step += 1
        idx, (inputs, labels) = self._index[step, first:], self._data
        return Batch(
            inputs=inputs.take(idx, axis=0, out=self._inputs[first:], mode="clip"),
            labels=labels.take(idx, out=self._labels[first:], mode="clip"),
        )


@dataclass(frozen=True)
class ClientState:
    client_id: int
    speed_factor: float
    timings: PhaseTimings
    partition: ClientPartition
    # Read by perfbench/tracer.py's round hook for dropped clients. A
    # client's batch stream lives only inside `_round_batches`, opened once
    # per round for every lane of its seed.
    cursor: ClassVar[None] = None

    @property
    def num_samples(self) -> int:
        return self.partition.size


def local_train(
    model: PartitionedModel,
    cursor: CohortCursor,
    updates: int,
    learning_rate: float,
    arena: Arena,
    prox_mu: float = 0.0,
) -> PartitionedModel:
    """Run `updates` lockstep SGD steps of a stack and return the new stack.

    The stack passed in is left as it is: the steps train a copy of it in
    place, laid out as one block, in one `Workspace` for the call. The copy
    and the workspace are `arena`'s: the stack returned is then the arena's
    until its next use. Each step trains on the batch the cursor gathers
    for it, which the next step's gather overwrites. Every step takes the
    cursor's `mode`, the pair that says which rows move which block, and
    moves the rows that run it, a suffix of the stack, so one call trains a
    whole round and each row comes out trained on its own steps only;
    before each step, the donated rows that join at it are copied from
    their weak rows. A model trains alone as a stack of one; a lone model
    raises ShapeError. The FedProx anchor is the stack's own start rows: a
    nonzero `prox_mu` pulls each full step of a row toward that row of the
    stack passed in, which must then be laid out as one block (as `_stack`
    lays it out), or the first step raises ShapeError. A stack that lies in
    the arena's trained block, as the stack returned does, raises
    ValueError: the copy would overwrite it.
    """
    if updates < 0:
        raise ValueError(f"updates must be >= 0, got {updates}")
    into = arena.get("trained", (model.size,))
    if any(np.shares_memory(a, into) for a in model.arrays()):
        raise ValueError("local_train cannot train a stack that lies in its arena's trained block")
    trained = model.copy(into)
    workspace = Workspace(trained, cursor.batch_size, arena)
    mode = cursor.mode
    for _ in range(updates):
        cursor.join(trained)
        sgd_step_in_place(
            trained, cursor.next_batch(), workspace, learning_rate, mode, prox_mu, model
        )
    return trained


def execute_offloaded(
    feature: FeatureBlock,
    classifier_snapshot: ClassifierBlock,
    cursor: CohortCursor,
    updates: int,
    learning_rate: float,
    arena: Arena,
) -> FeatureBlock:
    """Train stacked feature blocks that others donated on local data.

    The donated classifier snapshots stay fixed; only the feature blocks
    move, trained in lockstep, as in `local_train`, in place on a copy of
    both blocks, in a `Workspace` of `arena`'s.
    """
    if updates < 0:
        raise ValueError(f"updates must be >= 0, got {updates}")
    model = merge(feature, classifier_snapshot)
    workspace = Workspace(model, cursor.batch_size, arena)
    mode = (workspace.stack, 0)
    for _ in range(updates):
        sgd_step_in_place(model, cursor.next_batch(), workspace, learning_rate, mode)
    return FeatureBlock(model.feature_weights, model.feature_bias)


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


def aggregate_fedavg(
    global_model: PartitionedModel, members: np.ndarray, weights: list[float]
) -> PartitionedModel:
    """Weighted parameter average, weights proportional to sample counts.

    `members` is a (members, parameters) array whose row k holds member k's
    parameters, flat, in the order of `arrays()`; it is overwritten. Each
    row is scaled by its share w_k / sum(w) in place, and one reduction sums
    the rows from the first to the last, bitwise the sum of adding each
    scaled member in turn into zeros. The average replaces `global_model`,
    of which only the layout is read, and is laid out as one new block.
    """
    _check_members(global_model, members, len(weights))
    if any(w <= 0 for w in weights):
        raise ValueError("aggregation weights must be positive")
    members *= (np.asarray(weights, dtype=np.float64) / left_sum(weights))[:, None]
    average = np.add.reduce(members, axis=0, initial=0.0)
    return on_block(average, [a.shape for a in global_model.arrays()], global_model.num_classes)


def aggregate_fednova(
    global_model: PartitionedModel,
    members: np.ndarray,
    weights: list[float],
    local_steps: list[int],
) -> PartitionedModel:
    """Normalized averaging: per-client deltas divided by their step counts.

    new = global + (sum_k p_k tau_k) * sum_k p_k (w_k - global) / tau_k

    `members` is laid out as for `aggregate_fedavg` and overwritten: row k
    becomes p_k * (w_k - global) / tau_k, in that order of operations, and
    one reduction sums the rows from the first to the last. The new model
    is laid out as one new block.
    """
    _check_members(global_model, members, len(weights))
    if len(weights) != len(local_steps):
        raise ValueError("models, weights and local_steps must align")
    if any(t < 1 for t in local_steps):
        raise ValueError("local step counts must be >= 1")
    p = np.asarray(weights, dtype=np.float64) / left_sum(weights)
    tau = np.asarray(local_steps, dtype=np.float64)
    effective = left_sum((p * tau).tolist())
    base = np.concatenate([a.ravel() for a in global_model.arrays()])
    members -= base
    members *= p[:, None]
    members /= tau[:, None]
    step = np.add.reduce(members, axis=0, initial=0.0)
    shapes = [a.shape for a in global_model.arrays()]
    return on_block(base + effective * step, shapes, global_model.num_classes)


def _check_members(model: PartitionedModel, members: np.ndarray, weights: int) -> None:
    """Raise ValueError unless `members` holds one row of `model`'s
    parameters for each of `weights` members, and at least one."""
    if members.ndim != 2 or members.shape[1] != model.size:
        raise ValueError(f"members of shape {members.shape} do not hold models of {model.size}")
    if not members.shape[0]:
        raise ValueError("aggregation needs at least one model")
    if members.shape[0] != weights:
        raise ValueError(f"{members.shape[0]} models but {weights} weights")


def evaluate_accuracy(model: PartitionedModel, dataset: Dataset, arena: Arena) -> float:
    """Share of correctly classified held-out samples.

    The forward pass runs at the start of the array of `arena`'s workspace
    activations (see `Workspace`), which a round no longer reads once it is
    trained.

    A sample's prediction is the arg-max of its class probabilities from
    `forward`, the first index on a tie. Most of the time it is read off the
    logits instead, with the softmax skipped. That is exact when each row's
    max logit m is finite and every other logit of the row is at most
    m - 1e-6 * max(1, |m|): the softmax subtracts m, which leaves exactly 0
    at the max and at most about -1e-6 elsewhere, so exp gives exactly 1 at
    the max and less than 1 - 9e-7 elsewhere, and dividing all of them by the
    same row sum keeps the max's quotient strictly the largest, since their
    gap is some 1e9 ulps wide. The probabilities' arg-max is then the logits'
    unique arg-max, and a row's label hits it iff its logit equals m. If any
    row misses the lead (a tie, a lead inside the margin, a NaN or an
    infinite max), every row takes the softmax path, in place on the logits.
    """
    batch = Batch(*dataset.test_rows)
    rows, hidden = batch.labels.shape[0], model.hidden_dim
    flat = arena.get("activations", (rows * (hidden + model.num_classes),))
    out = flat[: rows * hidden].reshape(rows, hidden), flat[rows * hidden :].reshape(rows, -1)
    _, logits = forward_logits(model, batch, out)
    # The row max, exact, as an elementwise chain over the few classes.
    top = logits[:, 0].copy()
    for c in range(1, logits.shape[1]):
        np.maximum(top, logits[:, c], out=top)
    exact = bool(np.isfinite(top).all())
    if exact:
        margin = np.abs(top)
        np.maximum(margin, 1.0, out=margin)
        margin *= 1e-6
        # Each max is above max - margin itself, so the count is the number
        # of rows iff no other logit of any row comes that close.
        exact = np.count_nonzero(logits > (top - margin)[:, None]) == top.shape[0]
    if exact:
        hits = logits[np.arange(top.shape[0]), batch.labels] == top
    else:
        hits = np.argmax(softmax(logits), axis=1) == batch.labels
    return float(np.mean(hits))


# --------------------------------------------------------------------------
# Results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSummary:
    strategy_label: str
    seed: int
    rounds: int
    total_time: float
    final_accuracy: float
    best_accuracy: float
    mean_round_duration: float
    sd_round_duration: float

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy_label,
            "seed": self.seed,
            "rounds": self.rounds,
            "total_time_s": self.total_time,
            "final_accuracy": self.final_accuracy,
            "best_accuracy": self.best_accuracy,
            "mean_round_duration_s": self.mean_round_duration,
            "sd_round_duration_s": self.sd_round_duration,
        }


@dataclass
class ExperimentResult:
    strategy_label: str
    seed: int
    traces: list[RoundTrace]
    summary: ExperimentSummary
    final_model: PartitionedModel | None = None


# --------------------------------------------------------------------------
# Experiment state
# --------------------------------------------------------------------------


@dataclass
class SeedData:
    """What every lane of one seed reads and none writes, built once.

    The dataset and the clients (each one's partition, speed factor and
    phase timings) are a function of the config and the seed, and so are
    the speed tiers and the similarity distances, each built on first use.
    The distances keep the clients' normalized class histograms (clients x
    classes floats) and compute each round's cohort block on demand. Every
    lane of the seed reads the same `ClientState`s; a lane keeps only its
    model and clock on top.
    """

    seed: int
    dataset: Dataset
    clients: tuple[ClientState, ...]
    _similarity: HistogramDistances | None = field(default=None, init=False, repr=False)
    _tiers: dict[int, list[list[int]]] = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def build(cls, config, seed: int) -> SeedData:
        samples = config.dataset.num_classes * config.dataset.samples_per_class
        with out_of_memory_as_config_error(
            f"the dataset of seed {seed} and its partition: {samples} samples x"
            f" {config.dataset.input_dim} inputs over {config.clients.count} clients",
            8 * samples * (config.dataset.input_dim + 1),
        ):
            dataset = generate_synthetic(
                num_classes=config.dataset.num_classes,
                samples_per_class=config.dataset.samples_per_class,
                input_dim=config.dataset.input_dim,
                seed=seed,
                noise_sigma=config.dataset.noise_sigma,
            )
            try:
                partitions = partition(
                    dataset,
                    config.clients.count,
                    mode=config.partition.mode,
                    classes_per_client=config.partition.classes_per_client,
                    sizes=config.partition.sizes,
                    seed=seed,
                )
            except PartitionError as exc:
                # Whether a noniid partition can be drawn depends on the seed's
                # random train split, so only the seed's own data can tell.
                raise ConfigError([f"partition: {exc} (seed {seed})"]) from exc
        speeds = _draw_speed_factors(config, seed)
        clients = tuple(
            ClientState(i, speed, scale_timings(config.profile.base, speed), part)
            for i, (part, speed) in enumerate(zip(partitions, speeds))
        )
        return cls(seed, dataset, clients)

    def similarity(self) -> HistogramDistances:
        if self._similarity is None:
            ids = [c.client_id for c in self.clients]
            oracle = SimilarityOracle(ids, self.dataset.num_classes)
            for c in self.clients:
                counts = tuple(c.partition.class_counts.tolist())
                oracle.submit(ClassCountSubmission(client_id=c.client_id, counts=counts))
            self._similarity = oracle.compute_matrix()
        return self._similarity

    def tiers(self, num_tiers: int) -> list[list[int]]:
        if num_tiers not in self._tiers:
            self._tiers[num_tiers] = build_tiers(self.clients, num_tiers)
        return self._tiers[num_tiers]


@dataclass
class ExperimentState:
    """One lane: a global model that training moves, a clock that `plan_round` moves.

    `arena` holds the buffers `run_round` trains and evaluates the lane's
    rounds in, made at its first round and kept for the next.
    """

    config: Any
    strategy: Strategy
    shared: SeedData
    global_model: PartitionedModel
    clock: float = 0.0
    arena: Arena | None = field(default=None, repr=False)

    @property
    def seed(self) -> int:
        return self.shared.seed

    @property
    def dataset(self) -> Dataset:
        return self.shared.dataset

    @property
    def clients(self) -> tuple[ClientState, ...]:
        return self.shared.clients

    def client(self, client_id: int) -> ClientState:
        return self.shared.clients[client_id]


def _batches_done(start: float, per_batch: float, now: float, cap: int) -> int:
    """Number of whole batches finished by `now`, robust to float rounding."""
    if now < start:
        return 0
    # Capped before the conversion: a tiny batch time makes the quotient inf.
    k = int(min((now - start) / per_batch, cap))
    while k + 1 <= cap and start + (k + 1) * per_batch <= now:
        k += 1
    while k > 0 and start + k * per_batch > now:
        k -= 1
    return min(k, cap)


def select_clients(
    num_clients: int, count: int, round_index: int, seed: int
) -> list[int]:
    """Uniform selection without replacement, reproducible per (seed, round)."""
    if not 1 <= count <= num_clients:
        raise ValueError(
            f"cannot select {count} clients out of {num_clients}"
        )
    rng = spawn_rng(seed, TAG_SELECTION, round_index)
    chosen = rng.choice(num_clients, size=count, replace=False)
    return sorted(int(c) for c in chosen)


def build_tiers(clients: Sequence[ClientState], num_tiers: int) -> list[list[int]]:
    """Near-equal-size groups ordered fastest to slowest by full batch time."""
    if not 1 <= num_tiers <= len(clients):
        raise ValueError(
            f"num_tiers must be in [1, {len(clients)}], got {num_tiers}"
        )
    order = sorted(clients, key=lambda c: (c.timings.full_time, c.client_id))
    ids = np.asarray([c.client_id for c in order])
    return [part.tolist() for part in np.array_split(ids, num_tiers)]


# --------------------------------------------------------------------------
# Round planning
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientPlan:
    """One selected client's part in a round, worked out from timings alone.

    The client runs `full_steps` full SGD steps on its copy of the global
    model. A client with a `receiver` hands its feature block off at
    `handoff_time` and then runs `frozen_steps` classifier-only steps, and
    the receiver trains the handed-off block for the same number of steps
    once its own budget is done; a client without one has no frozen steps.
    Times are relative to the round start; `submit_times` are the whole
    model's, or the classifier part's and the feature part's after a
    handoff. A dropped client runs no steps.
    """

    client_id: int
    full_steps: int
    submit_times: tuple[float, ...]
    frozen_steps: int = 0
    receiver: int | None = None
    handoff_time: float | None = None
    dropped: bool = False

    @property
    def completion(self) -> float:
        return max(self.submit_times)


@dataclass(frozen=True)
class RoundPlan:
    """A round's timeline; building one checks that every submit and handoff
    time in it is finite."""

    round_index: int
    clients: tuple[ClientPlan, ...]  # in selection order
    deadline: float | None
    schedule: OffloadSchedule | None

    def __post_init__(self) -> None:
        times = [t for p in self.clients for t in p.submit_times]
        times += [p.handoff_time for p in self.clients if p.handoff_time is not None]
        bad = next((t for t in times if not math.isfinite(t)), None)
        if bad is not None:
            raise ValueError(f"round {self.round_index}: plan times must be finite, got {bad}")

    @property
    def duration(self) -> float:
        included = [p.completion for p in self.clients if not p.dropped]
        if included:
            return max(included)
        # Every contribution missed the deadline; the round closes at the
        # deadline with the global model unchanged.
        return self.deadline if self.deadline is not None else 0.0

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(p.client_id for p in self.clients)

    @property
    def dropped(self) -> tuple[int, ...]:
        return tuple(p.client_id for p in self.clients if p.dropped)

    @property
    def offload_records(self) -> tuple[ClientPlan, ...]:
        """The plans of the clients that hand off, in handoff order, ties in
        schedule order."""
        assigned = [a.weak_client_id for a in self.schedule.assignments] if self.schedule else []
        weak = [p for p in self.clients if p.receiver is not None]
        return tuple(sorted(weak, key=lambda p: (p.handoff_time, assigned.index(p.client_id))))

    @property
    def num_offloads(self) -> int:
        """The schedule's assignments, not its executed handoffs: a weak
        client that finishes before the schedule arrives is assigned but
        hands nothing off. `len(offload_records)` counts the handoffs."""
        return len(self.schedule.assignments) if self.schedule else 0


@dataclass(frozen=True)
class RoundTrace(RoundPlan):
    """A round as it ran: its plan plus the global model's accuracy after it."""

    accuracy: float


def _whole_models(
    state: ExperimentState,
    round_index: int,
    selected: list[int],
    deadline: float | None = None,
    dropped: frozenset[int] = frozenset(),
) -> RoundPlan:
    """Each selected client submits its whole model after its budget; a
    dropped one runs no steps."""
    start, updates = state.clock, state.config.training.local_updates
    clients = tuple(
        ClientPlan(
            client_id=cid,
            full_steps=0 if cid in dropped else updates,
            submit_times=((start + updates * state.client(cid).timings.full_time) - start,),
            dropped=cid in dropped,
        )
        for cid in selected
    )
    return RoundPlan(round_index, clients, deadline, schedule=None)


def plan_round(state: ExperimentState, round_index: int) -> RoundPlan:
    """Plan a round from the state's clock under its strategy and move the clock
    to the round's end. Reads no model and trains nothing."""
    plan = state.strategy.plan(state, round_index)
    state.clock = state.clock + plan.duration
    return plan


# --------------------------------------------------------------------------
# Round execution
# --------------------------------------------------------------------------


def _stack(models: list[PartitionedModel], arena: Arena) -> PartitionedModel:
    """The models as one stack, laid out as one block of `arena`'s; each run
    of rows that holds the same model is copied in from it by broadcast."""
    first = models[0]
    shapes = [(len(models), *a.shape) for a in first.arrays()]
    block = arena.get("start", (len(models) * first.size,))
    stack = on_block(block, shapes, first.num_classes)
    row = 0
    for _, run in groupby(models, key=id):
        run = list(run)
        for out, a in zip(stack.arrays(), run[0].arrays()):
            out[row : row + len(run)] = a
        row += len(run)
    return stack


def _rows(model: PartitionedModel, rows: int | slice) -> PartitionedModel:
    """One member of a stacked model, or a slice of its rows, as views."""
    return PartitionedModel(*(a[rows] for a in model.arrays()), num_classes=model.num_classes)


def _lockstep(
    start: dict[Any, PartitionedModel],
    own: dict[Any, np.ndarray],
    donated: dict[Any, np.ndarray],
    data: _LaneData,
    learning_rate: float,
    prox_mu: float,
    arena: Arena,
) -> tuple[PartitionedModel | None, dict[Any, tuple[int, int]]]:
    """Train a round of kept clients stacked, in lockstep; return the trained
    stack and, per member, the rows of it that hold its model.

    A member is a (lane, client) pair that starts from `start[m]` and runs
    its own steps on `own[m]`: its batch indices into `data`'s arrays, one
    row per step, the same number for every member. A weak member also has
    `donated[m]`, the receiver's batches after the receiver's own, one row
    per step from its handoff on: from that step its row moves only the
    classifier, and a donated row, which joins the stack then as a copy of
    it, moves only the feature block, on those batches. The stack is
    [donated rows][full rows][weak rows], the donated and the weak rows in
    ascending order of donated steps, so that at each step the rows that
    run, the rows that move the feature block and the rows that move the
    classifier are each one range of it (see `CohortCursor`), and one
    `local_train` call trains the round. A member's rows are the pair
    (feature row, classifier row): one row for a full member, and for a weak
    member its donated row's feature block joined to its own row's
    classifier. FedProx pulls each row toward its own row of the start
    stack, which training leaves as it is and nothing reads once it has
    trained. The batches, the start stack, the trained stack and the
    workspaces are `arena`'s, and so is the stack returned, until its next
    use; with no member it is None.
    """
    if not own:
        return None, {}
    weak = sorted(donated, key=lambda m: len(donated[m]))
    full = [m for m in own if m not in donated]
    blocks = [donated[m] for m in weak] + [own[m] for m in full + weak]
    cursor = CohortCursor(data.inputs, data.labels, blocks, arena, len(weak))
    model = _stack([start[m] for m in weak + full + weak], arena)
    model = local_train(model, cursor, len(blocks[-1]), learning_rate, arena, prox_mu)
    d, rows = len(weak), len(blocks)
    if d:
        # perfbench/run.py reports `engine.execute_offloaded.steps`, a count
        # its tracer makes only when this function is called. The donated
        # rows trained above, so this call runs no step and keeps it at 0.
        execute_offloaded(*split(_rows(model, slice(0, 1))), cursor, 0, learning_rate, arena)
    members = {m: (d + k, d + k) for k, m in enumerate(full)}
    members.update({m: (i, rows - d + i) for i, m in enumerate(weak)})
    return model, members


@dataclass(frozen=True)
class _LaneData:
    """The training data of a group of lanes as one pair of arrays.

    Seed s's dataset is rows `first[s]` onward, so that a round of every
    lane gathers its batches in one take. A lane's dataset is a function of
    the config and its seed, so lanes of one seed share the seed's rows.
    """

    inputs: np.ndarray
    labels: np.ndarray
    first: dict[int, int]

    @classmethod
    def of(cls, states: list[ExperimentState]) -> _LaneData:
        datasets: dict[int, Dataset] = {}
        for state in states:
            datasets.setdefault(state.seed, state.dataset)
        if len(datasets) == 1:
            (only,) = datasets.values()
            return cls(only.inputs, only.labels, dict.fromkeys(datasets, 0))
        first, rows = {}, 0
        for seed, d in datasets.items():
            first[seed], rows = rows, rows + len(d.labels)
        return cls(
            np.concatenate([d.inputs for d in datasets.values()]),
            np.concatenate([d.labels for d in datasets.values()]),
            first,
        )


def _round_batches(
    states: list[ExperimentState], plans: list[RoundPlan], data: _LaneData
) -> dict[tuple[int, int], np.ndarray]:
    """Each kept client's batch indices for the round, one draw for every lane.

    The plans are of one round. A client's batches come from one stream,
    `spawn_rng(seed, TAG_BATCHES, round, client)`, whatever lane keeps it.
    The streams of a seed's kept clients are opened in one `spawn_rngs`
    pass, and each is read in one `BatchCursor._take` of the most steps any
    lane needs from it: `local_updates` of its own, plus, for a receiver,
    the longest block any lane donates it (`build_schedule` gives a receiver
    at most one block per round). A take of n indices is the first n of any
    longer take, so a lane reads a client's own steps as `draw[:updates]`
    and a block of f donated steps as `draw[updates : updates + f]` of the
    receiver's draw, each the batches the stream serves alone. Returns the
    (steps, batch_size) draws, keyed by (seed, client), as rows of `data`'s
    arrays.
    """
    training = states[0].config.training
    size, updates, round_index = training.batch_size, training.local_updates, plans[0].round_index
    needs: dict[int, tuple[ExperimentState, dict[int, int]]] = {}
    for state, plan in zip(states, plans):
        steps = needs.setdefault(state.seed, (state, {}))[1]
        for p in plan.clients:
            if not p.dropped:
                steps.setdefault(p.client_id, updates)
            if p.receiver is not None:
                steps[p.receiver] = max(steps.get(p.receiver, 0), updates + p.frozen_steps)
    draws = {}
    for seed, (state, steps) in needs.items():
        rngs = spawn_rngs((seed, TAG_BATCHES, round_index), steps)
        for (cid, n), rng in zip(steps.items(), rngs):
            indices = state.client(cid).partition.sample_indices
            cursor = BatchCursor(state.dataset.inputs, state.dataset.labels, indices, size, rng)
            draw = draws[seed, cid] = cursor._take(n * size).reshape(n, size)
            draw += data.first[seed]
    return draws


def _train_lanes(
    states: list[ExperimentState],
    plans: list[RoundPlan],
    data: _LaneData,
    arena: Arena,
) -> list[PartitionedModel]:
    """Run every lane's plan stacked; return each lane's new global model.

    `_round_batches` draws the round's batches, once for every lane of a
    seed, and each member reads its blocks as views of those draws. The
    round trains as one lockstep phase of `local_updates` steps per FedProx
    mu (see `_lockstep`), each row pulled toward its own lane's global
    model, its start model: every kept client runs exactly `local_updates`
    steps of its own, full and then classifier-only, and each donated block
    runs the weak client's classifier-only steps, so all of them end
    together. A plan that breaks this raises ValueError. Each stack trains
    in `arena` and is aggregated (`_aggregate`) before the next trains
    there; no lane's state is touched, so an error in any stack leaves
    every lane as it was.
    """
    lr = states[0].config.training.learning_rate
    updates = states[0].config.training.local_updates
    stacks: dict[float, tuple[dict, dict, dict]] = {}
    draws = _round_batches(states, plans, data)
    for lane, (state, plan) in enumerate(zip(states, plans)):
        start, own, donated = stacks.setdefault(state.strategy.prox_mu, ({}, {}, {}))
        for p in plan.clients:
            if p.dropped:
                continue
            if p.full_steps + p.frozen_steps != updates or (p.frozen_steps and p.receiver is None):
                raise ValueError(
                    f"round {plan.round_index} (seed {state.seed}): client {p.client_id} plans"
                    f" {p.full_steps} full and {p.frozen_steps} classifier-only steps; a kept"
                    f" client runs local_updates ({updates}) steps of its own and donates its"
                    " classifier-only ones"
                )
            m = (lane, p.client_id)
            start[m] = state.global_model
            own[m] = draws[state.seed, p.client_id][:updates]
            if p.frozen_steps:
                donated[m] = draws[state.seed, p.receiver][updates : updates + p.frozen_steps]
    models = [state.global_model for state in states]
    for prox_mu, (start, own, donated) in stacks.items():
        trained, rows = _lockstep(start, own, donated, data, lr, prox_mu, arena)
        for lane, state in enumerate(states):
            if state.strategy.prox_mu == prox_mu:
                models[lane] = _aggregate(state, plans[lane], lane, trained, rows, arena)
    return models


def _aggregate(
    state: ExperimentState,
    plan: RoundPlan,
    lane: int,
    trained: PartitionedModel | None,
    rows: dict[Any, tuple[int, int]],
    arena: Arena,
) -> PartitionedModel:
    """A lane's global model after its round, from its kept clients' models
    in the trained stack; the lane's own if it keeps no client.

    Member (lane, client) has its feature block in row `rows[lane, client][0]`
    of `trained` and its classifier in row `rows[lane, client][1]`. The
    lane's members are gathered in plan order into one (members, parameters)
    array, one `take` per array of the stack into its columns, laid out on
    `arena`'s start block, which nothing reads once the stack has trained.
    The weights are the kept clients' sample counts; FedNova's normalized
    averaging also reads the steps each ran on its own model.
    """
    included = [p for p in plan.clients if not p.dropped]
    if not included:
        return state.global_model
    feature, classifier = np.array([rows[lane, p.client_id] for p in included]).T
    members = arena.get("start", (len(included), state.global_model.size))
    col = 0
    for a, take in zip(trained.arrays(), (feature, feature, classifier, classifier)):
        a = a.reshape(a.shape[0], -1)
        a.take(take, axis=0, out=members[:, col : col + a.shape[1]], mode="clip")
        col += a.shape[1]
    weights = [float(state.client(p.client_id).num_samples) for p in included]
    if state.strategy.normalized_averaging:
        steps = [p.full_steps + p.frozen_steps for p in included]
        return aggregate_fednova(state.global_model, members, weights, steps)
    return aggregate_fedavg(state.global_model, members, weights)


def _run_lanes(
    states: list[ExperimentState], round_index: int, data: _LaneData, arena: Arena
) -> list[RoundTrace]:
    """Run round `round_index` of every lane: plan it, lanes in order, each from
    its own clock; train and aggregate the plans stacked, in `arena` (see
    `_train_lanes`); then give each lane its new global model and evaluate
    it in the same arena, whose workspace no lane reads once the round is
    trained. A lane's trace is its plan plus its accuracy."""
    plans = [plan_round(state, round_index) for state in states]
    training, dataset = states[0].config.training, states[0].config.dataset
    params = sum(a.size for a in states[0].global_model.arrays())
    # The arena holds one stack at a time, so the largest stack bounds it: a
    # row per kept client and per donated block, each with four models (start,
    # trained, gradients, FedProx differences) and, per sample, an index for
    # every step, one step's inputs and label, and its workspace: the hidden
    # units and their gradient, the logits and their class-major copy.
    stacks: dict[float, int] = {}
    for state, plan in zip(states, plans):
        kept = sum((not p.dropped) + (p.receiver is not None) for p in plan.clients)
        stacks[state.strategy.prox_mu] = stacks.get(state.strategy.prox_mu, 0) + kept
    rows = max(stacks.values())
    per_sample = training.local_updates + dataset.input_dim + 1
    per_sample += 2 * (training.hidden_dim + dataset.num_classes)
    try:
        with out_of_memory_as_config_error(
            f"round {round_index}'s training: {rows} stacked models of {params}"
            f" parameters and {training.local_updates} batches of {training.batch_size} samples",
            8 * rows * (4 * params + training.batch_size * per_sample),
        ):
            models = _train_lanes(states, plans, data, arena)
    except DivergenceError as exc:
        # Whether training diverges depends on the seed's data and draws.
        state, exc = _first_diverged(states, plans, exc)
        problem = f"training: diverged in round {round_index} (seed {state.seed}): {exc}"
        raise ConfigError([problem]) from exc
    traces = []
    for state, plan, model in zip(states, plans, models):
        state.global_model = model
        accuracy = evaluate_accuracy(model, state.dataset, arena)
        traces.append(RoundTrace(**vars(plan), accuracy=accuracy))
    return traces


def _first_diverged(
    states: list[ExperimentState], plans: list[RoundPlan], exc: DivergenceError
) -> tuple[ExperimentState, DivergenceError]:
    """The first lane, in lane order, whose round diverges when trained
    alone, and its error; each row of a stack trains as its lane alone."""
    if len(states) == 1:
        return states[0], exc
    for state, plan in zip(states, plans):
        try:
            _train_lanes([state], [plan], _LaneData.of([state]), Arena())
        except DivergenceError as lane_exc:
            return state, lane_exc
    raise exc


def run_round(state: ExperimentState, round_index: int) -> RoundTrace:
    """Run one round of the state's lane, `_run_lanes` for one lane, in the
    state's arena, which the config's last round lets go."""
    if state.arena is None:
        state.arena = Arena()
    trace = _run_lanes([state], round_index, _LaneData.of([state]), state.arena)[0]
    if round_index + 1 >= state.config.training.rounds:
        state.arena = None
    return trace


# --------------------------------------------------------------------------
# Experiment driver
# --------------------------------------------------------------------------


def _draw_speed_factors(config, seed: int) -> list[float]:
    clients = config.clients
    if clients.speed_factors is not None:
        return [float(f) for f in clients.speed_factors]
    rng = spawn_rng(seed, TAG_SPEEDS)
    return rng.uniform(clients.speed_low, clients.speed_high, clients.count).tolist()


def build_state(config, strategy: Strategy, seed: int) -> ExperimentState:
    """Materialize dataset, clients and the initial global model."""
    return _lane_state(config, strategy, SeedData.build(config, seed))


def _lane_state(config, strategy: Strategy, shared: SeedData) -> ExperimentState:
    """A lane's own state on its seed's shared data: model and clock."""
    init_seed = int(
        np.random.SeedSequence([shared.seed, TAG_MODEL_INIT]).generate_state(1)[0]
    )
    dims, hidden = config.dataset, config.training.hidden_dim
    with out_of_memory_as_config_error(
        f"the {strategy.label} model of seed {shared.seed}: {dims.input_dim} inputs,"
        f" {hidden} hidden units and {dims.num_classes} classes",
        8 * ((dims.input_dim + 1) * hidden + (hidden + 1) * dims.num_classes),
    ):
        global_model = init_model(dims.input_dim, hidden, dims.num_classes, init_seed)
    return ExperimentState(config, strategy, shared, global_model)


def run_experiments(config, tasks: list[tuple[Strategy, int]]) -> list[ExperimentResult]:
    """Run all configured rounds for each (strategy, seed) task, in lockstep.

    Each task is a lane with its own state. The lanes of one seed share its
    `SeedData`, built once. Round by round, every lane plans the round and
    then all lanes train it together, one stack per FedProx mu, each
    aggregated as soon as it trains (see `_run_lanes`); each lane's results
    are bitwise those of running it alone. Every lane's state is held for
    the whole run, and so is one arena that every stack trains in.
    """
    seeds: dict[int, SeedData] = {}
    states = []
    for strategy, seed in tasks:
        if seed not in seeds:
            seeds[seed] = SeedData.build(config, seed)
        states.append(_lane_state(config, strategy, seeds[seed]))
    data, arena = _LaneData.of(states), Arena()
    traces: list[list[RoundTrace]] = [[] for _ in states]
    for r in range(config.training.rounds):
        for lane, trace in zip(traces, _run_lanes(states, r, data, arena)):
            lane.append(trace)
    return [_result(state, lane) for state, lane in zip(states, traces)]


def run_experiment(config, strategy: Strategy, seed: int) -> ExperimentResult:
    """Run all configured rounds for one strategy and seed."""
    return run_experiments(config, [(strategy, seed)])[0]


def _result(state: ExperimentState, traces: list[RoundTrace]) -> ExperimentResult:
    durations = np.asarray([t.duration for t in traces], dtype=np.float64)
    accuracies = [t.accuracy for t in traces]
    summary = ExperimentSummary(
        strategy_label=state.strategy.label,
        seed=state.seed,
        rounds=len(traces),
        total_time=float(durations.sum()),
        final_accuracy=accuracies[-1] if accuracies else 0.0,
        best_accuracy=max(accuracies) if accuracies else 0.0,
        mean_round_duration=float(durations.mean()) if len(durations) else 0.0,
        sd_round_duration=float(durations.std()) if len(durations) else 0.0,
    )
    return ExperimentResult(
        strategy_label=state.strategy.label,
        seed=state.seed,
        traces=traces,
        summary=summary,
        final_model=state.global_model,
    )
