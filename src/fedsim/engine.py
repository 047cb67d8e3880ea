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
  call trains a copy of the stack in place, in one `model.Workspace` that
  holds every per-step intermediate, so the steps allocate no arrays; the
  untouched stack is FedProx's anchor. Each kept client's stream is opened
  for the round and draws all its batches in one take, split into its own
  steps and a donated block's, and the round gathers every row's batches
  once, into one `CohortCursor`. Every client sees the batches it would
  draw alone, in the same order, and comes out bitwise equal to training
  alone, a weak client as its full, classifier-only and donated steps one
  after another. A round's `RoundTrace` is its plan plus its accuracy.

`run_experiments` runs several experiments, each a (strategy, seed) *lane*
with its own model and clock on its seed's shared data (`SeedData`, built
once per seed: the dataset and the clients), in lockstep: every round of
every lane is planned first, from that lane's own clock; then in each round
all lanes train as one stack per FedProx mu, each row pulled toward its own
lane's global model, and each lane aggregates and evaluates on its own. A
row of a stack trains as its lane alone would, so each lane's traces and
models are bitwise those of running it alone; `run_experiment` and
`run_round` are the one-lane case.

Each strategy is a `Strategy` subclass below; its docstring says what it does
in a round. Planning calls its methods; training and aggregation read it
only as data, through `prox_mu` and `normalized_averaging`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Sequence

import numpy as np

from .data import ClientPartition, Dataset, PartitionError, generate_synthetic, partition
from .errors import ConfigError, out_of_memory_as_config_error
from .model import (
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
    sgd_step_in_place,
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
    spawn_rng,
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
# (`ge` or `gt`) and, where it differs from the field name, its YAML key.


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
        return self.name

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
    mu: float = field(default=0.01, metadata={"ge": 0})

    @property
    def label(self) -> str:
        return f"fedprox_mu{self.mu:g}"

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
    num_tiers: int = field(default=3, metadata={"ge": 1, "key": "tiers"})

    @property
    def label(self) -> str:
        return f"tifl_t{self.num_tiers}"

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
    multiplier: float = field(default=1.0, metadata={"gt": 0})

    @property
    def label(self) -> str:
        return f"deadline_m{self.multiplier:g}"

    def plan(self, state, round_index):
        selected = self.select(state, round_index)
        updates = state.config.training.local_updates
        completions = {cid: updates * state.client(cid).timings.full_time for cid in selected}
        deadline = self.multiplier * (sum(completions.values()) / len(completions))
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
    similarity_factor: float = field(default=1.0, metadata={"ge": 0})
    profile_batches: int = field(default=1, metadata={"ge": 1})
    profile_noise_sigma: float = field(default=0.0, metadata={"ge": 0})

    @property
    def label(self) -> str:
        return f"freeze_offload_f{self.similarity_factor:g}"

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
        profiles = [self._profile(state, round_index, cid, computed_at) for cid in selected]
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

    def _profile(self, state, round_index, cid, computed_at) -> ClientProfile:
        """Client cid's profile as the federator holds it at `computed_at`."""
        c = state.client(cid)
        updates = state.config.training.local_updates
        done = _batches_done(state.clock, c.timings.full_time, computed_at, updates)
        # Noiseless profiles draw nothing, so they need no stream.
        noisy = self.profile_noise_sigma != 0.0
        rng = spawn_rng(state.seed, TAG_PROFILE, round_index, cid) if noisy else None
        try:
            return measure(
                cid, c.timings, updates - done, self.profile_batches, self.profile_noise_sigma, rng
            )
        except ValueError as exc:
            if not noisy:
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

    It serves a lone model, a stack of one row that takes full steps and
    that no row joins: `mode` is that row's pair for `sgd_step_in_place`,
    and `join` does nothing.
    """

    mode = (1, 1)

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
        fresh = self._rng.permuted(np.tile(self._indices, (passes, 1)), axis=1)
        self._order = fresh[-1]
        self._pos = n - (passes - 1) * size
        if pos == order.shape[0]:
            return fresh.ravel()[:n]
        return np.concatenate([order[pos:], fresh.ravel()[:n]])

    def join(self, model: PartitionedModel) -> None:
        pass

    def next_batch(self) -> Batch:
        idx = self._take(self.batch_size)
        return Batch(inputs=self._inputs[idx], labels=self._labels[idx])


class CohortCursor:
    """Stacked batches of a cohort that trains in lockstep, and the rows that join it.

    `blocks` holds each row's sample indices, one row of `batch_size` indices
    per step it runs, with the rows in order of step count. Every row runs
    until the last step, so a row with fewer steps joins the stack later,
    and the rows that run a step are a suffix of the stack. On construction
    the indices are gathered from the shared data arrays in one go,
    step-major, so that each step is one contiguous block. `next_batch` then
    serves one step at a time as a Batch of shape (k, batch_size, input_dim)
    for the k rows that run it, as a view, whose row i is what that row's
    own cursor serves at that step.

    `handoffs`, non-increasing, pairs the first d rows of the stack, the
    donated rows, with the last d, the weak rows, in order. Weak row i takes
    full steps until step handoffs[i] and classifier-only steps from there
    on. Donated row i joins at that step as a copy of weak row i (`join`
    makes the copy), and from then on moves only its feature block. The rows
    in between take full steps throughout. So the rows that move the feature
    block are the first n - d that run each step, and the rows that move the
    classifier the last n - d of a stack of n: `mode` is the pair
    (n - d, n - d) for every step of `sgd_step_in_place`, and (n, n), a full
    step for every row that runs, without handoffs.
    """

    def __init__(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        blocks: list[np.ndarray],
        handoffs: Sequence[int] = (),
    ) -> None:
        steps = [b.shape[0] for b in blocks]
        if steps != sorted(steps):
            raise ValueError("cohort members must come in order of step count")
        size = blocks[0].shape[1]
        if any(b.shape[1] != size for b in blocks):
            raise ValueError("cohort members must share one batch size")
        handoffs = list(handoffs)
        last, rows, d = steps[-1], len(blocks), len(handoffs)
        joins = [last - n for n in steps]
        if d and (2 * d > rows or handoffs != joins[:d] or any(joins[d:])):
            raise ValueError(
                "each handoff needs a donated row at the front of the stack that joins"
                " at its step and a weak row at the back, and every other row runs"
                " every step"
            )
        idx = np.zeros((last, rows, size), dtype=np.int64)
        # Steps before a row joins read sample 0 and are never served.
        running = np.arange(last) >= np.asarray(joins)[:, None]
        idx.swapaxes(0, 1)[running] = np.concatenate(blocks)
        self._inputs = inputs.take(idx, axis=0)
        self._labels = labels.take(idx)
        self.batch_size = size
        self._first = np.searchsorted(steps, last - np.arange(last)).tolist()
        self._step = 0
        self.mode = (rows - d, rows - d)
        # The donated rows that join at each step, and their weak rows: the
        # rows with one handoff step are one range of each block.
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
        return Batch(inputs=self._inputs[step, first:], labels=self._labels[step, first:])


@dataclass(frozen=True)
class ClientState:
    client_id: int
    speed_factor: float
    timings: PhaseTimings
    partition: ClientPartition
    # Read by perfbench/tracer.py's round hook for dropped clients. A
    # client's batch stream lives only inside `_phase_blocks`.
    cursor: ClassVar[None] = None

    @property
    def num_samples(self) -> int:
        return self.partition.size


def local_train(
    model: PartitionedModel,
    cursor: BatchCursor | CohortCursor,
    updates: int,
    learning_rate: float,
    prox_mu: float = 0.0,
    anchor: PartitionedModel | None = None,
) -> PartitionedModel:
    """Run `updates` SGD steps and return the new model.

    The model passed in is left as it is: the steps train a copy of it in
    place, in one `Workspace` for the call. Every step takes the cursor's
    `mode`, the pair that says which rows move which block. A lone model on
    a `BatchCursor` takes full steps. A stacked model on a `CohortCursor`
    trains in lockstep: each step moves the rows that run it, a suffix of
    the stack, so one call trains a whole round and each row comes out
    trained on its own steps only; before each step, the donated rows that
    join at it are copied from their weak rows.
    """
    if updates < 0:
        raise ValueError(f"updates must be >= 0, got {updates}")
    model = model.copy()
    workspace = Workspace(model, cursor.batch_size)
    mode = cursor.mode
    for _ in range(updates):
        cursor.join(model)
        sgd_step_in_place(
            model, cursor.next_batch(), workspace, learning_rate, mode, prox_mu, anchor
        )
    return model


def execute_offloaded(
    feature: FeatureBlock,
    classifier_snapshot: ClassifierBlock,
    cursor: BatchCursor | CohortCursor,
    updates: int,
    learning_rate: float,
) -> FeatureBlock:
    """Train someone else's feature block on local data.

    The donated classifier snapshot stays fixed; only the feature block
    moves, trained in place on a copy of both blocks. Stacked blocks on a
    `CohortCursor` train in lockstep, as in `local_train`.
    """
    if updates < 0:
        raise ValueError(f"updates must be >= 0, got {updates}")
    model = merge(feature, classifier_snapshot)
    workspace = Workspace(model, cursor.batch_size)
    mode = (workspace.stack or 1, 0)
    for _ in range(updates):
        sgd_step_in_place(model, cursor.next_batch(), workspace, learning_rate, mode)
    return FeatureBlock(model.feature_weights, model.feature_bias)


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


def aggregate_fedavg(
    models: list[PartitionedModel], weights: list[float]
) -> PartitionedModel:
    """Weighted parameter average, weights proportional to sample counts."""
    if not models:
        raise ValueError("aggregate_fedavg needs at least one model")
    if len(models) != len(weights):
        raise ValueError(f"{len(models)} models but {len(weights)} weights")
    if any(w <= 0 for w in weights):
        raise ValueError("aggregation weights must be positive")
    total = sum(weights)
    acc = [np.zeros_like(a) for a in models[0].arrays()]
    for model, w in zip(models, weights):
        p = w / total
        for slot, arr in zip(acc, model.arrays()):
            slot += p * arr
    return PartitionedModel(acc[0], acc[1], acc[2], acc[3], models[0].num_classes)


def aggregate_fednova(
    global_model: PartitionedModel,
    models: list[PartitionedModel],
    weights: list[float],
    local_steps: list[int],
) -> PartitionedModel:
    """Normalized averaging: per-client deltas divided by their step counts.

    new = global + (sum_k p_k tau_k) * sum_k p_k (w_k - global) / tau_k
    """
    if not models:
        raise ValueError("aggregate_fednova needs at least one model")
    if not len(models) == len(weights) == len(local_steps):
        raise ValueError("models, weights and local_steps must align")
    if any(t < 1 for t in local_steps):
        raise ValueError("local step counts must be >= 1")
    total = sum(weights)
    p = [w / total for w in weights]
    effective = sum(pi * tau for pi, tau in zip(p, local_steps))
    acc = [np.zeros_like(a) for a in global_model.arrays()]
    for model, pi, tau in zip(models, p, local_steps):
        for slot, arr, base in zip(acc, model.arrays(), global_model.arrays()):
            slot += pi * (arr - base) / tau
    merged = [
        base + effective * slot for base, slot in zip(global_model.arrays(), acc)
    ]
    return PartitionedModel(
        merged[0], merged[1], merged[2], merged[3], global_model.num_classes
    )


def evaluate_accuracy(model: PartitionedModel, dataset: Dataset) -> float:
    """Share of correctly classified held-out samples.

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
    infinite max), every row takes the softmax path.
    """
    batch = Batch(*dataset.test_rows)
    _, logits = forward_logits(model, batch)
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
        _, probs = forward(model, batch)
        hits = np.argmax(probs, axis=1) == batch.labels
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
                counts = tuple(int(x) for x in c.partition.class_counts)
                oracle.submit(ClassCountSubmission(client_id=c.client_id, counts=counts))
            self._similarity = oracle.compute_matrix()
        return self._similarity

    def tiers(self, num_tiers: int) -> list[list[int]]:
        if num_tiers not in self._tiers:
            self._tiers[num_tiers] = build_tiers(self.clients, num_tiers)
        return self._tiers[num_tiers]


@dataclass
class ExperimentState:
    """One lane: a global model that training moves, a clock that `plan_round` moves."""

    config: Any
    strategy: Strategy
    shared: SeedData
    global_model: PartitionedModel
    clock: float = 0.0

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
    return [[int(x) for x in part] for part in np.array_split(ids, num_tiers)]


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


def _stack(models: list[PartitionedModel]) -> PartitionedModel:
    arrays = [np.stack(parts) for parts in zip(*(m.arrays() for m in models))]
    return PartitionedModel(*arrays, num_classes=models[0].num_classes)


def _rows(model: PartitionedModel, rows: int) -> PartitionedModel:
    """One member of a stacked model, as views."""
    return PartitionedModel(*(a[rows] for a in model.arrays()), num_classes=model.num_classes)


def _lockstep(
    start: dict[Any, PartitionedModel],
    own: dict[Any, np.ndarray],
    handoffs: dict[Any, int],
    donated: dict[Any, np.ndarray],
    data: _LaneData,
    learning_rate: float,
    prox_mu: float = 0.0,
) -> dict[Any, PartitionedModel]:
    """Train a round of kept clients stacked, in lockstep; return their models.

    A member is a (lane, client) pair that starts from `start[m]` and runs
    its own steps on `own[m]`: its batch indices into `data`'s arrays, one
    row per step, the same number for every member. A weak member hands off
    at step `handoffs[m]`: from there on its row moves only the classifier,
    and a donated row, which joins the stack at that step as a copy of it,
    moves only the feature block, on `donated[m]`, the receiver's batches
    after the receiver's own. The stack is [donated rows][full rows][weak
    rows], the donated and the weak rows in descending order of handoff
    step, so that at each step the rows that run, the rows that move the
    feature block and the rows that move the classifier are each one range
    of it (see `CohortCursor`), and one `local_train` call trains the
    round. A weak member's model joins its donated row's feature block to
    its own row's classifier, both as views. The FedProx anchor is the start
    stack, which training leaves as it is.
    """
    if not own:
        return {}
    weak = sorted(handoffs, key=lambda m: -handoffs[m])
    full = [m for m in own if m not in handoffs]
    blocks = [donated[m] for m in weak] + [own[m] for m in full + weak]
    cursor = CohortCursor(data.inputs, data.labels, blocks, [handoffs[m] for m in weak])
    model = _stack([start[m] for m in weak + full + weak])
    model = local_train(model, cursor, len(blocks[-1]), learning_rate, prox_mu, model)
    d, rows = len(weak), len(blocks)
    if d:
        # perfbench/run.py reports `engine.execute_offloaded.steps`, a count
        # its tracer makes only when this function is called. The donated
        # rows trained above, so this call runs no step and keeps it at 0.
        execute_offloaded(*split(_rows(model, 0)), cursor, 0, learning_rate)
    trained = {m: _rows(model, d + k) for k, m in enumerate(full)}
    for i, m in enumerate(weak):
        feature, classifier = _rows(model, i), _rows(model, rows - d + i)
        trained[m] = PartitionedModel(
            feature.feature_weights,
            feature.feature_bias,
            classifier.classifier_weights,
            classifier.classifier_bias,
            model.num_classes,
        )
    return trained


def _phase_blocks(
    state: ExperimentState, plan: RoundPlan
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Each kept client's batch indices for the round, from one take per stream.

    Opens every kept client's batch stream for the round and draws all the
    batches that stream serves in the round at once: the client's own steps
    (a weak client's full and then classifier-only steps), then, for a
    receiver, the donated block's steps, which follow its own budget.
    `build_schedule` gives a receiver at most one block per round. A take of
    a + b indices is the take of a followed by the take of b, so the stream
    serves each block the batches it would serve alone.
    Returns the (steps, batch_size) index blocks of the clients' own steps,
    keyed by client, and of the donated blocks, keyed by the weak client
    whose feature block trains on them.
    """
    size = state.config.training.batch_size
    weak = [p for p in plan.clients if p.receiver is not None]
    donated_to = {p.receiver: p.frozen_steps for p in weak}
    own_steps = {p.client_id: p.full_steps + p.frozen_steps for p in plan.clients}
    draws: dict[int, np.ndarray] = {}
    for p in plan.clients:
        if p.dropped:
            continue
        cursor = BatchCursor(
            state.dataset.inputs,
            state.dataset.labels,
            state.client(p.client_id).partition.sample_indices,
            size,
            spawn_rng(state.seed, TAG_BATCHES, plan.round_index, p.client_id),
        )
        steps = own_steps[p.client_id] + donated_to.get(p.client_id, 0)
        draws[p.client_id] = cursor._take(steps * size).reshape(steps, size)
    own = {cid: rows[: own_steps[cid]] for cid, rows in draws.items()}
    donated = {p.client_id: draws[p.receiver][own_steps[p.receiver] :] for p in weak}
    return own, donated


@dataclass(frozen=True)
class _LaneData:
    """The training data of a group of lanes as one pair of arrays.

    Lane i's dataset is rows `bases[i]` onward, so that a round of every
    lane gathers its batches in one take. A lane's dataset is a function of
    the config and its seed, so lanes of one seed share the seed's rows.
    """

    inputs: np.ndarray
    labels: np.ndarray
    bases: tuple[int, ...]

    @classmethod
    def of(cls, states: list[ExperimentState]) -> _LaneData:
        datasets: dict[int, Dataset] = {}
        for state in states:
            datasets.setdefault(state.seed, state.dataset)
        if len(datasets) == 1:
            (only,) = datasets.values()
            return cls(only.inputs, only.labels, (0,) * len(states))
        first, rows = {}, 0
        for seed, d in datasets.items():
            first[seed], rows = rows, rows + len(d.labels)
        return cls(
            np.concatenate([d.inputs for d in datasets.values()]),
            np.concatenate([d.labels for d in datasets.values()]),
            tuple(first[state.seed] for state in states),
        )


def _train_lanes(
    states: list[ExperimentState], plans: list[RoundPlan], data: _LaneData
) -> list[dict[int, PartitionedModel]]:
    """Run every lane's plan stacked; return each lane's kept clients' models.

    `_phase_blocks` draws each lane's batches, and the round trains as one
    lockstep phase of `local_updates` steps per FedProx mu (see
    `_lockstep`), each row pulled toward its own lane's global model, its
    start model: every kept client runs exactly `local_updates` steps of its
    own, full and then classifier-only, and each donated block runs the weak
    client's classifier-only steps, so all of them end together. A plan
    that breaks this raises ValueError.
    """
    lr = states[0].config.training.learning_rate
    updates = states[0].config.training.local_updates
    stacks: dict[float, tuple[dict, dict, dict, dict]] = {}
    for lane, (state, plan) in enumerate(zip(states, plans)):
        base = data.bases[lane]
        start, own, handoffs, donated = stacks.setdefault(state.strategy.prox_mu, ({}, {}, {}, {}))
        own_blocks, donated_blocks = _phase_blocks(state, plan)
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
            own[m] = own_blocks[p.client_id] + base if base else own_blocks[p.client_id]
            if p.frozen_steps:
                handoffs[m] = p.full_steps
                rows = donated_blocks[p.client_id]
                donated[m] = rows + base if base else rows
    trained: dict[tuple[int, int], PartitionedModel] = {}
    for prox_mu, (start, own, handoffs, donated) in stacks.items():
        trained.update(_lockstep(start, own, handoffs, donated, data, lr, prox_mu))
    lanes: list[dict[int, PartitionedModel]] = [{} for _ in states]
    for (lane, cid), model in trained.items():
        lanes[lane][cid] = model
    return lanes


def _finish_round(
    state: ExperimentState, plan: RoundPlan, trained: dict[int, PartitionedModel]
) -> RoundTrace:
    """Aggregate and evaluate a lane's round; its trace is the plan plus the accuracy.

    The weights are the kept clients' sample counts; FedNova's normalized
    averaging also reads the steps each ran on its own model.
    """
    included = [p for p in plan.clients if not p.dropped]
    if included:
        models = [trained[p.client_id] for p in included]
        weights = [float(state.client(p.client_id).num_samples) for p in included]
        if state.strategy.normalized_averaging:
            steps = [p.full_steps + p.frozen_steps for p in included]
            state.global_model = aggregate_fednova(state.global_model, models, weights, steps)
        else:
            state.global_model = aggregate_fedavg(models, weights)
    return RoundTrace(**vars(plan), accuracy=evaluate_accuracy(state.global_model, state.dataset))


def _run_lanes(
    states: list[ExperimentState], plans: list[RoundPlan], data: _LaneData
) -> list[RoundTrace]:
    """Train one round of every lane from its plan, stacked; aggregate and evaluate each."""
    training, width = states[0].config.training, states[0].config.dataset.input_dim
    params = sum(a.size for a in states[0].global_model.arrays())
    # A row per kept client and per donated block, each with four models (start,
    # trained, gradients, FedProx differences), its batches and its workspace.
    rows = sum((not p.dropped) + (p.receiver is not None) for plan in plans for p in plan.clients)
    per_sample = training.local_updates * (width + 2) + 2 * training.hidden_dim
    try:
        with out_of_memory_as_config_error(
            f"round {plans[0].round_index}'s training: {rows} stacked models of {params}"
            f" parameters and {training.local_updates} batches of {training.batch_size} samples",
            8 * rows * (4 * params + training.batch_size * per_sample),
        ):
            trained = _train_lanes(states, plans, data)
    except DivergenceError as exc:
        # Whether training diverges depends on the seed's data and draws.
        state, exc = _first_diverged(states, plans, exc)
        problem = f"training: diverged in round {plans[0].round_index} (seed {state.seed}): {exc}"
        raise ConfigError([problem]) from exc
    return [_finish_round(*lane) for lane in zip(states, plans, trained)]


def _first_diverged(
    states: list[ExperimentState], plans: list[RoundPlan], exc: DivergenceError
) -> tuple[ExperimentState, DivergenceError]:
    """The first lane, in lane order, whose round diverges when trained
    alone, and its error; each row of a stack trains as its lane alone."""
    if len(states) == 1:
        return states[0], exc
    for state, plan in zip(states, plans):
        try:
            _train_lanes([state], [plan], _LaneData.of([state]))
        except DivergenceError as lane_exc:
            return state, lane_exc
    raise exc


def run_round(state: ExperimentState, round_index: int) -> RoundTrace:
    """Plan one round under the state's strategy (moving its clock), then train it."""
    return _run_lanes([state], [plan_round(state, round_index)], _LaneData.of([state]))[0]


# --------------------------------------------------------------------------
# Experiment driver
# --------------------------------------------------------------------------


def _draw_speed_factors(config, seed: int) -> list[float]:
    clients = config.clients
    if clients.speed_factors is not None:
        return [float(f) for f in clients.speed_factors]
    rng = spawn_rng(seed, TAG_SPEEDS)
    return [
        float(f)
        for f in rng.uniform(clients.speed_low, clients.speed_high, clients.count)
    ]


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
    `SeedData`, built once. Every round of every lane is planned first
    (round-major, lanes in order), then round r of all lanes trains
    together, one stack per FedProx mu (see `_train_lanes`); each lane's results
    are bitwise those of running it alone. Every lane's state and plans are
    held for the whole run.
    """
    seeds: dict[int, SeedData] = {}
    states = []
    for strategy, seed in tasks:
        if seed not in seeds:
            seeds[seed] = SeedData.build(config, seed)
        states.append(_lane_state(config, strategy, seeds[seed]))
    plans = [[plan_round(state, r) for state in states] for r in range(config.training.rounds)]
    data = _LaneData.of(states)
    traces: list[list[RoundTrace]] = [[] for _ in states]
    for round_plans in plans:
        for lane, trace in zip(traces, _run_lanes(states, round_plans, data)):
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
