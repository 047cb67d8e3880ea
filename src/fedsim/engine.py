"""Virtual-time federated training engine.

A round runs in two passes.

* The plan (`plan_round`) computes the round's timeline from the state's
  clock. A round's steps come in a fixed order (clients profile, the
  federator schedules once the last report is in, a straggler hands off and
  then submits two parts), so each strategy's `plan` writes every time as a
  closed-form expression of the per-batch costs of the four-phase timing
  model in `profiling`: the submit times, the freeze_offload schedule, the
  handoffs and the deadline drops follow from timings alone, never from
  model values. The plan trains nothing: it is a `RoundPlan` that gives each
  selected client its full, frozen and donated step counts, the receiver of
  its donated steps, its submit times and whether it is dropped. Virtual
  time never waits on wall-clock time.
* The executor trains the plan. Training is real: every client the plan
  keeps runs SGD on its own partition, so model quality reacts to the
  strategy as round durations do. A dropped client runs no steps. Each
  phase (full steps, classifier-only steps, steps on a donated feature
  block) trains its clients stacked, in lockstep: their parameters and
  batches carry a leading cohort axis (see `model`), and a client leaves
  the stack when it has run its steps: each lockstep step moves only the
  clients still running, a suffix of the stack, so one `local_train` or
  `execute_offloaded` call trains a whole phase. The call trains a copy of
  the stack in place, in one `model.Workspace` that holds every per-step
  intermediate, so the steps allocate no arrays. Each kept client's stream
  draws all its batches of the round in one take; these are split by
  phase, and each phase gathers its clients' batches once, into one
  `CohortCursor`. Every client sees the batches it would draw alone, in the
  same order, and comes out bitwise equal to training alone.

`run_experiments` runs several experiments, each a (strategy, seed) *lane*
with its own state, in lockstep: round r of each lane is planned from that
lane's own clock, then every phase of all lanes trains as one stack (the
full phases as one stack per FedProx mu, each member pulled toward its own
lane's global model), and each lane aggregates and evaluates on its own.
A row of a stack trains as its lane alone would, so each lane's traces and models are bitwise
those of running it alone; `run_experiment` and `run_round` are the
one-lane case.

Each strategy is a `Strategy` subclass below; its docstring says what it does
in a round, and its methods are the only place the engine tells strategies
apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

import numpy as np

from .data import ClientPartition, Dataset, PartitionError, generate_synthetic, partition
from .errors import ConfigError
from .model import (
    Batch,
    ClassifierBlock,
    DivergenceError,
    FeatureBlock,
    PartitionedModel,
    Workspace,
    forward,
    init_model,
    merge,
    sgd_step_in_place,
)

# The allocating reference step functions. Training runs through
# `sgd_step_in_place`; these stay bound here because perfbench/tracer.py
# looks them up on this module.
from .model import backward_frozen, backward_full, sgd_step, split  # noqa: F401
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
from .similarity import ClassCountSubmission, SimilarityMatrix, SimilarityOracle


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

    The engine tells strategies apart only through these: `setup` once per
    experiment, then in each round `plan` (which calls `select` and returns
    the round's `RoundPlan`), `prox_mu` (training) and `aggregate`. The
    config parser adds the problems `check` finds with the `clients` and
    `training` sections.
    """

    name: ClassVar[str]
    prox_mu: ClassVar[float] = 0.0

    @property
    def label(self) -> str:
        return self.name

    def setup(self, state: ExperimentState) -> None:
        """Build the per-experiment state the strategy needs."""

    def select(self, state: ExperimentState, round_index: int) -> list[int]:
        per_round = state.config.clients.per_round
        return select_clients(len(state.clients), per_round, round_index, state.seed)

    def plan(self, state: ExperimentState, round_index: int) -> RoundPlan:
        """Every selected client submits its whole model after its budget."""
        return _whole_models(state, round_index, self.select(state, round_index))

    def aggregate(self, global_model, models, weights, steps) -> PartitionedModel:
        """The new global model from the kept clients' models, their sample
        counts and the steps each ran on its own model."""
        return aggregate_fedavg(models, weights)

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

    def aggregate(self, global_model, models, weights, steps):
        return aggregate_fednova(global_model, models, weights, steps)


@dataclass(frozen=True)
class Tifl(Strategy):
    """Clients pre-grouped into speed tiers; each round samples one tier,
    round-robin."""

    name: ClassVar[str] = "tifl"
    num_tiers: int = field(default=3, metadata={"ge": 1, "key": "tiers"})

    @property
    def label(self) -> str:
        return f"tifl_t{self.num_tiers}"

    def setup(self, state):
        state.tiers = build_tiers(state.clients, self.num_tiers)

    def select(self, state, round_index):
        tier = state.tiers[round_index % len(state.tiers)]
        take = min(state.config.clients.per_round, len(tier))
        rng = spawn_rng(state.seed, TAG_SELECTION, round_index)
        chosen = rng.choice(len(tier), size=take, replace=False)
        return sorted(int(tier[int(i)]) for i in chosen)

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
    machines after the handoff.
    """

    name: ClassVar[str] = "freeze_offload"
    similarity_factor: float = field(default=1.0, metadata={"ge": 0})
    # The parser defaults these two to the `profile` section's values.
    profile_batches: int = field(default=1, metadata={"ge": 1})
    profile_noise_sigma: float = field(default=0.0, metadata={"ge": 0})

    @property
    def label(self) -> str:
        return f"freeze_offload_f{self.similarity_factor:g}"

    def setup(self, state):
        oracle = SimilarityOracle([c.client_id for c in state.clients], state.dataset.num_classes)
        for c in state.clients:
            counts = tuple(int(x) for x in c.partition.class_counts)
            oracle.submit(ClassCountSubmission(client_id=c.client_id, counts=counts))
        state.similarity = oracle.compute_matrix()

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
        schedule = build_schedule(profiles, state.similarity, self.similarity_factor, round_index)

        handoffs: list[tuple[float, OffloadRecord]] = []
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
                donated_steps=remaining,
                receiver=strong.client_id,
            )
            record = OffloadRecord(
                weak_client_id=weak.client_id,
                strong_client_id=strong.client_id,
                offload_point=a.offload_point,
                full_batches=full,
                frozen_batches=remaining,
                offloaded_batches=remaining,
                handoff_time=handoff - start,
            )
            handoffs.append((handoff, record))
        # In handoff order; the sort is stable, so ties keep schedule order.
        handoffs.sort(key=lambda h: h[0])
        return RoundPlan(
            round_index=round_index,
            clients=tuple(clients.values()),
            deadline=None,
            schedule=schedule,
            offload_records=tuple(record for _, record in handoffs),
        )

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
                cid,
                c.timings,
                updates,
                self.profile_batches,
                self.profile_noise_sigma,
                rng,
                batches_awaiting_schedule=done - self.profile_batches,
            )
        except ValueError as exc:
            if not noisy:
                raise
            # The noise overflowed a profiled phase time.
            problem = (
                f"profile.noise_sigma: {self.profile_noise_sigma:g} breaks the profiles"
                f" in round {round_index} (seed {state.seed}): {exc}"
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
    """Deterministic endless stream of mini-batches over a client's samples."""

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
        self._order = self._rng.permutation(self._indices)
        self._pos = 0

    def _take(self, n: int) -> np.ndarray:
        """The next n sample indices.

        Each pass over the samples is a fresh permutation, drawn when the
        previous pass is used up. The passes one take needs are drawn in one
        `permuted` call, which shuffles row after row with the same draws as
        that many `permutation` calls.
        """
        pos, size = self._pos, self._order.shape[0]
        if pos + n <= size:
            self._pos = pos + n
            return self._order[pos : pos + n]
        head = self._order[pos:]
        n -= size - pos
        passes = -(-n // size)
        fresh = self._rng.permuted(np.tile(self._indices, (passes, 1)), axis=1)
        self._order = fresh[-1]
        self._pos = n - (passes - 1) * size
        return np.concatenate([head, fresh.ravel()[:n]])

    def next_batch(self) -> Batch:
        idx = self._take(self.batch_size)
        return Batch(inputs=self._inputs[idx], labels=self._labels[idx])


class CohortCursor:
    """Stacked batches of one phase of a cohort that trains in lockstep.

    `blocks` holds each member's sample indices for the phase, one row of
    `batch_size` indices per step, with the members in order of step count.
    On construction they are gathered from the shared data arrays in one go,
    step-major, so that each step is one contiguous block. `next_batch` then
    serves one step at a time as a Batch of shape (K, batch_size, input_dim)
    whose row k is what member k's own cursor serves at that step. Only the
    members that still have the step are served, as a view of a suffix of
    the stack: the members that have run all their steps leave from the
    front.
    """

    def __init__(self, inputs: np.ndarray, labels: np.ndarray, blocks: list[np.ndarray]) -> None:
        steps = [b.shape[0] for b in blocks]
        if steps != sorted(steps):
            raise ValueError("cohort members must come in order of step count")
        size = blocks[0].shape[1]
        if any(b.shape[1] != size for b in blocks):
            raise ValueError("cohort members must share one batch size")
        idx = np.zeros((steps[-1], len(blocks), size), dtype=np.int64)
        # Steps a member does not run read sample 0 and are never served.
        running = np.arange(steps[-1]) < np.asarray(steps)[:, None]
        idx.swapaxes(0, 1)[running] = np.concatenate(blocks)
        self._inputs = inputs.take(idx, axis=0)
        self._labels = labels.take(idx)
        self.batch_size = size
        self._first = np.searchsorted(steps, np.arange(steps[-1]), side="right").tolist()
        self._step = 0

    def next_batch(self) -> Batch:
        step, first = self._step, self._first[self._step]
        self._step += 1
        return Batch(inputs=self._inputs[step, first:], labels=self._labels[step, first:])


@dataclass
class ClientState:
    client_id: int
    speed_factor: float
    timings: PhaseTimings
    partition: ClientPartition
    # The client's batch stream in the current round; None if it does not
    # train in that round.
    cursor: BatchCursor | None = None

    @property
    def num_samples(self) -> int:
        return self.partition.size


def local_train(
    model: PartitionedModel,
    cursor: BatchCursor | CohortCursor,
    updates: int,
    learning_rate: float,
    mode: str = "full",
    prox_mu: float = 0.0,
    anchor: PartitionedModel | None = None,
) -> PartitionedModel:
    """Run `updates` SGD steps and return the new model.

    In "frozen" mode only the classifier block moves. The model passed in is
    left as it is: the steps train a copy of it in place, in one `Workspace`
    for the call. A stacked model on a `CohortCursor` trains in lockstep:
    each step moves the members that still have that step, a suffix of the
    stack, so one call trains a whole phase and each member comes out
    trained on its own steps only.
    """
    if updates < 0:
        raise ValueError(f"updates must be >= 0, got {updates}")
    if mode not in ("full", "frozen"):
        raise ValueError(f"unknown training mode {mode!r}")
    model = model.copy()
    workspace = Workspace(model, cursor.batch_size)
    for _ in range(updates):
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
    for _ in range(updates):
        sgd_step_in_place(model, cursor.next_batch(), workspace, learning_rate, mode="feature")
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
    """Share of correctly classified held-out samples."""
    idx = dataset.test_indices
    batch = Batch(inputs=dataset.inputs[idx], labels=dataset.labels[idx])
    _, probs = forward(model, batch)
    return float(np.mean(np.argmax(probs, axis=1) == batch.labels))


# --------------------------------------------------------------------------
# Round traces
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OffloadRecord:
    """Audit row for one executed handoff (all times relative to round start)."""

    weak_client_id: int
    strong_client_id: int
    offload_point: int
    full_batches: int
    frozen_batches: int
    offloaded_batches: int
    handoff_time: float

    def to_dict(self) -> dict:
        return {
            "weak_client_id": self.weak_client_id,
            "strong_client_id": self.strong_client_id,
            "offload_point": self.offload_point,
            "full_batches": self.full_batches,
            "frozen_batches": self.frozen_batches,
            "offloaded_batches": self.offloaded_batches,
            "handoff_time": self.handoff_time,
        }


@dataclass(frozen=True)
class RoundTrace:
    round_index: int
    duration: float
    accuracy: float
    selected: tuple[int, ...]
    completion_times: dict[int, float]
    dropped: tuple[int, ...]
    num_offloads: int
    schedule: OffloadSchedule | None = None
    offload_records: tuple[OffloadRecord, ...] = ()


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
class ExperimentState:
    config: Any
    strategy: Strategy
    seed: int
    dataset: Dataset
    clients: list[ClientState]
    global_model: PartitionedModel
    # Built by `Strategy.setup`: freeze_offload's and tifl's.
    similarity: SimilarityMatrix | None = None
    tiers: list[list[int]] | None = None
    clock: float = 0.0

    def client(self, client_id: int) -> ClientState:
        return self.clients[client_id]


def _batches_done(start: float, per_batch: float, now: float, cap: int) -> int:
    """Number of whole batches finished by `now`, robust to float rounding."""
    if now < start:
        return 0
    k = int((now - start) / per_batch)
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


def build_tiers(clients: list[ClientState], num_tiers: int) -> list[list[int]]:
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
    model. After an executed handoff it runs `frozen_steps` classifier-only
    steps, and `receiver` trains its feature block for `donated_steps` steps
    once the receiver's own budget is done. `submit_times` are relative to
    the round start: the whole model's, or the classifier part's and the
    feature part's after a handoff. A dropped client runs no steps.
    """

    client_id: int
    full_steps: int
    submit_times: tuple[float, ...]
    frozen_steps: int = 0
    donated_steps: int = 0
    receiver: int | None = None
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
    offload_records: tuple[OffloadRecord, ...]

    def __post_init__(self) -> None:
        times = [t for p in self.clients for t in p.submit_times]
        times += [rec.handoff_time for rec in self.offload_records]
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
    return RoundPlan(round_index, clients, deadline, schedule=None, offload_records=())


def plan_round(state: ExperimentState, round_index: int) -> RoundPlan:
    """Plan a round from the state's clock under its strategy; trains nothing."""
    return state.strategy.plan(state, round_index)


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
    blocks: dict[Any, np.ndarray],
    data: _LaneData,
    train: Callable[[list, PartitionedModel, CohortCursor, int], PartitionedModel],
) -> dict[Any, PartitionedModel]:
    """Train the members of one phase stacked, in lockstep; return their models.

    A member is a (lane, client) pair. `blocks[m]` holds member m's batch
    indices for the phase into `data`'s arrays, one row per step. They are
    gathered into one `CohortCursor`, and `train(members, model, cursor, n)`
    runs n lockstep steps of the stack on it, row k being `members[k]`. The
    members that run the fewest steps sit first, and each leaves the stack
    once it has run its steps: every later step serves and moves only the
    members still running, a suffix of the stack. So one call trains the
    whole phase, and each member's row comes out as trained on its own
    steps. Members with no steps are left out.
    """
    steps = {m: len(b) for m, b in blocks.items()}
    members = sorted((m for m, n in steps.items() if n > 0), key=steps.__getitem__)
    if not members:
        return {}
    cursor = CohortCursor(data.inputs, data.labels, [blocks[m] for m in members])
    model = train(members, _stack([start[m] for m in members]), cursor, steps[members[-1]])
    return {m: _rows(model, k) for k, m in enumerate(members)}


def _phase_blocks(
    state: ExperimentState, plan: RoundPlan
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Each phase's batch indices per client, from one take per stream.

    Gives every kept client its round's batch stream (`ClientState.cursor`;
    None for every other client) and draws all the batches that stream serves
    in the round at once: a weak client's full and classifier-only steps,
    a receiver's full steps and then the donated block's steps, which follow
    its own budget. `build_schedule` gives a receiver at most one block per
    round. A take of a + b indices is the take of a followed by the take of
    b, so the stream serves each phase the batches it would serve alone.
    Returns the (steps, batch_size) index blocks of the full, frozen and
    donated phases, each keyed by the client whose model trains on them.
    """
    size = state.config.training.batch_size
    weak = [p for p in plan.clients if p.receiver is not None]
    donated_to = {p.receiver: p.donated_steps for p in weak}
    full_steps = {p.client_id: p.full_steps for p in plan.clients}
    draws: dict[int, np.ndarray] = {}
    # A stream lasts one round; release the last round's.
    for c in state.clients:
        c.cursor = None
    for p in plan.clients:
        if p.dropped:
            continue
        c = state.client(p.client_id)
        c.cursor = BatchCursor(
            state.dataset.inputs,
            state.dataset.labels,
            c.partition.sample_indices,
            size,
            spawn_rng(state.seed, TAG_BATCHES, plan.round_index, p.client_id),
        )
        steps = p.full_steps + p.frozen_steps + donated_to.get(p.client_id, 0)
        draws[p.client_id] = c.cursor._take(steps * size).reshape(steps, size)
    full = {cid: rows[: full_steps[cid]] for cid, rows in draws.items()}
    frozen = {p.client_id: draws[p.client_id][p.full_steps :] for p in weak}
    donated = {p.client_id: draws[p.receiver][full_steps[p.receiver] :] for p in weak}
    return full, frozen, donated


@dataclass(frozen=True)
class _LaneData:
    """The training data of a group of lanes as one pair of arrays.

    Lane i's dataset is rows `bases[i]` onward, so that a phase of every
    lane gathers its batches in one take. A lane's dataset is a function of
    the config and its seed, so lanes of one seed share the seed's rows.
    """

    inputs: np.ndarray
    labels: np.ndarray
    bases: tuple[int, ...]

    @classmethod
    def of(cls, states: list[ExperimentState]) -> _LaneData:
        if len(states) == 1:
            return cls(states[0].dataset.inputs, states[0].dataset.labels, (0,))
        first: dict[int, int] = {}
        datasets: list[Dataset] = []
        for state in states:
            if state.seed not in first:
                first[state.seed] = sum(len(d.labels) for d in datasets)
                datasets.append(state.dataset)
        return cls(
            np.concatenate([d.inputs for d in datasets]),
            np.concatenate([d.labels for d in datasets]),
            tuple(first[state.seed] for state in states),
        )


def _train_lanes(
    states: list[ExperimentState], plans: list[RoundPlan], data: _LaneData
) -> list[dict[int, PartitionedModel]]:
    """Run every lane's plan stacked; return each lane's kept clients' models.

    Phases run in the order each client's batch stream serves them: full
    steps, then a weak client's classifier-only steps, then the receiver's
    steps on the donated feature block. `_phase_blocks` draws each lane's
    batches, and each phase of all lanes gathers them into one
    `CohortCursor` and trains in one `Workspace`; the full phases of lanes
    with different FedProx mu train as one stack per mu, each member pulled
    toward its own lane's global model. A weak client's model joins the
    feature block of its donated phase to the classifier of its frozen
    phase, both as views.
    """
    lr = states[0].config.training.learning_rate
    full_blocks: dict[float, dict[tuple[int, int], np.ndarray]] = {}
    frozen_blocks: dict[tuple[int, int], np.ndarray] = {}
    donated_blocks: dict[tuple[int, int], np.ndarray] = {}
    for lane, (state, plan) in enumerate(zip(states, plans)):
        base = data.bases[lane]
        full_blocks.setdefault(state.strategy.prox_mu, {})
        for into, phase in zip(
            (full_blocks[state.strategy.prox_mu], frozen_blocks, donated_blocks),
            _phase_blocks(state, plan),
        ):
            into.update(((lane, cid), rows + base if base else rows) for cid, rows in phase.items())

    def full(prox_mu: float):
        def train(members, model, cursor, n):
            anchor = None
            if prox_mu != 0.0:
                anchor = _stack([states[lane].global_model for lane, _ in members])
            return local_train(model, cursor, n, lr, mode="full", prox_mu=prox_mu, anchor=anchor)

        return train

    def frozen(members, model, cursor, n):
        return local_train(model, cursor, n, lr, mode="frozen")

    def donated(members, model, cursor, n):
        block = execute_offloaded(
            FeatureBlock(model.feature_weights, model.feature_bias),
            ClassifierBlock(model.classifier_weights, model.classifier_bias),
            cursor,
            n,
            lr,
        )
        return PartitionedModel(
            block.weights,
            block.bias,
            model.classifier_weights,
            model.classifier_bias,
            model.num_classes,
        )

    trained: dict[tuple[int, int], PartitionedModel] = {}
    for prox_mu, blocks in full_blocks.items():
        start = {m: states[m[0]].global_model for m in blocks}
        trained.update(_lockstep(start, blocks, data, full(prox_mu)))
    classifier_parts = _lockstep(trained, frozen_blocks, data, frozen)
    feature_parts = _lockstep(trained, donated_blocks, data, donated)
    for m in frozen_blocks:
        feature, classifier = feature_parts[m], classifier_parts[m]
        trained[m] = PartitionedModel(
            feature.feature_weights,
            feature.feature_bias,
            classifier.classifier_weights,
            classifier.classifier_bias,
            classifier.num_classes,
        )
    lanes: list[dict[int, PartitionedModel]] = [{} for _ in states]
    for (lane, cid), model in trained.items():
        lanes[lane][cid] = model
    return lanes


def _finish_round(
    state: ExperimentState, plan: RoundPlan, trained: dict[int, PartitionedModel]
) -> RoundTrace:
    """Aggregate a lane's trained models, evaluate and advance its clock."""
    included = [p for p in plan.clients if not p.dropped]
    if included:
        state.global_model = state.strategy.aggregate(
            state.global_model,
            [trained[p.client_id] for p in included],
            [float(state.client(p.client_id).num_samples) for p in included],
            [p.full_steps + p.frozen_steps for p in included],
        )

    trace = RoundTrace(
        round_index=plan.round_index,
        duration=plan.duration,
        accuracy=evaluate_accuracy(state.global_model, state.dataset),
        selected=tuple(p.client_id for p in plan.clients),
        completion_times={p.client_id: p.completion for p in plan.clients},
        dropped=tuple(p.client_id for p in plan.clients if p.dropped),
        num_offloads=len(plan.schedule.assignments) if plan.schedule else 0,
        schedule=plan.schedule,
        offload_records=plan.offload_records,
    )
    state.clock = state.clock + trace.duration
    return trace


def _run_lanes(
    states: list[ExperimentState], round_index: int, data: _LaneData
) -> list[RoundTrace]:
    """Run round `round_index` of every lane: plan each, train all of them
    stacked, then aggregate and evaluate each."""
    plans = [plan_round(state, round_index) for state in states]
    try:
        trained = _train_lanes(states, plans, data)
    except DivergenceError as exc:
        # Whether training diverges depends on the seed's data and draws.
        state, exc = _first_diverged(states, plans, exc)
        problem = f"training: diverged in round {round_index} (seed {state.seed}): {exc}"
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
    """Simulate one round under the state's strategy and advance the clock."""
    return _run_lanes([state], round_index, _LaneData.of([state]))[0]


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
    base = config.profile.base
    clients = [
        ClientState(
            client_id=i,
            speed_factor=speeds[i],
            timings=scale_timings(base, speeds[i]),
            partition=partitions[i],
        )
        for i in range(config.clients.count)
    ]
    init_seed = int(
        np.random.SeedSequence([seed, TAG_MODEL_INIT]).generate_state(1)[0]
    )
    global_model = init_model(
        config.dataset.input_dim,
        config.training.hidden_dim,
        config.dataset.num_classes,
        init_seed,
    )
    state = ExperimentState(
        config=config,
        strategy=strategy,
        seed=seed,
        dataset=dataset,
        clients=clients,
        global_model=global_model,
    )
    strategy.setup(state)
    return state


def run_experiments(config, tasks: list[tuple[Strategy, int]]) -> list[ExperimentResult]:
    """Run all configured rounds for each (strategy, seed) task, in lockstep.

    Each task is a lane with its own state. Round r of every lane is planned
    from that lane's clock, and then all lanes train it together, one stack
    per phase (see `_train_lanes`); each lane's results are bitwise those of
    running it alone. Every lane's state is held for the whole run.
    """
    states = [build_state(config, strategy, seed) for strategy, seed in tasks]
    data = _LaneData.of(states)
    traces: list[list[RoundTrace]] = [[] for _ in states]
    for r in range(config.training.rounds):
        for lane, trace in zip(traces, _run_lanes(states, r, data)):
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
