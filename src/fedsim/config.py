"""Experiment configuration: YAML loading, validation, and echoing.

The schema is flat YAML with one mapping per concern. Every field has a
default, so the empty document is a valid (if small) experiment. Validation
collects all problems before raising so a bad file is reported in one pass.

Example::

    seed: 42
    replicates: 3
    dataset: {num_classes: 10, samples_per_class: 240, input_dim: 8, noise_sigma: 0.8}
    partition: {mode: noniid, classes_per_client: 3}
    clients: {count: 24, per_round: 3, speed_low: 0.1, speed_high: 1.0}
    training: {rounds: 100, local_updates: 16, batch_size: 32, learning_rate: 0.05, hidden_dim: 32}
    profile: {base: {ff: 0.15, fc: 0.05, bc: 0.15, bf: 0.65}}
    latency: {dispatch: 0.0, transfer: 0.0}
    strategies:
      - {name: fedavg}
      - {name: freeze_offload, similarity_factor: 1.0, profile_batches: 1,
         profile_noise_sigma: 0.0}
"""

from __future__ import annotations

import math
from dataclasses import Field, asdict, dataclass, field, fields
from typing import Any, Callable

import numpy as np
import yaml

from .data import client_quotas, train_count
from .engine import STRATEGIES, FedAvg, FreezeOffload, Strategy
from .errors import ConfigError
from .profiling import DEFAULT_BASE_TIMINGS, PhaseTimings

# Each dataclass field below is one YAML key: the field's default is the
# key's default, and its metadata holds a lower bound (`ge` or `gt`) that
# the value must meet on its own. Rules that tie fields together are
# written out in `parse_config`. The strategies in `engine` follow the same
# scheme.


@dataclass(frozen=True)
class DatasetConfig:
    num_classes: int = field(default=10, metadata={"ge": 2})
    samples_per_class: int = field(default=240, metadata={"ge": 2})
    input_dim: int = field(default=8, metadata={"ge": 1})
    noise_sigma: float = field(default=0.8, metadata={"ge": 0})


@dataclass(frozen=True)
class PartitionConfig:
    mode: str = "iid"
    classes_per_client: int | None = None
    sizes: Any = "equal"


@dataclass(frozen=True)
class ClientsConfig:
    count: int = field(default=24, metadata={"ge": 1})
    per_round: int = 3
    speed_low: float = 0.1
    speed_high: float = 1.0
    speed_factors: tuple[float, ...] | None = None


@dataclass(frozen=True)
class TrainingConfig:
    rounds: int = field(default=100, metadata={"ge": 1})
    local_updates: int = field(default=16, metadata={"ge": 1})
    batch_size: int = field(default=32, metadata={"ge": 1})
    learning_rate: float = field(default=0.05, metadata={"gt": 0})
    hidden_dim: int = field(default=32, metadata={"ge": 1})


@dataclass(frozen=True)
class ProfileConfig:
    base: PhaseTimings = DEFAULT_BASE_TIMINGS


@dataclass(frozen=True)
class LatencyConfig:
    dispatch: float = field(default=0.0, metadata={"ge": 0})
    transfer: float = field(default=0.0, metadata={"ge": 0})


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    clients: ClientsConfig = field(default_factory=ClientsConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    strategies: tuple[Strategy, ...] = (FedAvg(),)
    seed: int = field(default=42, metadata={"ge": 0})
    replicates: int = field(default=1, metadata={"ge": 1})


# The scalar field types `_read` parses, by annotation. Fields of any other
# type (sections, strategies, sizes, speed_factors, base) are parsed by hand.
_KINDS = {"int": int, "int | None": int, "float": float, "str": str}


def _key(f: Field) -> str:
    return f.metadata.get("key", f.name)


def _keys(cls) -> set[str]:
    return {_key(f) for f in fields(cls)}


def _is_number(value: Any) -> bool:
    """An int or float from the document. YAML reads `true` as a bool, an int
    subclass, and "16" as a string; neither counts as a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get(raw: dict, section: str, key: str, default, kind, problems: list[str]):
    value = raw.get(key, default)
    if value is None and default is None:
        return None
    if kind is str:
        if isinstance(value, str):
            return value
    elif _is_number(value) and math.isfinite(value):
        if kind is float:
            return float(value)
        # Reject silent float truncation such as rounds: 2.5.
        if value == int(value):
            if -(2**63) <= value < 2**63:
                return int(value)
            # Larger ints overflow numpy and file names downstream.
            problems.append(f"{section}.{key}: expected a 64-bit int, got {value!r}")
            return default
    elif kind is float and _is_number(value):
        # .nan and .inf pass every range check, then break the run.
        problems.append(f"{section}.{key}: must be finite, got {value!r}")
        return default
    problems.append(f"{section}.{key}: expected {kind.__name__}, got {value!r}")
    return default


def _read(cls, raw: dict, where: str, problems: list[str]) -> tuple[dict, bool]:
    """Read the scalar fields of dataclass `cls` from the mapping `raw`, each
    checked by `_get` and then against its field's bound. Returns the values
    by field name and whether every bound held."""
    values, ok = {}, True
    for f in fields(cls):
        kind = _KINDS.get(f.type)
        if kind is None:
            continue
        key = _key(f)
        value = values[f.name] = _get(raw, where, key, f.default, kind, problems)
        # A top-level bound names the key alone ("seed: must be >= 0").
        name = key if where == "top level" else f"{where}.{key}"
        if "ge" in f.metadata and value < f.metadata["ge"]:
            problems.append(f"{name}: must be >= {f.metadata['ge']}, got {value}")
            ok = False
        if "gt" in f.metadata and not value > f.metadata["gt"]:
            problems.append(f"{name}: must be > {f.metadata['gt']}, got {value}")
            ok = False
    return values, ok


def _parse_strategy(entry: Any, index: int, problems: list[str]) -> Strategy | None:
    """One `strategies` entry; None when it names no strategy or breaks a bound."""
    where = f"strategies[{index}]"
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, dict):
        problems.append(f"{where}: expected a mapping or name string, got {entry!r}")
        return None
    name = entry.get("name")
    cls = next((c for c in STRATEGIES if c.name == name), None)
    if cls is None:
        names = ", ".join(c.name for c in STRATEGIES)
        problems.append(f"{where}.name: expected one of {names}, got {name!r}")
        return None
    values, ok = _read(cls, entry, where, problems)
    unknown = set(entry) - _keys(cls) - {"name"}
    if unknown:
        problems.append(f"{where}: unknown keys {sorted(unknown, key=str)}")
    return cls(**values) if ok else None


def _speed_factors(clients: dict, problems: list[str]) -> tuple[float, ...] | None:
    factors = clients.get("speed_factors")
    if factors is None:
        return None
    if not isinstance(factors, list) or not factors:
        problems.append(f"clients.speed_factors: expected a non-empty list, got {factors!r}")
        return None
    if not all(_is_number(f) for f in factors):
        problems.append("clients.speed_factors: entries must be numbers")
        return None
    factors = tuple(float(f) for f in factors)
    if any(not 0 < f <= 1 for f in factors):
        problems.append("clients.speed_factors: entries must be in (0, 1]")
    return factors


def _base(profile: dict, problems: list[str]) -> PhaseTimings:
    base = profile.get("base")
    if base is None:
        return DEFAULT_BASE_TIMINGS
    if not (isinstance(base, dict) and set(base) == {"ff", "fc", "bc", "bf"}):
        problems.append(f"profile.base: expected a mapping with keys ff, fc, bc, bf, got {base!r}")
    elif not all(_is_number(v) for v in base.values()):
        problems.append(f"profile.base: entries must be numbers, got {base!r}")
    else:
        try:
            return PhaseTimings(**{k: float(v) for k, v in base.items()})
        except ValueError as exc:
            problems.append(f"profile.base: {exc}")
    return DEFAULT_BASE_TIMINGS


def _check_quotas(
    dataset: DatasetConfig, part: PartitionConfig, count: int, problems: list[str]
) -> None:
    """Apportion the train split as `data.partition` will and check each share.

    Every client needs at least one sample, and in noniid mode one of each
    of its classes. Runs on an otherwise valid document only.
    """
    where = "partition" if part.sizes == "equal" else "partition.sizes"
    n_train = train_count(dataset.num_classes * dataset.samples_per_class)
    if count > n_train:
        # Some client gets nothing; apportioning would allocate count-sized arrays.
        smallest = 0
    else:
        try:
            smallest = min(client_quotas(n_train, count, part.sizes))
        except ArithmeticError:
            problems.append(f"{where}: the weights cannot apportion {n_train} samples")
            return
    need = part.classes_per_client if part.mode == "noniid" else 1
    if smallest < need:
        problems.append(
            f"{where}: the smallest of {count} clients gets {smallest} of the"
            f" {n_train} training samples, needs at least {need}"
        )


def _check_horizon(
    clients: ClientsConfig, training: TrainingConfig, profile: ProfileConfig,
    latency: LatencyConfig, problems: list[str],
) -> None:
    """Check that every time in the run's round plans is finite.

    Bounds them from above: in each round (and the one after the last) the
    slowest client runs its budget and at most as many donated steps
    again, and waits out the dispatch and transfer latencies. Runs on an
    otherwise valid document.
    """
    slowest = min(clients.speed_factors) if clients.speed_factors else clients.speed_low
    per_batch = profile.base.full_time / slowest
    per_round = 2 * training.local_updates * per_batch + latency.dispatch + latency.transfer
    if not math.isfinite((training.rounds + 1) * per_round):
        problems.append(
            f"virtual time overflows: {training.rounds} rounds of up to"
            f" 2 x {training.local_updates} batches of {per_batch:g} s at speed {slowest:g},"
            f" plus {latency.dispatch:g} s dispatch and {latency.transfer:g} s transfer"
        )


def _check_sizes(
    dataset: DatasetConfig,
    clients: ClientsConfig,
    training: TrainingConfig,
    lanes: int,
    problems: list[str],
) -> None:
    """Check that the largest float64 arrays of a run each fit in one numpy
    array; reports the first that does not. `fedsim run` trains the run's
    `lanes` experiments (strategies x replicates) in lockstep, so one phase
    may stack lanes * per_round models. Runs on an otherwise valid
    document."""
    k, hidden, width = lanes * clients.per_round, training.hidden_dim, dataset.input_dim
    arrays = {
        "dataset (num_classes * samples_per_class, input_dim)": (
            dataset.num_classes * dataset.samples_per_class, width
        ),
        "stacked models (strategies * replicates * per_round,"
        " max(input_dim, num_classes), hidden_dim)": (k, max(width, dataset.num_classes), hidden),
        "workspace (strategies * replicates * per_round, batch_size, hidden_dim)": (
            k, training.batch_size, hidden
        ),
        # A round's batches, as `CohortCursor` gathers them. This also bounds
        # the indices: the gather's index block holds one per sample, and a
        # client's take of at most 2 * local_updates * batch_size indices is
        # two rows' worth at most, as a donated block needs two or more rows.
        "batches (local_updates, strategies * replicates * per_round, batch_size,"
        " input_dim)": (training.local_updates, k, training.batch_size, width),
    }
    limit = np.iinfo(np.intp).max
    for name, shape in arrays.items():
        if 8 * math.prod(shape) > limit:
            problems.append(
                f"{name}: {' x '.join(map(str, shape))} float64 values exceed the"
                f" {limit} bytes one array can hold"
            )
            return


def parse_config(raw: Any) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed YAML document."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError([f"top level: expected a mapping, got {type(raw).__name__}"])
    # Unknown sections and keys are listed in document order, so the same
    # document gives the same message whatever the string hash seed.
    sections = _keys(ExperimentConfig)
    problems = [f"top level: unknown section {key!r}" for key in raw if key not in sections]

    def section(cls, name: str, **by_hand: Callable[[dict, list[str]], Any]):
        """Read section `name` into `cls`; `by_hand` parses the fields that
        are not scalars, each from the section's mapping."""
        mapping = raw.get(name, {})
        if mapping is None:
            mapping = {}
        elif not isinstance(mapping, dict):
            problems.append(f"{name}: expected a mapping, got {mapping!r}")
            mapping = {}
        known = _keys(cls)
        problems.extend(f"{name}: unknown key {key!r}" for key in mapping if key not in known)
        values, _ = _read(cls, mapping, name, problems)
        return cls(**values, **{k: parse(mapping, problems) for k, parse in by_hand.items()})

    dataset = section(DatasetConfig, "dataset")

    part = section(PartitionConfig, "partition", sizes=lambda m, _: m.get("sizes", "equal"))
    if part.mode not in ("iid", "noniid"):
        problems.append(f"partition.mode: expected iid or noniid, got {part.mode!r}")
    if part.mode == "noniid":
        k = part.classes_per_client
        if k is None or k < 1:
            problems.append(f"partition.classes_per_client: must be >= 1 for noniid, got {k}")
        elif k > dataset.num_classes:
            problems.append(
                f"partition.classes_per_client: must be <= num_classes"
                f" ({dataset.num_classes}), got {k}"
            )
    if not (part.sizes == "equal" or isinstance(part.sizes, list)):
        problems.append(
            f"partition.sizes: expected 'equal' or a list of weights, got {part.sizes!r}"
        )
    elif isinstance(part.sizes, list) and not all(
        _is_number(w) and 0 < w < math.inf for w in part.sizes
    ):
        problems.append("partition.sizes: weights must be positive finite numbers")

    clients = section(ClientsConfig, "clients", speed_factors=_speed_factors)
    if not 1 <= clients.per_round <= max(clients.count, 1):
        problems.append(
            f"clients.per_round: must be in [1, {clients.count}], got {clients.per_round}"
        )
    if not 0 < clients.speed_low <= clients.speed_high <= 1:
        problems.append(
            "clients: need 0 < speed_low <= speed_high <= 1, got"
            f" [{clients.speed_low}, {clients.speed_high}]"
        )
    if clients.speed_factors is not None and len(clients.speed_factors) != clients.count:
        problems.append(
            f"clients.speed_factors: expected {clients.count} entries,"
            f" got {len(clients.speed_factors)}"
        )

    training = section(TrainingConfig, "training")

    profile = section(ProfileConfig, "profile", base=_base)

    latency = section(LatencyConfig, "latency")

    raw_strategies = raw.get("strategies", [{"name": "fedavg"}])
    strategies: list[Strategy] = []
    if not isinstance(raw_strategies, list) or not raw_strategies:
        problems.append(f"strategies: expected a non-empty list, got {raw_strategies!r}")
    else:
        for i, entry in enumerate(raw_strategies):
            strategy = _parse_strategy(entry, i, problems)
            if strategy is not None:
                strategies.append(strategy)
        labels = [s.label for s in strategies]
        for label in sorted({x for x in labels if labels.count(x) > 1}):
            problems.append(f"strategies: duplicate label {label!r}")

    top, _ = _read(ExperimentConfig, raw, "top level", problems)

    if isinstance(part.sizes, list) and len(part.sizes) != clients.count:
        problems.append(
            f"partition.sizes: expected {clients.count} weights, got {len(part.sizes)}"
        )
    elif not problems:
        _check_quotas(dataset, part, clients.count, problems)
    if not problems:
        _check_horizon(clients, training, profile, latency, problems)
        _check_sizes(dataset, clients, training, len(strategies) * top["replicates"], problems)

    problems.extend(dict.fromkeys(p for s in strategies for p in s.check(clients, training)))

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        dataset=dataset, partition=part, clients=clients, training=training, profile=profile,
        latency=latency, strategies=tuple(strategies), **top,
    )


def load_config(path: str, **overrides: Any) -> ExperimentConfig:
    """Parse and validate a YAML config file. `overrides` (the CLI's --seed
    and --replicates) replace top-level keys before validation."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError([f"not valid YAML: {exc}"]) from exc
    if overrides and (raw is None or isinstance(raw, dict)):
        raw = {**(raw or {}), **overrides}
    return parse_config(raw)


def echo_dict(config: ExperimentConfig) -> dict:
    """Fully resolved configuration, defaults included, for config_echo.json.

    The `profile` section also lists `batches` and `noise_sigma`, the
    defaults of freeze_offload's `profile_batches` and `profile_noise_sigma`,
    which a config document may not set: they keep the echo's bytes, which
    perfbench/golden.json pins. Each freeze_offload entry lists the values
    it runs with.
    """
    doc = asdict(config)
    doc["profile"].update(
        batches=FreezeOffload.profile_batches, noise_sigma=FreezeOffload.profile_noise_sigma
    )
    doc["strategies"] = [
        {"label": s.label, "name": s.name, **{_key(f): getattr(s, f.name) for f in fields(s)}}
        for s in config.strategies
    ]
    return doc
