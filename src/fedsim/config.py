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
    profile: {batches: 1, noise_sigma: 0.0}
    latency: {dispatch: 0.0, transfer: 0.0}
    strategies:
      - {name: fedavg}
      - {name: freeze_offload, similarity_factor: 1.0}
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import yaml

from .data import client_quotas, train_count
from .engine import (
    DeadlineDrop,
    FedAvg,
    FedNova,
    FedProx,
    FreezeOffload,
    Strategy,
    Tifl,
)
from .errors import ConfigError
from .profiling import DEFAULT_BASE_TIMINGS, PhaseTimings


@dataclass(frozen=True)
class DatasetConfig:
    num_classes: int = 10
    samples_per_class: int = 240
    input_dim: int = 8
    noise_sigma: float = 0.8


@dataclass(frozen=True)
class PartitionConfig:
    mode: str = "iid"
    classes_per_client: int | None = None
    sizes: Any = "equal"


@dataclass(frozen=True)
class ClientsConfig:
    count: int = 24
    per_round: int = 3
    speed_low: float = 0.1
    speed_high: float = 1.0
    speed_factors: tuple[float, ...] | None = None


@dataclass(frozen=True)
class TrainingConfig:
    rounds: int = 100
    local_updates: int = 16
    batch_size: int = 32
    learning_rate: float = 0.05
    hidden_dim: int = 32


@dataclass(frozen=True)
class ProfileConfig:
    batches: int = 1
    noise_sigma: float = 0.0
    base: PhaseTimings = DEFAULT_BASE_TIMINGS


@dataclass(frozen=True)
class LatencyConfig:
    dispatch: float = 0.0
    transfer: float = 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    clients: ClientsConfig = field(default_factory=ClientsConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    strategies: tuple[Strategy, ...] = (FedAvg(),)
    seed: int = 42
    replicates: int = 1


_STRATEGY_NAMES = (
    "fedavg",
    "fedprox",
    "fednova",
    "tifl",
    "deadline",
    "freeze_offload",
)


def _is_number(value: Any) -> bool:
    """An int or float from the document. YAML reads `true` as a bool, an int
    subclass, and "16" as a string; neither counts as a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get(raw: dict, section: str, key: str, default, kind, problems: list[str]):
    value = raw.get(key, default)
    if value is None and default is None:
        return None
    try:
        if kind in (int, float) and not _is_number(value):
            raise ValueError
        if kind is int:
            # Reject silent float truncation such as rounds: 2.5, and
            # .inf, which has no int.
            if isinstance(value, float) and not (
                math.isfinite(value) and value == int(value)
            ):
                raise ValueError
            return int(value)
        if kind is float:
            if not math.isfinite(value):
                # .nan and .inf pass every range check, then break the run.
                problems.append(f"{section}.{key}: must be finite, got {value!r}")
                return default
            return float(value)
        if kind is str:
            if not isinstance(value, str):
                raise ValueError
            return value
    except (TypeError, ValueError):
        problems.append(f"{section}.{key}: expected {kind.__name__}, got {value!r}")
        return default
    raise AssertionError(f"unsupported kind {kind}")


def _parse_strategy(entry: Any, index: int, profile: ProfileConfig, problems: list[str]) -> Strategy | None:
    where = f"strategies[{index}]"
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, dict):
        problems.append(f"{where}: expected a mapping or name string, got {entry!r}")
        return None
    name = entry.get("name")
    if name not in _STRATEGY_NAMES:
        problems.append(
            f"{where}.name: expected one of {', '.join(_STRATEGY_NAMES)}, got {name!r}"
        )
        return None
    known = {"name"}
    strategy: Strategy | None = None
    if name == "fedavg":
        strategy = FedAvg()
    elif name == "fednova":
        strategy = FedNova()
    elif name == "fedprox":
        known |= {"mu"}
        mu = _get(entry, where, "mu", 0.01, float, problems)
        if mu is not None and mu < 0:
            problems.append(f"{where}.mu: must be >= 0, got {mu}")
        else:
            strategy = FedProx(mu=mu)
    elif name == "tifl":
        known |= {"tiers"}
        tiers = _get(entry, where, "tiers", 3, int, problems)
        if tiers is not None and tiers < 1:
            problems.append(f"{where}.tiers: must be >= 1, got {tiers}")
        else:
            strategy = Tifl(num_tiers=tiers)
    elif name == "deadline":
        known |= {"multiplier"}
        mult = _get(entry, where, "multiplier", 1.0, float, problems)
        if mult is not None and mult <= 0:
            problems.append(f"{where}.multiplier: must be > 0, got {mult}")
        else:
            strategy = DeadlineDrop(multiplier=mult)
    elif name == "freeze_offload":
        known |= {"similarity_factor", "profile_batches", "profile_noise_sigma"}
        factor = _get(entry, where, "similarity_factor", 1.0, float, problems)
        batches = _get(entry, where, "profile_batches", profile.batches, int, problems)
        sigma = _get(entry, where, "profile_noise_sigma", profile.noise_sigma, float, problems)
        ok = True
        if factor is not None and factor < 0:
            problems.append(f"{where}.similarity_factor: must be >= 0, got {factor}")
            ok = False
        if batches is not None and batches < 1:
            problems.append(f"{where}.profile_batches: must be >= 1, got {batches}")
            ok = False
        if sigma is not None and sigma < 0:
            problems.append(f"{where}.profile_noise_sigma: must be >= 0, got {sigma}")
            ok = False
        if ok:
            strategy = FreezeOffload(
                similarity_factor=factor,
                profile_batches=batches,
                profile_noise_sigma=sigma,
            )
    unknown = set(entry) - known
    if unknown:
        problems.append(f"{where}: unknown keys {sorted(unknown)}")
    return strategy


def _check_quotas(
    dataset: DatasetConfig, part: PartitionConfig, count: int, problems: list[str]
) -> None:
    """Apportion the train split as `data.partition` will and check each share.

    Every client needs at least one sample, and in noniid mode one of each
    of its classes. Runs on an otherwise valid document only.
    """
    where = "partition" if part.sizes == "equal" else "partition.sizes"
    n_train = train_count(dataset.num_classes * dataset.samples_per_class)
    try:
        quotas = client_quotas(n_train, count, part.sizes)
    except ArithmeticError:
        problems.append(f"{where}: the weights cannot apportion {n_train} samples")
        return
    need = part.classes_per_client if part.mode == "noniid" else 1
    if min(quotas) < need:
        problems.append(
            f"{where}: the smallest of {count} clients gets {min(quotas)} of the"
            f" {n_train} training samples, needs at least {need}"
        )


def _check_horizon(
    clients: ClientsConfig,
    training: TrainingConfig,
    profile: ProfileConfig,
    latency: LatencyConfig,
    problems: list[str],
) -> None:
    """Check that every event time of the run is finite.

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


def parse_config(raw: Any) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed YAML document."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError([f"top level: expected a mapping, got {type(raw).__name__}"])
    problems: list[str] = []
    known_sections = {
        "dataset",
        "partition",
        "clients",
        "training",
        "profile",
        "latency",
        "strategies",
        "seed",
        "replicates",
    }
    for key in set(raw) - known_sections:
        problems.append(f"top level: unknown section {key!r}")

    def section(name: str) -> dict:
        value = raw.get(name, {})
        if value is None:
            return {}
        if not isinstance(value, dict):
            problems.append(f"{name}: expected a mapping, got {value!r}")
            return {}
        return value

    ds = section("dataset")
    dataset = DatasetConfig(
        num_classes=_get(ds, "dataset", "num_classes", 10, int, problems),
        samples_per_class=_get(ds, "dataset", "samples_per_class", 240, int, problems),
        input_dim=_get(ds, "dataset", "input_dim", 8, int, problems),
        noise_sigma=_get(ds, "dataset", "noise_sigma", 0.8, float, problems),
    )
    for key in set(ds) - {"num_classes", "samples_per_class", "input_dim", "noise_sigma"}:
        problems.append(f"dataset: unknown key {key!r}")
    if dataset.num_classes < 2:
        problems.append(f"dataset.num_classes: must be >= 2, got {dataset.num_classes}")
    if dataset.samples_per_class < 2:
        problems.append(
            f"dataset.samples_per_class: must be >= 2, got {dataset.samples_per_class}"
        )
    if dataset.input_dim < 1:
        problems.append(f"dataset.input_dim: must be >= 1, got {dataset.input_dim}")
    if dataset.noise_sigma < 0:
        problems.append(f"dataset.noise_sigma: must be >= 0, got {dataset.noise_sigma}")

    pt = section("partition")
    part = PartitionConfig(
        mode=_get(pt, "partition", "mode", "iid", str, problems),
        classes_per_client=_get(pt, "partition", "classes_per_client", None, int, problems),
        sizes=pt.get("sizes", "equal"),
    )
    for key in set(pt) - {"mode", "classes_per_client", "sizes"}:
        problems.append(f"partition: unknown key {key!r}")
    if part.mode not in ("iid", "noniid"):
        problems.append(f"partition.mode: expected iid or noniid, got {part.mode!r}")
    if part.mode == "noniid":
        k = part.classes_per_client
        if k is None or k < 1:
            problems.append(
                f"partition.classes_per_client: must be >= 1 for noniid, got {k}"
            )
        elif k > dataset.num_classes:
            problems.append(
                f"partition.classes_per_client: must be <= num_classes"
                f" ({dataset.num_classes}), got {k}"
            )
    if not (part.sizes == "equal" or isinstance(part.sizes, list)):
        problems.append(
            f"partition.sizes: expected 'equal' or a list of weights, got {part.sizes!r}"
        )
    elif isinstance(part.sizes, list):
        numeric = all(_is_number(w) and 0 < w < math.inf for w in part.sizes)
        if not numeric:
            problems.append("partition.sizes: weights must be positive finite numbers")

    cl = section("clients")
    factors = cl.get("speed_factors")
    if factors is not None:
        if not isinstance(factors, list) or not factors:
            problems.append(
                f"clients.speed_factors: expected a non-empty list, got {factors!r}"
            )
            factors = None
        elif not all(_is_number(f) for f in factors):
            problems.append("clients.speed_factors: entries must be numbers")
            factors = None
        else:
            factors = tuple(float(f) for f in factors)
            if any(not 0 < f <= 1 for f in factors):
                problems.append("clients.speed_factors: entries must be in (0, 1]")
    clients = ClientsConfig(
        count=_get(cl, "clients", "count", 24, int, problems),
        per_round=_get(cl, "clients", "per_round", 3, int, problems),
        speed_low=_get(cl, "clients", "speed_low", 0.1, float, problems),
        speed_high=_get(cl, "clients", "speed_high", 1.0, float, problems),
        speed_factors=factors,
    )
    for key in set(cl) - {"count", "per_round", "speed_low", "speed_high", "speed_factors"}:
        problems.append(f"clients: unknown key {key!r}")
    if clients.count < 1:
        problems.append(f"clients.count: must be >= 1, got {clients.count}")
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

    tr = section("training")
    training = TrainingConfig(
        rounds=_get(tr, "training", "rounds", 100, int, problems),
        local_updates=_get(tr, "training", "local_updates", 16, int, problems),
        batch_size=_get(tr, "training", "batch_size", 32, int, problems),
        learning_rate=_get(tr, "training", "learning_rate", 0.05, float, problems),
        hidden_dim=_get(tr, "training", "hidden_dim", 32, int, problems),
    )
    for key in set(tr) - {"rounds", "local_updates", "batch_size", "learning_rate", "hidden_dim"}:
        problems.append(f"training: unknown key {key!r}")
    if training.rounds < 1:
        problems.append(f"training.rounds: must be >= 1, got {training.rounds}")
    if training.local_updates < 1:
        problems.append(
            f"training.local_updates: must be >= 1, got {training.local_updates}"
        )
    if training.batch_size < 1:
        problems.append(f"training.batch_size: must be >= 1, got {training.batch_size}")
    if not training.learning_rate > 0:
        problems.append(
            f"training.learning_rate: must be > 0, got {training.learning_rate}"
        )
    if training.hidden_dim < 1:
        problems.append(f"training.hidden_dim: must be >= 1, got {training.hidden_dim}")

    pf = section("profile")
    base_raw = pf.get("base")
    base = DEFAULT_BASE_TIMINGS
    if base_raw is not None:
        if isinstance(base_raw, dict) and set(base_raw) == {"ff", "fc", "bc", "bf"}:
            if not all(_is_number(v) for v in base_raw.values()):
                problems.append(f"profile.base: entries must be numbers, got {base_raw!r}")
            else:
                try:
                    base = PhaseTimings(
                        ff=float(base_raw["ff"]),
                        fc=float(base_raw["fc"]),
                        bc=float(base_raw["bc"]),
                        bf=float(base_raw["bf"]),
                    )
                except ValueError as exc:
                    problems.append(f"profile.base: {exc}")
        else:
            problems.append(
                "profile.base: expected a mapping with keys ff, fc, bc, bf,"
                f" got {base_raw!r}"
            )
    profile = ProfileConfig(
        batches=_get(pf, "profile", "batches", 1, int, problems),
        noise_sigma=_get(pf, "profile", "noise_sigma", 0.0, float, problems),
        base=base,
    )
    for key in set(pf) - {"batches", "noise_sigma", "base"}:
        problems.append(f"profile: unknown key {key!r}")
    if profile.batches < 1:
        problems.append(f"profile.batches: must be >= 1, got {profile.batches}")
    if profile.batches >= training.local_updates:
        problems.append(
            f"profile.batches: must be < training.local_updates"
            f" ({training.local_updates}), got {profile.batches}"
        )
    if profile.noise_sigma < 0:
        problems.append(f"profile.noise_sigma: must be >= 0, got {profile.noise_sigma}")

    lt = section("latency")
    latency = LatencyConfig(
        dispatch=_get(lt, "latency", "dispatch", 0.0, float, problems),
        transfer=_get(lt, "latency", "transfer", 0.0, float, problems),
    )
    for key in set(lt) - {"dispatch", "transfer"}:
        problems.append(f"latency: unknown key {key!r}")
    if latency.dispatch < 0:
        problems.append(f"latency.dispatch: must be >= 0, got {latency.dispatch}")
    if latency.transfer < 0:
        problems.append(f"latency.transfer: must be >= 0, got {latency.transfer}")

    raw_strategies = raw.get("strategies", [{"name": "fedavg"}])
    strategies: list[Strategy] = []
    if not isinstance(raw_strategies, list) or not raw_strategies:
        problems.append(
            f"strategies: expected a non-empty list, got {raw_strategies!r}"
        )
    else:
        for i, entry in enumerate(raw_strategies):
            strategy = _parse_strategy(entry, i, profile, problems)
            if strategy is not None:
                strategies.append(strategy)
        labels = [s.label for s in strategies]
        for label in sorted({x for x in labels if labels.count(x) > 1}):
            problems.append(f"strategies: duplicate label {label!r}")

    seed = _get(raw, "top level", "seed", 42, int, problems)
    replicates = _get(raw, "top level", "replicates", 1, int, problems)
    if seed is not None and seed < 0:
        problems.append(f"seed: must be >= 0, got {seed}")
    if replicates is not None and replicates < 1:
        problems.append(f"replicates: must be >= 1, got {replicates}")

    if isinstance(part.sizes, list) and len(part.sizes) != clients.count:
        problems.append(
            f"partition.sizes: expected {clients.count} weights, got {len(part.sizes)}"
        )
    elif not problems:
        _check_quotas(dataset, part, clients.count, problems)
    if not problems:
        _check_horizon(clients, training, profile, latency, problems)

    tifl_tiers = [s.num_tiers for s in strategies if isinstance(s, Tifl)]
    if any(t > clients.count for t in tifl_tiers):
        problems.append(
            f"strategies: tifl tiers cannot exceed clients.count ({clients.count})"
        )
    for s in strategies:
        if isinstance(s, FreezeOffload) and s.profile_batches >= training.local_updates:
            problems.append(
                "strategies: freeze_offload profile_batches must be <"
                f" training.local_updates ({training.local_updates})"
            )

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        dataset=dataset,
        partition=part,
        clients=clients,
        training=training,
        profile=profile,
        latency=latency,
        strategies=tuple(strategies),
        seed=seed,
        replicates=replicates,
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError([f"not valid YAML: {exc}"]) from exc
    return parse_config(raw)


def echo_dict(config: ExperimentConfig) -> dict:
    """Fully resolved configuration, defaults included, for config_echo.json."""
    strategies = []
    for s in config.strategies:
        entry: dict[str, Any] = {"label": s.label}
        if isinstance(s, FedAvg):
            entry["name"] = "fedavg"
        elif isinstance(s, FedProx):
            entry["name"] = "fedprox"
            entry["mu"] = s.mu
        elif isinstance(s, FedNova):
            entry["name"] = "fednova"
        elif isinstance(s, Tifl):
            entry["name"] = "tifl"
            entry["tiers"] = s.num_tiers
        elif isinstance(s, DeadlineDrop):
            entry["name"] = "deadline"
            entry["multiplier"] = s.multiplier
        elif isinstance(s, FreezeOffload):
            entry["name"] = "freeze_offload"
            entry["similarity_factor"] = s.similarity_factor
            entry["profile_batches"] = s.profile_batches
            entry["profile_noise_sigma"] = s.profile_noise_sigma
        strategies.append(entry)
    return {
        "dataset": {
            "num_classes": config.dataset.num_classes,
            "samples_per_class": config.dataset.samples_per_class,
            "input_dim": config.dataset.input_dim,
            "noise_sigma": config.dataset.noise_sigma,
        },
        "partition": {
            "mode": config.partition.mode,
            "classes_per_client": config.partition.classes_per_client,
            "sizes": config.partition.sizes
            if isinstance(config.partition.sizes, str)
            else list(config.partition.sizes),
        },
        "clients": {
            "count": config.clients.count,
            "per_round": config.clients.per_round,
            "speed_low": config.clients.speed_low,
            "speed_high": config.clients.speed_high,
            "speed_factors": None
            if config.clients.speed_factors is None
            else list(config.clients.speed_factors),
        },
        "training": {
            "rounds": config.training.rounds,
            "local_updates": config.training.local_updates,
            "batch_size": config.training.batch_size,
            "learning_rate": config.training.learning_rate,
            "hidden_dim": config.training.hidden_dim,
        },
        "profile": {
            "batches": config.profile.batches,
            "noise_sigma": config.profile.noise_sigma,
            "base": {
                "ff": config.profile.base.ff,
                "fc": config.profile.base.fc,
                "bc": config.profile.base.bc,
                "bf": config.profile.base.bf,
            },
        },
        "latency": {
            "dispatch": config.latency.dispatch,
            "transfer": config.latency.transfer,
        },
        "strategies": strategies,
        "seed": config.seed,
        "replicates": config.replicates,
    }
