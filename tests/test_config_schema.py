"""Pinned behaviour of the config schema: problem lists, the echo, the README.

The problem lists and the echo bytes below were recorded before the parser
was rewritten to read its keys, defaults and bounds from dataclass fields;
they pin that rewrite to the old behaviour. Each bad document breaks one
validation rule (the last breaks several at once), and its problems are
compared sorted, because the order within an error is not part of the
contract.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from fedsim.config import ConfigError, ExperimentConfig, echo_dict, parse_config
from fedsim.engine import STRATEGIES

PROBLEMS = {
    "top-level-list": ([1, 2], ["top level: expected a mapping, got list"]),
    "unknown-section": ({"mystery": {}}, ["top level: unknown section 'mystery'"]),
    "section-not-mapping": ({"dataset": 3}, ["dataset: expected a mapping, got 3"]),
    "unknown-section-key": (
        {"dataset": {"classes": 4}}, ["dataset: unknown key 'classes'"]
    ),
    "int-expected": (
        {"training": {"rounds": 2.5}}, ["training.rounds: expected int, got 2.5"]
    ),
    "float-expected": (
        {"training": {"learning_rate": "0.05"}},
        ["training.learning_rate: expected float, got '0.05'"],
    ),
    "str-expected": ({"partition": {"mode": 3}}, ["partition.mode: expected str, got 3"]),
    "non-finite": (
        {"latency": {"transfer": float("-inf")}},
        ["latency.transfer: must be finite, got -inf"],
    ),
    "num_classes": (
        {"dataset": {"num_classes": 1}}, ["dataset.num_classes: must be >= 2, got 1"]
    ),
    "samples_per_class": (
        {"dataset": {"samples_per_class": 1}},
        ["dataset.samples_per_class: must be >= 2, got 1"],
    ),
    "input_dim": ({"dataset": {"input_dim": 0}}, ["dataset.input_dim: must be >= 1, got 0"]),
    "dataset-noise_sigma": (
        {"dataset": {"noise_sigma": -0.5}}, ["dataset.noise_sigma: must be >= 0, got -0.5"]
    ),
    "mode": (
        {"partition": {"mode": "dirichlet"}},
        ["partition.mode: expected iid or noniid, got 'dirichlet'"],
    ),
    "noniid-no-classes": (
        {"partition": {"mode": "noniid"}},
        ["partition.classes_per_client: must be >= 1 for noniid, got None"],
    ),
    "noniid-zero-classes": (
        {"partition": {"mode": "noniid", "classes_per_client": 0}},
        ["partition.classes_per_client: must be >= 1 for noniid, got 0"],
    ),
    "noniid-too-many-classes": (
        {"dataset": {"num_classes": 4},
         "partition": {"mode": "noniid", "classes_per_client": 5}},
        ["partition.classes_per_client: must be <= num_classes (4), got 5"],
    ),
    "sizes-not-list": (
        {"partition": {"sizes": "big"}},
        ["partition.sizes: expected 'equal' or a list of weights, got 'big'"],
    ),
    "sizes-bad-weight": (
        {"clients": {"count": 2, "per_round": 2}, "partition": {"sizes": [1, -2]}},
        ["partition.sizes: weights must be positive finite numbers"],
    ),
    "sizes-count": (
        {"clients": {"count": 3}, "partition": {"sizes": [1, 2]}},
        ["partition.sizes: expected 3 weights, got 2"],
    ),
    "count": (
        {"clients": {"count": 0, "per_round": 1}}, ["clients.count: must be >= 1, got 0"]
    ),
    "per_round": (
        {"clients": {"count": 3, "per_round": 4}},
        ["clients.per_round: must be in [1, 3], got 4"],
    ),
    "speed-range": (
        {"clients": {"speed_low": 0.5, "speed_high": 0.4}},
        ["clients: need 0 < speed_low <= speed_high <= 1, got [0.5, 0.4]"],
    ),
    "speed_factors-empty": (
        {"clients": {"speed_factors": []}},
        ["clients.speed_factors: expected a non-empty list, got []"],
    ),
    "speed_factors-not-numbers": (
        {"clients": {"count": 2, "per_round": 2, "speed_factors": ["a", 0.5]}},
        ["clients.speed_factors: entries must be numbers"],
    ),
    "speed_factors-range": (
        {"clients": {"count": 2, "per_round": 2, "speed_factors": [0.5, 1.5]}},
        ["clients.speed_factors: entries must be in (0, 1]"],
    ),
    "speed_factors-count": (
        {"clients": {"count": 3, "speed_factors": [0.5, 1.0]}},
        ["clients.speed_factors: expected 3 entries, got 2"],
    ),
    "rounds": ({"training": {"rounds": 0}}, ["training.rounds: must be >= 1, got 0"]),
    "local_updates": (
        {"training": {"local_updates": 0}}, ["training.local_updates: must be >= 1, got 0"],
    ),
    "batch_size": (
        {"training": {"batch_size": 0}}, ["training.batch_size: must be >= 1, got 0"]
    ),
    "learning_rate": (
        {"training": {"learning_rate": 0}}, ["training.learning_rate: must be > 0, got 0.0"]
    ),
    "hidden_dim": (
        {"training": {"hidden_dim": -3}}, ["training.hidden_dim: must be >= 1, got -3"]
    ),
    "profile-knobs-belong-to-freeze_offload": (
        {"profile": {"batches": 2, "noise_sigma": 0.1}},
        ["profile: unknown key 'batches'", "profile: unknown key 'noise_sigma'"],
    ),
    "profile-base-keys": (
        {"profile": {"base": {"ff": 0.1}}},
        ["profile.base: expected a mapping with keys ff, fc, bc, bf, got {'ff': 0.1}"],
    ),
    "profile-base-numbers": (
        {"profile": {"base": {"ff": "0.1", "fc": 0.1, "bc": 0.1, "bf": 0.7}}},
        ["profile.base: entries must be numbers, got"
         " {'ff': '0.1', 'fc': 0.1, 'bc': 0.1, 'bf': 0.7}"],
    ),
    "profile-base-positive": (
        {"profile": {"base": {"ff": 0.1, "fc": 0.1, "bc": -0.1, "bf": 0.7}}},
        ["profile.base: phase time bc must be positive, got -0.1"],
    ),
    "dispatch": ({"latency": {"dispatch": -1}}, ["latency.dispatch: must be >= 0, got -1.0"]),
    "transfer": (
        {"latency": {"transfer": -0.5}}, ["latency.transfer: must be >= 0, got -0.5"]
    ),
    "seed-bound": ({"seed": -1}, ["seed: must be >= 0, got -1"]),
    "seed-type": ({"seed": "7"}, ["top level.seed: expected int, got '7'"]),
    "replicates-bound": ({"replicates": 0}, ["replicates: must be >= 1, got 0"]),
    "strategies-not-list": (
        {"strategies": "fedavg"}, ["strategies: expected a non-empty list, got 'fedavg'"]
    ),
    "strategies-empty": (
        {"strategies": []}, ["strategies: expected a non-empty list, got []"]
    ),
    "strategy-not-mapping": (
        {"strategies": [3]}, ["strategies[0]: expected a mapping or name string, got 3"]
    ),
    "strategy-name": (
        {"strategies": [{"name": "fastest"}]},
        ["strategies[0].name: expected one of fedavg, fedprox, fednova, tifl, deadline,"
         " freeze_offload, got 'fastest'"],
    ),
    "strategy-unknown-keys": (
        {"strategies": [{"name": "fedavg", "mu": 0.1, "zeta": 1}]},
        ["strategies[0]: unknown keys ['mu', 'zeta']"],
    ),
    "fedprox-mu": (
        {"strategies": [{"name": "fedprox", "mu": -0.1}]},
        ["strategies[0].mu: must be >= 0, got -0.1"],
    ),
    "fedprox-mu-type": (
        {"strategies": [{"name": "fedprox", "mu": True}]},
        ["strategies[0].mu: expected float, got True"],
    ),
    "tifl-tiers": (
        {"strategies": [{"name": "tifl", "tiers": 0}]},
        ["strategies[0].tiers: must be >= 1, got 0"],
    ),
    "tifl-tiers-vs-count": (
        {"clients": {"count": 4, "per_round": 2},
         "strategies": [{"name": "tifl", "tiers": 5}]},
        ["strategies: tifl tiers cannot exceed clients.count (4)"],
    ),
    "deadline-multiplier": (
        {"strategies": [{"name": "deadline", "multiplier": 0}]},
        ["strategies[0].multiplier: must be > 0, got 0.0"],
    ),
    "freeze-similarity_factor": (
        {"strategies": [{"name": "freeze_offload", "similarity_factor": -1}]},
        ["strategies[0].similarity_factor: must be >= 0, got -1.0"],
    ),
    "freeze-profile_batches": (
        {"strategies": [{"name": "freeze_offload", "profile_batches": 0}]},
        ["strategies[0].profile_batches: must be >= 1, got 0"],
    ),
    "freeze-profile_noise_sigma": (
        {"strategies": [{"name": "freeze_offload", "profile_noise_sigma": -0.2}]},
        ["strategies[0].profile_noise_sigma: must be >= 0, got -0.2"],
    ),
    "freeze-profile_batches-vs-updates": (
        {"training": {"local_updates": 4},
         "strategies": [{"name": "freeze_offload", "profile_batches": 4}]},
        ["strategies: freeze_offload profile_batches must be < training.local_updates (4)"],
    ),
    "duplicate-label": (
        {"strategies": ["fedavg", {"name": "fedavg"}, {"name": "fedprox", "mu": 0.1},
                        {"name": "fedprox", "mu": 0.1}]},
        ["strategies: duplicate label 'fedavg'", "strategies: duplicate label 'fedprox_mu0.1'"],
    ),
    "quotas": (
        {"dataset": {"num_classes": 4, "samples_per_class": 40},
         "clients": {"count": 200, "per_round": 2}},
        ["partition: the smallest of 200 clients gets 0 of the 128 training samples,"
         " needs at least 1"],
    ),
    "quotas-weights": (
        {"clients": {"count": 2, "per_round": 2}, "partition": {"sizes": [1e-320, 1e-320]}},
        ["partition.sizes: the weights cannot apportion 1920 samples"],
    ),
    "horizon": (
        {"latency": {"dispatch": 1e308}, "training": {"rounds": 2}},
        ["virtual time overflows: 2 rounds of up to 2 x 16 batches of 10 s at speed 0.1,"
         " plus 1e+308 s dispatch and 0 s transfer"],
    ),
    "many-at-once": (
        {"dataset": {"num_classes": 1, "input_dim": 2.5},
         "training": {"rounds": 0, "hidden_dim": "8"},
         "clients": {"count": 2, "per_round": 3, "extra": 1},
         "seed": -4,
         "replicates": 0,
         "strategies": [{"name": "tifl", "tiers": 0}, "fedavg", "fedavg"]},
        ["clients.per_round: must be in [1, 2], got 3",
         "clients: unknown key 'extra'",
         "dataset.input_dim: expected int, got 2.5",
         "dataset.num_classes: must be >= 2, got 1",
         "replicates: must be >= 1, got 0",
         "seed: must be >= 0, got -4",
         "strategies: duplicate label 'fedavg'",
         "strategies[0].tiers: must be >= 1, got 0",
         "training.hidden_dim: expected int, got '8'",
         "training.rounds: must be >= 1, got 0"],
    ),
}


@pytest.mark.parametrize("raw, expected", PROBLEMS.values(), ids=PROBLEMS.keys())
def test_problem_lists_are_pinned(raw, expected):
    with pytest.raises(ConfigError) as info:
        parse_config(raw)
    assert sorted(info.value.problems) == expected


# Every strategy with non-default values.
ECHO_DOC = {
    "seed": 11,
    "replicates": 2,
    "dataset": {"num_classes": 5, "samples_per_class": 50, "input_dim": 6, "noise_sigma": 0.5},
    "partition": {"mode": "noniid", "classes_per_client": 2, "sizes": [1, 2.5, 1, 1, 3, 1]},
    "clients": {"count": 6, "per_round": 4, "speed_low": 0.2, "speed_high": 0.9,
                "speed_factors": [0.2, 0.4, 0.6, 0.8, 1, 0.5]},
    "training": {"rounds": 7, "local_updates": 12, "batch_size": 16, "learning_rate": 0.1,
                 "hidden_dim": 24},
    "profile": {"base": {"ff": 0.1, "fc": 0.2, "bc": 0.3, "bf": 0.4}},
    "latency": {"dispatch": 1.5, "transfer": 2},
    "strategies": [
        "fedavg",
        {"name": "fedprox", "mu": 0.5},
        {"name": "fednova"},
        {"name": "tifl", "tiers": 2},
        {"name": "deadline", "multiplier": 1.25},
        {"name": "freeze_offload", "similarity_factor": 0.75, "profile_batches": 3,
         "profile_noise_sigma": 0.05},
    ],
}

ECHO_JSON = (
    '{"clients": {"count": 6, "per_round": 4, "speed_factors": [0.2, 0.4, 0.6, 0.8, 1.0, 0.5],'
    ' "speed_high": 0.9, "speed_low": 0.2}, "dataset": {"input_dim": 6, "noise_sigma": 0.5,'
    ' "num_classes": 5, "samples_per_class": 50}, "latency": {"dispatch": 1.5, "transfer": 2.0},'
    ' "partition": {"classes_per_client": 2, "mode": "noniid", "sizes": [1, 2.5, 1, 1, 3, 1]},'
    ' "profile": {"base": {"bc": 0.3, "bf": 0.4, "fc": 0.2, "ff": 0.1}, "batches": 1,'
    ' "noise_sigma": 0.0}, "replicates": 2, "seed": 11, "strategies":'
    ' [{"label": "fedavg", "name": "fedavg"},'
    ' {"label": "fedprox_mu0.5", "mu": 0.5, "name": "fedprox"},'
    ' {"label": "fednova", "name": "fednova"},'
    ' {"label": "tifl_t2", "name": "tifl", "tiers": 2},'
    ' {"label": "deadline_m1.25", "multiplier": 1.25, "name": "deadline"},'
    ' {"label": "freeze_offload_f0.75", "name": "freeze_offload", "profile_batches": 3,'
    ' "profile_noise_sigma": 0.05, "similarity_factor": 0.75}],'
    ' "training": {"batch_size": 16, "hidden_dim": 24, "learning_rate": 0.1,'
    ' "local_updates": 12, "rounds": 7}}'
)


def test_echo_bytes_are_pinned():
    assert json.dumps(echo_dict(parse_config(ECHO_DOC)), sort_keys=True) == ECHO_JSON


def _schema_keys() -> set[str]:
    """Every YAML key the schema declares: sections, their fields, strategy knobs."""
    keys = set()
    for f in dataclasses.fields(ExperimentConfig):
        keys.add(f.name)
        if f.default_factory is not dataclasses.MISSING:  # a section
            keys |= {g.metadata.get("key", g.name) for g in dataclasses.fields(f.default_factory)}
    for cls in STRATEGIES:
        keys |= {f.metadata.get("key", f.name) for f in dataclasses.fields(cls)}
    return keys


def test_readme_config_reference_names_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    reference = readme.split("## Config reference", 1)[1].split("\n## ", 1)[0]
    keys = _schema_keys()
    assert {"tiers", "profile_noise_sigma", "speed_factors", "base", "replicates"} <= keys
    missing = sorted(k for k in keys if f"`{k}`" not in reference)
    assert missing == []
