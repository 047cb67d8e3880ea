"""The benchmark's trace readers still fit the engine's traces.

`perfbench/run.py` checks each experiment's traces (`check_invariants`) and
digests them through `cli.write_trace` (`experiment_digest`), reading them
as its library loop produces them: one `run_round` call per round. These
tests load it as it is and check, for every strategy, that those traces
pass its invariants and digest as `run_experiment`'s do.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import fedsim
import fedsim.cli
from fedsim import engine
from fedsim.config import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def run_module():
    # run.py imports its sibling `calibrate`; perfbench/ is on the path only
    # while it loads.
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run_under_test", PERFBENCH / "run.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("calibrate", None)
    return module


CONFIG = parse_config(
    {
        "dataset": {"num_classes": 4, "samples_per_class": 80, "input_dim": 4, "noise_sigma": 0.4},
        "partition": {"mode": "noniid", "classes_per_client": 2},
        "clients": {"count": 8, "per_round": 4},
        "training": {"rounds": 5, "local_updates": 8, "batch_size": 8, "hidden_dim": 8},
        "profile": {"noise_sigma": 0.1},
        "latency": {"dispatch": 0.5, "transfer": 0.2},
        "strategies": [
            "fedavg",
            "fedprox",
            "fednova",
            {"name": "tifl", "tiers": 2},
            {"name": "deadline", "multiplier": 0.8},
            "freeze_offload",
        ],
    }
)


@pytest.mark.parametrize("strategy", CONFIG.strategies, ids=lambda s: s.label)
def test_round_traces_pass_invariants_and_digest_as_the_experiment(run_module, strategy, tmp_path):
    state = engine.build_state(CONFIG, strategy, seed=5)
    traces = [engine.run_round(state, r) for r in range(CONFIG.training.rounds)]
    record, summary = run_module.experiment_digest(
        fedsim, strategy.label, 5, traces, state.global_model, tmp_path
    )
    assert run_module.check_invariants(CONFIG, traces, summary) == []
    result = engine.run_experiment(CONFIG, strategy, seed=5)
    expected, _ = run_module.experiment_digest(
        fedsim, strategy.label, 5, result.traces, result.final_model, tmp_path
    )
    assert record["digest"] == expected["digest"]
