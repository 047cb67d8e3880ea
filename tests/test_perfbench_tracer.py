"""The benchmark's tracer still fits the engine.

`perfbench/tracer.py` wraps fedsim's functions by name and counts training
steps from the calls it sees. These tests load it as it is and check that
every name it wraps exists, that fedsim imports no name for it beyond the
ones it wraps, and that its step counters see each lockstep phase once:
one `local_train` call per full or classifier-only phase and one
`execute_offloaded` call per donated phase, each running the longest
member's steps.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from fedsim import engine
from fedsim.config import parse_config
from fedsim.engine import DeadlineDrop, FreezeOffload

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "fedsim"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_under_test", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def config():
    return parse_config(
        {
            "latency": {"dispatch": 1.0, "transfer": 0.5},
            "dataset": {"num_classes": 4, "samples_per_class": 60, "input_dim": 4},
            "partition": {"mode": "noniid", "classes_per_client": 2},
            "clients": {"count": 10, "per_round": 5},
            "training": {
                "rounds": 4,
                "local_updates": 8,
                "batch_size": 8,
                "learning_rate": 0.05,
                "hidden_dim": 8,
            },
        }
    )


def test_every_target_resolves(tracer_module):
    for owner_path, attr, _ in tracer_module.TARGETS:
        owner = tracer_module._resolve(owner_path)
        assert attr in vars(owner), f"{owner_path}.{attr}"


def unused_imports(source):
    """The names a module imports and never reads, apart from its `__all__`."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_unused_imports_are_tracer_targets(tracer_module):
    # A name imported only for the tracer to wrap must go when the tracer
    # stops wrapping it there.
    targets = {(owner, attr) for owner, attr, _ in tracer_module.TARGETS}
    assert unused_imports("import os.path\nfrom a import b, c as d\n__all__ = ['b']\nos") == {"d"}
    shims = {
        (f"fedsim.{path.stem}", name)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert shims <= targets, sorted(shims - targets)


@pytest.mark.parametrize(
    "strategy", [DeadlineDrop(multiplier=1.0), FreezeOffload()], ids=lambda s: s.label
)
def test_step_counters_see_each_phase_once(tracer_module, strategy):
    cfg = config()
    tracer = tracer_module.Tracer()
    original = engine.local_train
    drops = handoffs = 0
    with tracer.installed():
        state = engine.build_state(cfg, strategy, seed=3)
        for r in range(cfg.training.rounds):
            before = dict(tracer.counts)
            trace = engine.run_round(state, r)
            kept = [p for p in trace.clients if not p.dropped]
            full = max((p.full_steps for p in kept), default=0)
            frozen = max((p.frozen_steps for p in kept), default=0)
            donated = max((p.donated_steps for p in kept), default=0)
            counted = {
                name: tracer.counts[f"engine.{name}.steps"]
                - before.get(f"engine.{name}.steps", 0)
                for name in ("local_train", "execute_offloaded")
            }
            assert counted == {"local_train": full + frozen, "execute_offloaded": donated}
            drops += len(trace.dropped)
            handoffs += len(trace.offload_records)
    assert engine.local_train is original
    # The round hook reads each dropped client's cursor; nothing dropped
    # ever trains.
    assert tracer.counts["engine.steps_wasted"] == 0
    assert tracer.counts["engine.offload_records"] == handoffs
    if isinstance(strategy, DeadlineDrop):
        assert drops > 0
    else:
        assert handoffs > 0
