"""Spans around the calls into fedsim's layers, recorded from outside the program.

`Tracer.installed()` replaces module and class attributes of fedsim with
wrappers that record one span per call (name, start, end, parent span and
experiment id) and restores the originals on exit. Spans stay in memory in
flat arrays; `summary()` folds them into calls, busy and self time per span
name and `write()` saves them once, at the end of a run.

Only the benchmark installs the wrappers, and only for its traced pass, so
untraced runs execute fedsim exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (owner, attribute, span name). fedsim.engine imports the model, profiling,
# scheduling and data functions by name, so the calls the engine makes are
# wrapped where the engine looks them up. forward is wrapped a second time on
# fedsim.model, where backward_full and backward_frozen call it, and
# find_offload_point on fedsim.scheduling, where build_schedule calls it.
TARGETS = (
    ("fedsim.config", "parse_config", "config.parse_config"),
    ("fedsim.engine", "build_state", "engine.build_state"),
    ("fedsim.engine", "generate_synthetic", "data.generate_synthetic"),
    ("fedsim.engine", "partition", "data.partition"),
    ("fedsim.similarity.SimilarityOracle", "compute_matrix", "similarity.compute_matrix"),
    ("fedsim.engine", "run_round", "engine.run_round"),
    ("fedsim.engine", "local_train", "engine.local_train"),
    ("fedsim.engine", "execute_offloaded", "engine.execute_offloaded"),
    ("fedsim.engine.BatchCursor", "next_batch", "engine.BatchCursor.next_batch"),
    ("fedsim.engine", "aggregate_fedavg", "engine.aggregate"),
    ("fedsim.engine", "aggregate_fednova", "engine.aggregate"),
    ("fedsim.engine", "evaluate_accuracy", "engine.evaluate_accuracy"),
    ("fedsim.engine", "backward_full", "model.backward_full"),
    ("fedsim.engine", "backward_frozen", "model.backward_frozen"),
    ("fedsim.engine", "sgd_step", "model.sgd_step"),
    ("fedsim.engine", "forward", "model.forward"),
    ("fedsim.model", "forward", "model.forward"),
    ("fedsim.engine", "split", "model.split"),
    ("fedsim.engine", "merge", "model.merge"),
    ("fedsim.engine", "measure", "profiling.measure"),
    ("fedsim.engine", "build_schedule", "scheduling.build_schedule"),
    ("fedsim.scheduling", "find_offload_point", "scheduling.find_offload_point"),
    ("fedsim.cli", "run_experiment", "cli.run_experiment"),
    ("fedsim.cli", "write_trace", "cli.write_trace"),
)


def _resolve(path: str):
    """Import `a.b.C` as module `a.b` plus attribute `C`, or `a.b` as a module."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _count_steps(tracer: "Tracer", span: str, args: dict, result) -> None:
    steps = int(args["updates"])
    tracer.counts[span + ".steps"] += steps
    key = id(args["cursor"])
    tracer.cursor_steps[key] = tracer.cursor_steps.get(key, 0) + steps


def _count_assignments(tracer: "Tracer", span: str, args: dict, result) -> None:
    tracer.counts["scheduling.assignments"] += len(result.assignments)


def _count_matrix(tracer: "Tracer", span: str, args: dict, result) -> None:
    key = "similarity.compute_matrix.clients"
    tracer.counts[key] = max(tracer.counts[key], len(result.client_ids))


def _count_round(tracer: "Tracer", span: str, args: dict, result) -> None:
    # A dropped client's steps were executed but never reach aggregation. Each
    # selected client trains on the cursor the round gave it, so its steps are
    # the ones counted against that cursor during this round.
    state = args["state"]
    tracer.counts["engine.steps_wasted"] += sum(
        tracer.cursor_steps.get(id(state.client(cid).cursor), 0) for cid in result.dropped
    )
    tracer.counts["engine.offload_records"] += len(result.offload_records)
    tracer.cursor_steps.clear()


HOOKS = {
    "engine.local_train": _count_steps,
    "engine.execute_offloaded": _count_steps,
    "scheduling.build_schedule": _count_assignments,
    "similarity.compute_matrix": _count_matrix,
    "engine.run_round": _count_round,
}


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.experiments = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self.cursor_steps: dict[int, int] = {}
        self.experiment = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that each call records one span named `name`."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1] if stack else -1)
            self.experiments.append(self.experiment)
            self.ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            self.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install a wrapper on every target; restore the originals on exit."""
        saved = []
        try:
            for owner_path, attr, name in TARGETS:
                owner = _resolve(owner_path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, busy seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, which lie inside it because calls nest.
        """
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        child = parents >= 0
        nested = np.bincount(parents[child], weights=duration[child], minlength=len(duration))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=duration - nested, minlength=k)
        return {
            name: (int(calls[i]), float(busy[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.asarray(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            experiments=np.frombuffer(self.experiments, dtype=np.int32),
            starts=np.frombuffer(self.starts),
            ends=np.frombuffer(self.ends),
        )
