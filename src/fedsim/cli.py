"""Command line front end.

Subcommands::

    fedsim run --config exp.yaml --out results/
    fedsim compare --out results/ --a freeze_offload_f1 --b fedavg
    fedsim inspect --config exp.yaml

`run` executes every configured strategy for every replicate seed and writes
one trace CSV per (strategy, seed) plus summary.json and config_echo.json.
Each (strategy, seed) experiment is a lane, and a process trains its lanes in
lockstep (`engine.run_experiments`). The lanes run in seed-major order, dealt
as near-equal contiguous slices to the workers (see `_deal`), so that a seed's
data is built in as few workers as the split allows; a serial run is the
case of one worker, which runs all the lanes as one group in-process. All
outputs are deterministic given the config, so reruns produce byte-identical
files, whatever the worker count. Each process that trains lanes, serial or
pooled, first sets the OpenBLAS that numpy loaded to one thread (`_run_group`),
so that helper threads left spinning after a large evaluation do not compete
with the pool's workers for the CPUs; library calls leave BLAS alone. Each
file is written to a temp file in the same directory and then renamed over
its final name, so an interrupted run leaves whole files or none, never a
truncated one.

Exit codes: 0 on success, 1 for configuration problems, 2 for runtime
failures such as missing files.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import ConfigError, ExperimentConfig, echo_dict, load_config
from .engine import ExperimentResult, FreezeOffload, SeedData, Strategy, run_experiments
from .errors import out_of_memory_as_config_error
from .seeding import left_sum

# Bound here for perfbench/tracer.py, which wraps `cli.run_experiment`; `run`
# itself calls `run_experiments`.
from .engine import run_experiment  # noqa: F401
from .similarity import HistogramDistances


def _format_float(x: float) -> str:
    return repr(float(x))


def _write_atomic(path: str, text: str) -> None:
    """Write `text` to `path` through a temp file renamed into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            # Name the file the caller asked for, not the temp file.
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _write_json(path: str, doc) -> None:
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def trace_path(out_dir: str, label: str, seed: int) -> str:
    return os.path.join(out_dir, f"trace_{label}_{seed}.csv")


def write_trace(out_dir: str, result: ExperimentResult) -> str:
    """Write one experiment's per-round trace CSV and return its path."""
    path = trace_path(out_dir, result.strategy_label, result.seed)
    lines = ["round,duration_s,accuracy,dropped,num_offloads"]
    for t in result.traces:
        dropped = ";".join(str(c) for c in t.dropped)
        lines.append(
            f"{t.round_index},{_format_float(t.duration)},"
            f"{_format_float(t.accuracy)},{dropped},{t.num_offloads}"
        )
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


_MAPS = "/proc/self/maps"
# OpenBLAS's thread-count setter under each build's symbol names: plain, with
# the 64-bit-integer suffix, and as numpy's scipy-openblas wheels export it.
# Each build's getter is the same name with "_get_" for "_set_".
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _one_openblas_thread() -> None:
    """Set each OpenBLAS mapped into this process to one thread.

    After a product large enough to split, OpenBLAS's helper threads spin for
    a while, and a pool worker's helpers then take CPU time from the other
    workers. Results do not change: OpenBLAS splits a product's output among
    threads, never its inner sums. `ctypes.CDLL` on a mapped path returns the
    loaded library. A count that reads one already is left alone: setting it
    in a forked child restarts the helper thread, which then spins. Where the
    maps cannot be read (not Linux) or no library exports a setter (numpy on
    MKL or Accelerate), this does nothing.
    """
    try:
        with open(_MAPS, encoding="utf-8", errors="replace") as fh:
            # A line's last field is the mapped path, if it has one.
            paths = dict.fromkeys(line.split(maxsplit=5)[-1].rstrip("\n") for line in fh)
    except OSError:
        return
    for path in paths:
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((n for n in _OPENBLAS_SETTERS if hasattr(lib, n)), None)
        if name is None:
            continue
        get, set_ = getattr(lib, name.replace("_set_", "_get_")), getattr(lib, name)
        get.argtypes, get.restype = [], ctypes.c_int
        if get() != 1:
            set_.argtypes, set_.restype = [ctypes.c_int], None
            set_(1)


def _run_group(task: tuple[ExperimentConfig, list[tuple[Strategy, int]], str]) -> list[dict]:
    """Run a group of lanes in lockstep, write their traces and return their
    summaries in lane order. Every process that trains for `run`, serial or
    pooled under any start method, runs this, so BLAS is limited here."""
    _one_openblas_thread()
    config, lanes, out_dir = task
    # A diverging step raises on its own non-finite values; numpy's warnings
    # on the way there would only print source lines before the error.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        results = run_experiments(config, lanes)
    for result in results:
        write_trace(out_dir, result)
    return [result.summary.to_dict() for result in results]


def _load(args: argparse.Namespace) -> ExperimentConfig:
    """The config file with --seed and --replicates, where given, in place
    of the document's own values, validated with the rest of it."""
    flags = {k: getattr(args, k, None) for k in ("seed", "replicates")}
    return load_config(args.config, **{k: v for k, v in flags.items() if v is not None})


def _deal(tasks: list[tuple[Strategy, int]], workers: int) -> list[list[int]]:
    """The task indices each of `workers` workers runs: near-equal contiguous
    slices of the tasks in seed-major order, strategies in task order within
    a seed, so that a seed's lanes share a worker where the split allows."""
    order = sorted(range(len(tasks)), key=lambda i: tasks[i][1])
    size, extra = divmod(len(order), workers)
    bounds = [w * size + min(w, extra) for w in range(workers + 1)]
    return [order[bounds[w] : bounds[w + 1]] for w in range(workers)]


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform can tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mean(rows: list[dict], key: str) -> float:
    """The mean of `key` over summary rows, summed left to right."""
    return left_sum(r[key] for r in rows) / len(rows)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workers < 0:
        raise ConfigError([f"workers: must be >= 0, got {args.workers}"])
    config = _load(args)

    os.makedirs(args.out, exist_ok=True)
    tasks = [
        (strategy, config.seed + i)
        for strategy in config.strategies
        for i in range(config.replicates)
    ]
    workers = args.workers if args.workers else _usable_cpus()
    workers = max(1, min(workers, len(tasks)))
    deal = _deal(tasks, workers)
    groups = [(config, [tasks[i] for i in dealt], args.out) for dealt in deal]
    if workers == 1:
        parts = [_run_group(groups[0])]
    else:
        # Workers forked from here inherit one BLAS thread and leave it be.
        _one_openblas_thread()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_group, groups))
    by_task = {i: s for dealt, part in zip(deal, parts) for i, s in zip(dealt, part)}
    summaries = [by_task[i] for i in range(len(tasks))]

    for s in summaries:
        print(
            f"{s['strategy']} seed {s['seed']}: total {s['total_time_s']:.1f}s,"
            f" final accuracy {s['final_accuracy']:.4f}"
        )

    summaries.sort(key=lambda s: (s["strategy"], s["seed"]))
    aggregates: dict[str, dict] = {}
    for label in sorted({s["strategy"] for s in summaries}):
        rows = [s for s in summaries if s["strategy"] == label]
        aggregates[label] = {
            "replicates": len(rows),
            "mean_total_time_s": _mean(rows, "total_time_s"),
            "mean_final_accuracy": _mean(rows, "final_accuracy"),
            "mean_round_duration_s": _mean(rows, "mean_round_duration_s"),
        }
    summary_doc = {"experiments": summaries, "aggregates": aggregates}
    _write_json(os.path.join(args.out, "summary.json"), summary_doc)
    _write_json(os.path.join(args.out, "config_echo.json"), echo_dict(config))
    print(f"wrote {len(tasks)} trace file(s), summary.json, config_echo.json to {args.out}")
    return 0


def _is_number(x) -> bool:
    """Whether a JSON value is a number that a float holds, finite."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


# What `compare` reads of each summary.json entry, and what each must be.
_ENTRY_CHECKS = {
    "strategy": (lambda x: type(x) is str, "a string"),
    "seed": (lambda x: type(x) is int, "an integer"),
    "total_time_s": (lambda x: _is_number(x) and x > 0, "a positive number"),
    "final_accuracy": (_is_number, "a number"),
}


def _summary_problem(doc) -> str | None:
    """What keeps `doc` from being a summary.json that `compare` can read."""
    if not isinstance(doc, dict) or not isinstance(doc.get("experiments"), list):
        return 'expected an object with an "experiments" list'
    seen = set()
    for i, entry in enumerate(doc["experiments"]):
        if not isinstance(entry, dict):
            return f"experiments[{i}] is not an object"
        for key, (valid, what) in _ENTRY_CHECKS.items():
            if key not in entry:
                return f"experiments[{i}] has no {key!r}"
            if not valid(entry[key]):
                return f"experiments[{i}].{key} must be {what}, got {entry[key]!r}"
        run = (entry["strategy"], entry["seed"])
        if run in seen:
            return f"experiments[{i}] repeats seed {run[1]} of {run[0]!r}"
        seen.add(run)
    return None


def _cmd_compare(args: argparse.Namespace) -> int:
    path = os.path.join(args.out, "summary.json")
    if not os.path.exists(path):
        print(f"error: {path} not found; run `fedsim run` first", file=sys.stderr)
        return 2
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        problem = f"not valid JSON: {exc}"
    else:
        problem = _summary_problem(doc)
    if problem is not None:
        print(f"error: {path}: {problem}", file=sys.stderr)
        return 2
    experiments = doc["experiments"]
    available = sorted({e["strategy"] for e in experiments})

    def rows_for(label: str) -> list[dict]:
        rows = [e for e in experiments if e["strategy"] == label]
        if not rows:
            print(
                f"error: no results for {label!r}; available: {', '.join(available)}",
                file=sys.stderr,
            )
        return rows

    target_rows = rows_for(args.a)
    base_rows = rows_for(args.b)
    if not base_rows or not target_rows:
        return 2
    # Replicates pair by seed, so both labels must have run on the same seeds.
    target_seeds = sorted(r["seed"] for r in target_rows)
    base_seeds = sorted(r["seed"] for r in base_rows)
    if target_seeds != base_seeds:
        what = "replicate counts" if len(target_seeds) != len(base_seeds) else "seeds"
        print(
            f"error: {what} differ ({args.a}: {target_seeds}, {args.b}: {base_seeds})",
            file=sys.stderr,
        )
        return 2

    print(f"{args.a} vs {args.b} ({len(target_rows)} replicate(s))")
    base_by_seed = {r["seed"]: r for r in base_rows}
    for row in target_rows:
        base = base_by_seed[row["seed"]]
        reduction = 100.0 * (1.0 - row["total_time_s"] / base["total_time_s"])
        print(
            f"  seed {row['seed']}: {row['total_time_s']:.1f}s vs"
            f" {base['total_time_s']:.1f}s ({reduction:+.1f}% time reduction),"
            f" accuracy {row['final_accuracy']:.4f} vs {base['final_accuracy']:.4f}"
        )
    bt, tt = _mean(base_rows, "total_time_s"), _mean(target_rows, "total_time_s")
    ba, ta = _mean(base_rows, "final_accuracy"), _mean(target_rows, "final_accuracy")
    print(f"total time: {tt:.1f}s vs {bt:.1f}s ({100.0 * (1.0 - tt / bt):+.1f}% reduction)")
    print(f"final accuracy: {ta:.4f} vs {ba:.4f} ({ta - ba:+.4f})")
    return 0


def _similarity_lines(similarity: HistogramDistances) -> list[str]:
    ids, values = similarity.client_ids, similarity.values
    lines = ["similarity (label-distribution distance, 0=identical, 2=disjoint):"]
    header = "      " + " ".join(f"{cid:>5}" for cid in ids)
    lines.append(header)
    for i, cid in enumerate(ids):
        row = " ".join(f"{values[i, j]:5.2f}" for j in range(len(ids)))
        lines.append(f"{cid:>5} {row}")
    return lines


def _cmd_inspect(args: argparse.Namespace) -> int:
    config = _load(args)
    seed = config.seed
    shared = SeedData.build(config, seed)
    offloading = any(isinstance(s, FreezeOffload) for s in config.strategies)
    similarity = shared.similarity() if offloading else None

    print(f"seed {seed}: {len(shared.clients)} clients,"
          f" {shared.dataset.num_classes} classes, partition mode {config.partition.mode}")
    header = f"{'client':>6} {'speed':>6} {'batch_s':>8} {'samples':>8}  class counts"
    print(header)
    for c in shared.clients:
        counts = " ".join(map(str, c.partition.class_counts.tolist()))
        print(
            f"{c.client_id:>6} {c.speed_factor:6.3f} {c.timings.full_time:8.3f}"
            f" {c.num_samples:>8}  [{counts}]"
        )
    if similarity is not None and len(shared.clients) <= 16:
        for line in _similarity_lines(similarity):
            print(line)

    if args.json:
        doc = {
            "seed": seed,
            "clients": [
                {
                    "client_id": c.client_id,
                    "speed_factor": c.speed_factor,
                    "full_batch_time": c.timings.full_time,
                    "num_samples": c.num_samples,
                    "class_counts": c.partition.class_counts.tolist(),
                }
                for c in shared.clients
            ],
            "similarity": None,
        }
        if similarity is None:
            _write_json(args.json, doc)
        else:
            # The whole clients x clients table, as float64 and then as JSON.
            n = len(similarity.client_ids)
            with out_of_memory_as_config_error(
                f"the {n} x {n} similarity table for --json", 8 * n * n
            ):
                doc["similarity"] = similarity.to_dict()
                _write_json(args.json, doc)
        print(f"wrote {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Virtual-time federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run configured strategies and write traces")
    p_run.add_argument("--config", required=True, help="YAML experiment config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument(
        "--replicates", type=int, default=None, help="override replicate count"
    )
    p_run.add_argument(
        "--workers", type=int, default=0, help="process pool size (0 = one per CPU)"
    )
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two strategies from summary.json")
    p_cmp.add_argument("--out", required=True, help="directory with summary.json")
    p_cmp.add_argument(
        "--a", "--target", dest="a", required=True, help="strategy label to evaluate"
    )
    p_cmp.add_argument(
        "--b", "--baseline", dest="b", default="fedavg",
        help="strategy label to compare against (default fedavg)",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_ins = sub.add_parser(
        "inspect", help="show client partitions and similarity without training"
    )
    p_ins.add_argument("--config", required=True, help="YAML experiment config")
    p_ins.add_argument("--seed", type=int, default=None, help="override base seed")
    p_ins.add_argument("--json", default=None, help="also write a JSON report here")
    p_ins.set_defaults(func=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
