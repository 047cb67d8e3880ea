"""Command line front end.

Subcommands::

    fedsim run --config exp.yaml --out results/
    fedsim compare --out results/ --a freeze_offload_f1 --b fedavg
    fedsim inspect --config exp.yaml

`run` executes every configured strategy for every replicate seed and writes
one trace CSV per (strategy, seed) plus summary.json and config_echo.json.
Each (strategy, seed) experiment is a lane, and a process trains its lanes in
lockstep (`engine.run_experiments`); with a process pool of W workers, lane i
runs in worker i mod W. All outputs are deterministic given the config, so
reruns produce byte-identical files, whatever the worker count. Each file is
written to a temp file in the same directory and then renamed over its final
name, so an interrupted run leaves whole files or none, never a truncated one.

Exit codes: 0 on success, 1 for configuration problems, 2 for runtime
failures such as missing files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .config import ConfigError, ExperimentConfig, echo_dict, load_config
from .engine import ExperimentResult, Strategy, build_state, run_experiments

# Bound here for perfbench/tracer.py, which wraps `cli.run_experiment`; `run`
# itself calls `run_experiments`.
from .engine import run_experiment  # noqa: F401
from .similarity import SimilarityMatrix


def _format_float(x: float) -> str:
    return repr(float(x))


def _write_atomic(path: str, text: str) -> None:
    """Write `text` to `path` through a temp file renamed into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
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


def _run_group(task: tuple[ExperimentConfig, list[tuple[Strategy, int]], str]) -> list[dict]:
    """Run a group of lanes in lockstep, write their traces and return their
    summaries in lane order."""
    config, lanes, out_dir = task
    results = run_experiments(config, lanes)
    for result in results:
        write_trace(out_dir, result)
    return [result.summary.to_dict() for result in results]


def _load(args: argparse.Namespace) -> ExperimentConfig:
    """The config file with --seed and --replicates, where given, in place
    of the document's own values, validated with the rest of it."""
    flags = {k: getattr(args, k, None) for k in ("seed", "replicates")}
    return load_config(args.config, **{k: v for k, v in flags.items() if v is not None})


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
    workers = args.workers if args.workers else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(tasks)))
    if workers == 1:
        summaries = _run_group((config, tasks, args.out))
    else:
        groups = [(config, tasks[w::workers], args.out) for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_group, groups))
        summaries = [parts[i % workers][i // workers] for i in range(len(tasks))]

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
            "mean_total_time_s": sum(r["total_time_s"] for r in rows) / len(rows),
            "mean_final_accuracy": sum(r["final_accuracy"] for r in rows) / len(rows),
            "mean_round_duration_s": sum(r["mean_round_duration_s"] for r in rows)
            / len(rows),
        }
    summary_doc = {"experiments": summaries, "aggregates": aggregates}
    _write_json(os.path.join(args.out, "summary.json"), summary_doc)
    _write_json(os.path.join(args.out, "config_echo.json"), echo_dict(config))
    print(f"wrote {len(tasks)} trace file(s), summary.json, config_echo.json to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    path = os.path.join(args.out, "summary.json")
    if not os.path.exists(path):
        print(f"error: {path} not found; run `fedsim run` first", file=sys.stderr)
        return 2
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    experiments = doc.get("experiments", [])
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
    if len(base_rows) != len(target_rows):
        print(
            f"error: replicate counts differ ({args.a}: {len(target_rows)},"
            f" {args.b}: {len(base_rows)})",
            file=sys.stderr,
        )
        return 2

    print(f"{args.a} vs {args.b} ({len(target_rows)} replicate(s))")
    base_by_seed = {r["seed"]: r for r in base_rows}
    for row in target_rows:
        base = base_by_seed.get(row["seed"])
        if base is None:
            continue
        reduction = 100.0 * (1.0 - row["total_time_s"] / base["total_time_s"])
        print(
            f"  seed {row['seed']}: {row['total_time_s']:.1f}s vs"
            f" {base['total_time_s']:.1f}s ({reduction:+.1f}% time reduction),"
            f" accuracy {row['final_accuracy']:.4f} vs {base['final_accuracy']:.4f}"
        )
    def mean(rows: list[dict], key: str) -> float:
        return sum(r[key] for r in rows) / len(rows)

    bt, tt = mean(base_rows, "total_time_s"), mean(target_rows, "total_time_s")
    ba, ta = mean(base_rows, "final_accuracy"), mean(target_rows, "final_accuracy")
    print(f"total time: {tt:.1f}s vs {bt:.1f}s ({100.0 * (1.0 - tt / bt):+.1f}% reduction)")
    print(f"final accuracy: {ta:.4f} vs {ba:.4f} ({ta - ba:+.4f})")
    return 0


def _similarity_lines(matrix: SimilarityMatrix) -> list[str]:
    ids = matrix.client_ids
    lines = ["similarity (label-distribution distance, 0=identical, 2=disjoint):"]
    header = "      " + " ".join(f"{cid:>5}" for cid in ids)
    lines.append(header)
    for i, cid in enumerate(ids):
        row = " ".join(f"{matrix.values[i, j]:5.2f}" for j in range(len(ids)))
        lines.append(f"{cid:>5} {row}")
    return lines


def _cmd_inspect(args: argparse.Namespace) -> int:
    config = _load(args)
    seed = config.seed
    # One state with every strategy's setup: the similarity matrix is there
    # if any strategy needs it.
    state = build_state(config, config.strategies[0], seed)
    for strategy in config.strategies[1:]:
        strategy.setup(state)

    print(f"seed {seed}: {len(state.clients)} clients,"
          f" {state.dataset.num_classes} classes, partition mode {config.partition.mode}")
    header = f"{'client':>6} {'speed':>6} {'batch_s':>8} {'samples':>8}  class counts"
    print(header)
    for c in state.clients:
        counts = " ".join(str(int(x)) for x in c.partition.class_counts)
        print(
            f"{c.client_id:>6} {c.speed_factor:6.3f} {c.timings.full_time:8.3f}"
            f" {c.num_samples:>8}  [{counts}]"
        )
    if state.similarity is not None and len(state.clients) <= 16:
        for line in _similarity_lines(state.similarity):
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
                    "class_counts": [int(x) for x in c.partition.class_counts],
                }
                for c in state.clients
            ],
            "similarity": None
            if state.similarity is None
            else state.similarity.to_dict(),
        }
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
