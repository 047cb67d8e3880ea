"""fedsim benchmark: calibrated host-time end-to-end metrics, a traced per-layer
run and a byte-identity gate.

Run from the repository root::

    python3 perfbench/run.py --workload quickstart --seed 5 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all    # every workload, untraced then traced

A run drives fedsim from source (`src/`) through its public entry points only.
It repeats cycles until `--seconds` have elapsed and every replicate seed
(seed, seed+1, seed+2) has run: a cycle is `parse_config`, `build_state` and
`run_round` for every strategy of one replicate seed, in a process of its own
(group_child.py), then the command
`fedsim run` (`fedsim.cli.main` in a child interpreter, cli_child.py) serial
and pooled. Times are calibrated: reference quanta run alongside the timed
work, and each time is rescaled to a host of fixed speed (see calibrate.py),
because the speed of a shared host's cores swings more than a run can average
out. With `--trace 1` it then runs the first replicate seed and one serial
`fedsim run` in this process again with span wrappers installed (see
tracer.py) and reports per-layer metrics instead; those are host times.

Every experiment is checked: output invariants, identical digests across
cycles, serial against pooled CLI output, CLI traces against the library
loop, traced against untraced, and, where perfbench/golden.json holds a
digest for the seed (always for the default seed), the recorded digest. A
failed check counts the experiment in `failed`; the run goes on.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. Workloads, their reasons
and the layer-to-metric map are in perfbench/workloads.json.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, thread_time

from calibrate import NOMINAL_QUANTUM_S, RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
TAIL_SAMPLES = 10
CLI_CHILD = HERE / "cli_child.py"
GROUP_CHILD = HERE / "group_child.py"


def import_fedsim():
    """Import fedsim from this checkout's `src/`, never from site-packages."""
    src = ROOT / "src"
    if not (src / "fedsim" / "__init__.py").is_file():
        raise SystemExit(f"error: fedsim sources not found under {src}")
    sys.path.insert(0, str(src))
    import fedsim
    import fedsim.cli

    if Path(fedsim.__file__).resolve().parent != (src / "fedsim").resolve():
        raise SystemExit(f"error: imported fedsim from {fedsim.__file__}, not {src}")
    return fedsim


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(samples: list[float]) -> float:
    """Median, or NaN when every sample failed."""
    return statistics.median(samples) if samples else math.nan


def tail_percentile(samples: list[float], q: float = 0.9) -> float:
    """Nearest-rank q-quantile; refuses when fewer than 10 samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < TAIL_SAMPLES:
        raise ValueError(
            f"p{round(q * 100)} of {len(ordered)} samples has fewer than "
            f"{TAIL_SAMPLES} samples beyond it"
        )
    return ordered[rank - 1]


def environment() -> dict:
    """Conditions of this run, so that two runs can be compared fairly."""
    import numpy

    src = ROOT / "src" / "fedsim"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }


def _git_sha() -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------


def workload_doc(workload: dict, seed: int, replicates: int) -> dict:
    doc = copy.deepcopy(workload["config"])
    doc["seed"] = seed
    doc["replicates"] = replicates
    return doc


def cli_doc(workload: dict, seed: int) -> dict:
    """The workload's config with the replicates, rounds and strategies under `cli`."""
    cli = workload["cli"]
    doc = workload_doc(workload, seed, cli["replicates"])
    doc["training"]["rounds"] = cli["rounds"]
    doc["strategies"] = copy.deepcopy(cli.get("strategies", doc["strategies"]))
    return doc


def check_invariants(config, traces, summary) -> list[str]:
    """Properties every correct experiment has, whatever its seed."""
    problems = []
    if [t.round_index for t in traces] != list(range(config.training.rounds)):
        problems.append("round indices are not 0..rounds-1")
    for t in traces:
        if not (math.isfinite(t.duration) and t.duration > 0):
            problems.append(f"round {t.round_index}: duration {t.duration!r}")
        if not 0.0 <= t.accuracy <= 1.0:
            problems.append(f"round {t.round_index}: accuracy {t.accuracy!r}")
        if not 1 <= len(t.selected) <= config.clients.per_round:
            problems.append(f"round {t.round_index}: {len(t.selected)} clients selected")
        if not set(t.dropped) <= set(t.selected):
            problems.append(f"round {t.round_index}: dropped clients were not selected")
        if len(t.offload_records) > t.num_offloads:
            problems.append(f"round {t.round_index}: more handoffs than assignments")
    chance = 1.0 / config.dataset.num_classes
    if not summary.best_accuracy > 1.5 * chance:
        problems.append(f"best accuracy {summary.best_accuracy!r} is near chance")
    return problems


def experiment_digest(fedsim, label: str, seed: int, traces, model, scratch: Path):
    """sha256 over the trace CSV as write_trace formats it, summary.to_dict()
    and the final global model's parameter bytes.

    Returns the digest record and the experiment's ExperimentSummary, built as
    run_experiment builds it.
    """
    import numpy as np

    engine = fedsim.engine
    durations = np.asarray([t.duration for t in traces], dtype=np.float64)
    accuracies = [t.accuracy for t in traces]
    summary = engine.ExperimentSummary(
        strategy_label=label,
        seed=seed,
        rounds=len(traces),
        total_time=float(durations.sum()),
        final_accuracy=accuracies[-1],
        best_accuracy=max(accuracies),
        mean_round_duration=float(durations.mean()),
        sd_round_duration=float(durations.std()),
    )
    result = engine.ExperimentResult(label, seed, traces, summary)
    path = Path(fedsim.cli.write_trace(str(scratch), result))
    trace_csv = path.read_bytes()
    path.unlink()
    summary_json = json.dumps(summary.to_dict(), sort_keys=True).encode()
    params = b"".join(
        f"{a.dtype.str}{a.shape}".encode() + np.ascontiguousarray(a).tobytes()
        for a in model.arrays()
    )
    parts = [sha256(trace_csv), sha256(summary_json), sha256(params)]
    record = {
        "digest": sha256("".join(parts).encode()),
        "trace": parts[0],
        "summary": summary.to_dict(),
    }
    return record, summary


class Tally:
    """Attempts and failures. Each attempt has a unique name; an attempt fails
    once however many of its checks fail. Failures are recorded, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, what: str, reason: str) -> None:
        self.failures.setdefault(what, []).append(reason)
        print(f"FAILED {what}: {reason}", file=sys.stderr)

    def merge(self, attempted: int, failures: dict[str, list[str]]) -> None:
        """Add the attempts and failures counted in a child process."""
        self.attempted += attempted
        for what, reasons in failures.items():
            self.failures.setdefault(what, []).extend(reasons)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_group(fedsim, doc: dict, seed: int, tag: str, tally: Tally, scratch: Path,
              clock: RefClock, tracer=None):
    """Every strategy of `doc` for one replicate seed, with timed set-up and rounds.

    Records every set-up and every round as a span of `clock`, timed in CPU
    time as well (see calibrate.py). Returns the
    set-up span ids (None when an experiment failed), the round span ids and
    {label/seed: digest record} for every experiment that ran. A failed
    experiment is named `<tag> <label>/<seed>` in `tally`.
    """
    config_mod, engine = fedsim.config, fedsim.engine
    setup, rounds, records = [], [], {}
    strategies = config_mod.parse_config(doc).strategies
    for index, strategy in enumerate(strategies):
        key = f"{strategy.label}/{seed}"
        tally.attempt()
        if tracer is not None:
            tracer.experiment += 1
        try:
            start, cpu = perf_counter(), thread_time()
            config = config_mod.parse_config(doc)
            state = engine.build_state(config, config.strategies[index], seed)
            setup.append(clock.add(start, perf_counter(), thread_time() - cpu))
            traces = []
            for r in range(config.training.rounds):
                start, cpu = perf_counter(), thread_time()
                traces.append(engine.run_round(state, r))
                rounds.append(clock.add(start, perf_counter(), thread_time() - cpu))
            record, summary = experiment_digest(
                fedsim, strategy.label, seed, traces, state.global_model, scratch
            )
            problems = check_invariants(config, traces, summary)
        except Exception:
            tally.fail(f"{tag} {key}", traceback.format_exc())
            continue
        if problems:
            tally.fail(f"{tag} {key}", "; ".join(problems))
        records[key] = record
    return (setup if len(records) == len(strategies) else None), rounds, records


def run_group_child(doc: dict, seed: int, tag: str, scratch: Path) -> dict:
    """run_group for one cycle in a fresh interpreter (group_child.py); returns
    its result: calibrated and host times, digest records, attempts and
    failures, peak memory and reference quanta."""
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        request, result = work / "request.json", work / "result.json"
        request.write_text(json.dumps({"doc": doc, "seed": seed, "tag": tag, "scratch": str(work)}),
                           encoding="utf-8")
        command = [sys.executable, str(GROUP_CHILD), str(request), str(result)]
        proc = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"library pass exited with {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_cli(fedsim, doc: dict, workers: int, scratch: Path, in_process: bool = False):
    """`fedsim run` on `doc`; returns ((start, end) host time, {file name:
    sha256}, the parsed summary.json, the child's reference quanta).

    It runs as a command in a child interpreter (cli_child.py, which runs
    reference quanta alongside), as a user would start it, so that its process
    pool never forks the benchmark process; `in_process` calls
    fedsim.cli.main here instead, without quanta, which the traced run needs.
    """
    import yaml

    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        config_path = work / "config.yaml"
        config_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        out = work / "out"
        argv = ["run", "--config", str(config_path), "--out", str(out), "--workers", str(workers)]
        if in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                code = fedsim.cli.main(argv)
                end = perf_counter()
            error, quanta = "", []
        else:
            quanta_path = work / "quanta.txt"
            command = [sys.executable, str(CLI_CHILD), str(quanta_path), *argv]
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            start = perf_counter()
            proc = subprocess.run(command, env=env, capture_output=True, text=True, check=False)
            end = perf_counter()
            code, error = proc.returncode, proc.stderr[-2000:]
        if code != 0:
            raise RuntimeError(f"fedsim run exited with {code}: {error}")
        if not in_process:
            quanta = [
                (float(start), float(host), float(cpu), int(pid))
                for start, host, cpu, pid in map(str.split, quanta_path.read_text().splitlines())
            ]
        files = {p.name: sha256(p.read_bytes()) for p in sorted(out.iterdir())}
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        return (start, end), files, summary, quanta
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_cli(name, doc, files, summary, records, golden_cli, tally: Tally) -> None:
    """Compare one CLI output directory with the library pass and the golden."""
    expected = len(doc["strategies"]) * doc["replicates"]
    if len(summary["experiments"]) != expected:
        tally.fail(name, f"{len(summary['experiments'])} experiments, expected {expected}")
    for entry in summary["experiments"]:
        record = records.get(f"{entry['strategy']}/{entry['seed']}")
        if record is None or record["summary"]["rounds"] != doc["training"]["rounds"]:
            continue
        if entry != record["summary"]:
            tally.fail(name, f"summary of {entry['strategy']}/{entry['seed']} differs from the library loop")
        trace_file = f"trace_{entry['strategy']}_{entry['seed']}.csv"
        if files.get(trace_file) != record["trace"]:
            tally.fail(name, f"{trace_file} differs from the library loop")
    if golden_cli is not None and files != golden_cli:
        diff = sorted(k for k in set(files) | set(golden_cli) if files.get(k) != golden_cli.get(k))
        tally.fail(name, f"files differ from golden: {', '.join(diff)}")


# --------------------------------------------------------------------------
# Workload run
# --------------------------------------------------------------------------


def run_workload(
    fedsim, spec: dict, name: str, seed: int, seconds: float, trace: bool,
    golden: dict, scratch: Path = OUT,
) -> dict:
    """Measure one workload; see the module docstring for what is checked.

    Returns the end-to-end metrics (or, with `trace`, the per-layer ones)
    with the attempt and failure counts.
    """
    workload = spec["workloads"][name]
    doc = workload_doc(workload, seed, workload.get("replicates", spec["replicates"]))
    golden_w = golden.get(name, {})
    must_match = seed == spec["default_seed"]
    tally = Tally()
    scratch.mkdir(parents=True, exist_ok=True)

    # Untraced cycles until the time is up and every replicate seed has run.
    # A cycle is one replicate seed through the library, in a process of its
    # own (group_child.py), then `fedsim run` serial and pooled, so that every
    # metric samples the whole run.
    cdoc = cli_doc(workload, seed)
    golden_cli = golden_w.get("cli", {}).get(str(seed))
    replicates = [seed + i for i in range(doc["replicates"])]
    clock = RefClock()  # the `fedsim run` spans and every quantum
    groups: list[dict] = []
    cli_spans: dict[str, list[int]] = {"cli_serial": [], "cli_pooled": []}
    first: dict = {}
    first_cli: dict | None = None
    cycle = 0
    start = perf_counter()
    while cycle < len(replicates) or perf_counter() - start < seconds:
        cycle += 1
        tag = f"cycle {cycle}"
        rep_seed = replicates[(cycle - 1) % len(replicates)]
        try:
            group = run_group_child(doc, rep_seed, tag, scratch)
        except Exception:
            tally.attempt()
            tally.fail(f"{tag} library pass", traceback.format_exc())
            continue
        tally.merge(group["attempted"], group["failures"])
        clock.add_quanta(group["quanta"])
        groups.append(group)
        for key, record in group["records"].items():
            if key in first:
                if first[key]["digest"] != record["digest"]:
                    tally.fail(f"{tag} {key}", "digest differs from its first run in this run")
                continue
            first[key] = record
            stored = golden_w.get("experiments", {}).get(key)
            if stored is None and must_match:
                tally.fail(f"{tag} {key}", "no golden digest for the default seed")
            elif stored is not None and stored != record["digest"]:
                tally.fail(f"{tag} {key}", "digest differs from golden")

        for label, workers in (("cli_serial", 1), ("cli_pooled", len(os.sched_getaffinity(0)))):
            what = f"{tag} {label}"
            tally.attempt()
            try:
                (t0, t1), files, summary, quanta = run_cli(fedsim, cdoc, workers, scratch)
            except Exception:
                tally.fail(what, traceback.format_exc())
                continue
            clock.add_quanta(quanta)
            cli_spans[label].append(clock.add(t0, t1))
            check_cli(what, cdoc, files, summary, first, golden_cli, tally)
            if first_cli is None:
                first_cli = files
                if golden_cli is None and must_match:
                    tally.fail(what, "no golden digests for the default seed")
            elif files != first_cli:
                tally.fail(what, "output directory differs from the first CLI run")

    # Calibrated times (see calibrate.py); the host times are kept in the
    # result file next to them.
    calibrated = {k: [clock.seconds(i) for i in ids] for k, ids in cli_spans.items()}
    calibrated["setup"] = [g["setup_s"] for g in groups if g["setup_s"] is not None]
    calibrated["round_ms"] = [ms for g in groups for ms in g["round_ms"]]
    host = {k: [clock.raw(i) for i in ids] for k, ids in cli_spans.items()}
    host["setup"] = [g["setup_host_s"] for g in groups if g["setup_host_s"] is not None]
    host["round_ms"] = [ms for g in groups for ms in g["round_host_ms"]]
    host["group_wall"] = [g["group_host_s"] for g in groups]
    if trace:
        metrics = traced_metrics(
            fedsim, doc, seed, cdoc, first, first_cli, groups[0]["group_net_s"],
            tally, scratch, f"{name}_s{seed}",
        )
    else:
        round_ms = calibrated["round_ms"]
        metrics = {
            "setup_s": median(calibrated["setup"]),
            "rounds_per_s": len(round_ms) / (sum(round_ms) / 1e3),
            "round_ms_p50": statistics.median(round_ms),
            "round_ms_p90": tail_percentile(round_ms, 0.9),
            "peak_rss_mb": max(g["peak_rss_mb"] for g in groups),
            "run_wall_s": median(calibrated["cli_serial"]),
            "run_wall_pooled_s": median(calibrated["cli_pooled"]),
        }
    quantum_s = [q[1] for q in clock.quanta]
    quantum_cpu_s = [q[2] for q in clock.quanta]
    return {
        "workload": name,
        "seed": seed,
        "cycles": cycle,
        "round_samples": len(calibrated["round_ms"]),
        "setup_samples": len(calibrated["setup"]),
        "cli_samples": len(cli_spans["cli_serial"]),
        "quanta": len(quantum_s),
        "quantum_cpu_ms_median": 1e3 * statistics.median(quantum_cpu_s) if quantum_cpu_s else math.nan,
        "quantum_share": sum(quantum_s) / (perf_counter() - start),
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
        "digests": {k: r["digest"] for k, r in first.items()},
        "cli_files": first_cli,
        "host_samples": host,
        "calibrated_samples": calibrated,
    }


def traced_metrics(fedsim, doc, seed, cdoc, untraced, untraced_cli, untraced_wall,
                   tally, scratch, tag):
    """The first replicate seed through the library, then a serial `fedsim run`,
    with spans recorded; returns the per-layer metrics. `untraced_wall` is the
    host time of the same replicate seed in the first untraced cycle, less the
    reference quanta run inside it."""
    from tracer import Tracer

    lib = Tracer()
    with lib.installed():
        t0 = perf_counter()
        _, _, records = run_group(fedsim, doc, seed, "traced", tally, scratch, RefClock(), lib)
        traced_wall = perf_counter() - t0
    for key, record in records.items():
        if untraced.get(key, {}).get("digest") != record["digest"]:
            tally.fail(f"traced {key}", "digest differs from the untraced pass")

    cli = Tracer()
    tally.attempt()
    cli_wall = math.nan
    with cli.installed():
        try:
            (t0, t1), files, _, _ = run_cli(fedsim, cdoc, 1, scratch, in_process=True)
            cli_wall = t1 - t0
            if untraced_cli is not None and files != untraced_cli:
                tally.fail("traced cli", "output directory differs from the untraced run")
        except Exception:
            tally.fail("traced cli", traceback.format_exc())
    lib.write(scratch / f"spans_{tag}_library.npz")
    cli.write(scratch / f"spans_{tag}_cli.npz")

    metrics: dict[str, float] = {}
    for span, (calls, busy, own) in lib.summary().items():
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.busy_s"] = busy
        metrics[f"{span}.self_s"] = own
    for span, (calls, busy, own) in cli.summary().items():
        if span.startswith("cli."):
            metrics[f"{span}.calls"] = calls
            metrics[f"{span}.busy_s"] = busy
    counts = lib.counts
    metrics.update({k: v for k, v in counts.items() if k != "engine.offload_records"})
    executed = counts["engine.local_train.steps"] + counts["engine.execute_offloaded.steps"]
    metrics["engine.steps_executed"] = executed
    metrics["engine.steps_wasted"] = counts["engine.steps_wasted"]
    metrics["engine.useful_step_ratio"] = (executed - counts["engine.steps_wasted"]) / executed
    metrics["engine.us_per_step"] = 1e6 * (
        metrics.get("engine.local_train.busy_s", 0.0)
        + metrics.get("engine.execute_offloaded.busy_s", 0.0)
    ) / executed
    assignments = counts["scheduling.assignments"]
    metrics["scheduling.executed_offload_ratio"] = (
        counts["engine.offload_records"] / assignments if assignments else 0.0
    )
    metrics["cli.overhead_s"] = cli_wall - metrics.get("cli.run_experiment.busy_s", 0.0)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return metrics


# --------------------------------------------------------------------------
# Command line
# --------------------------------------------------------------------------


def report(result: dict, units: dict[str, str]) -> None:
    print(f"workload {result['workload']} seed {result['seed']}: {result['cycles']} cycle(s),"
          f" {result['round_samples']} rounds timed, {result['setup_samples']} set-ups timed,"
          f" {result['cli_samples']} CLI runs timed each way")
    print(f"  {result['quanta']} reference quanta, median {result['quantum_cpu_ms_median']:.4f} ms CPU"
          f" (nominal {NOMINAL_QUANTUM_S * 1e3:g} ms), {100 * result['quantum_share']:.1f}% of the run;"
          " times below are calibrated to the nominal quantum")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<40} {value:>14.6g} {units.get(metric, '')}")
    print(f"  {'failed_frac':<40} {result['failed_frac']:>14.6g} ratio"
          f" ({result['failed']} of {result['attempted']} attempted)")


def run_all(args, bench: dict) -> int:
    """Every workload in a fresh process, untraced then traced, as one table."""
    code = 0
    for name in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                code = 1
    return code


def main(argv: list[str] | None = None) -> int:
    bench = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(HERE / "workloads.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, bench)

    fedsim = import_fedsim()
    env = environment()
    print(json.dumps({"environment": env}, sort_keys=True))
    result = run_workload(
        fedsim, spec, args.workload, args.seed, args.seconds, bool(args.trace),
        load_json(GOLDEN) if GOLDEN.is_file() else {},
    )
    result["environment"] = env
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise SystemExit(f"error: metrics not produced: {', '.join(missing)}")
    result["metrics"] = {m: result["metrics"][m] for m in units}
    report(result, units)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"result_{args.workload}_s{args.seed}_t{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    correct = not result["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
