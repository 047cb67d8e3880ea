"""Record the byte-identity digests that perfbench/run.py checks.

Run from the repository root, only on a commit whose outputs are known good::

    python3 perfbench/record_golden.py                 # default seed, every workload
    python3 perfbench/record_golden.py --seeds 5 6 --workload quickstart

For each workload and seed it runs one untraced pass and `fedsim run` serial
and pooled, refuses to record if any check fails, and merges the experiment
digests and the CLI output-file digests into perfbench/golden.json.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv: list[str] | None = None) -> int:
    spec = run.load_json(run.HERE / "workloads.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[spec["default_seed"]])
    parser.add_argument("--workload", nargs="+", default=list(spec["workloads"]))
    args = parser.parse_args(argv)

    fedsim = run.import_fedsim()
    golden = run.load_json(run.GOLDEN) if run.GOLDEN.is_file() else {}
    # Nothing is compared against the file being written.
    unchecked = dict(spec, default_seed=None)
    for name in args.workload:
        for seed in args.seeds:
            result = run.run_workload(fedsim, unchecked, name, seed, 0.0, False, {})
            if result["failures"]:
                print(json.dumps(result["failures"], indent=2), file=sys.stderr)
                print(f"error: {name} seed {seed} failed; nothing recorded", file=sys.stderr)
                return 1
            entry = golden.setdefault(name, {"experiments": {}, "cli": {}})
            entry["experiments"].update(result["digests"])
            entry["cli"][str(seed)] = result["cli_files"]
            print(f"recorded {name} seed {seed}: {len(result['digests'])} experiments")
    run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
