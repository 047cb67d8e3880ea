"""One cycle's library pass in a fresh interpreter.

    python3 perfbench/group_child.py REQUEST_JSON RESULT_JSON

REQUEST_JSON holds {"doc", "seed", "tag", "scratch"}; the child runs
run.run_group on them with reference quanta running (see calibrate.py) and
writes its calibrated and host times, digest records, attempts, failures,
peak memory and quanta to RESULT_JSON. Each cycle runs in its own process
because fedsim's speed relative to the reference quanta differs from one
process to the next by several percent, steadily within a process; spreading
a run over one process per cycle averages that out.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import run
from calibrate import RefClock


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    fedsim = run.import_fedsim()
    tally = run.Tally()
    clock = RefClock()
    with clock.running():
        start = perf_counter()
        setup, rounds, records = run.run_group(
            fedsim, request["doc"], request["seed"], request["tag"], tally,
            Path(request["scratch"]), clock,
        )
        group = clock.add(start, perf_counter())
    result = {
        "setup_s": None if setup is None else sum(clock.seconds(i) for i in setup),
        "setup_host_s": None if setup is None else sum(clock.raw(i) for i in setup),
        "round_ms": [1e3 * clock.seconds(i) for i in rounds],
        "round_host_ms": [1e3 * clock.raw(i) for i in rounds],
        "group_host_s": clock.raw(group),
        "group_net_s": clock.net(group),
        "records": records,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quanta": clock.quanta,
    }
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
