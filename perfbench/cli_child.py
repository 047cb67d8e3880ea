"""`fedsim run` with reference quanta interleaved, for calibrated CLI timing.

    python3 perfbench/cli_child.py QUANTA_FILE run --config ... --out ... --workers N

Runs `fedsim.cli.main` on the arguments after QUANTA_FILE, as the `fedsim`
command does, with a calibrate.QuantumTimer in the processes that do the
work: this one for a serial run, the pool's workers for a pooled one. A
worker starts its timer when it is forked; this process stops its own then,
because from then on it only waits. Each quantum appends one line
`start host_s cpu_s pid` to QUANTA_FILE.
"""

from __future__ import annotations

import os
import sys

from calibrate import QuantumTimer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    from fedsim.cli import main as fedsim_main

    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)

    def write(start: float, host_s: float, cpu_s: float) -> None:
        os.write(fd, f"{start!r} {host_s!r} {cpu_s!r} {os.getpid()}\n".encode())

    timer = QuantumTimer(write)
    os.register_at_fork(before=timer.stop, after_in_child=timer.start)
    timer.start()
    try:
        return fedsim_main(argv)
    finally:
        timer.stop()


if __name__ == "__main__":
    sys.exit(main())
