"""Run one proxima CLI command and write the process's peak resident set size.

    python3 perfbench/peak_cli.py PEAK_FILE COMMAND [ARGS...]

``src/`` must be on PYTHONPATH, as for ``python -m proxima.cli``, which this
otherwise matches.  PEAK_FILE receives the peak RSS in kB of this process
image alone (``VmHWM``).  ``getrusage`` cannot give that: the kernel carries
the parent's peak over a fork and exec into the child's ``ru_maxrss``, so a
child of a large benchmark process would report the benchmark's memory.
"""

import sys
from pathlib import Path


def peak_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(peak_file: str, argv: list[str]) -> int:
    import proxima.cli

    try:
        return proxima.cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(peak_file).write_text(str(peak_kb()))


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
