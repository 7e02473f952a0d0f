"""Run one proxima CLI command under the tracer and write its spans.

    python3 perfbench/trace_cli.py SPANS_FILE COMMAND [ARGS...]

``src/`` must be on PYTHONPATH, as for ``python -m proxima.cli``.  The import
of ``proxima.cli`` and the call to ``main()`` are spans of their own; the
library calls inside ``main()`` are recorded as in the benchmark process.
"""

import sys

from spans import Tracer


def run(spans_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    span = tracer.open("cli.import")
    import proxima.cli

    tracer.close(span)
    tracer.install()
    span = tracer.open("cli.main")
    try:
        code = proxima.cli.main(argv)
    finally:
        tracer.close(span)
        sys.stdout.flush()
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
