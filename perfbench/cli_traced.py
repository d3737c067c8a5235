"""Run one albertkit CLI command with the benchmark's tracer installed.

    python3 perfbench/cli_traced.py STATS.json <albertkit argv...>

Stdout and the exit code are the CLI's own. The per-function counts and
self times go to STATS.json, with a ``cli.import`` span for the import
of the package.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402

t0 = time.perf_counter()
import albertkit.cli  # noqa: E402

import_s = time.perf_counter() - t0


def main() -> int:
    t = tracer.Tracer()
    t.install()
    t.record("cli.import", import_s)
    t.active = True
    try:
        code = albertkit.cli.main(sys.argv[2:])
    finally:
        t.active = False
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(t.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
