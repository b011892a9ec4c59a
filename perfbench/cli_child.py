"""Run one arithsite CLI call with the layer spans of tracing.py switched on.

Usage: cli_child.py SPAWN_MONOTONIC ARG...  (arithsite importable on the path)

Behaves as `python -m arithsite.cli ARG...` on stdout and in its exit code,
then writes one line "perfbench-trace {json}" to stderr: the span counters,
the interpreter start (from the parent's spawn time on the shared monotonic
clock to this script's first line), the import of arithsite.cli and the
time inside cli.main.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

t0 = perf_counter()
import arithsite.cli as cli  # noqa: E402

import_s = perf_counter() - t0

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
tracer.active = True
t0 = perf_counter()
try:
    code = cli.main(sys.argv[2:])
except SystemExit as e:  # argparse usage errors exit 2 from inside main
    code = e.code
main_s = perf_counter() - t0
tracer.active = False
tracer.cli["interp_s"].append(T_START - float(sys.argv[1]))
tracer.cli["import_s"].append(import_s)
tracer.cli["main_s"].append(main_s)
sys.stdout.flush()
print("perfbench-trace " + json.dumps(tracer.export()), file=sys.stderr)
sys.exit(code)
