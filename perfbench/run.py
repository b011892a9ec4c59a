#!/usr/bin/env python3
"""arithsite benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from src/.  Inputs
come from --seed only.  Untraced, operations run in whole rounds (see
workloads.py) until S seconds of wall time and at least MIN_OPS operations
have passed.  Each operation is timed alone; its oracle runs outside the timed
interval, and an operation that raises, times out or fails its oracle is
a failed operation, listed by input on stderr.

--trace 0 reports the end-to-end metrics.  Their times are scaled to a
nominal host speed by the probe slices of hostspeed.py, which run between
operations and around each set-up (a spawned interpreter, since imports
dominate a set-up):
  throughput_ops_s  successful operations per second of operation time
  latency_p50_ms, latency_p90_ms  per-operation time (MIN_OPS keeps at
                    least ten samples beyond p90)
  peak_rss_mb       peak RSS of this process, or of the largest CLI child
  setup_s           median of SETUP_RUNS set-ups (imports, input generation,
                    kernels.warmup()), each but one in a fresh process
--trace 1 runs a fixed number of round pairs per workload instead of S
seconds: each pair is one round untraced and the next with the layer spans
of tracing.py on.  It reports the per-layer metrics summed over the traced
rounds, the tracing overhead (traced / untraced operation time) and the
traced operation time no named span covers.

The line before the result line records the run: seed, commit, nproc, Python
and numpy versions, kernels.HAS_NUMBA (a different kernel path: never compare
runs across it), sample count, error rate and, under "wall", the unscaled
end-to-end times and the median host factor.  The last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("site-words", "belyi-compose", "preimage-trees", "cli-cold")
MIN_OPS = 100  # ten samples beyond p90
SETUP_RUNS = 7
OP_TIMEOUT_S = 30
RUN_CAP_S = 120  # no new round starts after this much wall time


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def setup(name: str, seed: int):
    """Import the library, build the workload's inputs and warm the kernels."""
    t0 = perf_counter()
    import workloads
    from arithsite import kernels

    w = workloads.make(name, seed, ROOT)
    w.round(0)
    kernels.warmup()
    return w, perf_counter() - t0


def setup_in_child(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, timeout=60, cwd=ROOT).stdout
    return float(out.decode().split()[-1])


def run_op(op, tracer):
    """Time one operation, then check it; returns (seconds, failure or None)."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            out = op.run()
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return dt, f"timed out after {OP_TIMEOUT_S} s"
    except Exception as e:  # any library error is a failed operation, not a crash
        return dt, f"raised {type(e).__name__}: {e}"
    try:
        return dt, op.check(out)
    except Exception as e:
        return dt, f"oracle raised {type(e).__name__}: {e}"


def run_round(w, r, add, failures, tracer=None) -> float:
    """Run round r, passing each latency to `add` and appending failures;
    returns its operation time."""
    busy = 0.0
    for op in w.round(r):
        dt, failure = run_op(op, tracer)
        add(dt)
        busy += dt
        if failure:
            failures.append(f"{op.label}: {failure}")
    return busy


def measure(w, seconds):
    """Whole rounds until `seconds` of wall time and MIN_OPS operations."""
    lat, failures, rounds = hostspeed.Scaler(w.PROBE), [], 0
    start = perf_counter()
    while (perf_counter() - start < seconds or len(lat.raw) < MIN_OPS) and perf_counter() - start < RUN_CAP_S:
        run_round(w, rounds, lat.add, failures)
        rounds += 1
    return lat, failures, rounds


def measure_traced(w, tracer):
    """w.TRACED_ROUNDS pairs of rounds, the first of each untraced and the
    second traced.  The number of rounds is fixed, so a seed's counts repeat
    exactly on any host; each traced round draws fresh inputs of the same mix,
    so the layers do the same work with tracing on as without it."""
    lat, failures, spent = [], [], [0.0, 0.0]
    for r in range(2 * w.TRACED_ROUNDS):
        traced = r % 2
        w.trace(tracer if traced else None)
        spent[traced] += run_round(w, r, lat.append, failures, tracer if traced else None)
    w.trace(None)
    return lat, failures, spent, 2 * w.TRACED_ROUNDS


def latency_metrics(lat, failed) -> dict:
    """Throughput and latency percentiles of one run's operation times."""
    deciles = quantiles(lat, n=10, method="inclusive")
    return {
        "throughput_ops_s": ((len(lat) - failed) / sum(lat), "1/s"),
        "latency_p50_ms": (deciles[4] * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
    }


def commit() -> str | None:
    """The checkout's git commit; None outside git."""
    try:
        # the ceiling keeps git from taking HEAD of a repository around the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "arithsite" / "__init__.py").is_file():
        print(f"perfbench: no arithsite package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_probe:
        print(setup(args.workload, args.seed)[1])
        return 0

    setups, scaled_setups = [], []
    for i in range(SETUP_RUNS):  # the last set-up is this process's own
        before = hostspeed.spawn_s()
        if i < SETUP_RUNS - 1:
            dt = setup_in_child(args)
        else:
            w, dt = setup(args.workload, args.seed)
        setups.append(dt)
        scaled_setups.append(dt * 2 * hostspeed.SPAWN.nominal_s / (before + hostspeed.spawn_s()))
    signal.signal(signal.SIGALRM, _alarm)
    wall = {}

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        lat, failures, (untraced_s, traced_s), rounds = measure_traced(w, tracer)
        unattributed = traced_s - tracer.attributed_s()
        metrics = tracer.metrics()
        metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
        metrics["trace.unattributed_s"] = (unattributed, "s")
        metrics["trace.unattributed_share"] = (unattributed / traced_s, "ratio")
    else:
        scaler, failures, rounds = measure(w, args.seconds)
        lat = scaler.scaled()
        metrics = latency_metrics(lat, len(failures))
        metrics["peak_rss_mb"] = (w.peak_rss_kb() / 1024, "MB")
        metrics["setup_s"] = (median(scaled_setups), "s")
        wall = {k: v for k, (v, _) in latency_metrics(scaler.raw, len(failures)).items()}
        wall["setup_s"] = median(setups)
        wall["host_factor"] = median(scaler.factors())

    import numpy

    from arithsite import kernels

    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "has_numba": kernels.HAS_NUMBA,
        "rounds": rounds, "samples": len(lat), "failed": len(failures),
        "error_rate": len(failures) / len(lat), "setup_runs_s": setups, "wall": wall,
    }
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(lat),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
