"""One workload in one fresh interpreter: set-up op, then a closed timed loop.

Started by run.py with the BLAS thread count pinned and `src` on PYTHONPATH;
it prints one JSON object with the raw measurements as its last stdout line.
A single client issues one op at a time and starts no threads.

Untraced (--trace 0): op 0 is the untimed set-up op; ops 1, 2, ... each get
a fresh input from (seed, i) until --seconds have passed. The calibration
kernel of hostspeed.py runs after every op, untimed, so that run.py can scale
each op by the host speed measured on either side of it.

Traced (--trace 1): op 0 runs traced from a cold start (its counts are the
`setup.*` metrics and exercise the cold-build self-check). Then the run
repeats op 0's input for --seconds, alternating untraced and traced ops; the
difference of the two median op times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed

MAX_ERRORS_KEPT = 5


def monotonic() -> float:
    # system-wide clock, comparable with the parent's reading of it
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    """BLAS library, its thread count, CPU count, Python and numpy versions."""
    import ctypes
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, wl, inp, tracer=None) -> float:
        """Run, time and check one op; returns its wall time in seconds."""
        self.attempted += 1
        if tracer is not None:
            tracer.start_op()
        problems = []
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception:  # a failing op is counted, and the loop goes on
            problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        dt = time.perf_counter() - t0
        if tracer is not None:
            self.trace = tracer.end_op()
            problems += self.trace["violations"]
        if not problems:
            err = wl.check(inp, out)
            if err:
                problems.append(err)
        if problems:
            self._fail("; ".join(problems))
        return dt

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(f"op {self.attempted - 1}: {reason}")


class Calibration:
    """Kernel times taken between ops, and how many overlapped busy threads."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.busy = 0

    def run(self) -> None:
        seconds, busy = hostspeed.kernel_s()
        self.kernel_s.append(seconds)
        self.busy += busy


def timed_loop(tally: Tally, wl, seconds: float, cal: Calibration) -> list[float]:
    """Ops 1, 2, ... on fresh inputs until `seconds` have passed (at least one),
    each followed by a kernel run."""
    times = []
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        times.append(tally.op(wl, wl.make_input(i)))
        cal.run()
        i += 1
        if time.perf_counter() >= deadline:
            return times


def traced_loop(tally: Tally, wl, seconds: float, inp, tr) -> tuple[list, list, list]:
    """Pairs of one untraced and one traced op on the same input until `seconds`
    have passed; alternating keeps the host's speed swings out of the overhead."""
    untraced, traced, traces = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(tally.op(wl, inp))
        tr.install()
        try:
            traced.append(tally.op(wl, inp, tr))
        finally:
            tr.uninstall()
        traces.append(tally.trace)
        if time.perf_counter() >= deadline:
            return untraced, traced, traces


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true", help="stop after the set-up op")
    args = ap.parse_args(argv)

    import hilfer_mnc

    import tracer as tracing
    from workloads import WORKLOADS

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(hilfer_mnc.__file__).resolve().parent.parent != src:
        print(f"hilfer_mnc was imported from {hilfer_mnc.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    tr = tracing.Tracer() if args.trace else None
    inp0 = wl.make_input(0)
    if tr is not None:
        tr.install()
    tally.op(wl, inp0, tr)
    result: dict = {"setup_end": monotonic()}
    if tr is not None:
        tr.uninstall()
        result["setup_trace"] = tally.trace["metrics"]
        result["absent"] = tr.absent
    else:
        cal = Calibration()
        cal.run()
        result["kernel_s"] = cal.kernel_s

    if not args.setup_only:
        if tr is None:
            result["op_s"] = timed_loop(tally, wl, args.seconds, cal)
        else:
            result["untraced_op_s"], result["op_s"], traces = traced_loop(
                tally, wl, args.seconds, inp0, tr
            )
            layers, notes = tracing.reduce_ops(traces)
            layers["trace.overhead_s"] = (
                statistics.median(result["op_s"]) - statistics.median(result["untraced_op_s"])
            )
            for key in ("fractional.panel_weights.calls", "equations.weights.cache_misses"):
                if key in result["setup_trace"]:
                    layers[f"setup.{key}"] = result["setup_trace"][key]
            result["layers"] = layers
            result["notes"] = notes

    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        env=environment(),
        seed_applies=wl.seed_applies,
    )
    if tr is None:
        result["kernel_busy"] = cal.busy
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
