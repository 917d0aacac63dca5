"""Benchmark of the hilfer_mnc package, run from the repository root:

    python3 perfbench/run.py --workload solve-stream --seed 1 --seconds 30 --trace 0

--workload is paper-example, solve-stream, frac-int or all. Each workload runs
in fresh child interpreters (child.py) with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS pinned to 1 and the checkout's `src` first on PYTHONPATH.
The run prints every metric by name, unit and workload, the environment, and
as its last line one JSON object: correct, attempted, failed, metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
The end-to-end timings are scaled to a reference host speed (hostspeed.py);
the raw wall times are printed next to them.
The exit code is 1 when any output check failed and 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracer

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("paper-example", "solve-stream", "frac-int")
# set-up is measured in this many fresh interpreters and reported as the median
SETUP_RUNS = 3
# a percentile is reported only with at least this many ops beyond it
TAIL_SAMPLES = 10
CHILD_TIMEOUT_S = 170

# end-to-end metrics: name -> unit
END_TO_END = {
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """Highest percentile, at most p90 and at least p50, with TAIL_SAMPLES ops beyond it.

    Nearest rank. With fewer than 2 * TAIL_SAMPLES ops no percentile has
    enough ops beyond it, and the median is reported in its place.
    """
    n = len(times)
    if n < 2 * TAIL_SAMPLES:
        return 50, statistics.median(times)
    pct = min(90, math.floor(100 * (1 - TAIL_SAMPLES / n)))
    return pct, sorted(times)[math.ceil(pct / 100 * n) - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("HILFER_THREADS", None)  # the program's own default (1 thread)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    """One fresh interpreter; returns its result with setup_s filled in.

    Untraced, setup_s is scaled by the kernel run here just before the child
    starts and the one the child runs just after its set-up op.
    """
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    kernel_before = None if trace else hostspeed.kernel_s()[0]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: child ran over {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: child exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_wall_s"] = result["setup_end"] - start
    result["setup_s"] = result["setup_wall_s"]
    if not trace:
        result["setup_s"] *= hostspeed.scale(kernel_before, result["kernel_s"][0])
    return result


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Metrics of one workload, and the main child's raw result."""
    if trace:
        main = run_child(workload, seed, seconds, 1, setup_only=False)
        children = [main]
        metrics = dict(main["layers"])
    else:
        children = [run_child(workload, seed, seconds, 0, setup_only=True)
                    for _ in range(SETUP_RUNS - 1)]
        main = run_child(workload, seed, seconds, 0, setup_only=False)
        children.append(main)
        ks = main["kernel_s"]
        times = [t * hostspeed.scale(ks[i], ks[i + 1]) for i, t in enumerate(main["op_s"])]
        main["wall"] = {
            "op_s_p50": statistics.median(main["op_s"]),
            "setup_s": statistics.median(c["setup_wall_s"] for c in children),
            "kernel_s": statistics.median(ks),
        }
        main["kernel_busy_all"] = sum(c["kernel_busy"] for c in children)
        pct, tail = tail_percentile(times)
        main["tail_pct"] = pct
        metrics = {
            "op_s_p50": statistics.median(times),
            "op_s_p90": tail,
            "ops_per_s": len(times) / sum(times),
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    main["attempted_all"] = sum(c["attempted"] for c in children)
    main["failed_all"] = sum(c["failed"] for c in children)
    main["errors_all"] = [e for c in children for e in c["errors"]]
    return metrics, main


def report(workload: str, seed: int, trace: int, metrics: dict, main: dict) -> None:
    env = main["env"]
    print(f"# {workload}: env " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if not main["seed_applies"]:
        print(f"# {workload}: runs the fixed bundled scenario; --seed {seed} does not change its input")
    attempted, failed = main["attempted_all"], main["failed_all"]
    print(f"# {workload}: fail_rate = {failed}/{attempted} = {failed / attempted:.6g} "
          "(set-up ops included)")
    for err in main["errors_all"]:
        print(f"# {workload}: FAILED {err}")
    if trace:
        units = {name: unit for name, (unit, _) in tracer.PER_LAYER.items()}
        print(f"# {workload}: {len(main['op_s'])} traced ops, {len(main['untraced_op_s'])} untraced; "
              "per-op medians")
        for name in main.get("absent", []):
            print(f"# {workload}: {name} no longer exists; its metrics are absent")
        for note in main["notes"]:
            print(f"# {workload}: note: {note}")
    else:
        units = END_TO_END
        n = len(main["op_s"])
        print(f"# {workload}: {n} timed ops after 1 set-up op; op_s_p90 is p{main['tail_pct']}"
              f" ({'fewer than' if n < 2 * TAIL_SAMPLES else 'at least'} {TAIL_SAMPLES} ops beyond it"
              f"{', so the median' if n < 2 * TAIL_SAMPLES else ''}); setup_s is the median of "
              f"{SETUP_RUNS} fresh interpreters")
        wall = main["wall"]
        print(f"# {workload}: timings are scaled to a host where the calibration kernel takes "
              f"{hostspeed.REFERENCE_S} s; here it took {wall['kernel_s']!r} s (median). "
              f"Unscaled: op_s_p50 = {wall['op_s_p50']!r} s, setup_s = {wall['setup_s']!r} s")
        if main["kernel_busy_all"]:
            print(f"# {workload}: WARNING {main['kernel_busy_all']} kernel runs overlapped busy "
                  "threads of the program; its scaled timings read too low")
    for name, value in metrics.items():
        print(f"{workload}  {name} = {value!r} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="timed run per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hilfer_mnc" / "__init__.py").is_file():
        print(f"no hilfer_mnc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            metrics, main_result = measure(name, args.seed, args.seconds, args.trace)
            report(name, args.seed, args.trace, metrics, main_result)
            attempted += main_result["attempted_all"]
            failed += main_result["failed_all"]
            units = {n: u for n, (u, _) in tracer.PER_LAYER.items()} if args.trace else END_TO_END
            prefix = f"{name}." if args.workload == "all" else ""
            for key, value in metrics.items():
                out_metrics[prefix + key] = {"value": value, "unit": units[key]}
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
