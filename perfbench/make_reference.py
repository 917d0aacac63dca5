"""Regenerate the reference outputs the benchmark's checks compare against.

Run from the repository root, on the commit whose results are the reference:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

Writes reference/paper_example.json (the parsed stdout of `paper-example`)
and reference/solve_stream.json (the solve-stream fixed point, solved to a
tolerance 1000x tighter than the workload's, at every STRIDE-th node).
Regenerate them only when the numerics change on purpose.
"""

from __future__ import annotations

import json

import numpy as np

from hilfer_mnc import GridFunction, parse_config, solver, uniform_nodes
from workloads import (
    REFERENCE_DIR,
    STREAM_CONFIG,
    STREAM_NODES,
    STREAM_TOL,
    PaperExample,
    run_cli,
    parse_cli_output,
    tail_rate,
)

STRIDE = 16


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    rc, text = run_cli(PaperExample.argv)
    if rc != 0:
        raise SystemExit(f"paper-example exited {rc}")
    (REFERENCE_DIR / "paper_example.json").write_text(
        json.dumps(parse_cli_output(text), indent=1) + "\n"
    )

    eq = parse_config(STREAM_CONFIG).equations[0]
    nodes = uniform_nodes(eq.params.T, STREAM_NODES)
    tol = STREAM_TOL / 1000.0
    report = solver.solve(eq, GridFunction(nodes=nodes, values=np.zeros(STREAM_NODES)), tol=tol)
    if not report.converged:
        raise SystemExit("reference solve did not converge")
    ref = {
        "nodes": STREAM_NODES,
        "stride": STRIDE,
        "tol": tol,
        "iterations": report.iterations,
        "measured_rate": report.measured_rate,
        "tail_rate": tail_rate(report.sup_distances),
        "sup_norm": report.solution.sup_norm,
        "values": [float(v) for v in report.solution.values[::STRIDE]],
    }
    (REFERENCE_DIR / "solve_stream.json").write_text(json.dumps(ref, indent=1) + "\n")
    print(f"paper-example: {len(text)} bytes; solve-stream: {report.iterations} iterations, "
          f"sup norm {report.solution.sup_norm!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
