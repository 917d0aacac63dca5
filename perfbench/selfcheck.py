"""Self-tests of the benchmark: its config, its output checks and its tracer.

Run from the repository root (about 15 s):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/selfcheck.py

- BENCHMARK.json is well formed and names exactly the workloads and metrics
  the benchmark produces;
- each workload's check accepts a real op's output and rejects wrong ones,
  among them the output with its numbers scaled by 1.001;
- the tracer's count identities hold on real ops and catch a wrapper that
  was left out of one module namespace.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

import run
import tracer
from hilfer_mnc import GridFunction, uniform_nodes
from workloads import WORKLOADS, FracInt, PaperExample, SolveStream

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def scale_numbers(text: str, factor: float, pattern: str) -> str:
    """Multiply every float in the lines matching pattern by factor."""
    def scale(m: re.Match) -> str:
        return repr(float(m.group()) * factor)

    return "\n".join(
        re.sub(r"-?\d+\.\d+(e-?\d+)?", scale, line) if re.search(pattern, line) else line
        for line in text.split("\n")
    )


def check_config() -> None:
    cfg = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    expect(sorted(cfg) == ["command", "end_to_end", "paths", "per_layer", "run_seconds",
                           "workloads"], "BENCHMARK.json has exactly the contract's keys")
    names = [w["name"] for w in cfg["workloads"]]
    expect(tuple(names) == run.WORKLOADS == tuple(WORKLOADS), "workload names agree")
    e2e = {m["name"]: m["unit"] for m in cfg["end_to_end"]}
    expect(e2e == run.END_TO_END, "end_to_end metrics are the ones run.py reports")
    layers = {m["name"]: (m["unit"], m["better"]) for m in cfg["per_layer"]}
    expect(layers == tracer.PER_LAYER, "per_layer metrics are the ones the tracer reports")
    all_names = names + list(e2e) + list(layers)
    expect(all(NAME_RE.fullmatch(n) for n in all_names) and len(set(all_names)) == len(all_names),
           "every name is unique and made of letters, digits, '_', '.', '-'")
    units = list(e2e.values()) + [u for u, _ in layers.values()]
    expect(all(UNIT_RE.fullmatch(u) for u in units), "every unit is valid")
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values())
           and bounds["setup_s"] == max(bounds.values()), "bounds in (0, 0.25], setup_s largest")


def check_paper_example() -> None:
    wl = PaperExample(0)
    argv = wl.make_input(0)
    rc, text = wl.run(argv)
    expect(wl.check(argv, (rc, text)) is None, "paper-example: a real op passes")
    expect(wl.check(argv, wl.run(argv)) is None, "paper-example: a second op passes")
    fresh = PaperExample(0)
    wrong = scale_numbers(text, 1.001, r"^\d+,")  # every table row
    expect(fresh.check(argv, (rc, wrong)) is not None, "paper-example: tables x1.001 rejected")
    one = scale_numbers(text, 1.001, r"\"kappa\"")
    expect(one != text and fresh.check(argv, (rc, one)) is not None,
           "paper-example: one payload number x1.001 rejected")
    status = text.replace('"status": "pass"', '"status": "fail"', 1)
    expect(fresh.check(argv, (rc, status)) is not None, "paper-example: a changed status rejected")
    expect(fresh.check(argv, (3, text)) is not None, "paper-example: exit code 3 rejected")
    expect(fresh.check(argv, (rc, text)) is None, "paper-example: the real output still passes")
    spaced = text.replace("\n", " \n", 1)
    expect(fresh.check(argv, (rc, spaced)) is not None,
           "paper-example: stdout differing from the previous op's only in bytes rejected")


def check_solve_stream() -> None:
    wl = SolveStream(0)
    alpha0 = wl.make_input(0)
    report = wl.run(alpha0)
    expect(wl.check(alpha0, report) is None, "solve-stream: a real op passes")
    sol = report.solution
    scaled = dataclasses.replace(
        report, solution=GridFunction(nodes=sol.nodes, values=sol.values * 1.001)
    )
    expect(wl.check(alpha0, scaled) is not None, "solve-stream: solution x1.001 rejected")
    zero = dataclasses.replace(
        report, solution=GridFunction(nodes=sol.nodes, values=np.zeros_like(sol.values))
    )
    expect(wl.check(alpha0, zero) is not None, "solve-stream: the zero function rejected")
    stalled = dataclasses.replace(report, converged=False)
    expect(wl.check(alpha0, stalled) is not None, "solve-stream: converged=false rejected")
    transient = dataclasses.replace(report, measured_rate=1.03)
    expect(wl.check(alpha0, transient) is None,
           "solve-stream: a transient step ratio above 1 (measured_rate 1.03) is accepted")
    growing = dataclasses.replace(report, sup_distances=report.sup_distances[::-1])
    expect(wl.check(alpha0, growing) is not None, "solve-stream: growing final steps rejected")


def check_frac_int() -> None:
    wl = FracInt(0)
    inp = wl.make_input(0)
    rc, text = wl.run(inp)
    expect(wl.check(inp, (rc, text)) is None, "frac-int: a real op passes")
    lines = text.split("\n")
    head, rows = lines[:2], lines[2:]
    scaled = [f"{r.split(',')[0]},{float(r.split(',')[1]) * 1.001!r}" if r else r for r in rows]
    expect(wl.check(inp, (rc, "\n".join(head + scaled))) is not None,
           "frac-int: values x1.001 rejected")
    last = rows[-2].split(",")
    nudged = rows[:-2] + [f"{last[0]},{float(last[1]) * (1 + 1e-6)!r}", ""]
    expect(wl.check(inp, (rc, "\n".join(head + nudged))) is not None,
           "frac-int: one value x(1 + 1e-6) rejected")
    expect(wl.check(inp, (rc, "\n".join(head + rows[:-2] + [""]))) is not None,
           "frac-int: a missing point rejected")
    expect(wl.check(inp, (2, text)) is not None, "frac-int: exit code 2 rejected")


def unpatch(tr: tracer.Tracer, module_name: str, attr: str) -> None:
    """Undo one namespace's patch, as a wrapper that missed an import would."""
    for owner, key, orig in tr._restore:
        if getattr(owner, "__name__", "") == module_name and key == attr:
            setattr(owner, key, orig)
            return
    raise LookupError(f"{module_name}.{attr} was not patched")


def check_tracer() -> None:
    wl = PaperExample(0)
    argv = wl.make_input(0)
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.start_op()
        wl.run(argv)
        rec = tr.end_op()
    finally:
        tr.uninstall()
    m = rec["metrics"]
    expect(not rec["violations"], f"tracer: identities hold on paper-example {rec['violations']}")
    expect(m["equations.apply_operator_batch.rows"] == 1110,
           "tracer: paper-example pushes 1110 operator rows (1080 from the Darbo replicate)")
    expect(set(m) | {"trace.overhead_s"} | {k for k in tracer.PER_LAYER if k.startswith("setup.")}
           == set(tracer.PER_LAYER), "tracer: an op yields every per-layer metric")

    cases = [
        ("hilfer_mnc.mnc", "apply_operator_batch", "darbo_iterate"),
        ("hilfer_mnc.equations", "apply_operator_batch", "solve with"),
    ]
    for module_name, attr, symptom in cases:
        tr = tracer.Tracer()
        tr.install()
        try:
            unpatch(tr, module_name, attr)
            tr.start_op()
            wl.run(argv)
            rec = tr.end_op()
        finally:
            tr.uninstall()
        expect(any(symptom in v for v in rec["violations"]),
               f"tracer: unwrapped {module_name}.{attr} is caught ({symptom})")

    eq = SolveStream(0).eq
    nodes = uniform_nodes(eq.params.T, 65)  # not cached yet: a cold build
    tr = tracer.Tracer()
    tr.install()
    try:
        unpatch(tr, "hilfer_mnc.equations", "panel_weights")
        tr.start_op()
        sys.modules["hilfer_mnc.equations"].apply_operator_batch(eq, nodes, np.zeros((1, 65)))
        rec = tr.end_op()
    finally:
        tr.uninstall()
    expect(any("cold weight build" in v for v in rec["violations"]),
           "tracer: unwrapped hilfer_mnc.equations.panel_weights is caught (cold weight build)")


def main() -> int:
    check_config()
    check_paper_example()
    check_solve_stream()
    check_frac_int()
    check_tracer()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
