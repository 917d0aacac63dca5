"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Each workload makes the input of op i from (seed, i), runs one op through the
package's public API or CLI entry point, and checks the op's output. A check
returns None when the output is right and a one-line reason when it is not.
The reasons each workload exists are in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from hilfer_mnc import GridFunction, cli, parse_config, solver, uniform_nodes

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, buf.getvalue()


# -- paper-example ------------------------------------------------------------

# numbers may move in their last bits (a batched operator reorders sums);
# everything else in the output must match exactly
PAPER_RTOL = 1e-9
PAPER_ATOL = 1e-15


def _cell(text: str):
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_cli_output(text: str) -> list:
    """Split CLI stdout into JSON payloads and `# label` CSV tables."""
    segments: list = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line == "{":
            j = lines.index("}", i)
            segments.append({"json": json.loads("\n".join(lines[i : j + 1]))})
            i = j + 1
        elif line.startswith("# "):
            j = i + 1
            while j < len(lines) and lines[j] != "{" and not lines[j].startswith("# "):
                j += 1
            rows = [[_cell(c) for c in row] for row in csv.reader(lines[i + 1 : j])]
            segments.append({"label": line[2:], "header": rows[0], "rows": rows[1:]})
            i = j
        else:
            raise ValueError(f"unexpected output line {i + 1}: {line[:60]!r}")
    return segments


def compare(got, want, path: str = "$") -> str | None:
    """First difference between two parsed outputs, or None.

    Numbers agree within PAPER_RTOL relative plus PAPER_ATOL absolute (ints
    exactly); strings, booleans, nulls and the shape agree exactly.
    """
    if isinstance(want, (bool, str)) or want is None:
        return None if type(got) is type(want) and got == want else f"{path}: {got!r} != {want!r}"
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{path}: {got!r} is not a number"
        if isinstance(want, int) and isinstance(got, int):
            return None if got == want else f"{path}: {got} != {want}"
        if abs(got - want) <= PAPER_RTOL * abs(want) + PAPER_ATOL:
            return None
        return f"{path}: {got!r} differs from {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{path}: keys differ"
        for key in want:
            diff = compare(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if not isinstance(got, list) or len(got) != len(want):
        return f"{path}: length differs"
    for i, (g, w) in enumerate(zip(got, want)):
        diff = compare(g, w, f"{path}[{i}]")
        if diff:
            return diff
    return None


class PaperExample:
    """The documented reproduction command on the bundled scenario.

    The scenario is fixed, so the seed does not change the input.
    """

    name = "paper-example"
    argv = ["paper-example", "--gamma-k-override", "2.4047"]
    seed_applies = False

    def __init__(self, seed: int) -> None:
        self.reference = json.loads((REFERENCE_DIR / "paper_example.json").read_text())
        self._last_stdout: str | None = None

    def make_input(self, i: int) -> list[str]:
        return list(self.argv)

    def run(self, argv: list[str]) -> tuple[int, str]:
        return run_cli(argv)

    def check(self, argv: list[str], out: tuple[int, str]) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        if self._last_stdout is not None and text != self._last_stdout:
            return "stdout is not byte-identical to the previous op's"
        try:
            parsed = parse_cli_output(text)
        except (ValueError, json.JSONDecodeError) as exc:
            return f"unparsable output: {exc}"
        diff = compare(parsed, self.reference)
        if diff:
            return f"differs from the reference: {diff}"
        self._last_stdout = text
        return None


# -- solve-stream -------------------------------------------------------------

STREAM_NODES = 4097
STREAM_TOL = 1e-10
STREAM_AMPLITUDE = 0.5
THIRD = 1.0 / 3.0
# a forcing term 0.2*sin(x) gives a nonzero fixed point (sup norm about 0.655),
# so a wrong integral cannot pass by converging to zero
STREAM_CONFIG = {
    "params": {"k": THIRD, "rho": THIRD, "gamma_ord": 2.0 / 3.0, "T": 3.0},
    "equations": [
        {
            "name": "forced",
            "f": {"expr": "0.2*sin(x)+abs(a)/6", "lipschitz": 1.0 / 6.0},
            "psi": {"expr": "1/(1+a*a)", "lipschitz": 0.65},
            "g": {"expr": "a/(3+log(x))", "lipschitz": THIRD},
        }
    ],
}


def tail_rate(sup_distances) -> float:
    """Contraction rate near the fixed point: the largest of the last three step ratios.

    The solver's own measured_rate is the worst ratio over the whole run; from
    a rough seed iterate a transient ratio can exceed 1 while the iteration
    still converges, which would leave tol / (1 - rate) undefined.
    """
    d = np.asarray(sup_distances, dtype=float)[-4:]
    if d.size < 2 or not np.all(d[:-1] > 0.0):
        return math.inf
    return float(np.max(d[1:] / d[:-1]))


def random_walk(rng: np.random.Generator, nodes: np.ndarray, amplitude: float) -> np.ndarray:
    """Slope-bounded random walk on the nodes with sup norm at most amplitude."""
    h = float(nodes[1] - nodes[0])
    slope_cap = 2.0 * amplitude / (nodes[-1] - nodes[0])
    start = rng.uniform(-0.5 * amplitude, 0.5 * amplitude)
    steps = rng.uniform(-slope_cap * h, slope_cap * h, size=nodes.size - 1)
    walk = np.concatenate([[start], start + np.cumsum(steps)])
    return np.clip(walk, -amplitude, amplitude)


class SolveStream:
    """Picard solve of a forced equation on 4097 nodes from a random seed iterate."""

    name = "solve-stream"
    seed_applies = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.eq = parse_config(STREAM_CONFIG).equations[0]
        self.nodes = uniform_nodes(self.eq.params.T, STREAM_NODES)
        ref = json.loads((REFERENCE_DIR / "solve_stream.json").read_text())
        self.ref_index = np.arange(0, STREAM_NODES, ref["stride"])
        self.ref_values = np.asarray(ref["values"], dtype=float)
        # the reference's own distance from the fixed point
        self.ref_error = ref["tol"] / (1.0 - ref["tail_rate"])

    def make_input(self, i: int) -> GridFunction:
        rng = np.random.default_rng([self.seed, i])
        return GridFunction(nodes=self.nodes, values=random_walk(rng, self.nodes, STREAM_AMPLITUDE))

    def run(self, alpha0: GridFunction):
        return solver.solve(self.eq, alpha0, tol=STREAM_TOL)

    def check(self, alpha0: GridFunction, report) -> str | None:
        if not report.converged:
            return f"not converged after {report.iterations} iterations"
        rate = tail_rate(report.sup_distances)
        if not rate < 1.0:
            return f"final step ratio {rate} is not a contraction"
        # distance to the fixed point <= residual / (1 - rate), residual <= tol
        bound = STREAM_TOL / (1.0 - rate) + self.ref_error
        values = np.asarray(report.solution.values)
        if values.shape != (STREAM_NODES,):
            return f"solution has shape {values.shape}"
        err = float(np.max(np.abs(values[self.ref_index] - self.ref_values)))
        if not err <= bound:
            return f"fixed point differs from the reference by {err:.3e} > {bound:.3e}"
        return None


# -- frac-int -----------------------------------------------------------------

FRAC_PARAMS = {"k": 0.6, "rho": 0.4, "gamma_ord": 0.3, "T": 3.0}  # kernel exponent 0.5
FRAC_POINTS = 256
FRAC_PANELS = 4096
FRAC_PHI_NODES = 4097
# relative allowance for rounding in the closed-form weights and the sum
FRAC_RTOL = 1e-10


def k_gamma_identity(k: float, z: float) -> float:
    return math.exp((z / k - 1.0) * math.log(k) + math.lgamma(z / k))


def frac_exact(x: np.ndarray, c0: float, c1: float) -> np.ndarray:
    """Closed form of the integral of c0 + c1 * t^rho, linear in s = t^rho."""
    k, rho, g = FRAC_PARAMS["k"], FRAC_PARAMS["rho"], FRAC_PARAMS["gamma_ord"]
    a = g / k
    X = x**rho
    pref = rho ** (-a) / (k * k_gamma_identity(k, g))
    return pref * ((c0 + c1 * X) * (X - 1.0) ** a / a - c1 * (X - 1.0) ** (a + 1.0) / (a + 1.0))


def frac_bound(x: np.ndarray, c1: float, exact: np.ndarray) -> np.ndarray:
    """Allowed error: interpolation of the sampled integrand, plus rounding.

    The CLI interpolates the integrand linearly between FRAC_PHI_NODES uniform
    nodes, an error of at most E = h^2/8 * max|phi''| = h^2/8 * |c1| rho (1 - rho)
    (the maximum sits at t = 1). The product rule interpolates that once more
    in s, which at most doubles it, and then integrates exactly, so the
    integral is off by at most 2 E times the integral of the kernel.
    """
    k, rho, g, T = (FRAC_PARAMS[n] for n in ("k", "rho", "gamma_ord", "T"))
    a = g / k
    h = (T - 1.0) / (FRAC_PHI_NODES - 1)
    e_interp = h * h / 8.0 * abs(c1) * rho * (1.0 - rho)
    kernel_mass = rho ** (-a) * (x**rho - 1.0) ** a / (g * k_gamma_identity(k, g))
    return 2.0 * e_interp * kernel_mass + FRAC_RTOL * np.abs(exact) + 1e-14


class FracInt:
    """`frac-int` at 256 sorted points on a graded mesh of 4096 panels."""

    name = "frac-int"
    seed_applies = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_input(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        c0 = round(float(rng.uniform(0.2, 1.5)), 6)
        c1 = round(float(rng.uniform(0.2, 1.5)), 6) * float(rng.choice([-1.0, 1.0]))
        points = np.sort(rng.uniform(1.0, FRAC_PARAMS["T"], size=FRAC_POINTS))
        argv = ["frac-int", "--expr", f"({c0!r})+({c1!r})*x^{FRAC_PARAMS['rho']!r}"]
        for name in ("k", "rho", "gamma_ord", "T"):
            argv += [f"--{name.replace('_', '-')}", repr(FRAC_PARAMS[name])]
        argv += ["--mesh", "graded", "--panels", str(FRAC_PANELS), "--phi-nodes", str(FRAC_PHI_NODES)]
        argv += ["--x", *(repr(float(p)) for p in points)]
        return {"argv": argv, "c0": c0, "c1": c1, "points": points}

    def run(self, inp: dict) -> tuple[int, str]:
        return run_cli(inp["argv"])

    def check(self, inp: dict, out: tuple[int, str]) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        try:
            (table,) = parse_cli_output(text)
        except ValueError as exc:
            return f"unparsable output: {exc}"
        if table.get("label") != "frac-int" or table.get("header") != ["x", "value"]:
            return "output is not one frac-int table"
        rows = table["rows"]
        xs = np.array([r[0] for r in rows], dtype=float)
        if xs.shape != inp["points"].shape or not np.array_equal(xs, inp["points"]):
            return "evaluation points differ from the input"
        got = np.array([r[1] for r in rows], dtype=float)
        exact = frac_exact(xs, inp["c0"], inp["c1"])
        err = np.abs(got - exact)
        bound = frac_bound(xs, inp["c1"], exact)
        if not np.all(err <= bound):
            i = int(np.argmax(err - bound))
            return f"value at x={xs[i]!r} off by {err[i]:.3e} > {bound[i]:.3e}"
        return None


WORKLOADS = {w.name: w for w in (PaperExample, SolveStream, FracInt)}
