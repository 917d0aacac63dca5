"""Command-line surface for the integral-equation toolkit.

Subcommands: gamma-k, frac-int, check, solve, mnc-demo, and paper-example.
paper-example prints exactly what check, solve and mnc-demo print with
--paper-example, in that order, but loads the built-in scenario once and
runs the three stages on it; mnc-demo reuses the check stage's certificate
of its equation instead of certifying it again.

Each `main` call builds a parser holding only the arguments of the
subcommand it names. A subcommand that reads a config builds one effective
RunConfig per call: the config source, then --gamma-k-override and the
flags that override config fields. Its stages and --dump-config read only
that config.

Exit codes: 0 success, 1 stdout closed by its reader before the output
ended, 2 configuration or domain error (a flag that sets a config field
fails that field's own check, so `--tol inf` is a config error naming
solver.tol and `--gamma-k-override -1` one naming gamma_k_override, with or
without --dump-config), 3 failing certificate (or a
certified run violating its own bound), 4 nonconvergence.
Structured output is deterministic: identical configuration and seeds give
byte-identical bytes; no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import (
    OutputConfig,
    QuadratureConfig,
    RunConfig,
    bundled_example,
    dump_config,
    load_config,
)
from .equations import EquationSpec, check_zero_conditions
from .errors import (
    ConfigError,
    DomainError,
    EvaluationError,
    NonconvergenceError,
    ParseError,
)
from .expressions import _variables, evaluate, parse
from .fractional import FracParams, GridFunction, hilfer_integral, uniform_nodes
from .mnc import (
    FunctionEnsemble,
    certificate_inequality_check,
    darbo_iterate,
    default_certificate,
)
from .solvability import DEFAULT_PROBES, RadiusCertificate, certify
from .solver import solve as picard_solve
from .special_functions import k_gamma, k_gamma_integral

_RATE_SLACK = 0.05
_DEFAULT_SEED_VALUE = 0.5
# mallopt(3) parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# config fields a flag overrides: section -> {field: argparse dest}
_OVERRIDE_FLAGS = {
    "solver": {"tol": "tol", "max_iter": "max_iter", "nodes": "nodes"},
    "quadrature": {"panels": "panels", "mesh": "mesh"},
    "output": {"path": "out"},
    "certificate": {"r0": "r0"},
}
# frac-int's order parameters (argparse dests), the alternative to a config source
_INLINE_PARAMS = ("k", "rho", "gamma_ord", "t")


def _print_payload(payload: dict) -> None:
    """Print payload as strict JSON (RFC 8259 has no Infinity or NaN)."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise DomainError("a reported number is not finite") from None
    print(text)


def _bound(value: float) -> float | None:
    """value, or None (JSON null) for an unbounded one."""
    return value if math.isfinite(value) else None


def _emit_rows(header: list[str], rows: list[list], fmt: str, path: str | None, label: str | None) -> None:
    """Write one table as CSV or JSON lines, to a file or stdout.

    On stdout a `# label` comment line precedes the table so multi-table
    output stays splittable. A float cell that is not finite raises
    DomainError before anything is written; a None cell is written empty
    (CSV) or as null (JSON). The CSV text is built in one pass, each cell
    checked as it is formatted: repr for a float, str for any other value.
    Those are the bytes csv.writer gives for the header names and cells
    the tables hold, none of which needs quoting.
    """
    if fmt == "csv":
        lines = [",".join(header)]
        for i, row in enumerate(rows, start=1):
            cells = []
            for name, v in zip(header, row):
                if isinstance(v, float):
                    if not math.isfinite(v):
                        raise DomainError(f"table {label}, row {i}: {name} = {v} is not finite")
                    cells.append(repr(v))
                else:
                    cells.append("" if v is None else str(v))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        for i, row in enumerate(rows, start=1):
            for name, v in zip(header, row):
                if isinstance(v, float) and not math.isfinite(v):
                    raise DomainError(f"table {label}, row {i}: {name} = {v} is not finite")
        lines = [json.dumps(dict(zip(header, row)), sort_keys=True, allow_nan=False) for row in rows]
        text = "\n".join(lines) + ("\n" if lines else "")
    if path is None:
        if label is not None:
            print(f"# {label}")
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {path}: {exc.strerror or exc}") from None


def _table_path(base: str | None, name: str, multi: bool) -> str | None:
    if base is None or not multi:
        return base
    stem, ext = os.path.splitext(base)
    return f"{stem}_{name}{ext or '.csv'}"


def _overridden(args: argparse.Namespace, name: str, section):
    """The config section called name, with each field its flag in args sets."""
    changes = {
        field: value
        for field, dest in _OVERRIDE_FLAGS[name].items()
        if (value := getattr(args, dest, None)) is not None
    }
    return replace(section, **changes)


def _load(args: argparse.Namespace) -> RunConfig:
    """The effective config: its source, then --gamma-k-override and the override flags."""
    config = getattr(args, "config", None)
    if not (args.paper_example or config):
        raise ConfigError("pass --config PATH or --paper-example")
    if any(getattr(args, dest, None) is not None for dest in _INLINE_PARAMS):
        raise ConfigError("pass --config/--paper-example or --k --rho --gamma-ord --T, not both")
    cfg = bundled_example() if args.paper_example else load_config(config)
    cfg = cfg.with_gamma_k_override(args.gamma_k_override)
    return replace(cfg, **{name: _overridden(args, name, getattr(cfg, name)) for name in _OVERRIDE_FLAGS})


def _cert_payload(name: str, cert: RadiusCertificate, r0: float | None) -> dict:
    rec = {
        "name": name,
        "kappa": cert.kappa,
        "c1": cert.c1,
        "threshold": _bound(cert.r0_max_contraction),
        "selfmap_interval": (
            [_bound(end) for end in cert.r0_selfmap_interval] if cert.r0_selfmap_interval else None
        ),
        "gamma_k_used": cert.gamma_k_used,
        "gamma_k_overridden": cert.gamma_k_overridden,
        "kernel_factor_used": cert.kernel_factor_used,
        "kernel_factor_overridden": cert.kernel_factor_overridden,
        "passes": cert.passes,
    }
    if r0 is not None:
        rec["r0"] = r0
        rec["factor_at_r0"] = cert.factor_at(r0)
        rec["admissible"] = cert.admits(r0)
        rec["boundary"] = cert.boundary(r0)
    return rec


def _cmd_gamma_k(args: argparse.Namespace) -> int:
    payload: dict = {"k": args.k, "z": args.z}
    integral = k_gamma_integral(args.k, args.z, tol=args.tol)
    payload["integral"] = integral.value
    payload["integral_estimated_error"] = integral.estimated_abs_error
    if not args.integral:
        identity = k_gamma(args.k, args.z)
        payload["identity"] = identity.value
        payload["difference"] = abs(identity.value - integral.value)
    _print_payload(payload)
    return 0


def _cmd_frac_int(args: argparse.Namespace) -> int:
    if args.paper_example or args.config:
        cfg = _load(args)
        params, quadrature, output = cfg.params, cfg.quadrature, cfg.output
    else:
        if any(getattr(args, dest) is None for dest in _INLINE_PARAMS):
            raise ConfigError("pass --config/--paper-example or all of --k --rho --gamma-ord --T")
        params = FracParams(
            k=args.k, rho=args.rho, gamma_ord=args.gamma_ord, T=args.t, gamma_k_override=args.gamma_k_override
        )
        quadrature = _overridden(args, "quadrature", QuadratureConfig())
        output = _overridden(args, "output", OutputConfig())
    expr = parse(args.expr)
    if "a" in _variables(expr):
        raise DomainError("--expr: the integrand is a function of x alone, but it reads the variable a")
    nodes = uniform_nodes(params.T, args.phi_nodes)
    values = np.broadcast_to(
        np.asarray(evaluate(expr, nodes, np.zeros_like(nodes)), dtype=float), nodes.shape
    )
    phi = GridFunction(nodes=nodes, values=values)
    points = np.array(args.x, dtype=float)
    integrals = hilfer_integral(params, phi, points, panels=quadrature.panels, mesh=quadrature.mesh)
    rows = [[x, val] for x, val in zip(points.tolist(), integrals.tolist())]
    _emit_rows(["x", "value"], rows, output.format, output.path, label="frac-int")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    return _check_stage(_load(args), args.probes)[0]


def _check_stage(cfg: RunConfig, probes: int) -> tuple[int, list[RadiusCertificate]]:
    """Certify every equation, test the radius certificate.r0 when set, and print the check payload.

    Returns the exit code and the certificates, one per equation in config
    order, so a later stage can reuse them.
    """
    r0 = cfg.certificate.r0
    certs = [
        certify(eq, kernel_factor_override=cfg.kernel_factor_override, probes=probes)
        for eq in cfg.equations
    ]
    records = [
        _cert_payload(name, cert, r0) for name, cert in zip(cfg.names, certs)
    ]
    # the identity-method value is always shown so an override never hides it
    payload: dict = {
        "equations": records,
        "gamma_k_standard": k_gamma(cfg.params.k, cfg.params.gamma_ord).value,
    }
    ok = all(c.passes for c in certs)
    if r0 is not None:
        epsilon = max(c.factor_at(r0) for c in certs)
        payload["r0"] = r0
        payload["epsilon"] = epsilon
        admissible = all(c.admits(r0) for c in certs)
        payload["system_admissible"] = admissible
        ok = ok and admissible
    payload["status"] = "pass" if ok else "fail"
    _print_payload(payload)
    return (0 if ok else 3), certs


def _cmd_solve(args: argparse.Namespace) -> int:
    if not math.isfinite(args.seed_value):
        raise DomainError(f"--seed-value must be finite, got {args.seed_value}")
    return _solve_stage(_load(args), args.seed_value)


def _solve_stage(cfg: RunConfig, seed_value: float) -> int:
    """Picard-solve every equation from a constant seed; print tables and summary."""
    nodes = uniform_nodes(cfg.params.T, cfg.solver.nodes)
    seed = GridFunction(nodes=nodes, values=np.full(nodes.shape, seed_value))
    multi = len(cfg.equations) > 1
    summary = []
    all_converged = True
    for name, eq in zip(cfg.names, cfg.equations):
        report = picard_solve(eq, seed, tol=cfg.solver.tol, max_iter=cfg.solver.max_iter)
        rows = []
        dist = report.sup_distances
        for p in range(1, report.iterations + 1):
            step = float(dist[p - 1])
            residual = float(dist[p]) if p < report.iterations else report.residual
            rows.append([p, step, residual, float(report.sup_norms[p])])
        _emit_rows(
            ["p", "step_sup", "residual", "sup_norm"],
            rows,
            cfg.output.format,
            _table_path(cfg.output.path, name, multi),
            label=f"solve {name}",
        )
        summary.append(
            {
                "name": name,
                "iterations": report.iterations,
                "converged": report.converged,
                "residual": report.residual,
                "measured_rate": report.measured_rate,
                "final_sup_norm": report.solution.sup_norm,
            }
        )
        all_converged = all_converged and report.converged
    _print_payload(
        {
            "equations": summary,
            "nodes": cfg.solver.nodes,
            "tol": cfg.solver.tol,
            "status": "ok" if all_converged else "nonconverged",
        }
    )
    return 0 if all_converged else 4


def _seed_ensemble(eq: EquationSpec, n_nodes: int, members: int, amplitude: float, rng_seed: int) -> FunctionEnsemble:
    """Random slope-bounded members with sup norm at most `amplitude`."""
    rng = np.random.default_rng(rng_seed)
    nodes = uniform_nodes(eq.params.T, n_nodes)
    h = float(nodes[1] - nodes[0])
    start = rng.uniform(-0.5 * amplitude, 0.5 * amplitude, size=(members, 1))
    slope_cap = 2.0 * amplitude / (eq.params.T - 1.0)
    steps = rng.uniform(-slope_cap * h, slope_cap * h, size=(members, n_nodes - 1))
    walk = np.concatenate([start, start + np.cumsum(steps, axis=1)], axis=1)
    return FunctionEnsemble.from_matrix(nodes, np.clip(walk, -amplitude, amplitude))


def _cmd_mnc_demo(args: argparse.Namespace) -> int:
    cfg = _load(args)
    name = cfg.names[0] if args.equation is None else args.equation
    if name not in cfg.names:
        raise ConfigError(f"unknown equation {name!r}; have {list(cfg.names)}")
    return _mnc_stage(cfg, name)


def _mnc_stage(cfg: RunConfig, name: str, cert: RadiusCertificate | None = None) -> int:
    """Sampled Darbo trace of the named equation, checked against its certificate.

    cert is the equation's certificate when an earlier stage already
    computed it with the default probes; otherwise it is computed here.
    """
    eq = cfg.equations[cfg.names.index(name)]
    if cert is None:
        cert = certify(eq, kernel_factor_override=cfg.kernel_factor_override)
    if cert.passes and math.isfinite(cert.r0_max_contraction):
        amplitude = min(0.1, 0.9 * cert.r0_max_contraction)
    else:
        amplitude = 0.1
    seed = _seed_ensemble(eq, cfg.solver.nodes, cfg.mnc.ensemble, amplitude, cfg.mnc.rng_seed)
    trace = darbo_iterate(
        eq,
        seed,
        p_max=cfg.mnc.p_max,
        convex_samples=cfg.mnc.ensemble,
        deltas=cfg.mnc.deltas,
        rng_seed=cfg.mnc.rng_seed,
    )
    rows = []
    for p, est in enumerate(trace):
        ratio = None
        if p > 0 and trace[p - 1].mu0 > 1e-15:
            ratio = est.mu0 / trace[p - 1].mu0
        rows.append([p, est.mu0, est.hausdorff, ratio])
    _emit_rows(
        ["p", "mu0", "hausdorff", "ratio"], rows, cfg.output.format, cfg.output.path, label=f"mnc-demo {name}"
    )
    factor = cert.factor_at(amplitude)
    diagnostic_only = not (cert.passes and 0.0 < factor < 1.0)
    step3_pass = None
    inequality_pass = None
    if not diagnostic_only:
        step3_pass = all(
            trace[p + 1].mu0 <= (factor + _RATE_SLACK) * trace[p].mu0 + 1e-15
            for p in range(len(trace) - 1)
        )
        report = certificate_inequality_check(
            default_certificate(gain=0.5 * (1.0 - factor)), trace, factor, slack=_RATE_SLACK
        )
        inequality_pass = report.all_pass
    payload = {
        "equation": name,
        "amplitude": amplitude,
        "factor": factor,
        "zero_conditions": check_zero_conditions(eq, probes=33),
        "certificate": _cert_payload(name, cert, amplitude),
        "diagnostic_only": diagnostic_only,
        "step3_pass": step3_pass,
        "inequality_pass": inequality_pass,
        "status": "pass" if diagnostic_only or (step3_pass and inequality_pass) else "fail",
    }
    _print_payload(payload)
    if payload["status"] == "fail":
        return 3
    return 0


def _cmd_paper_example(args: argparse.Namespace) -> int:
    """check, solve and mnc-demo --paper-example on one loaded config.

    The check stage certifies every equation with the default probes; the
    mnc-demo stage reuses the first equation's certificate instead of
    certifying it again.
    """
    cfg = _load(args)
    rc_check, certs = _check_stage(cfg, probes=DEFAULT_PROBES)
    rc_solve = _solve_stage(cfg, _DEFAULT_SEED_VALUE)
    rc_mnc = _mnc_stage(cfg, cfg.names[0], cert=certs[0])
    return rc_check or rc_solve or rc_mnc


def _add_config_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="path to a JSON config file")
    sp.add_argument("--paper-example", action="store_true", help="use the bundled scenario")
    sp.add_argument("--gamma-k-override", type=float, default=None,
                    help="replace Gamma_k(gamma_ord) in certificates and operator prefactors")
    sp.add_argument("--dump-config", action="store_true", help="echo the effective config and exit")
    sp.add_argument("--out", default=None, help="write the trace/table to this path instead of stdout")


def _gamma_k_args(g: argparse.ArgumentParser) -> None:
    g.add_argument("k", type=float)
    g.add_argument("z", type=float)
    g.add_argument("--integral", action="store_true", help="integral method only")
    g.add_argument("--tol", type=float, default=1e-8, help="integral tolerance")
    g.set_defaults(func=_cmd_gamma_k)


def _frac_int_args(f: argparse.ArgumentParser) -> None:
    _add_config_args(f)
    f.add_argument("--expr", required=True, help="integrand in the expression language (variable x)")
    f.add_argument("--x", type=float, nargs="+", required=True, help="evaluation points")
    f.add_argument("--k", type=float, default=None)
    f.add_argument("--rho", type=float, default=None)
    f.add_argument("--gamma-ord", type=float, default=None)
    f.add_argument("--T", type=float, default=None, dest="t")
    f.add_argument("--panels", type=int, default=None)
    f.add_argument("--mesh", choices=("uniform", "graded"), default=None)
    f.add_argument("--phi-nodes", type=int, default=4097, help="sampling nodes for the integrand")
    f.set_defaults(func=_cmd_frac_int)


def _check_args(c: argparse.ArgumentParser) -> None:
    _add_config_args(c)
    c.add_argument("--r0", type=float, default=None, help="radius to test for admissibility (certificate.r0)")
    c.add_argument("--probes", type=int, default=DEFAULT_PROBES, help="Lipschitz validation budget")
    c.set_defaults(func=_cmd_check)


def _solve_args(s: argparse.ArgumentParser) -> None:
    _add_config_args(s)
    s.add_argument("--seed-value", type=float, default=_DEFAULT_SEED_VALUE, help="constant initial iterate")
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--max-iter", type=int, default=None)
    s.add_argument("--nodes", type=int, default=None)
    s.set_defaults(func=_cmd_solve)


def _mnc_demo_args(m: argparse.ArgumentParser) -> None:
    _add_config_args(m)
    m.add_argument("--equation", default=None, help="equation name from the config")
    m.set_defaults(func=_cmd_mnc_demo)


def _paper_example_args(pe: argparse.ArgumentParser) -> None:
    pe.add_argument("--gamma-k-override", type=float, default=None)
    pe.add_argument("--dump-config", action="store_true")
    pe.set_defaults(func=_cmd_paper_example, paper_example=True)


# name, help line, and the function adding the subcommand's arguments
_COMMANDS = (
    ("gamma-k", "evaluate the k-gamma function by both methods", _gamma_k_args),
    ("frac-int", "fractional integral of an expression at given points", _frac_int_args),
    ("check", "contraction/self-map certificates", _check_args),
    ("solve", "Picard iteration with per-step trace", _solve_args),
    ("mnc-demo", "sampled Darbo iteration with measure trace", _mnc_demo_args),
    ("paper-example", "run check + solve + mnc-demo on the bundled scenario", _paper_example_args),
)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for one command line, built once per command.

    Every subcommand is listed, but only the one argv names (its first
    token not starting with "-") gets its arguments and its -h; the others
    are never parsed. Building all six in full took 1.9 ms a call, against
    0.6-0.9 ms for one. The parser of each command is built on its first
    use and kept for the process, so an in-process caller that runs many
    command lines pays that once; a token that names no command shares the
    parser of none. set_defaults(func=...) binds each handler at that
    first build: a handler replaced later is not seen by a built parser.
    """
    command = next((a for a in argv if not a.startswith("-")), None)
    return _parser(command if any(command == name for name, _, _ in _COMMANDS) else None)


@lru_cache(maxsize=None)
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser with the arguments of command alone (build_parser)."""
    p = argparse.ArgumentParser(
        prog="hilfer-mnc",
        description="fractional integral equations: quadrature, certificates, Picard, MNC demos",
        epilog="The command runs numpy's bundled OpenBLAS on one thread, so its output does not "
        "depend on OPENBLAS_NUM_THREADS; the library API leaves the BLAS thread count alone.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_line, add_args in _COMMANDS:
        sp = sub.add_parser(name, help=help_line, add_help=name == command)
        if name == command:
            add_args(sp)
    return p


def _keep_freed_heap() -> None:
    """Let glibc malloc reuse freed arrays instead of unmapping them.

    The Darbo trace allocates (m x n) temporaries that grow step by step.
    glibc serves each one above its dynamic mmap threshold with a fresh
    mapping and trims the heap top after every free, so the pages are
    faulted in again on the next step (about 1,000 minor faults per
    repeated paper-example run). Fixed thresholds of 4 MiB (mmap) and
    16 MiB (trim) keep that memory in the heap. The policy is
    process-wide, so only the entry point sets it; other C libraries are
    left alone.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    if not libc or not libc.startswith("glibc"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


# numpy 2 wheels bundle scipy-openblas, numpy 1 wheels openblas64_
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


@lru_cache(maxsize=None)
def _one_blas_thread() -> None:
    """Run the OpenBLAS bundled with numpy on one thread, once per process.

    On the dense path (up to 2049 nodes) a BLAS on more than one thread may
    round the operator matmul differently, so the printed digits depended
    on OPENBLAS_NUM_THREADS. numpy's wheels bundle the library in
    numpy.libs next to the package; where no library there has the
    set-threads symbol (another numpy build), the BLAS is left as it is.
    The policy is process-wide, so only the entry point sets it: the
    library API leaves the BLAS alone.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in _BLAS_SET_THREADS:
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                setter(1)
                return


def _expr_joined(argv: list[str]) -> list[str]:
    """argv with each `--expr TOKEN` joined into `--expr=TOKEN`.

    argparse takes a value that starts with "-", such as -x or -2*x, for an
    option; joined, the token is the value whatever it starts with. A
    trailing --expr is left as it is, for argparse's usage error.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--expr":
            out[-1] = f"--expr={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    _one_blas_thread()
    argv = _expr_joined(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): drop the rest of the
        # output, including what the interpreter would flush on exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    try:
        if getattr(args, "dump_config", False):
            print(dump_config(_load(args)))
            return 0
        return args.func(args)
    except ConfigError as exc:
        _print_payload({"status": "error", "error_type": "config", "message": str(exc)})
        return 2
    except (DomainError, ParseError, EvaluationError) as exc:
        _print_payload({"status": "error", "error_type": "domain", "message": str(exc)})
        return 2
    except NonconvergenceError as exc:
        _print_payload({"status": "error", "error_type": "nonconvergence", "message": str(exc)})
        return 4
    except MemoryError as exc:
        _print_payload({"status": "error", "error_type": "memory", "message": str(exc) or "out of memory"})
        return 2


if __name__ == "__main__":
    sys.exit(main())
