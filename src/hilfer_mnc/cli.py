"""Command-line surface for the integral-equation toolkit.

Subcommands: gamma-k, frac-int, check, solve, mnc-demo, and paper-example.
paper-example prints exactly what check, solve and mnc-demo print with
--paper-example, in that order, but loads the built-in scenario once and
runs the three stages on it; mnc-demo reuses the check stage's certificate
of its equation instead of certifying it again.

Each `main` call builds a parser holding only the arguments of the
subcommand it names.

Exit codes: 0 success, 1 stdout closed by its reader before the output
ended, 2 configuration or domain error (a non-finite number such as
`--tol inf` included), 3 failing certificate (or a certified run
violating its own bound), 4 nonconvergence.
Structured output is deterministic: identical configuration and seeds give
byte-identical bytes; no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import math
import os
import sys

import numpy as np

from .config import (
    BUNDLED_R0,
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
from .expressions import evaluate, parse
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


def _print_payload(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_rows(header: list[str], rows: list[list], fmt: str, path: str | None, label: str | None) -> None:
    """Write one table as CSV or JSON lines, to a file or stdout.

    On stdout a `# label` comment line precedes the table so multi-table
    output stays splittable.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    else:
        lines = [json.dumps(dict(zip(header, row)), sort_keys=True) for row in rows]
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


def _load(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "paper_example", False):
        cfg = bundled_example()
    elif getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        raise ConfigError("pass --config PATH or --paper-example")
    cfg = cfg.with_gamma_k_override(getattr(args, "gamma_k_override", None))
    return cfg


def _cert_payload(name: str, cert: RadiusCertificate, r0: float | None) -> dict:
    rec = {
        "name": name,
        "kappa": cert.kappa,
        "c1": cert.c1,
        "threshold": cert.r0_max_contraction,
        "selfmap_interval": list(cert.r0_selfmap_interval) if cert.r0_selfmap_interval else None,
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
        params = cfg.params
        panels = args.panels if args.panels is not None else cfg.quadrature.panels
        mesh = args.mesh if args.mesh is not None else cfg.quadrature.mesh
        out_path = args.out if args.out is not None else cfg.output.path
        fmt = cfg.output.format
        gk = cfg.gamma_k_override
        if args.dump_config:
            print(dump_config(cfg))
            return 0
    else:
        missing = [n for n in ("k", "rho", "gamma_ord", "T") if getattr(args, n.lower(), None) is None]
        if missing:
            raise ConfigError(
                "pass --config/--paper-example or all of --k --rho --gamma-ord --T"
            )
        params = FracParams(k=args.k, rho=args.rho, gamma_ord=args.gamma_ord, T=args.t)
        panels = args.panels if args.panels is not None else 1024
        mesh = args.mesh if args.mesh is not None else "uniform"
        out_path = args.out
        fmt = "csv"
        gk = args.gamma_k_override
    expr = parse(args.expr)
    nodes = uniform_nodes(params.T, args.phi_nodes)
    values = np.broadcast_to(
        np.asarray(evaluate(expr, nodes, np.zeros_like(nodes)), dtype=float), nodes.shape
    )
    phi = GridFunction(nodes=nodes, values=values)
    points = np.array(args.x, dtype=float)
    integrals = hilfer_integral(params, phi, points, panels=panels, mesh=mesh, gamma_k_value=gk)
    rows = [[x, val] for x, val in zip(points.tolist(), integrals.tolist())]
    _emit_rows(["x", "value"], rows, fmt, out_path, label="frac-int")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if args.dump_config:
        print(dump_config(cfg))
        return 0
    r0 = args.r0
    if r0 is None and args.paper_example:
        r0 = BUNDLED_R0
    return _check_stage(cfg, r0, args.probes)[0]


def _check_stage(cfg: RunConfig, r0: float | None, probes: int) -> tuple[int, list[RadiusCertificate]]:
    """Certify every equation and print the check payload.

    Returns the exit code and the certificates, one per equation in config
    order, so a later stage can reuse them.
    """
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
    cfg = _load(args)
    if args.dump_config:
        print(dump_config(cfg))
        return 0
    return _solve_stage(
        cfg,
        seed_value=args.seed_value,
        tol=args.tol if args.tol is not None else cfg.solver.tol,
        max_iter=args.max_iter if args.max_iter is not None else cfg.solver.max_iter,
        n_nodes=args.nodes if args.nodes is not None else cfg.solver.nodes,
        out_path=args.out if args.out is not None else cfg.output.path,
    )


def _solve_stage(
    cfg: RunConfig, seed_value: float, tol: float, max_iter: int, n_nodes: int, out_path: str | None
) -> int:
    """Picard-solve every equation from a constant seed; print tables and summary."""
    nodes = uniform_nodes(cfg.params.T, n_nodes)
    seed = GridFunction(nodes=nodes, values=np.full(nodes.shape, seed_value))
    multi = len(cfg.equations) > 1
    summary = []
    all_converged = True
    for name, eq in zip(cfg.names, cfg.equations):
        report = picard_solve(eq, seed, tol=tol, max_iter=max_iter)
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
            _table_path(out_path, name, multi),
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
            "nodes": n_nodes,
            "tol": tol,
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
    if args.dump_config:
        print(dump_config(cfg))
        return 0
    name = cfg.names[0] if args.equation is None else args.equation
    if name not in cfg.names:
        raise ConfigError(f"unknown equation {name!r}; have {list(cfg.names)}")
    out_path = args.out if args.out is not None else cfg.output.path
    return _mnc_stage(cfg, name, out_path)


def _mnc_stage(
    cfg: RunConfig, name: str, out_path: str | None, cert: RadiusCertificate | None = None
) -> int:
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
    _emit_rows(["p", "mu0", "hausdorff", "ratio"], rows, cfg.output.format, out_path, label=f"mnc-demo {name}")
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
    cfg = bundled_example().with_gamma_k_override(args.gamma_k_override)
    if args.dump_config:
        print(dump_config(cfg))
        return 0
    rc_check, certs = _check_stage(cfg, BUNDLED_R0, probes=DEFAULT_PROBES)
    rc_solve = _solve_stage(
        cfg,
        seed_value=_DEFAULT_SEED_VALUE,
        tol=cfg.solver.tol,
        max_iter=cfg.solver.max_iter,
        n_nodes=cfg.solver.nodes,
        out_path=cfg.output.path,
    )
    rc_mnc = _mnc_stage(cfg, cfg.names[0], cfg.output.path, cert=certs[0])
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
    c.add_argument("--r0", type=float, default=None, help="radius to test for admissibility")
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
    pe.set_defaults(func=_cmd_paper_example)


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
    """The parser for one command line.

    Every subcommand is listed, but only the one argv names (its first
    token not starting with "-") gets its arguments and its -h; the others
    are never parsed. Building all six in full took 1.9 ms a call, against
    0.6-0.9 ms for one.
    """
    p = argparse.ArgumentParser(
        prog="hilfer-mnc",
        description="fractional integral equations: quadrature, certificates, Picard, MNC demos",
    )
    sub = p.add_subparsers(dest="command", required=True)
    command = next((a for a in argv if not a.startswith("-")), None)
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
    faulted in again on the next step (about 1,450 minor faults per
    paper-example run). Fixed thresholds of 4 MiB (mmap) and 16 MiB (trim)
    keep that memory in the heap. The policy is process-wide, so only the
    entry point sets it; other C libraries are left alone.
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


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    if argv is None:
        argv = sys.argv[1:]
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


if __name__ == "__main__":
    sys.exit(main())
