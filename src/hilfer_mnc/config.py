"""Run configuration: JSON schema, validation, and the bundled scenario.

A config file mirrors RunConfig section by section; expressions are strings
in the small expression language. Validation failures raise ConfigError
with the offending JSON path in the message; keys the schema does not use
are ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .equations import EquationSpec, Nonlinearity
from .errors import ConfigError, DomainError, ParseError
from .expressions import parse, to_string
from .fractional import DEFAULT_PANELS, FracParams

# reference radius of the bundled scenario's certificate
BUNDLED_R0 = 0.83


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 200
    nodes: int = 257


@dataclass(frozen=True)
class QuadratureConfig:
    panels: int = DEFAULT_PANELS
    mesh: str = "uniform"


@dataclass(frozen=True)
class MncConfig:
    deltas: tuple[float, ...] = (0.25, 0.125, 0.0625, 0.03125)
    ensemble: int = 30
    p_max: int = 8
    rng_seed: int = 42


@dataclass(frozen=True)
class OutputConfig:
    format: str = "csv"
    path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    params: FracParams
    equations: tuple[EquationSpec, ...]
    names: tuple[str, ...]
    solver: SolverConfig
    quadrature: QuadratureConfig
    kernel_factor_override: float | None
    mnc: MncConfig
    output: OutputConfig

    def __post_init__(self) -> None:
        # frac-int reads params and the override from the config, the operator
        # and certify from each equation: the copies must agree
        for i, eq in enumerate(self.equations):
            if eq.params != self.params:
                raise ConfigError(
                    f"equations[{i}].params: {eq.params} differ from params {self.params}"
                )
            if eq.gamma_k_override != self.gamma_k_override:
                raise ConfigError(
                    f"equations[{i}].gamma_k_override: {eq.gamma_k_override} differs from "
                    f"equations[0]'s {self.gamma_k_override}"
                )

    @property
    def gamma_k_override(self) -> float | None:
        """The Gamma_k override, kept on the equations (parse_config gives all the same)."""
        return self.equations[0].gamma_k_override

    def with_gamma_k_override(self, value: float | None) -> "RunConfig":
        if value is None:
            return self
        eqs = tuple(replace(eq, gamma_k_override=value) for eq in self.equations)
        return replace(self, equations=eqs)


def _get(data: dict, key: str, path: str):
    """The required field data[key]; ConfigError naming path.key when it is missing."""
    if key not in data:
        raise ConfigError(f"{path}.{key}: missing required field")
    return data[key]


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    # JSON decodes 1e999 to inf, Python's decoder also reads NaN and
    # Infinity, and an integer may be too large for a float
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {number}")
    return number


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _nonlinearity(data, path: str) -> Nonlinearity:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    src = _get(data, "expr", path)
    if not isinstance(src, str) or not src:
        raise ConfigError(f"{path}.expr: expected a nonempty string")
    try:
        expr = parse(src)
    except ParseError as exc:
        raise ConfigError(f"{path}.expr: {exc}") from None
    lipschitz = _num(_get(data, "lipschitz", path), f"{path}.lipschitz")
    try:
        return Nonlinearity(expr=expr, lipschitz=lipschitz)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded config mapping into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    pd = _get(data, "params", "")
    if not isinstance(pd, dict):
        raise ConfigError("params: expected an object")
    try:
        params = FracParams(
            k=_num(_get(pd, "k", "params"), "params.k"),
            rho=_num(_get(pd, "rho", "params"), "params.rho"),
            gamma_ord=_num(_get(pd, "gamma_ord", "params"), "params.gamma_ord"),
            T=_num(_get(pd, "T", "params"), "params.T"),
        )
    except DomainError as exc:
        raise ConfigError(f"params: {exc}") from None

    gk = data.get("gamma_k_override")
    if gk is not None:
        gk = _num(gk, "gamma_k_override")
        if not gk > 0.0:
            raise ConfigError(f"gamma_k_override: must be positive, got {gk}")
    kern = data.get("kernel_factor_override")
    if kern is not None:
        kern = _num(kern, "kernel_factor_override")
        if not kern > 0.0:
            raise ConfigError(f"kernel_factor_override: must be positive, got {kern}")

    eq_list = _get(data, "equations", "")
    if not isinstance(eq_list, list) or not 1 <= len(eq_list) <= 2:
        raise ConfigError("equations: expected a list of one or two blocks")
    equations = []
    names = []
    for i, block in enumerate(eq_list):
        path = f"equations[{i}]"
        if not isinstance(block, dict):
            raise ConfigError(f"{path}: expected an object")
        name = block.get("name", ("alpha", "beta")[i])
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{path}.name: expected a nonempty string")
        equations.append(
            EquationSpec(
                params=params,
                f=_nonlinearity(_get(block, "f", path), f"{path}.f"),
                psi=_nonlinearity(_get(block, "psi", path), f"{path}.psi"),
                g=_nonlinearity(_get(block, "g", path), f"{path}.g"),
                gamma_k_override=gk,
            )
        )
        names.append(name)
    if len(set(names)) != len(names):
        raise ConfigError("equations: names must be distinct")

    sd = data.get("solver", {})
    if not isinstance(sd, dict):
        raise ConfigError("solver: expected an object")
    solver = SolverConfig(
        tol=_num(sd.get("tol", 1e-10), "solver.tol"),
        max_iter=_int(sd.get("max_iter", 200), "solver.max_iter"),
        nodes=_int(sd.get("nodes", 257), "solver.nodes"),
    )
    if not solver.tol > 0.0:
        raise ConfigError(f"solver.tol: must be positive, got {solver.tol}")
    if solver.max_iter < 1:
        raise ConfigError(f"solver.max_iter: must be >= 1, got {solver.max_iter}")
    if solver.nodes < 2:
        raise ConfigError(f"solver.nodes: must be >= 2, got {solver.nodes}")

    qd = data.get("quadrature", {})
    if not isinstance(qd, dict):
        raise ConfigError("quadrature: expected an object")
    quadrature = QuadratureConfig(
        panels=_int(qd.get("panels", DEFAULT_PANELS), "quadrature.panels"),
        mesh=qd.get("mesh", "uniform"),
    )
    if quadrature.panels < 1:
        raise ConfigError(f"quadrature.panels: must be >= 1, got {quadrature.panels}")
    if quadrature.mesh not in ("uniform", "graded"):
        raise ConfigError(f"quadrature.mesh: must be 'uniform' or 'graded', got {quadrature.mesh!r}")

    md = data.get("mnc", {})
    if not isinstance(md, dict):
        raise ConfigError("mnc: expected an object")
    deltas_raw = md.get("deltas", list(MncConfig().deltas))
    if not isinstance(deltas_raw, list) or len(deltas_raw) < 3:
        raise ConfigError("mnc.deltas: expected a list of at least 3 values")
    deltas = tuple(_num(v, f"mnc.deltas[{j}]") for j, v in enumerate(deltas_raw))
    if any(d <= 0.0 for d in deltas) or any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ConfigError("mnc.deltas: must be positive and strictly decreasing")
    mnc = MncConfig(
        deltas=deltas,
        ensemble=_int(md.get("ensemble", 30), "mnc.ensemble"),
        p_max=_int(md.get("p_max", 8), "mnc.p_max"),
        rng_seed=_int(md.get("rng_seed", 42), "mnc.rng_seed"),
    )
    if mnc.ensemble < 1:
        raise ConfigError(f"mnc.ensemble: must be >= 1, got {mnc.ensemble}")
    if mnc.p_max < 1:
        raise ConfigError(f"mnc.p_max: must be >= 1, got {mnc.p_max}")

    od = data.get("output", {})
    if not isinstance(od, dict):
        raise ConfigError("output: expected an object")
    output = OutputConfig(format=od.get("format", "csv"), path=od.get("path"))
    if output.format not in ("csv", "json-lines"):
        raise ConfigError(f"output.format: must be 'csv' or 'json-lines', got {output.format!r}")
    if output.path is not None and not isinstance(output.path, str):
        raise ConfigError("output.path: expected a string or null")

    return RunConfig(
        params=params,
        equations=tuple(equations),
        names=tuple(names),
        solver=solver,
        quadrature=quadrature,
        kernel_factor_override=kern,
        mnc=mnc,
        output=output,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:
        # an integer literal beyond Python's digit limit for str -> int
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(data)


def config_to_dict(cfg: RunConfig) -> dict:
    """Mapping form of a RunConfig; parse_config(config_to_dict(c)) is equivalent to c."""
    p = cfg.params
    return {
        "params": {"k": p.k, "rho": p.rho, "gamma_ord": p.gamma_ord, "T": p.T},
        "equations": [
            {
                "name": name,
                "f": _nl_dict(eq.f),
                "psi": _nl_dict(eq.psi),
                "g": _nl_dict(eq.g),
            }
            for name, eq in zip(cfg.names, cfg.equations)
        ],
        "solver": {
            "tol": cfg.solver.tol,
            "max_iter": cfg.solver.max_iter,
            "nodes": cfg.solver.nodes,
        },
        "quadrature": {"panels": cfg.quadrature.panels, "mesh": cfg.quadrature.mesh},
        "gamma_k_override": cfg.gamma_k_override,
        "kernel_factor_override": cfg.kernel_factor_override,
        "mnc": {
            "deltas": list(cfg.mnc.deltas),
            "ensemble": cfg.mnc.ensemble,
            "p_max": cfg.mnc.p_max,
            "rng_seed": cfg.mnc.rng_seed,
        },
        "output": {"format": cfg.output.format, "path": cfg.output.path},
    }


def _nl_dict(n: Nonlinearity) -> dict:
    return {"expr": to_string(n.expr), "lipschitz": n.lipschitz}


def dump_config(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)


def bundled_example() -> RunConfig:
    """The built-in two-equation scenario on [1, 3].

    Order parameters k = rho = 1/3, gamma_ord = 2/3. The kernel factor
    (T^rho - 1)^(gamma/k) is pinned at 0.5358 for certificate arithmetic;
    the directly computed value is (3^(1/3) - 1)^2, roughly 0.1956, and the
    override is reported on every certificate that uses it.
    """
    third = 1.0 / 3.0
    return parse_config(
        {
            "params": {"k": third, "rho": third, "gamma_ord": 2.0 / 3.0, "T": 3.0},
            "equations": [
                {
                    "name": "alpha",
                    "f": {"expr": "abs(a)/6", "lipschitz": 1.0 / 6.0},
                    "psi": {"expr": "abs(a)", "lipschitz": 1.0},
                    "g": {"expr": "a/(3+log(x))", "lipschitz": third},
                },
                {
                    "name": "beta",
                    "f": {"expr": "abs(a)/6", "lipschitz": 1.0 / 6.0},
                    "psi": {"expr": "abs(a)", "lipschitz": 1.0},
                    "g": {"expr": "a/(2+x)", "lipschitz": third},
                },
            ],
            "solver": {"tol": 1e-10, "max_iter": 200, "nodes": 129},
            "quadrature": {"panels": 1024, "mesh": "uniform"},
            "gamma_k_override": None,
            "kernel_factor_override": 0.5358,
            "mnc": {
                "deltas": [0.25, 0.125, 0.0625, 0.03125],
                "ensemble": 30,
                "p_max": 8,
                "rng_seed": 42,
            },
            "output": {"format": "csv", "path": None},
        }
    )
