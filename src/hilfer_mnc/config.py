"""Run configuration: JSON schema, validation, and the bundled scenario.

A config file mirrors RunConfig section by section; expressions are strings
in the small expression language. Validation failures raise ConfigError
with the offending JSON path in the message; keys the schema does not use
are ignored. Each section type checks its own fields when it is built, so
a value from a config file, from a CLI flag (a `replace` of the section)
or from library code fails the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

from .equations import EquationSpec, Nonlinearity
from .errors import ConfigError, DomainError, ParseError
from .expressions import parse, to_string
from .fractional import DEFAULT_PANELS, MAX_FLOATS, FracParams
from .solver import DEFAULT_MAX_ITER, DEFAULT_TOL

# reference radius of the bundled scenario's certificate
BUNDLED_R0 = 0.83


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


def _override(value, path: str) -> float | None:
    """A top-level override key: None, or a positive finite number."""
    if value is None:
        return None
    number = _num(value, path)
    if not number > 0.0:
        raise ConfigError(f"{path}: must be positive, got {number}")
    return number


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _fits(count: int, path: str) -> None:
    """ConfigError naming path for a count above MAX_FLOATS, which no float64 array may hold."""
    if count > MAX_FLOATS:
        raise ConfigError(f"{path}: must be <= {MAX_FLOATS}, the most one float64 array may hold, got {count}")


@dataclass(frozen=True)
class SolverConfig:
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    nodes: int = 257

    def __post_init__(self) -> None:
        object.__setattr__(self, "tol", _num(self.tol, "solver.tol"))
        _int(self.max_iter, "solver.max_iter")
        _int(self.nodes, "solver.nodes")
        if not self.tol > 0.0:
            raise ConfigError(f"solver.tol: must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"solver.max_iter: must be >= 1, got {self.max_iter}")
        if self.nodes < 2:
            raise ConfigError(f"solver.nodes: must be >= 2, got {self.nodes}")
        _fits(self.nodes, "solver.nodes")


@dataclass(frozen=True)
class QuadratureConfig:
    panels: int = DEFAULT_PANELS
    mesh: str = "uniform"

    def __post_init__(self) -> None:
        if _int(self.panels, "quadrature.panels") < 1:
            raise ConfigError(f"quadrature.panels: must be >= 1, got {self.panels}")
        _fits(self.panels, "quadrature.panels")
        if self.mesh not in ("uniform", "graded"):
            raise ConfigError(f"quadrature.mesh: must be 'uniform' or 'graded', got {self.mesh!r}")


@dataclass(frozen=True)
class MncConfig:
    deltas: tuple[float, ...] = (0.25, 0.125, 0.0625, 0.03125)
    ensemble: int = 30
    p_max: int = 8
    rng_seed: int = 42

    def __post_init__(self) -> None:
        if not isinstance(self.deltas, (list, tuple)) or len(self.deltas) < 3:
            raise ConfigError("mnc.deltas: expected a list of at least 3 values")
        deltas = tuple(_num(v, f"mnc.deltas[{j}]") for j, v in enumerate(self.deltas))
        if any(d <= 0.0 for d in deltas) or any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise ConfigError("mnc.deltas: must be positive and strictly decreasing")
        object.__setattr__(self, "deltas", deltas)
        _int(self.ensemble, "mnc.ensemble")
        _int(self.p_max, "mnc.p_max")
        _int(self.rng_seed, "mnc.rng_seed")
        if self.ensemble < 1:
            raise ConfigError(f"mnc.ensemble: must be >= 1, got {self.ensemble}")
        _fits(self.ensemble, "mnc.ensemble")
        if self.p_max < 1:
            raise ConfigError(f"mnc.p_max: must be >= 1, got {self.p_max}")


@dataclass(frozen=True)
class OutputConfig:
    format: str = "csv"
    path: str | None = None

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json-lines"):
            raise ConfigError(f"output.format: must be 'csv' or 'json-lines', got {self.format!r}")
        if self.path is not None and not isinstance(self.path, str):
            raise ConfigError("output.path: expected a string or null")


@dataclass(frozen=True)
class CertificateConfig:
    # the radius `check` tests for admissibility; None tests none
    r0: float | None = None

    def __post_init__(self) -> None:
        if self.r0 is not None:
            object.__setattr__(self, "r0", _num(self.r0, "certificate.r0"))
            if self.r0 < 0.0:
                raise ConfigError(f"certificate.r0: must be >= 0, got {self.r0}")


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
    certificate: CertificateConfig = CertificateConfig()

    def __post_init__(self) -> None:
        # frac-int reads params from the config, the operator and certify
        # from each equation: the copies must agree
        for i, eq in enumerate(self.equations):
            if eq.params != self.params:
                raise ConfigError(
                    f"equations[{i}].params: {eq.params} differ from params {self.params}"
                )
        # the deltas are strictly decreasing, so the first is the widest
        span = self.params.T - 1.0
        if self.mnc.deltas[0] > span * (1.0 + 1e-12):
            raise ConfigError(
                f"mnc.deltas[0]: must not exceed the domain span {span}, got {self.mnc.deltas[0]}"
            )

    def with_gamma_k_override(self, value: float | None) -> "RunConfig":
        """This config with Gamma_k replaced by value, checked as the config key is; None keeps it."""
        if value is None:
            return self
        params = replace(self.params, gamma_k_override=_override(value, "gamma_k_override"))
        eqs = tuple(replace(eq, params=params) for eq in self.equations)
        return replace(self, params=params, equations=eqs)


def _get(data: dict, key: str, path: str):
    """The required field data[key]; ConfigError naming path.key when it is missing."""
    if key not in data:
        raise ConfigError(f"{path}.{key}: missing required field")
    return data[key]


def _section(data: dict, name: str, cls):
    """Section cls built from data[name], with cls's defaults for missing keys."""
    sd = data.get(name, {})
    if not isinstance(sd, dict):
        raise ConfigError(f"{name}: expected an object")
    return cls(**{f.name: sd.get(f.name, f.default) for f in fields(cls)})


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
    """Decode a config mapping into a RunConfig.

    The section types check their own fields; this checks the JSON
    structure, the order parameters, the two overrides and the equations.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    pd = _get(data, "params", "")
    if not isinstance(pd, dict):
        raise ConfigError("params: expected an object")
    order = {name: _num(_get(pd, name, "params"), f"params.{name}") for name in ("k", "rho", "gamma_ord", "T")}
    gk = _override(data.get("gamma_k_override"), "gamma_k_override")
    try:
        params = FracParams(**order, gamma_k_override=gk)
    except DomainError as exc:
        raise ConfigError(f"params: {exc}") from None
    kern = _override(data.get("kernel_factor_override"), "kernel_factor_override")

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
            )
        )
        names.append(name)
    if len(set(names)) != len(names):
        raise ConfigError("equations: names must be distinct")

    return RunConfig(
        params=params,
        equations=tuple(equations),
        names=tuple(names),
        solver=_section(data, "solver", SolverConfig),
        quadrature=_section(data, "quadrature", QuadratureConfig),
        kernel_factor_override=kern,
        mnc=_section(data, "mnc", MncConfig),
        output=_section(data, "output", OutputConfig),
        certificate=_section(data, "certificate", CertificateConfig),
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
    sections = ("params", "solver", "quadrature", "mnc", "output", "certificate")
    data = {name: asdict(getattr(cfg, name)) for name in sections}
    data["mnc"]["deltas"] = list(cfg.mnc.deltas)
    data["equations"] = [
        {"name": name, **{part: _nl_dict(getattr(eq, part)) for part in ("f", "psi", "g")}}
        for name, eq in zip(cfg.names, cfg.equations)
    ]
    # the override is a top-level key of the file, not a field of params
    data["gamma_k_override"] = data["params"].pop("gamma_k_override")
    data["kernel_factor_override"] = cfg.kernel_factor_override
    return data


def _nl_dict(n: Nonlinearity) -> dict:
    return {"expr": to_string(n.expr), "lipschitz": n.lipschitz}


def dump_config(cfg: RunConfig) -> str:
    """cfg as JSON text that load_config reads back into an equivalent config.

    The text is read back through parse_config first, which guards a
    config built in library code; a bad flag has already failed its
    section's own check by then.
    """
    data = config_to_dict(cfg)
    parse_config(data)
    return json.dumps(data, indent=2, sort_keys=True)


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
            "certificate": {"r0": BUNDLED_R0},
        }
    )
