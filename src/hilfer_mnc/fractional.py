"""Left-sided (k, rho)-fractional integral on [1, T] by product integration.

The integral

    (rho^(1 - a) / (k * Gamma_k(g))) * int_1^x t^(rho-1) (x^rho - t^rho)^(a-1) phi(t) dt,

with a = g/k, has a weak singularity at t = x. Substituting s = t^rho turns
it into (rho^(-a) / (k * Gamma_k(g))) * int_1^X (X - s)^(a-1) phi(s^(1/rho)) ds
with X = x^rho. On each panel of an s-mesh the integrand's piecewise-linear
interpolant is integrated against the weight (X - s)^(a-1) in closed form, so
no quadrature node ever sits on the singularity and the scheme is exact for
integrands constant or linear in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special_functions import k_gamma

DEFAULT_PANELS = 1024
_GRADING_POWER = 2.0


@dataclass(frozen=True)
class FracParams:
    """Order parameters (k, rho, gamma_ord) and right endpoint T of [1, T]."""

    k: float
    rho: float
    gamma_ord: float
    T: float

    def __post_init__(self) -> None:
        if not 0.0 < self.k < 1.0:
            raise DomainError(f"k must lie in (0, 1), got {self.k}")
        if not 0.0 < self.rho < 1.0:
            raise DomainError(f"rho must lie in (0, 1), got {self.rho}")
        if not 0.0 < self.gamma_ord < 1.0:
            raise DomainError(f"gamma_ord must lie in (0, 1), got {self.gamma_ord}")
        if not self.T > 1.0:
            raise DomainError(f"T must exceed 1, got {self.T}")

    @property
    def exponent(self) -> float:
        """Kernel exponent a = gamma_ord / k."""
        return self.gamma_ord / self.k


def checked_grid(nodes, values, rows: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays of a node set and the values sampled on it, validated.

    nodes must be one-dimensional, at least two long, start at 1 and be
    strictly increasing. values is one vector on the nodes, or with rows
    set a matrix with one function per row (at least one row); every value
    must be finite. Raises DomainError on the first violated condition.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if rows:
        if nodes.ndim != 1 or values.ndim != 2:
            raise DomainError("nodes must be one-dimensional and values a matrix")
        if values.shape[0] < 1:
            raise DomainError("values need at least one row")
    elif nodes.ndim != 1 or values.ndim != 1:
        raise DomainError("nodes and values must be one-dimensional")
    if values.shape[-1] != nodes.shape[0]:
        raise DomainError(
            f"length mismatch: {nodes.shape[0]} nodes, {values.shape[-1]} values"
        )
    if nodes.shape[0] < 2:
        raise DomainError("a grid function needs at least two nodes")
    if nodes[0] != 1.0:
        raise DomainError(f"domain must start at 1, got {nodes[0]}")
    if not np.all(np.diff(nodes) > 0.0):
        raise DomainError("nodes must be strictly increasing")
    if not np.all(np.isfinite(values)):
        raise DomainError("values must be finite")
    return nodes, values


@dataclass(frozen=True)
class GridFunction:
    """A function on [1, T]: node/value pairs, linear interpolation between.

    nodes must be strictly increasing with nodes[0] == 1; values are finite.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        nodes, values = checked_grid(self.nodes, self.values)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def uniform_nodes(T: float, n: int) -> np.ndarray:
    """n ascending nodes from 1 to T."""
    if n < 2:
        raise DomainError(f"need at least 2 nodes, got {n}")
    return np.linspace(1.0, T, n)


def _s_mesh(X: float, panels: int, mesh: str) -> np.ndarray:
    if mesh == "uniform":
        return 1.0 + (X - 1.0) * np.linspace(0.0, 1.0, panels + 1)
    if mesh == "graded":
        # cluster toward the singular end s = X
        frac = np.linspace(1.0, 0.0, panels + 1) ** _GRADING_POWER
        return X - (X - 1.0) * frac
    raise DomainError(f"mesh must be 'uniform' or 'graded', got {mesh!r}")


def panel_weights(
    X: float | np.ndarray, s: np.ndarray, a: float, work: np.ndarray | None = None
) -> np.ndarray:
    """Node weights W of the product rule: int_{s[0]}^X (X - s)^(a-1) p(s) ds = W @ p(s).

    p is the piecewise-linear interpolant of its values at the mesh s. With
    G(w) = w^(a+1) / (a (a+1)) the kernel is G''(X - s), so integrating each
    hat function by parts twice makes its weight the second divided
    difference of G(X - s) at the node's neighbours. The first node adds the
    boundary term G'(X - s[0]) = (X - s[0])^a / a to its first divided
    difference. X - s is clamped at 0 before the power, so G(X - s) vanishes
    from X on and every node after the first one at or beyond X weighs 0.

    X may be a scalar (returns shape (len(s),)) or an array of upper limits
    (returns one row per limit). work, when given, is a float64 buffer of at
    least 2 * rows * len(s) elements; the result is then a view into it.
    The weights are nonnegative for any a > 0.
    """
    limits = np.atleast_1d(np.asarray(X, dtype=float))
    rows, cols = limits.shape[0], s.shape[0]
    size = rows * cols
    if work is None:
        work = np.empty(2 * size)
    w = work[:size].reshape(rows, cols)
    d = work[size : 2 * size - rows].reshape(rows, cols - 1)
    np.subtract(limits[:, None], s, out=w)
    np.maximum(w, 0.0, out=w)
    np.power(w, a + 1.0, out=w)
    np.subtract(w[:, 1:], w[:, :-1], out=d)
    d /= np.diff(s)
    # from here on w holds the weights scaled by a (a+1)
    np.add((a + 1.0) * np.maximum(limits - s[0], 0.0) ** a, d[:, 0], out=w[:, 0])
    np.subtract(d[:, 1:], d[:, :-1], out=w[:, 1:-1])
    np.negative(d[:, -1], out=w[:, -1])
    w /= a * (a + 1.0)
    # the divided differences cancel on fine meshes; clamp the rounding dust
    np.maximum(w, 0.0, out=w)
    return w[0] if np.ndim(X) == 0 else w


def product_quadrature(
    params: FracParams,
    phi: GridFunction,
    x: float,
    panels: int = DEFAULT_PANELS,
    mesh: str = "uniform",
    gamma_k_value: float | None = None,
) -> float:
    """Product-integration value of the fractional integral at one point x.

    phi is interpolated onto a mesh in s = t^rho (uniform by default, graded
    toward the singular end on request) and each panel integrates the linear
    interpolant exactly. gamma_k_value substitutes a caller-supplied constant
    for Gamma_k(gamma_ord) in the prefactor. The value at x = 1 is exactly 0.
    """
    if not 1.0 <= x <= params.T * (1.0 + 1e-12):
        raise DomainError(f"x must lie in [1, {params.T}], got {x}")
    if abs(phi.nodes[-1] - params.T) > 1e-12 * max(1.0, params.T):
        raise DomainError(
            f"phi is defined on [1, {phi.nodes[-1]}], expected [1, {params.T}]"
        )
    if panels < 1:
        raise DomainError(f"panels must be >= 1, got {panels}")
    if x == 1.0:
        return 0.0
    a = params.exponent
    X = x**params.rho
    s = _s_mesh(X, panels, mesh)
    v = phi(s ** (1.0 / params.rho))
    total = float(panel_weights(X, s, a) @ v)
    gk = gamma_k_value if gamma_k_value is not None else k_gamma(params.k, params.gamma_ord).value
    return params.rho ** (-a) / (params.k * gk) * total


# the name the CLI, the README and the package exports use
hilfer_integral = product_quadrature


def closed_form_constant(params: FracParams, x: float, gamma_k_value: float | None = None) -> float:
    """Exact integral of phi == 1: rho^(-a) (x^rho - 1)^a / (gamma_ord * Gamma_k(gamma_ord))."""
    if not 1.0 <= x <= params.T * (1.0 + 1e-12):
        raise DomainError(f"x must lie in [1, {params.T}], got {x}")
    a = params.exponent
    gk = gamma_k_value if gamma_k_value is not None else k_gamma(params.k, params.gamma_ord).value
    return params.rho ** (-a) * (x**params.rho - 1.0) ** a / (params.gamma_ord * gk)


def measure_convergence_order(
    params: FracParams,
    phi: GridFunction,
    x: float,
    mesh_sizes,
    mesh: str = "uniform",
) -> float:
    """Empirical convergence order from a log-log fit against a fine reference.

    The reference uses 4x the largest requested mesh. Returns math.inf when
    every error sits below the rounding floor 1e-13 * max(1, |ref|) (the
    scheme is exact for this phi, so no rate is observable).
    """
    sizes = np.asarray(mesh_sizes, dtype=int)
    if sizes.ndim != 1 or sizes.shape[0] < 3:
        raise DomainError("mesh_sizes needs at least 3 entries")
    if not np.all(np.diff(sizes) > 0):
        raise DomainError("mesh_sizes must be strictly increasing")
    ref = product_quadrature(params, phi, x, panels=int(4 * sizes[-1]), mesh=mesh)
    errs = np.array(
        [abs(product_quadrature(params, phi, x, panels=int(n), mesh=mesh) - ref) for n in sizes]
    )
    # rounding floor scales with the value; below it there is no rate to fit
    if np.all(errs < 1e-13 * max(1.0, abs(ref))):
        return math.inf
    keep = errs > 0.0
    if keep.sum() < 2:
        return math.inf
    slope = np.polyfit(np.log(1.0 / sizes[keep]), np.log(errs[keep]), 1)[0]
    return float(slope)
