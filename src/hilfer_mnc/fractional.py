"""Left-sided (k, rho)-fractional integral on [1, T] by product integration.

The integral

    (rho^(1 - a) / (k * Gamma_k(g))) * int_1^x t^(rho-1) (x^rho - t^rho)^(a-1) phi(t) dt,

with a = g/k, has a weak singularity at t = x. Substituting s = t^rho turns
it into (rho^(-a) / (k * Gamma_k(g))) * int_1^X (X - s)^(a-1) phi(s^(1/rho)) ds
with X = x^rho. On each panel of an s-mesh the integrand's piecewise-linear
interpolant is integrated against the weight (X - s)^(a-1) in closed form, so
no quadrature node ever sits on the singularity and the scheme is exact for
integrands constant or linear in s.

The point rule (product_quadrature) uses one unit mesh sigma on [0, 1] and the
s-mesh 1 + (X - 1) sigma for every upper limit X, so its node weights are
(X - 1)^a times the unit mesh's: one weight vector serves any number of
points, and a point next to x = 1 keeps a mesh of distinct nodes.

The point rule evaluates its points in blocks. A call with at least two
blocks starts helper threads for the call, one per further core available
to the process (at most one per further block), shares the blocks between
them and the calling thread, and joins them before it returns. Each point's
value is its own row sum, so the result is bit for bit the same for any
number of threads. Only NumPy kernels and phi run in the helpers; the
functions a tracer may wrap (panel_weights, k_gamma) run on the calling
thread.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_positive_finite
from .special_functions import k_gamma

DEFAULT_PANELS = 1024
_GRADING_POWER = 2.0
# entries of the (points x nodes) block the point rule samples phi into at once.
# Each block makes six NumPy calls, and a thread that returns from one while
# another holds the GIL sleeps until it is woken; on a 2-core host 2**16
# entries took about 15 such sleeps per 256-point call, 2**15 about 50.
_POINT_BLOCK = 2**16


def _helper_count() -> int:
    """Helper threads beside the caller: one per further core the process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return cpus - 1


def _run_blocks(starts: range, block, shape: tuple[int, int], out: np.ndarray) -> None:
    """Write each block's values r = block(start, buf) to out[start : start + len(r)].

    This thread and min(_helper_count(), len(starts) - 1) helper threads,
    started for this call, claim the starts one at a time under a lock. Each
    thread reuses one scratch buffer buf of the given shape, runs under its
    own np.errstate(all="ignore") and writes its blocks' disjoint rows of out.
    After an exception in any thread no thread claims another block. Every
    helper is joined before the call returns or raises the first exception.
    """
    todo = iter(starts)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work() -> None:
        try:
            buf = np.empty(shape)
            with np.errstate(all="ignore"):
                while True:
                    with lock:
                        start = None if errors else next(todo, None)
                    if start is None:
                        return
                    values = block(start, buf)
                    out[start : start + values.size] = values
        except BaseException as exc:
            with lock:
                errors.append(exc)

    helpers = [
        threading.Thread(target=work, name="hilfer-point-rule")
        for _ in range(min(_helper_count(), len(starts) - 1))
    ]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]


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
        if not math.isfinite(self.T):
            raise DomainError(f"T must be finite, got {self.T}")
        try:
            self.rho ** -self.exponent
        except OverflowError:
            raise DomainError(
                f"the kernel prefactor rho^(-gamma_ord/k) = {self.rho}^(-{self.exponent}) "
                "overflows a double"
            ) from None

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


def power_differences(X: np.ndarray, s: np.ndarray, a: float, w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Panel differences of (X - s)_+^(a+1) along the mesh, one row per limit.

    d[r, j] = (X[r] - s[j+1])_+^(a+1) - (X[r] - s[j])_+^(a+1) for a 1-D
    array of limits X. w, of shape (len(X), len(s)), is scratch and is left
    holding the powers; d, of shape (len(X), len(s) - 1), is filled and
    returned. Every row of d vanishes from the first panel that starts at or
    beyond its limit.
    """
    np.subtract(X[:, None], s, out=w)
    np.maximum(w, 0.0, out=w)
    # the SIMD pow falls back to a slow path on zero lanes, and 0^(a+1) is 0
    np.power(w, a + 1.0, out=w, where=w > 0.0)
    np.subtract(w[:, 1:], w[:, :-1], out=d)
    return d


def panel_weights(
    X: float | np.ndarray, s: np.ndarray, a: float, work: np.ndarray | None = None
) -> np.ndarray:
    """Node weights W of the product rule: int_{s[0]}^X (X - s)^(a-1) p(s) ds = W @ p(s).

    p is the piecewise-linear interpolant of its values at the mesh s. With
    G(w) = w^(a+1) / (a (a+1)) the kernel is G''(X - s), so integrating each
    hat function by parts twice makes its weight the second divided
    difference of G(X - s) at the node's neighbours: the first divided
    differences of (X - s)_+^(a+1) are power_differences divided by the
    panel widths, and each weight is the difference of its two neighbouring
    ones. The first node adds the boundary term G'(X - s[0]) = (X - s[0])^a
    / a to its first divided difference. X - s is clamped at 0 before the
    power, so G(X - s) vanishes from X on and every node after the first
    one at or beyond X weighs 0.

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
    power_differences(limits, s, a, w, d)
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
    x: float | np.ndarray,
    panels: int = DEFAULT_PANELS,
    mesh: str = "uniform",
    gamma_k_value: float | None = None,
) -> float | np.ndarray:
    """Product-integration value of the fractional integral at a point or at each of many.

    x is a scalar (returns a float) or a 1-D array of points (returns an
    array of the same length; each entry equals the scalar call's value bit
    for bit). phi is interpolated onto a mesh in s = t^rho, uniform by
    default or graded toward the singular end on request, and each panel
    integrates the linear interpolant exactly. Every point's s-mesh is the
    affine image 1 + (X - 1) sigma of one unit mesh sigma, so its weights are
    (X - 1)^a times the unit mesh's: those, and Gamma_k, are computed once per
    call. gamma_k_value substitutes a caller-supplied constant for
    Gamma_k(gamma_ord) in the prefactor. The value at x = 1 is exactly 0.
    Every point is validated before any is evaluated, and a DomainError
    names the first one outside [1, T], or the first whose prefactor
    (X - 1)^a overflows a double. A DomainError also names the first point
    whose value overflows; no floating-point warning is issued, whatever
    the caller's np.errstate.

    The points are evaluated in blocks of about _POINT_BLOCK mesh entries.
    When there are at least two blocks, helper threads (one per further
    core available to the process) are started for the call and take blocks
    alongside the calling thread; all of them are joined before the call
    returns, and the result is bit-identical to a single-threaded evaluation.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise DomainError(f"x must be a scalar or a 1-D array, got shape {xs.shape}")
    pts = np.atleast_1d(xs)
    outside = ~((pts >= 1.0) & (pts <= params.T * (1.0 + 1e-12)))
    if outside.any():
        raise DomainError(f"x must lie in [1, {params.T}], got {pts[np.argmax(outside)]}")
    if abs(phi.nodes[-1] - params.T) > 1e-12 * max(1.0, params.T):
        raise DomainError(
            f"phi is defined on [1, {phi.nodes[-1]}], expected [1, {params.T}]"
        )
    if panels < 1:
        raise DomainError(f"panels must be >= 1, got {panels}")
    if gamma_k_value is not None:
        require_positive_finite("gamma_k_value", gamma_k_value)
    a = params.exponent
    # scalar powers, as for a single x: NumPy's vectorised power may round differently
    X = np.array([p**params.rho for p in pts.tolist()])
    # each point's s-mesh is origin + (X - 1) * unit; the unit mesh's weights
    # are taken at the limit `end`, the unit point whose image is X
    if mesh == "uniform":
        unit = np.linspace(0.0, 1.0, panels + 1)
        origin, end = np.ones_like(X), 1.0
    elif mesh == "graded":
        # clustered toward the singular end: unit is minus the distance to it
        unit = -np.linspace(1.0, 0.0, panels + 1) ** _GRADING_POWER
        origin, end = X, 0.0
    else:
        raise DomainError(f"mesh must be 'uniform' or 'graded', got {mesh!r}")
    w = panel_weights(end, unit, a)
    gk = gamma_k_value if gamma_k_value is not None else k_gamma(params.k, params.gamma_ord).value
    with np.errstate(all="ignore"):
        scale = params.rho ** (-a) / (params.k * gk) * (X - 1.0) ** a
    overflow = ~np.isfinite(scale)
    if overflow.any():
        bad = int(np.argmax(overflow))
        raise DomainError(
            f"the prefactor rho^(-a) (X - 1)^(gamma_ord/k) / (k Gamma_k) with X = x^rho "
            f"overflows a double at x = {pts[bad]} ((X - 1)^(gamma_ord/k) = ({X[bad] - 1.0})^{a})"
        )
    out = np.empty(pts.shape)
    step = max(1, _POINT_BLOCK // unit.size)

    def block(i: int, buf: np.ndarray) -> np.ndarray:
        Xb = X[i : i + step]
        s = buf[: Xb.size]
        np.multiply((Xb - 1.0)[:, None], unit, out=s)
        s += origin[i : i + step, None]
        s **= 1.0 / params.rho
        v = phi(s)
        v *= w
        # a row sum, not a matrix-vector product: each point's value does
        # not depend on the other points in its block or on its thread
        return np.add.reduce(v, axis=1)

    _run_blocks(range(0, pts.size, step), block, (min(step, pts.size), unit.size), out)
    with np.errstate(all="ignore"):
        out *= scale
    out[pts == 1.0] = 0.0
    overflow = ~np.isfinite(out)
    if overflow.any():
        bad = int(np.argmax(overflow))
        raise DomainError(
            f"the integral overflows a double at x = {pts[bad]} (the prefactor "
            f"{scale[bad]} times the weighted sum of phi over the point's s-mesh)"
        )
    return float(out[0]) if xs.ndim == 0 else out


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
