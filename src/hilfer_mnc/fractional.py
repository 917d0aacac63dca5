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
points, and a point next to x = 1 keeps a mesh of distinct nodes. Each block
of points samples phi at t = s^(1/rho), raised as s*s*sqrt(s) when 1/rho is
2.5 and by np.power otherwise.

The point rule evaluates its points in blocks, through _run_blocks, the
one place in the package that starts threads. A call with at least two
blocks starts helper threads for the call, one per further core available
to the process (at most one per further block), shares the blocks between
them and the calling thread, and joins them before it returns. Each block
writes its own rows of the result, and each point's value is its own row
sum, so the result is bit for bit the same for any number of threads.
Only NumPy kernels and phi run in the helpers; the functions a tracer may
wrap (panel_weights, k_gamma) run on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

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


def _run_blocks(starts: range, block, shape: tuple[int, ...]) -> None:
    """Call block(start, buf) for every start; each call writes its own part of the caller's output.

    This thread and min(_helper_count(), len(starts) - 1) helper threads,
    started for this call, claim the starts one at a time under a lock. Each
    thread reuses one scratch buffer buf of the given shape and runs under
    its own np.errstate(all="ignore"). Blocks must write disjoint parts of
    the output (each of the point rule's blocks its own rows), so the output
    does not depend on which thread ran which block. After an exception in
    any thread no thread claims another block. Every helper is joined
    before the call returns or raises the first exception.
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
                    block(start, buf)
        except BaseException as exc:
            with lock:
                errors.append(exc)

    helpers = [
        threading.Thread(target=work, name="hilfer-blocks")
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
    """Order parameters (k, rho, gamma_ord), right endpoint T of [1, T], and the Gamma_k they use.

    gamma_k_override substitutes a fixed constant for Gamma_k(gamma_ord)
    wherever these parameters are read: the operator and point-rule
    prefactor, the certificates and the closed form. Otherwise gamma_k
    computes Gamma_k on first use and keeps it; a failed computation is
    not kept and raises again on the next use.
    """

    k: float
    rho: float
    gamma_ord: float
    T: float
    gamma_k_override: float | None = None

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
        if self.gamma_k_override is not None:
            require_positive_finite("gamma_k_override", self.gamma_k_override)

    @property
    def exponent(self) -> float:
        """Kernel exponent a = gamma_ord / k."""
        return self.gamma_ord / self.k

    @cached_property
    def gamma_k(self) -> float:
        """Gamma_k(gamma_ord), or gamma_k_override when it is set."""
        if self.gamma_k_override is not None:
            return self.gamma_k_override
        return k_gamma(self.k, self.gamma_ord).value

    @property
    def prefactor(self) -> float:
        """The kernel constant rho^(-a) / (k Gamma_k) of the integral in s = t^rho."""
        return self.rho ** (-self.exponent) / (self.k * self.gamma_k)


def check_nodes(nodes: np.ndarray) -> None:
    """Raise DomainError unless the 1-D float nodes are at least two, start at 1 and increase strictly."""
    if nodes.shape[0] < 2:
        raise DomainError("a grid function needs at least two nodes")
    if nodes[0] != 1.0:
        raise DomainError(f"domain must start at 1, got {nodes[0]}")
    if not np.all(np.diff(nodes) > 0.0):
        raise DomainError("nodes must be strictly increasing")


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
    check_nodes(nodes)
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
    """Panel differences of (X - s)_+^(a+1) along the mesh, one column per limit.

    d[..., j, r] = (X[..., r] - s[..., j+1])_+^(a+1) - (X[..., r] - s[..., j])_+^(a+1)
    for limits X of shape (..., rows) and meshes s of shape (..., cols)
    whose leading axes broadcast: with 1-D X and s, one matrix; with one row
    of X and s per leading index, a stack of independent blocks, each
    computed entry by entry as it would be on its own. w, of shape
    (..., cols, rows), is scratch and is left holding the powers; d, of
    shape (..., cols - 1, rows), is filled and returned: the layout the
    large-grid near band stores. Every column of d vanishes from the first
    panel that starts at or beyond its limit.
    """
    np.subtract(X[..., None, :], s[..., :, None], out=w)
    np.maximum(w, 0.0, out=w)
    # the SIMD pow falls back to a slow path on zero lanes, and 0^(a+1) is 0
    np.power(w, a + 1.0, out=w, where=w > 0.0)
    np.subtract(w[..., 1:, :], w[..., :-1, :], out=d)
    return d


def panel_weights(X: float, s: np.ndarray, a: float, work: np.ndarray | None = None) -> np.ndarray:
    """Weights C of the product rule on the differenced integrand, summed by parts.

    With p the piecewise-linear interpolant of its values at the mesh s,
    a (a+1) int_{s[0]}^X (X - s)^(a-1) p(s) ds = C @ [p_0, p_0 - p_1, p_1 - p_2, ...].
    C[0] = (a+1) (X - s[0])_+^a, and C[j + 1] is the slope of (X - s)_+^(a+1)
    over panel j, power_differences over the panel width: 0 from the first
    panel that starts at or beyond X. The slopes meet integrand differences,
    which are small where the panels are, so nothing cancels on graded
    meshes. work, when given, is a float64 buffer of at least 2 * len(s)
    elements; the result is then a view into it.
    """
    cols = s.shape[0]
    if work is None:
        work = np.empty(2 * cols)
    limit, c = np.array([X], dtype=float), work[cols : 2 * cols]
    power_differences(limit, s, a, work[:cols].reshape(cols, 1), c[1:].reshape(cols - 1, 1))
    c[1:] /= np.diff(s)
    c[:1] = (a + 1.0) * np.maximum(limit - s[0], 0.0) ** a
    return c


def _node_weights(X: float, s: np.ndarray, a: float) -> np.ndarray:
    """Node weights W of the point rule: int_{s[0]}^X (X - s)^(a-1) p(s) ds = W @ p(s).

    Each is the difference of its panels' slopes in panel_weights (the first
    node's plus the boundary term) over a (a+1), clamped at 0. On the point
    rule's meshes, uniform or graded as u^2, the slopes do not cancel.
    """
    c = panel_weights(X, s, a)
    w = np.empty_like(c)
    np.add(c[:1], c[1:2], out=w[:1])
    np.subtract(c[2:], c[1:-1], out=w[1:-1])
    np.negative(c[-1:], out=w[-1:])
    w /= a * (a + 1.0)
    np.maximum(w, 0.0, out=w)
    return w


def product_quadrature(
    params: FracParams,
    phi: GridFunction,
    x: float | np.ndarray,
    panels: int = DEFAULT_PANELS,
    mesh: str = "uniform",
) -> float | np.ndarray:
    """Product-integration value of the fractional integral at a point or at each of many.

    x is a scalar (returns a float) or a 1-D array of points (returns an
    array of the same length; each entry equals the scalar call's value bit
    for bit). phi is interpolated onto a mesh in s = t^rho, uniform by
    default or graded toward the singular end on request, and each panel
    integrates the linear interpolant exactly. Every point's s-mesh is the
    affine image 1 + (X - 1) sigma of one unit mesh sigma, so its weights are
    (X - 1)^a times the unit mesh's: those are computed once per call. The
    prefactor is params.prefactor, so params.gamma_k_override replaces
    Gamma_k(gamma_ord) in it. The value at x = 1 is exactly 0.
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
    When 1/rho is 2.5 (rho = 0.4) a block's mesh power is s*s*sqrt(s): two
    products and a correctly rounded square root, so within three roundings
    (Higham, Accuracy and Stability of Numerical Algorithms, SIAM 2002, 3.1).
    It took 94 against 160 us for np.power on a block of 15 x 4097 entries.
    Any other exponent goes through np.power.
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
    w = _node_weights(end, unit, a)
    with np.errstate(all="ignore"):
        scale = params.prefactor * (X - 1.0) ** a
    overflow = ~np.isfinite(scale)
    if overflow.any():
        bad = int(np.argmax(overflow))
        raise DomainError(
            f"the prefactor rho^(-a) (X - 1)^(gamma_ord/k) / (k Gamma_k) with X = x^rho "
            f"overflows a double at x = {pts[bad]} ((X - 1)^(gamma_ord/k) = ({X[bad] - 1.0})^{a})"
        )
    out = np.empty(pts.shape)
    step = max(1, _POINT_BLOCK // unit.size)
    inverse = 1.0 / params.rho

    def block(i: int, buf: np.ndarray) -> None:
        Xb = X[i : i + step]
        s = buf[: Xb.size]
        np.multiply((Xb - 1.0)[:, None], unit, out=s)
        s += origin[i : i + step, None]
        # map the mesh back to t = s^(1/rho)
        if inverse == 2.5:
            root = np.sqrt(s)
            s *= s
            s *= root
            # freed before phi allocates its values, so a block holds one temporary at a time
            del root
        else:
            s **= inverse
        v = phi(s)
        v *= w
        # a row sum, not a matrix-vector product: each point's value does
        # not depend on the other points in its block or on its thread
        np.add.reduce(v, axis=1, out=out[i : i + step])

    _run_blocks(range(0, pts.size, step), block, (min(step, pts.size), unit.size))
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


def closed_form_constant(params: FracParams, x: float) -> float:
    """Exact integral of phi == 1: rho^(-a) (x^rho - 1)^a / (gamma_ord * Gamma_k(gamma_ord))."""
    if not 1.0 <= x <= params.T * (1.0 + 1e-12):
        raise DomainError(f"x must lie in [1, {params.T}], got {x}")
    a = params.exponent
    return params.rho ** (-a) * (x**params.rho - 1.0) ** a / (params.gamma_ord * params.gamma_k)


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
