"""Integral-equation model: nonlinearities, equations, and the operator.

The operator sends alpha to F(x, alpha(x)) + Psi(x, alpha(x)) * I(x) where
I is the fractional integral of the integrand G(t, alpha(t)). Everything is
sampled on alpha's own node set, so repeated application (Picard, Darbo) is
a map on a fixed finite-dimensional space.

The per-node integrals use the product-integration rule on the
grid-induced mesh s = nodes**rho. For moderate grids its node weights form a
lower-triangular matrix that is cached and applied as a matmul. Large grids
never form it: summation by parts writes the rule with the first divided
differences of (X - s)_+^(a+1) (fractional.power_slopes) against the
differences of the integrand, entries near the diagonal are evaluated
exactly, and each far block is interpolated in X at Chebyshev points of its
row cluster, so one application costs O(n log n) time and O(n) memory on any
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .expressions import Expr, evaluate, parse
from .fractional import FracParams, GridFunction, panel_weights, power_slopes
from .special_functions import k_gamma

_MATRIX_MAX_NODES = 2049
# above it: rows per leaf block of the exact near field, and Chebyshev
# points per row cluster of the far field
_LEAF_ROWS = 64
_CHEB_POINTS = 20


@dataclass(frozen=True)
class Nonlinearity:
    """An expression in (x, a) with its declared Lipschitz-in-a constant."""

    expr: Expr
    lipschitz: float
    zero_at_zero: bool

    def __post_init__(self) -> None:
        if not self.lipschitz >= 0.0:
            raise DomainError(f"lipschitz must be >= 0, got {self.lipschitz}")

    @classmethod
    def from_string(cls, src: str, lipschitz: float, zero_at_zero: bool) -> "Nonlinearity":
        return cls(expr=parse(src), lipschitz=lipschitz, zero_at_zero=zero_at_zero)


@dataclass(frozen=True)
class EquationSpec:
    """One equation: additive term f, multiplier psi, integrand g.

    gamma_k_override substitutes a fixed constant for Gamma_k(gamma_ord)
    everywhere this equation's operator and certificates use it.
    """

    params: FracParams
    f: Nonlinearity
    psi: Nonlinearity
    g: Nonlinearity
    gamma_k_override: float | None = None

    def __post_init__(self) -> None:
        if self.gamma_k_override is not None and not self.gamma_k_override > 0.0:
            raise DomainError(f"gamma_k_override must be positive, got {self.gamma_k_override}")

    def gamma_k_value(self) -> float:
        if self.gamma_k_override is not None:
            return self.gamma_k_override
        return k_gamma(self.params.k, self.params.gamma_ord).value


@dataclass(frozen=True)
class SystemSpec:
    """Two uncoupled equations sharing one set of order parameters."""

    eq_alpha: EquationSpec
    eq_beta: EquationSpec

    def __post_init__(self) -> None:
        if self.eq_alpha.params != self.eq_beta.params:
            raise DomainError("both equations must share identical FracParams")


@lru_cache(maxsize=4)
def _weight_matrix(rho: float, a: float, nodes_bytes: bytes, n: int) -> np.ndarray:
    """Lower-triangular node-weight matrix W with I = prefactor * (W @ g).

    Row j carries the weights of the product rule for upper limit
    X = nodes[j]**rho over the grid-induced s-mesh; row 0 is zero.
    """
    nodes = np.frombuffer(nodes_bytes, dtype=float)
    s = nodes**rho
    w = np.zeros((n, n))
    work = np.empty(2 * n)
    for j in range(1, n):
        w[j, : j + 1] = panel_weights(s[j], s[: j + 1], a, work)
    return w


def _interpolation_matrix(lo: float, hi: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev points on [lo, hi] and the matrix that interpolates from them to x.

    The points are those of the first kind, _CHEB_POINTS of them. Row i of
    the matrix holds the barycentric weights for x[i]; a point of x that
    coincides with a Chebyshev point gets the unit row.
    """
    p = _CHEB_POINTS
    half = 0.5 * (hi - lo)
    points = (lo + half) + half * np.cos((np.arange(p) + 0.5) * (np.pi / p))
    # weights of the rounded points themselves: the textbook Chebyshev
    # weights are off by the points' rounding, which is large next to a
    # narrow cluster's width
    gaps = (points[:, None] - points) / half
    np.fill_diagonal(gaps, 1.0)
    weights = 1.0 / gaps.prod(axis=1)
    diff = x[:, None] - points
    hit = diff == 0.0
    diff[hit] = 1.0
    lag = weights / diff
    lag /= lag.sum(axis=1, keepdims=True)
    exact = hit.any(axis=1)
    lag[exact] = hit[exact]
    return points, lag


def _slope_sums(s: np.ndarray, a: float, dg: np.ndarray) -> np.ndarray:
    """Row sums sum_j d_j(s[i]) * dg[:, j] at every node i, in O(n log n).

    d_j(X) is the power slope of panel j (fractional.power_slopes) and dg
    has shape (m, n - 1). Row blocks of _LEAF_ROWS take their columns from
    the previous leaf up to the diagonal exactly. The rest is split along
    the dyadic interaction lists: at cluster size B, row cluster k gets the
    columns [(k-2)B, (k-1)B) when k is even and [(k-3)B, (k-1)B) when k is
    odd. Such a block is smooth in X, so it is evaluated at the Chebyshev
    points of the cluster's X range and interpolated to its rows. A cluster
    with no more rows than points, or one that is closer in s to its columns
    than it is wide, is evaluated exactly.
    """
    n = s.shape[0]
    out = np.zeros((dg.shape[0], n))
    # one workspace for every block: it holds any Chebyshev block, and
    # exact blocks are evaluated in row chunks that fit it
    cap = _CHEB_POINTS * (n + 1)
    w_buf = np.empty(cap)
    d_buf = np.empty(cap)

    def slopes(limits: np.ndarray, c0: int, c1: int) -> np.ndarray:
        rows, cols = limits.shape[0], c1 - c0 + 1
        w = w_buf[: rows * cols].reshape(rows, cols)
        d = d_buf[: rows * (cols - 1)].reshape(rows, cols - 1)
        return power_slopes(limits, s[c0 : c1 + 1], a, w, d)

    def exact(r0: int, r1: int, c0: int, c1: int) -> None:
        step = max(1, cap // (c1 - c0 + 1))
        for i0 in range(r0, r1, step):
            i1 = min(i0 + step, r1)
            out[:, i0:i1] += dg[:, c0:c1] @ slopes(s[i0:i1], c0, c1).T

    for r0 in range(0, n, _LEAF_ROWS):
        r1 = min(r0 + _LEAF_ROWS, n)
        exact(r0, r1, max(r0 - _LEAF_ROWS, 0), r1 - 1)
    size = _LEAF_ROWS
    while 2 * size < n:
        for k in range(2, -(-n // size)):
            r0, r1 = k * size, min((k + 1) * size, n)
            c1 = (k - 1) * size
            c0 = c1 - size * (1 + k % 2)
            if r1 - r0 <= _CHEB_POINTS or s[r0] - s[c1] < s[r1 - 1] - s[r0]:
                exact(r0, r1, c0, c1)
                continue
            points, lag = _interpolation_matrix(s[r0], s[r1 - 1], s[r0:r1])
            out[:, r0:r1] += (dg[:, c0:c1] @ slopes(points, c0, c1).T) @ lag.T
        size *= 2
    return out


def _integral_values(params: FracParams, nodes: np.ndarray, g: np.ndarray, gk: float) -> np.ndarray:
    """Fractional integral of the grid integrand g at every node, batched.

    g has shape (m, n): m integrands sampled on the same n nodes. Returns
    the (m, n) matrix of integral values. Above _MATRIX_MAX_NODES the rule
    is summed by parts in its exact form

        a (a+1) I(X) = (a+1) (X - s_0)^a g_0 - sum_j d_j(X) (g_{j+1} - g_j),

    with d_j(X) the power slopes, through _slope_sums.
    """
    n = nodes.shape[0]
    a = params.exponent
    pref = params.rho ** (-a) / (params.k * gk)
    if n <= _MATRIX_MAX_NODES:
        w = _weight_matrix(params.rho, a, nodes.tobytes(), n)
        return pref * (g @ w.T)
    s = nodes**params.rho
    total = _slope_sums(s, a, g[:, :-1] - g[:, 1:])
    total += (a + 1.0) * (s - s[0]) ** a * g[:, :1]
    return (pref / (a * (a + 1.0))) * total


def _as_grid(expr: Expr, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = evaluate(expr, nodes, values)
    return np.broadcast_to(np.asarray(out, dtype=float), values.shape).copy()


def apply_operator_batch(eq: EquationSpec, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Operator images of many grid functions at once.

    values has shape (m, n), one row per function on the shared nodes. An
    image that overflows raises DomainError.
    """
    if abs(nodes[-1] - eq.params.T) > 1e-12 * max(1.0, eq.params.T):
        raise DomainError(
            f"grid ends at {nodes[-1]}, equation domain is [1, {eq.params.T}]"
        )
    xs = np.broadcast_to(nodes, values.shape)
    f_vals = _as_grid(eq.f.expr, xs, values)
    psi_vals = _as_grid(eq.psi.expr, xs, values)
    g_vals = _as_grid(eq.g.expr, xs, values)
    with np.errstate(over="ignore", invalid="ignore"):
        i_vals = _integral_values(eq.params, nodes, g_vals, eq.gamma_k_value())
        out = f_vals + psi_vals * i_vals
    if not np.all(np.isfinite(out)):
        raise DomainError("operator image is not finite")
    return out


def apply_operator(eq: EquationSpec, alpha: GridFunction) -> GridFunction:
    """One application of the operator, sampled on alpha's node set."""
    out = apply_operator_batch(eq, alpha.nodes, alpha.values[None, :])
    return GridFunction(nodes=alpha.nodes, values=out[0])


def _safe_quotients(df: np.ndarray, du: np.ndarray, fmax: np.ndarray) -> np.ndarray:
    """Difference quotients with the evaluation rounding deducted.

    Each numerator carries up to a few ulps of absolute noise from
    evaluating the expression; subtracting 8 eps * max(|f|) before dividing
    keeps every quotient at or below its exact-arithmetic value, so the
    running max is a true lower bound on the Lipschitz constant.
    """
    allow = 8.0 * np.finfo(float).eps * fmax
    return np.maximum(np.abs(df) - allow, 0.0) / du


def estimate_lipschitz(n: Nonlinearity, r0: float, probes: int, t_end: float = 3.0) -> float:
    """Empirical Lipschitz-in-a constant on x in [1, t_end], u, v in [-r0, r0].

    probes is the total sample budget, split evenly between the x and u
    axes. The estimate is the max difference quotient over adjacent pairs
    of the u grid plus a fixed seeded batch of random pairs; it lower-bounds
    the true constant and approaches it as the budget grows.
    """
    if not r0 > 0.0:
        raise DomainError(f"r0 must be positive, got {r0}")
    if probes < 2:
        raise DomainError(f"probes must be >= 2, got {probes}")
    nx = max(2, int(round(math.sqrt(probes))))
    nu = max(3, probes // nx)
    xs = np.linspace(1.0, t_end, nx)
    us = np.linspace(-r0, r0, nu)
    grid = np.asarray(evaluate(n.expr, xs[:, None], us[None, :]), dtype=float)
    grid = np.broadcast_to(grid, (nx, nu))
    fmax = np.maximum(np.abs(grid[:, :-1]), np.abs(grid[:, 1:]))
    best = float(np.max(_safe_quotients(np.diff(grid, axis=1), np.diff(us), fmax)))
    rng = np.random.default_rng(1905)
    pairs = min(4 * nu, 4096)
    u = rng.uniform(-r0, r0, size=pairs)
    v = rng.uniform(-r0, r0, size=pairs)
    keep = np.abs(u - v) > 1e-9 * r0
    u, v = u[keep], v[keep]
    if u.size:
        fu = np.asarray(evaluate(n.expr, xs[:, None], u[None, :]), dtype=float)
        fv = np.asarray(evaluate(n.expr, xs[:, None], v[None, :]), dtype=float)
        fu = np.broadcast_to(fu, (nx, u.size))
        fv = np.broadcast_to(fv, (nx, u.size))
        fmax = np.maximum(np.abs(fu), np.abs(fv))
        quot = _safe_quotients(fu - fv, np.abs(u - v), fmax)
        best = max(best, float(np.max(quot)))
    # one more ulp guard for the division itself
    return best * (1.0 - 1e-14)


def check_zero_conditions(eq: EquationSpec, probes: int) -> bool:
    """True iff f, psi, and g all vanish at a = 0 on every probe x."""
    if probes < 2:
        raise DomainError(f"probes must be >= 2, got {probes}")
    xs = np.linspace(1.0, eq.params.T, probes)
    zero = np.zeros_like(xs)
    for n in (eq.f, eq.psi, eq.g):
        vals = np.asarray(evaluate(n.expr, xs, zero), dtype=float)
        if np.any(np.abs(vals) > 1e-12):
            return False
    return True
