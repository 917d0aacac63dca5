"""k-gamma evaluation.

Two independent routes to the k-gamma function: the identity
``Gamma_k(z) = k**(z/k - 1) * Gamma(z/k)`` (primary, log-space) and direct
quadrature of the defining integral ``Gamma_k(z) = int_0^inf t**(z-1) *
exp(-t**k / k) dt`` (oracle). Keeping both lets callers cross-check any
suspicious constant instead of trusting a single path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NonconvergenceError, require_positive_finite

_EVAL_BUDGET = 400_000
# logs of the smallest positive normal double and of the largest double
_LOG_MIN_NORMAL = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class KGammaResult:
    """A k-gamma value together with the method that produced it."""

    value: float
    method: str  # "identity" | "integral"
    estimated_abs_error: float

    if __debug__:

        def __post_init__(self) -> None:
            if self.method not in ("identity", "integral"):
                raise ValueError(f"unknown method: {self.method!r}")
            if self.estimated_abs_error < 0:
                raise ValueError("estimated_abs_error must be >= 0")


def _log_k_gamma(k: float, z: float) -> float:
    """log Gamma_k(z) by the identity, in log space.

    Raises DomainError unless k lies in (0, 1], z is positive and finite,
    and Gamma_k(z) is a positive normal double: an overflowing value, or one
    that underflows to a subnormal or zero, would turn every prefactor
    1 / Gamma_k(z) into inf or a division by zero.
    """
    if not 0 < k <= 1:
        raise DomainError(f"k must lie in (0, 1], got {k}")
    require_positive_finite("z", z)
    w = z / k
    try:
        log_value = (w - 1.0) * math.log(k) + math.lgamma(w)
    except OverflowError:  # lgamma of a w near the largest double
        log_value = math.inf
    if not _LOG_MIN_NORMAL <= log_value <= _LOG_MAX:  # NaN fails too
        raise DomainError(
            f"Gamma_k(z) for k = {k}, z = {z} lies outside the normal double range "
            f"(log Gamma_k = {log_value:.6g})"
        )
    return log_value


def k_gamma(k: float, z: float) -> KGammaResult:
    """Gamma_k(z) via the identity k**(z/k - 1) * Gamma(z/k).

    Evaluated in log space so large z/k does not overflow the intermediate
    Gamma(z/k). Raises DomainError when Gamma_k(z) itself is not a positive
    normal double.
    """
    log_value = _log_k_gamma(k, z)
    w = z / k
    value = math.exp(log_value)
    # lgamma carries ~1e-16 relative error; exp amplifies it by the log scale
    err = abs(value) * 1e-14 * max(1.0, abs((w - 1.0) * math.log(k)) + abs(math.lgamma(w)))
    return KGammaResult(value=value, method="identity", estimated_abs_error=err)


def _adaptive_simpson(f, a: float, b: float, tol: float, budget: list[int]) -> tuple[float, float]:
    """Adaptive Simpson on [a, b]; returns (value, error_estimate).

    The |S2 - S1|/15 acceptance test is the usual Richardson-style estimate.
    budget is a single-element eval counter shared across segments.
    """

    def evals(n: int) -> None:
        budget[0] -= n
        if budget[0] < 0:
            raise NonconvergenceError("quadrature evaluation budget exhausted")

    evals(3)
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    stack = [(a, m, b, fa, fm, fb, whole, tol)]
    total = 0.0
    err = 0.0
    while stack:
        a0, m0, b0, fa0, fm0, fb0, s0, t0 = stack.pop()
        evals(2)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        sl = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        sr = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
        delta = sl + sr - s0
        if abs(delta) <= 15.0 * t0 or (b0 - a0) < 1e-15 * max(abs(a0), abs(b0), 1.0):
            total += sl + sr + delta / 15.0
            err += abs(delta) / 15.0
        else:
            stack.append((a0, lm, m0, fa0, flm, fm0, sl, 0.5 * t0))
            stack.append((m0, rm, b0, fm0, frm, fb0, sr, 0.5 * t0))
    return total, err


def k_gamma_integral(k: float, z: float, tol: float = 1e-8) -> KGammaResult:
    """Gamma_k(z) by quadrature of the defining integral (independent oracle).

    Split at t = 1. On [0, 1] the substitution v = t**z removes the t**(z-1)
    endpoint singularity exactly. On [1, inf) the substitution u = t**k / k
    turns the integrand into (k*u)**(z/k - 1) * exp(-u), which is truncated
    once it drops below tol * 1e-3.

    Raises DomainError when Gamma_k(z) is not a positive normal double;
    that range test reads the identity's log value, not the quadrature.
    """
    _log_k_gamma(k, z)
    require_positive_finite("tol", tol)
    budget = [_EVAL_BUDGET]
    w = z / k

    def head(v: float) -> float:
        if v <= 0.0:
            return 1.0 / z
        return math.exp(-(v ** (k / z)) / k) / z

    def tail(u: float) -> float:
        return math.exp((w - 1.0) * math.log(k * u) - u)

    cutoff = tol * 1e-3
    upper = max(2.0 / k, 2.0 * abs(w - 1.0), 10.0)
    doublings = 0
    while tail(upper) > cutoff:
        upper *= 2.0
        doublings += 1
        if doublings > 200:
            raise NonconvergenceError("tail truncation point not found")

    head_val, head_err = _adaptive_simpson(head, 0.0, 1.0, 0.25 * tol, budget)
    tail_val, tail_err = _adaptive_simpson(tail, 1.0 / k, upper, 0.25 * tol, budget)
    # the remaining tail decays at least like exp(-u/2) past `upper`
    trunc = 2.0 * tail(upper)
    value = head_val + tail_val
    return KGammaResult(
        value=value,
        method="integral",
        estimated_abs_error=head_err + tail_err + trunc,
    )
