"""Picard iteration for the fixed point of the integral operator.

Iterates alpha_{p+1} = op(alpha_p) on a fixed grid until the sup-norm step
drops to tol or the iteration budget runs out, then spends one extra
operator application on the residual. The residual decides convergence;
the step size only stops the loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .equations import EquationSpec, apply_operator
from .errors import DomainError, require_positive_finite
from .fractional import GridFunction

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
class SolveReport:
    """Iteration trace and the computed fixed-point candidate.

    sup_distances[p] is the step size of iteration p+1; sup_norms holds the
    norm of every iterate starting with the seed (ball-invariance
    diagnostic); measured_rate is the worst ratio of successive steps with
    the first transient ratio excluded.
    """

    iterations: int
    sup_distances: np.ndarray
    residual: float
    measured_rate: float
    solution: GridFunction
    converged: bool
    sup_norms: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sup_distances", np.asarray(self.sup_distances, dtype=float))
        object.__setattr__(self, "sup_norms", np.asarray(self.sup_norms, dtype=float))
        if not self.measured_rate >= 0.0:
            raise DomainError("measured_rate must be >= 0")


def _measured_rate(distances: list[float]) -> float:
    rate = 0.0
    # skip the first ratio: the initial step reflects the seed, not the map
    for prev, cur in zip(distances[1:], distances[2:]):
        if prev > 0.0:
            rate = max(rate, cur / prev)
    return rate


def solve(
    eq: EquationSpec,
    alpha0: GridFunction,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    r0: float | None = None,
) -> SolveReport:
    """Run Picard iteration from alpha0.

    When a certified radius r0 is supplied and the seed lies outside the
    ball, a warning is issued (the certificate's self-map and Darbo-factor
    bounds hold on that ball only) but the iteration still runs. The
    certificate bounds the Darbo factor, not the Lipschitz constant, so it
    does not by itself guarantee that the iteration contracts.
    """
    require_positive_finite("tol", tol)
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    if r0 is not None and alpha0.sup_norm > r0:
        warnings.warn(
            f"seed norm {alpha0.sup_norm:.6g} exceeds the certified radius {r0:.6g}",
            stacklevel=2,
        )
    cur = alpha0
    distances: list[float] = []
    norms = [alpha0.sup_norm]
    for _ in range(max_iter):
        nxt = apply_operator(eq, cur)
        step = float(np.max(np.abs(nxt.values - cur.values)))
        distances.append(step)
        norms.append(nxt.sup_norm)
        cur = nxt
        if step <= tol:
            break
    extra = apply_operator(eq, cur)
    residual = float(np.max(np.abs(extra.values - cur.values)))
    return SolveReport(
        iterations=len(distances),
        sup_distances=np.array(distances),
        residual=residual,
        measured_rate=_measured_rate(distances),
        solution=cur,
        converged=residual <= tol,
        sup_norms=np.array(norms),
    )

