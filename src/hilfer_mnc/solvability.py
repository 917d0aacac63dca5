"""Darbo-factor and self-map certificates for one equation.

The key coefficient is

    kappa = c2 * c3 * rho^(-a) * (T^rho - 1)^a / (gamma_ord * Gamma_k(gamma_ord)),

with c1, c2, c3 the declared Lipschitz constants of f, psi, g and
a = gamma_ord/k. On the ball of radius r0, c1 + kappa * r0 bounds the Darbo
factor: the factor by which the operator shrinks the measure of
noncompactness (the modulus of continuity). It is not a Lipschitz constant,
which has a second kappa * r0 term, so c1 + kappa * r0 < 1 does not make
the operator a contraction. The operator maps the ball into itself when
r0 <= (1 - c1)/kappa. r0_max_contraction and contraction_factor keep their
names until ROADMAP item 1 adds a separate Lipschitz factor.

Two reproduction knobs exist so reference arithmetic can be replayed
without touching the actual numerics: gamma_k_override replaces
Gamma_k(gamma_ord) and kernel_factor_override replaces (T^rho - 1)^a,
both in the certificate only. Every certificate records what was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equations import EquationSpec, estimate_lipschitz
from .errors import DomainError, require_nonnegative_finite, require_positive_finite
from .special_functions import k_gamma

DEFAULT_SLACK = 1e-9
DEFAULT_PROBES = 101
_LIPSCHITZ_TOL = 1e-9


@dataclass(frozen=True)
class RadiusCertificate:
    """Darbo-factor/self-map analysis of one equation at declared constants."""

    kappa: float
    c1: float
    r0_max_contraction: float
    r0_selfmap_interval: tuple[float, float] | None  # None = empty
    gamma_k_used: float
    gamma_k_overridden: bool
    kernel_factor_used: float
    kernel_factor_overridden: bool

    @property
    def passes(self) -> bool:
        return self.r0_max_contraction > 0.0 and self.r0_selfmap_interval is not None

    def factor_at(self, r0: float) -> float:
        require_nonnegative_finite("r0", r0)
        return self.c1 + self.kappa * r0

    def admits(self, r0: float, slack: float = DEFAULT_SLACK) -> bool:
        """True when radius r0 certifies: Darbo factor strictly below 1, self-map holds."""
        if r0 <= 0.0 or self.r0_selfmap_interval is None:
            return False
        return self.factor_at(r0) < 1.0 - slack and r0 <= self.r0_selfmap_interval[1]

    def boundary(self, r0: float, slack: float = DEFAULT_SLACK) -> bool:
        """True when factor_at(r0) sits inside the strictness slack band."""
        return 1.0 - slack <= self.factor_at(r0) < 1.0


def _resolve_gamma_k(eq: EquationSpec, gamma_k_override: float | None) -> tuple[float, bool]:
    if gamma_k_override is not None:
        require_positive_finite("gamma_k_override", gamma_k_override)
        return gamma_k_override, True
    if eq.gamma_k_override is not None:
        return eq.gamma_k_override, True
    return k_gamma(eq.params.k, eq.params.gamma_ord).value, False


def _resolve_kernel(eq: EquationSpec, kernel_factor_override: float | None) -> tuple[float, bool]:
    p = eq.params
    if kernel_factor_override is not None:
        require_positive_finite("kernel_factor_override", kernel_factor_override)
        return kernel_factor_override, True
    return (p.T**p.rho - 1.0) ** p.exponent, False


def contraction_factor(
    eq: EquationSpec,
    r0: float,
    gamma_k_override: float | None = None,
    kernel_factor_override: float | None = None,
) -> float:
    """c1 + kappa * r0 at radius r0.

    gamma_k_override falls back to the equation's own stored override.
    """
    require_nonnegative_finite("r0", r0)
    gk, _ = _resolve_gamma_k(eq, gamma_k_override)
    kern, _ = _resolve_kernel(eq, kernel_factor_override)
    p = eq.params
    kappa = (
        eq.psi.lipschitz
        * eq.g.lipschitz
        * p.rho ** (-p.exponent)
        * kern
        / (p.gamma_ord * gk)
    )
    return eq.f.lipschitz + kappa * r0


def certify(
    eq: EquationSpec,
    gamma_k_override: float | None = None,
    kernel_factor_override: float | None = None,
    probes: int = DEFAULT_PROBES,
) -> RadiusCertificate:
    """Full radius certificate, after validating the declared constants.

    Each declared Lipschitz constant is checked against an empirical
    estimate on x in [1, T], |a| <= 1; a dishonest declaration raises.
    """
    for name, n in (("f", eq.f), ("psi", eq.psi), ("g", eq.g)):
        est = estimate_lipschitz(n, r0=1.0, probes=probes, t_end=eq.params.T)
        if est > n.lipschitz + _LIPSCHITZ_TOL:
            raise DomainError(
                f"declared lipschitz constant for {name} is {n.lipschitz}, "
                f"but sampling finds {est:.6g}"
            )
    gk, gk_over = _resolve_gamma_k(eq, gamma_k_override)
    kern, kern_over = _resolve_kernel(eq, kernel_factor_override)
    p = eq.params
    c1 = eq.f.lipschitz
    kappa = eq.psi.lipschitz * eq.g.lipschitz * p.rho ** (-p.exponent) * kern / (p.gamma_ord * gk)
    if c1 >= 1.0:
        r0_max = 0.0
        selfmap = None
    elif kappa == 0.0:
        r0_max = math.inf
        selfmap = (0.0, math.inf)
    else:
        r0_max = (1.0 - c1) / kappa
        selfmap = (0.0, r0_max)
    return RadiusCertificate(
        kappa=kappa,
        c1=c1,
        r0_max_contraction=r0_max,
        r0_selfmap_interval=selfmap,
        gamma_k_used=gk,
        gamma_k_overridden=gk_over,
        kernel_factor_used=kern,
        kernel_factor_overridden=kern_over,
    )

