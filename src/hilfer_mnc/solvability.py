"""Darbo-factor and self-map certificates for one equation.

The key coefficient is

    kappa = c2 * c3 * rho^(-a) * (T^rho - 1)^a / (gamma_ord * Gamma_k(gamma_ord)),

with c1, c2, c3 the declared Lipschitz constants of f, psi, g and
a = gamma_ord/k. On the ball of radius r0, c1 + kappa * r0 bounds the Darbo
factor: the factor by which the operator shrinks the measure of
noncompactness (the modulus of continuity). It is not a Lipschitz constant,
which has a second kappa * r0 term, so c1 + kappa * r0 < 1 does not make
the operator a contraction. The operator maps the ball into itself when
r0 <= (1 - c1)/kappa. RadiusCertificate.factor_at is the one place that
computes the Darbo factor; r0_max_contraction is the radius where it
reaches 1, not a contraction radius.

Two reproduction knobs exist so reference arithmetic can be replayed: the
order parameters' gamma_k_override (FracParams.gamma_k_override) replaces
Gamma_k(gamma_ord) in the operator and the certificate alike, and certify's
kernel_factor_override replaces (T^rho - 1)^a in the certificate only.
Every certificate records what was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equations import EquationSpec, estimate_lipschitz
from .errors import DomainError, require_nonnegative_finite, require_positive_finite

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

    def admits(self, r0: float) -> bool:
        """True when radius r0 certifies: Darbo factor below 1 - DEFAULT_SLACK, self-map holds."""
        if r0 <= 0.0 or self.r0_selfmap_interval is None:
            return False
        return self.factor_at(r0) < 1.0 - DEFAULT_SLACK and r0 <= self.r0_selfmap_interval[1]

    def boundary(self, r0: float) -> bool:
        """True when factor_at(r0) sits inside the strictness slack band [1 - DEFAULT_SLACK, 1)."""
        return 1.0 - DEFAULT_SLACK <= self.factor_at(r0) < 1.0


def _resolve_kernel(eq: EquationSpec, kernel_factor_override: float | None) -> tuple[float, bool]:
    p = eq.params
    if kernel_factor_override is not None:
        require_positive_finite("kernel_factor_override", kernel_factor_override)
        return kernel_factor_override, True
    try:
        return (p.T**p.rho - 1.0) ** p.exponent, False
    except OverflowError:
        raise DomainError(
            f"the kernel factor (T^rho - 1)^(gamma_ord/k) = ({p.T}^{p.rho} - 1)^{p.exponent} "
            "overflows a double"
        ) from None


def certify(
    eq: EquationSpec,
    kernel_factor_override: float | None = None,
    probes: int = DEFAULT_PROBES,
) -> RadiusCertificate:
    """Full radius certificate, after validating the declared constants.

    Each declared Lipschitz constant is checked against an empirical
    estimate on x in [1, T], |a| <= 1; a dishonest declaration raises. The
    three estimates share one cached sample design (estimate_lipschitz).
    Gamma_k, or its override, is read from eq.params.
    A kernel factor or kappa that overflows a double raises DomainError.
    """
    for name, n in (("f", eq.f), ("psi", eq.psi), ("g", eq.g)):
        est = estimate_lipschitz(n, r0=1.0, probes=probes, t_end=eq.params.T)
        if est > n.lipschitz + _LIPSCHITZ_TOL:
            raise DomainError(
                f"declared lipschitz constant for {name} is {n.lipschitz}, "
                f"but sampling finds {est:.6g}"
            )
    p = eq.params
    gk = p.gamma_k
    kern, kern_over = _resolve_kernel(eq, kernel_factor_override)
    c1 = eq.f.lipschitz
    kappa = eq.psi.lipschitz * eq.g.lipschitz * p.rho ** (-p.exponent) * kern / (p.gamma_ord * gk)
    if not math.isfinite(kappa):
        raise DomainError(
            f"kappa = c2 c3 rho^(-a) (T^rho - 1)^a / (gamma_ord Gamma_k) overflows a double "
            f"(rho^(-a) = {p.rho ** (-p.exponent):.6g}, kernel factor {kern:.6g}, Gamma_k {gk:.6g})"
        )
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
        gamma_k_overridden=p.gamma_k_override is not None,
        kernel_factor_used=kern,
        kernel_factor_overridden=kern_over,
    )

