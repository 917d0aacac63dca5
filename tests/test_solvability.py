"""Radius certificates: kappa arithmetic, admissibility, override plumbing."""

from __future__ import annotations

import dataclasses
import inspect
import math

import pytest

import hilfer_mnc
from hilfer_mnc import config, equations, solvability
from hilfer_mnc.config import bundled_example
from hilfer_mnc.equations import EquationSpec, Nonlinearity
from hilfer_mnc.errors import DomainError
from hilfer_mnc.fractional import FracParams
from hilfer_mnc.solvability import certify

_CFG = bundled_example()
_ALPHA = _CFG.equations[0]

# mpmath at 40 digits: kappa = c2*c3*rho^(-a)*kern/(gamma_ord*Gamma_k) and
# threshold (1 - c1)/kappa for the four gamma/kernel combinations
_KAPPA_STD_TRUE = 2.640393212900679
_THR_STD_TRUE = 0.3156095574180981
_KAPPA_STD_PUB = 7.2333000000000025
_THR_STD_PUB = 0.11520790418389021
_KAPPA_OV_TRUE = 0.36600452071646894
_THR_OV_TRUE = 2.276838908169902
_KAPPA_OV_PUB = 1.0026614546513082
_THR_OV_PUB = 0.8311213415730024
_KERN_TRUE = 0.19558468243708735


def _with_override(eq: EquationSpec, gk: float) -> EquationSpec:
    return dataclasses.replace(eq, params=dataclasses.replace(eq.params, gamma_k_override=gk))


def test_kappa_standard_true_kernel():
    cert = certify(_ALPHA)
    assert cert.kappa == pytest.approx(_KAPPA_STD_TRUE, rel=1e-12)
    assert cert.r0_max_contraction == pytest.approx(_THR_STD_TRUE, rel=1e-12)
    assert cert.kernel_factor_used == pytest.approx(_KERN_TRUE, rel=1e-12)
    assert not cert.gamma_k_overridden
    assert not cert.kernel_factor_overridden
    assert cert.passes
    assert cert.r0_selfmap_interval == (0.0, cert.r0_max_contraction)


def test_kappa_standard_pinned_kernel():
    cert = certify(_ALPHA, kernel_factor_override=0.5358)
    assert cert.kappa == pytest.approx(_KAPPA_STD_PUB, rel=1e-12)
    assert cert.r0_max_contraction == pytest.approx(_THR_STD_PUB, rel=1e-12)
    assert cert.kernel_factor_overridden
    assert cert.kernel_factor_used == 0.5358


def test_kappa_override_true_kernel():
    cert = certify(_with_override(_ALPHA, 2.4047))
    assert cert.kappa == pytest.approx(_KAPPA_OV_TRUE, rel=1e-12)
    assert cert.r0_max_contraction == pytest.approx(_THR_OV_TRUE, rel=1e-12)
    assert cert.gamma_k_overridden
    assert cert.gamma_k_used == 2.4047


def test_kappa_override_pinned_kernel():
    cert = certify(_with_override(_ALPHA, 2.4047), kernel_factor_override=0.5358)
    assert cert.kappa == pytest.approx(_KAPPA_OV_PUB, rel=1e-12)
    assert cert.r0_max_contraction == pytest.approx(_THR_OV_PUB, rel=1e-12)
    # the reference radius is admitted just inside the threshold
    assert cert.admits(0.83)
    assert cert.factor_at(0.83) == pytest.approx(0.9988756740272524, rel=1e-12)
    assert not cert.admits(0.8312)
    assert not cert.boundary(0.83)
    # a radius a hair inside the threshold lands in the slack band
    assert cert.boundary(cert.r0_max_contraction * (1.0 - 1e-10))
    assert not cert.boundary(0.5 * cert.r0_max_contraction)


def test_factor_at_and_admits_refuse_bad_radii():
    cert = certify(_ALPHA)
    for r0 in (0.0, 0.1, 0.5):
        assert cert.factor_at(r0) == cert.c1 + cert.kappa * r0
    for r0 in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            cert.factor_at(r0)
        with pytest.raises(DomainError):
            cert.boundary(r0)
    # admits returns False on a radius that is not positive, before factor_at
    assert not cert.admits(-0.1)
    for r0 in (math.inf, math.nan):
        with pytest.raises(DomainError):
            cert.admits(r0)


def test_factor_at_half_frozen():
    assert certify(_ALPHA).factor_at(0.5) == pytest.approx(
        1.0 / 6.0 + _KAPPA_STD_TRUE / 2.0, rel=1e-12
    )


def test_admits_respects_slack():
    cert = certify(_ALPHA)
    thr = cert.r0_max_contraction
    assert cert.admits(0.9 * thr)
    assert not cert.admits(thr)  # factor_at(thr) == 1 exactly
    assert not cert.admits(0.0)
    assert not cert.admits(1.1 * thr)


def test_failing_certificate_when_c1_is_one():
    eq = EquationSpec(
        params=_ALPHA.params,
        f=Nonlinearity.from_string("a", lipschitz=1.0),
        psi=_ALPHA.psi,
        g=_ALPHA.g,
    )
    cert = certify(eq)
    assert cert.c1 == 1.0
    assert cert.r0_max_contraction == 0.0
    assert cert.r0_selfmap_interval is None
    assert not cert.passes
    assert not cert.admits(0.1)


def test_unbounded_radius_when_kappa_vanishes():
    eq = EquationSpec(
        params=_ALPHA.params,
        f=_ALPHA.f,
        psi=Nonlinearity.from_string("0*a", lipschitz=0.0),
        g=_ALPHA.g,
    )
    cert = certify(eq)
    assert cert.kappa == 0.0
    assert cert.r0_max_contraction == math.inf
    assert cert.r0_selfmap_interval == (0.0, math.inf)
    assert cert.passes
    assert cert.admits(100.0)


def test_overflowing_kappa_is_rejected():
    # the kernel factor (8.0e210) and rho^(-a) (6.5e125) are finite, their product is not
    params = FracParams(k=0.005, rho=0.2, gamma_ord=0.9, T=1e6)
    eq = EquationSpec(params=params, f=_ALPHA.f, psi=_ALPHA.psi, g=_ALPHA.g)
    with pytest.raises(DomainError, match="kappa"):
        certify(eq)


def test_overflowing_kernel_factor_is_rejected():
    params = FracParams(k=0.0015, rho=0.99, gamma_ord=0.9, T=100.0)
    eq = EquationSpec(params=params, f=_ALPHA.f, psi=_ALPHA.psi, g=_ALPHA.g)
    with pytest.raises(DomainError, match=r"\(T\^rho - 1\)\^\(gamma_ord/k\)"):
        certify(eq)


def test_dishonest_declaration_is_rejected():
    eq = EquationSpec(
        params=_ALPHA.params,
        f=Nonlinearity.from_string("a", lipschitz=0.5),
        psi=_ALPHA.psi,
        g=_ALPHA.g,
    )
    with pytest.raises(DomainError):
        certify(eq)


def test_invalid_override_values():
    with pytest.raises(DomainError):
        certify(_with_override(_ALPHA, 0.0))
    with pytest.raises(DomainError):
        certify(_ALPHA, kernel_factor_override=-1.0)
    with pytest.raises(DomainError):
        certify(_with_override(_ALPHA, math.inf))
    with pytest.raises(DomainError):
        certify(_ALPHA, kernel_factor_override=math.inf)

def test_public_surface_resolves_and_holds_no_dead_names():
    for name in hilfer_mnc.__all__:
        assert getattr(hilfer_mnc, name) is not None, name
    assert len(set(hilfer_mnc.__all__)) == len(hilfer_mnc.__all__)
    for module in (hilfer_mnc, config, equations, solvability):
        assert not hasattr(module, "SystemSpec")
        assert not hasattr(module, "contraction_factor")
    assert not hasattr(config.RunConfig, "system")
    # the order parameters carry the Gamma_k override; nothing holds a second copy
    assert "gamma_k_override" not in inspect.signature(certify).parameters
    assert [f.name for f in dataclasses.fields(EquationSpec)] == ["params", "f", "psi", "g"]
    assert not hasattr(config.RunConfig, "gamma_k_override")
    for method in (solvability.RadiusCertificate.admits, solvability.RadiusCertificate.boundary):
        assert list(inspect.signature(method).parameters) == ["self", "r0"]
    assert inspect.signature(equations.estimate_lipschitz).parameters["t_end"].default is inspect.Parameter.empty
    assert [f.name for f in dataclasses.fields(equations.Nonlinearity)] == ["expr", "lipschitz"]
