"""Gamma, k-gamma, and Beta: identity vs quadrature, frozen references."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilfer_mnc.errors import DomainError, NonconvergenceError
from hilfer_mnc.special_functions import beta, gamma, k_gamma, k_gamma_integral


def test_gamma_matches_math_gamma():
    for x in (0.5, 1.0, 2.5, 7.0):
        assert gamma(x) == math.gamma(x)


def test_gamma_rejects_nonpositive():
    for x in (0.0, -1.0, -3.5):
        with pytest.raises(DomainError):
            gamma(x)


def test_identity_value_at_third():
    # k**(z/k - 1) * Gamma(z/k) at k = 1/3, z = 2/3 is (1/3)**1 * Gamma(2) = 1/3
    r = k_gamma(1.0 / 3.0, 2.0 / 3.0)
    assert r.method == "identity"
    assert abs(r.value - 1.0 / 3.0) <= 1e-10


def test_identity_is_one_at_z_equals_k():
    for k in (0.2, 1.0 / 3.0, 0.5, 0.9, 1.0):
        assert abs(k_gamma(k, k).value - 1.0) <= 1e-14


def test_identity_frozen_reference():
    # mpmath at 40 digits: k = 0.8, z = 2.2
    assert k_gamma(0.8, 2.2).value == pytest.approx(1.0884051418184907738, rel=1e-13)


def test_integral_agrees_with_identity():
    for k, z in ((1.0 / 3.0, 2.0 / 3.0), (0.5, 1.5), (0.8, 2.2), (1.0, 2.0)):
        ident = k_gamma(k, z)
        integ = k_gamma_integral(k, z)
        assert integ.method == "integral"
        diff = abs(ident.value - integ.value)
        assert diff <= 1e-6
        # the Richardson-style estimate is not a strict bound; it must have
        # the right magnitude, covering the discrepancy within a small factor
        assert diff <= 3.0 * (integ.estimated_abs_error + ident.estimated_abs_error) + 1e-12


def test_integral_tol_tightens_result():
    loose = k_gamma_integral(0.5, 1.2, tol=1e-4)
    tight = k_gamma_integral(0.5, 1.2, tol=1e-10)
    ident = k_gamma(0.5, 1.2).value
    assert abs(tight.value - ident) <= abs(loose.value - ident) + 1e-12
    assert tight.estimated_abs_error < loose.estimated_abs_error


def test_domain_errors():
    # the last three: Gamma_k(z) overflows, underflows, and lgamma itself overflows
    for k, z in ((0.0, 1.0), (-0.5, 1.0), (1.5, 1.0), (0.5, 0.0), (0.5, -1.0), (0.5, math.inf),
                 (0.5, 400.0), (0.001, 0.9), (1.0, 1e308)):
        with pytest.raises(DomainError):
            k_gamma(k, z)
        with pytest.raises(DomainError):
            k_gamma_integral(k, z)
    for tol in (0.0, math.inf):
        with pytest.raises(DomainError):
            k_gamma_integral(0.5, 1.0, tol=tol)


def test_integral_budget_exhaustion(monkeypatch):
    import hilfer_mnc.special_functions as sf

    monkeypatch.setattr(sf, "_EVAL_BUDGET", 10)
    with pytest.raises(NonconvergenceError):
        k_gamma_integral(0.5, 1.5)


@settings(max_examples=60, deadline=None)
@given(
    k=st.floats(min_value=0.2, max_value=1.0),
    z=st.floats(min_value=0.1, max_value=2.0),
)
def test_recurrence_property(k, z):
    # Gamma_k(z + k) = z * Gamma_k(z)
    lhs = k_gamma(k, z + k).value
    rhs = z * k_gamma(k, z).value
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_beta_matches_gamma_ratio():
    for a, b in ((1.0, 1.0), (2.5, 3.5), (0.3, 0.7)):
        want = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        assert beta(a, b) == pytest.approx(want, rel=1e-13)


def test_beta_symmetry_and_domain():
    assert beta(1.7, 0.4) == pytest.approx(beta(0.4, 1.7), rel=1e-14)
    with pytest.raises(DomainError):
        beta(0.0, 1.0)
    with pytest.raises(DomainError):
        beta(1.0, -2.0)
