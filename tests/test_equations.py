"""Operator assembly, batched application, and Lipschitz estimation."""

from __future__ import annotations

import numpy as np
import pytest

import hilfer_mnc.equations as eqmod
from hilfer_mnc.config import bundled_example
from hilfer_mnc.equations import (
    EquationSpec,
    Nonlinearity,
    SystemSpec,
    apply_operator,
    apply_operator_batch,
    check_zero_conditions,
    estimate_lipschitz,
)
from hilfer_mnc.errors import DomainError
from hilfer_mnc.fractional import FracParams, GridFunction, panel_weights, uniform_nodes

_CFG = bundled_example()
_ALPHA = _CFG.equations[0]
_BETA = _CFG.equations[1]

# mpmath at 40 digits: operator image of alpha == 0.5 (additive term
# 0.5/6 plus 0.5 times the integral of the bundled integrands)
_FROZEN_ALPHA = {
    1.5: 0.1509304223685689,
    2.0: 0.2947039319243830,
    2.5: 0.4730853989376113,
    3.0: 0.6692208139661031,
}
_FROZEN_BETA = {
    1.5: 0.1506173634362042,
    2.0: 0.2918303946038293,
    2.5: 0.4638269633139304,
    3.0: 0.6492631792242764,
}
# same, with 2.4047 substituted for the computed Gamma_k value
_FROZEN_ALPHA_OVERRIDE = {
    2.0: 0.1126329824359310,
    3.0: 0.1645475500246420,
}


def _half(eq: EquationSpec, n: int = 1025) -> GridFunction:
    nodes = uniform_nodes(eq.params.T, n)
    return GridFunction(nodes=nodes, values=np.full(nodes.shape, 0.5))


def test_nonlinearity_from_string():
    n = Nonlinearity.from_string("abs(a)/6", lipschitz=1.0 / 6.0, zero_at_zero=True)
    assert n.lipschitz == pytest.approx(1.0 / 6.0)
    assert n.zero_at_zero
    with pytest.raises(DomainError):
        Nonlinearity.from_string("a", lipschitz=-1.0, zero_at_zero=True)


def test_gamma_k_value_resolution():
    assert _ALPHA.gamma_k_value() == pytest.approx(1.0 / 3.0, abs=1e-14)
    overridden = EquationSpec(
        params=_ALPHA.params, f=_ALPHA.f, psi=_ALPHA.psi, g=_ALPHA.g, gamma_k_override=2.4047
    )
    assert overridden.gamma_k_value() == 2.4047
    with pytest.raises(DomainError):
        EquationSpec(params=_ALPHA.params, f=_ALPHA.f, psi=_ALPHA.psi, g=_ALPHA.g, gamma_k_override=0.0)


def test_system_requires_matching_params():
    other = FracParams(k=0.5, rho=0.5, gamma_ord=0.5, T=3.0)
    moved = EquationSpec(params=other, f=_BETA.f, psi=_BETA.psi, g=_BETA.g)
    with pytest.raises(DomainError):
        SystemSpec(eq_alpha=_ALPHA, eq_beta=moved)
    assert SystemSpec(eq_alpha=_ALPHA, eq_beta=_BETA).eq_alpha is _ALPHA


def test_operator_matches_brute_force_alpha():
    out = apply_operator(_ALPHA, _half(_ALPHA))
    for x, want in _FROZEN_ALPHA.items():
        assert float(out(x)) == pytest.approx(want, abs=5e-7)


def test_operator_matches_brute_force_beta():
    out = apply_operator(_BETA, _half(_BETA))
    for x, want in _FROZEN_BETA.items():
        assert float(out(x)) == pytest.approx(want, abs=5e-7)


def test_operator_with_override_matches_brute_force():
    eq = EquationSpec(
        params=_ALPHA.params, f=_ALPHA.f, psi=_ALPHA.psi, g=_ALPHA.g, gamma_k_override=2.4047
    )
    out = apply_operator(eq, _half(eq))
    for x, want in _FROZEN_ALPHA_OVERRIDE.items():
        assert float(out(x)) == pytest.approx(want, abs=5e-7)


def test_operator_image_at_left_endpoint_is_additive_term_only():
    # the integral vanishes at x = 1, leaving F(1, 0.5) = 0.5/6
    out = apply_operator(_ALPHA, _half(_ALPHA))
    assert float(out.values[0]) == pytest.approx(0.5 / 6.0, abs=1e-14)


def test_batch_rows_match_single_applications():
    nodes = uniform_nodes(3.0, 129)
    rng = np.random.default_rng(11)
    values = rng.uniform(-0.5, 0.5, size=(4, nodes.size))
    batch = apply_operator_batch(_ALPHA, nodes, values)
    for i in range(values.shape[0]):
        single = apply_operator(_ALPHA, GridFunction(nodes=nodes, values=values[i]))
        # matrix-matrix and matrix-vector products may pick different BLAS
        # kernels, so agreement is to summation-order ulps, not bitwise
        np.testing.assert_allclose(batch[i], single.values, rtol=1e-13, atol=1e-15)


def test_streaming_path_matches_matrix_path(monkeypatch):
    nodes = uniform_nodes(3.0, 201)
    rng = np.random.default_rng(5)
    values = rng.uniform(-0.5, 0.5, size=(3, nodes.size))
    dense = apply_operator_batch(_ALPHA, nodes, values)
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
    monkeypatch.setattr(eqmod, "_STREAM_BLOCK_ENTRIES", 64 * nodes.size)
    blocks = []

    def counted(X, s, a, work=None):
        blocks.append(len(X))
        return panel_weights(X, s, a, work)

    monkeypatch.setattr(eqmod, "panel_weights", counted)
    streamed = apply_operator_batch(_ALPHA, nodes, values)
    # rows 1..200 in blocks of 64, the last one partial
    assert blocks == [64, 64, 64, 8]
    np.testing.assert_allclose(streamed, dense, rtol=0.0, atol=1e-14)


def test_streaming_path_integrates_linear_in_s_to_rounding():
    # the rule is exact for integrands linear in s = t**rho, so on a grid
    # past the dense limit only rounding separates it from the closed form
    nodes = uniform_nodes(3.0, 4097)
    assert nodes.size > eqmod._MATRIX_MAX_NODES
    for params in (_ALPHA.params, FracParams(k=0.6, rho=0.4, gamma_ord=0.3, T=3.0)):
        a, rho = params.exponent, params.rho
        w = nodes**rho - 1.0
        gk = 1.25
        got = eqmod._integral_values(params, nodes, (0.5 + 2.0 * w)[None, :], gk)[0]
        pref = rho ** (-a) / (params.k * gk)
        exact = pref * (0.5 * w**a / a + 2.0 * w ** (a + 1.0) / (a * (a + 1.0)))
        assert got[0] == 0.0
        rel = np.abs(got[1:] - exact[1:]) / exact[1:]
        assert rel.max() <= 5e-15


def test_operator_rejects_wrong_domain():
    nodes = np.linspace(1.0, 2.0, 65)
    with pytest.raises(DomainError):
        apply_operator_batch(_ALPHA, nodes, np.zeros((1, 65)))


def test_estimate_lipschitz_lower_bounds_declared():
    for eq in (_ALPHA, _BETA):
        for nl in (eq.f, eq.psi, eq.g):
            est = estimate_lipschitz(nl, r0=1.0, probes=10_000, t_end=3.0)
            assert est <= nl.lipschitz
            assert est >= nl.lipschitz - 1e-3


def test_estimate_lipschitz_grows_with_budget():
    coarse = estimate_lipschitz(_ALPHA.g, r0=1.0, probes=100, t_end=3.0)
    fine = estimate_lipschitz(_ALPHA.g, r0=1.0, probes=10_000, t_end=3.0)
    assert fine >= coarse - 1e-12


def test_estimate_lipschitz_validation():
    with pytest.raises(DomainError):
        estimate_lipschitz(_ALPHA.f, r0=0.0, probes=100)
    with pytest.raises(DomainError):
        estimate_lipschitz(_ALPHA.f, r0=1.0, probes=1)


def test_zero_conditions():
    assert check_zero_conditions(_ALPHA, probes=33)
    assert check_zero_conditions(_BETA, probes=33)
    shifted = EquationSpec(
        params=_ALPHA.params,
        f=Nonlinearity.from_string("abs(a)/6+1", lipschitz=1.0 / 6.0, zero_at_zero=False),
        psi=_ALPHA.psi,
        g=_ALPHA.g,
    )
    assert not check_zero_conditions(shifted, probes=33)
