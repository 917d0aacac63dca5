"""Operator assembly, batched application, and Lipschitz estimation."""

from __future__ import annotations

import itertools

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
from hilfer_mnc.fractional import FracParams, GridFunction, power_slopes, uniform_nodes

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


# (a, rho, T) of the large-grid accuracy checks
_RULE_CASES = ((2.0, 1.0 / 3.0, 3.0), (0.5, 0.4, 3.0), (0.2, 0.1, 50.0), (1.3, 0.7, 10.0))


def _rule_params(a: float, rho: float, T: float) -> FracParams:
    return FracParams(k=0.45, rho=rho, gamma_ord=0.45 * a, T=T)


def _longdouble_rule(params: FracParams, nodes: np.ndarray, g: np.ndarray, rows) -> np.ndarray:
    """The product rule with Gamma_k = 1 at the selected rows, in extended precision.

    Same float64 mesh s = nodes**rho as the program, summed by parts.
    """
    s = (nodes**params.rho).astype(np.longdouble)
    a = np.longdouble(params.exponent)
    g = np.asarray(g, dtype=np.longdouble)
    x = s[rows]
    w = x[:, None] - s
    ahead = w > 0
    w[~ahead] = 0
    # exp of log: far faster than a long double power, and as accurate here
    w[ahead] = np.exp((a + 1) * np.log(w[ahead]))
    d = (w[:, 1:] - w[:, :-1]) / np.diff(s)
    total = (a + 1) * (x - s[0]) ** a * g[:, :1] - (g[:, 1:] - g[:, :-1]) @ d.T
    pref = np.longdouble(params.rho) ** -a / np.longdouble(params.k)
    return pref * total / (a * (a + 1))


def _rule_errors(params, nodes, g, results, rows) -> np.ndarray:
    """Max error at the rows of each result (axis 0) and integrand (axis 1).

    Relative to |W| @ |g|, which is the rule applied to |g| as W >= 0.
    """
    m = g.shape[0]
    ref = _longdouble_rule(params, nodes, np.vstack([g, np.abs(g)]), rows)
    exact, scale = ref[:m], ref[m:]
    return np.array([np.max(np.abs(got[:, rows] - exact) / scale, axis=1) for got in results])


def _test_grids(T: float, n: int, rng) -> dict:
    u = np.linspace(0.0, 1.0, n)
    inner = np.sort(rng.uniform(1.0, T, n - 2))
    return {
        "uniform": uniform_nodes(T, n),
        "random": np.concatenate(([1.0], inner, [T])),
        "graded": 1.0 + (T - 1.0) * u**2,
    }


def test_streaming_path_matches_matrix_path(monkeypatch):
    # the large-grid path may round differently from the dense matrix, but
    # against an extended-precision evaluation of the same rule its error
    # must stay within 3x the dense path's (or 1e-14 of |W| @ |g|)
    rng = np.random.default_rng(5)
    for n, (a, rho, T) in itertools.product((201, 1025), _RULE_CASES):
        params = _rule_params(a, rho, T)
        for grid, nodes in _test_grids(T, n, rng).items():
            # two random and two smooth integrands
            g = np.vstack(
                [rng.uniform(-0.5, 0.5, size=(2, n)), np.cos(nodes), np.exp(-nodes / T)]
            )
            monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 2049)
            dense = eqmod._integral_values(params, nodes, g, 1.0)
            monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
            fast = eqmod._integral_values(params, nodes, g, 1.0)
            assert np.all(fast[:, 0] == 0.0)
            errs = _rule_errors(params, nodes, g, (dense, fast), np.arange(1, n))
            for kind, sel in (("random", slice(0, 2)), ("smooth", slice(2, 4))):
                dense_err, fast_err = errs[:, sel].max(axis=1)
                bound = max(3.0 * dense_err, 1e-14)
                assert fast_err <= bound, (n, a, rho, T, grid, kind, fast_err, dense_err)


@pytest.mark.parametrize("n", [65, 130, 340, 341, 360, 4097])
def test_streaming_path_partial_last_cluster(monkeypatch, n):
    # 65 and 4097 end in a one-row cluster, 130 in a two-row one; the last
    # level-0 cluster of 340 has exactly _CHEB_POINTS rows (exact), of 341
    # one more (interpolated), of 360 it is a partial interpolated cluster
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
    params = _rule_params(*_RULE_CASES[0])
    nodes = uniform_nodes(params.T, n)
    g = np.stack([np.cos(nodes), 1.0 + np.sqrt(nodes)])
    got = eqmod._integral_values(params, nodes, g, 1.0)
    # every row of the last two leaves and a stride of the rest
    rows = np.unique(np.concatenate([np.arange(1, n, 37), np.arange(max(1, n - 130), n)]))
    assert _rule_errors(params, nodes, g, [got], rows).max() <= 1e-13


def test_streaming_path_falls_back_where_blocks_are_close(monkeypatch):
    # on a grid graded toward t = 1 the s-spacing grows, so a row cluster is
    # wider than its gap to the columns and the block is evaluated exactly
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
    interpolated = []
    original = eqmod._interpolation_matrix

    def counted(lo, hi, x):
        interpolated.append(x.size)
        return original(lo, hi, x)

    monkeypatch.setattr(eqmod, "_interpolation_matrix", counted)
    params = _rule_params(*_RULE_CASES[0])
    n = 1025
    g = np.random.default_rng(3).uniform(-0.5, 0.5, size=(1, n))
    eqmod._integral_values(params, uniform_nodes(params.T, n), g, 1.0)
    on_uniform = len(interpolated)
    interpolated.clear()
    nodes = _test_grids(params.T, n, np.random.default_rng(0))["graded"]
    got = eqmod._integral_values(params, nodes, g, 1.0)
    # the same cluster tree, so every missing interpolation is a fallback
    assert len(interpolated) < on_uniform / 2
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 2049)
    dense = eqmod._integral_values(params, nodes, g, 1.0)
    dense_err, fast_err = _rule_errors(params, nodes, g, (dense, got), np.arange(1, n)).max(axis=1)
    assert fast_err <= max(3.0 * dense_err, 1e-14)


def test_streaming_path_cost_is_near_linear(monkeypatch):
    # a quadratic path evaluates 16x the slopes for 4x the nodes
    entries = []

    def counted(X, s, a, w, d):
        entries.append(d.size)
        return power_slopes(X, s, a, w, d)

    monkeypatch.setattr(eqmod, "power_slopes", counted)
    total = []
    for n in (4097, 16385):
        entries.clear()
        eqmod._integral_values(_ALPHA.params, uniform_nodes(3.0, n), np.ones((1, n)), 1.0)
        total.append(sum(entries))
    assert total[1] <= 6 * total[0]


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


def test_operator_overflow_raises_domain_error(monkeypatch):
    # finite f, psi and g whose image overflows; RuntimeWarnings are errors
    # under the test configuration, so none may be emitted on the way
    def spec(g: str) -> EquationSpec:
        big = Nonlinearity.from_string("1.7e308", lipschitz=0.0, zero_at_zero=False)
        return EquationSpec(
            params=_ALPHA.params, f=big, psi=big, g=Nonlinearity.from_string(g, 0.0, False)
        )

    nodes = uniform_nodes(3.0, 65)
    with pytest.raises(DomainError, match="operator image is not finite"):
        apply_operator_batch(spec("1"), nodes, np.zeros((2, 65)))
    # on the large-grid path the differences of g overflow first
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
    with pytest.raises(DomainError, match="operator image is not finite"):
        apply_operator_batch(spec("1.7e308*cos(100*x)"), nodes, np.zeros((2, 65)))


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
