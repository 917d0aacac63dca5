"""Modulus of continuity, measure estimation, axioms, Darbo iteration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilfer_mnc.config import bundled_example
from hilfer_mnc.equations import EquationSpec, Nonlinearity, apply_operator
from hilfer_mnc.errors import DomainError
from hilfer_mnc.fractional import FracParams, GridFunction, uniform_nodes
from hilfer_mnc.mnc import (
    FunctionEnsemble,
    certificate_inequality_check,
    check_certificate_classes,
    darbo_iterate,
    default_certificate,
    ensemble_modulus,
    mnc_axiom_checks,
    mnc_estimate,
    modulus_of_continuity,
)
from hilfer_mnc.solvability import certify


def _gf(nodes, values) -> GridFunction:
    return GridFunction(nodes=np.asarray(nodes, float), values=np.asarray(values, float))


def _uniform(values) -> GridFunction:
    v = np.asarray(values, float)
    return _gf(np.linspace(1.0, 3.0, v.size), v)


def _halving_equation(f: str = "0.5*a", psi: str = "0", g: str = "0") -> EquationSpec:
    """With the defaults the operator sends a to exactly 0.5 * a."""
    return EquationSpec(
        params=FracParams(k=0.5, rho=0.5, gamma_ord=0.5, T=3.0),
        f=Nonlinearity.from_string(f, lipschitz=0.5, zero_at_zero=True),
        psi=Nonlinearity.from_string(psi, lipschitz=0.0, zero_at_zero=True),
        g=Nonlinearity.from_string(g, lipschitz=0.0, zero_at_zero=True),
    )


def test_modulus_linear_function():
    nodes = np.linspace(1.0, 3.0, 129)
    f = _gf(nodes, nodes)  # slope 1
    assert modulus_of_continuity(f, 0.5) == 0.5
    assert modulus_of_continuity(f, 2.0) == 2.0


def test_modulus_constant_is_zero():
    f = _uniform(np.full(65, 3.7))
    assert modulus_of_continuity(f, 0.25) == 0.0


def test_modulus_square_on_aligned_grid():
    nodes = np.linspace(1.0, 3.0, 129)
    f = _gf(nodes, nodes**2)
    # increasing function: sup over windows sits at the right end
    assert modulus_of_continuity(f, 0.5) == pytest.approx(9.0 - 2.5**2, abs=1e-12)


def test_modulus_sawtooth_general_path():
    f = _gf([1.0, 1.5, 2.0, 3.0], [0.0, 1.0, 0.0, 2.0])
    # windows of width 0.4: best is a full slope-2 stretch
    assert modulus_of_continuity(f, 0.4) == pytest.approx(0.8, abs=1e-12)
    assert modulus_of_continuity(f, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert modulus_of_continuity(f, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert modulus_of_continuity(f, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_modulus_aligned_and_general_paths_agree():
    rng = np.random.default_rng(3)
    nodes = np.linspace(1.0, 3.0, 257)
    values = np.cumsum(rng.uniform(-0.1, 0.1, size=257))
    f = _gf(nodes, values)
    h = nodes[1] - nodes[0]
    for m in (1, 4, 32):
        aligned = modulus_of_continuity(f, m * h)
        from hilfer_mnc.mnc import _modulus_general

        general = _modulus_general(nodes, values, m * h)
        assert general == pytest.approx(aligned, abs=1e-12)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("n", [2, 3, 17, 50])
def test_window_moduli_match_brute_force(n, rows):
    # every width, powers of two or not, up to the whole row (m = n - 1)
    from hilfer_mnc.mnc import _window_moduli_aligned

    rng = np.random.default_rng(n * 10 + rows)
    values = rng.standard_normal((rows, n))
    for m in range(1, n):
        win = np.lib.stride_tricks.sliding_window_view(values, m + 1, axis=1)
        brute = float(np.max(win.max(axis=2) - win.min(axis=2)))
        assert _window_moduli_aligned(values, m) == brute
        if rows == 1:
            assert _window_moduli_aligned(values[0], m) == brute


def test_modulus_delta_validation():
    f = _uniform(np.zeros(17))
    with pytest.raises(DomainError):
        modulus_of_continuity(f, 0.0)
    with pytest.raises(DomainError):
        modulus_of_continuity(f, 2.5)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=33, max_size=33),
    d1=st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0]),
    d2=st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0]),
)
def test_modulus_monotone_and_subadditive(values, d1, d2):
    # 33 nodes make the spacing 1/16, so every delta here is node aligned
    # and integer values keep every window comparison exact
    f = _uniform(np.asarray(values, float))
    m1 = modulus_of_continuity(f, d1)
    m2 = modulus_of_continuity(f, d2)
    if d1 <= d2:
        assert m1 <= m2
    if d1 + d2 <= 2.0:
        assert modulus_of_continuity(f, d1 + d2) <= m1 + m2


def test_ensemble_modulus_is_member_sup():
    nodes = np.linspace(1.0, 3.0, 65)
    e = FunctionEnsemble(nodes, np.vstack([nodes, 2.0 * nodes]))
    assert ensemble_modulus(e, 0.25) == pytest.approx(0.5, abs=1e-12)
    singles = [modulus_of_continuity(_gf(nodes, row), 0.25) for row in e.values]
    assert ensemble_modulus(e, 0.25) == max(singles)


def test_ensemble_requires_shared_nodes():
    nodes = np.linspace(1.0, 3.0, 5)
    e = FunctionEnsemble(nodes, np.zeros((2, 5)))
    assert e.values.shape == (2, 5)
    nan_row = np.array([[0.0, np.nan, 0.0, 0.0, 0.0]])
    bad = [
        (nodes, np.zeros((0, 5))),  # empty
        (nodes, np.zeros(5)),  # one function, not a matrix
        (nodes, np.zeros((2, 4))),  # column count differs from the node count
        (nodes, nan_row),
        (nodes, -np.inf * np.ones((1, 5))),
        (nodes[None, :], np.zeros((1, 5))),  # nodes not one-dimensional
        ([1.0], np.zeros((1, 1))),  # a single node
        ([0.0, 1.0, 2.0], np.zeros((1, 3))),  # domain not starting at 1
        ([1.0, 2.0, 2.0], np.zeros((1, 3))),  # nodes not strictly increasing
    ]
    for bad_nodes, bad_values in bad:
        with pytest.raises(DomainError):
            FunctionEnsemble(bad_nodes, bad_values)
        with pytest.raises(DomainError):
            FunctionEnsemble.from_matrix(bad_nodes, bad_values)


def test_mnc_estimate_linear_ladder():
    # moduli lie on the line 2*delta: the extrapolated limit is zero
    nodes = np.linspace(1.0, 3.0, 257)
    e = FunctionEnsemble(nodes, (2.0 * nodes)[None, :])
    est = mnc_estimate(e, [0.25, 0.125, 0.0625, 0.03125])
    np.testing.assert_allclose(est.moduli, [0.5, 0.25, 0.125, 0.0625])
    assert est.mu0 == pytest.approx(0.0, abs=1e-12)
    assert est.hausdorff == 0.5 * est.mu0


def test_mnc_estimate_oscillation_plateau():
    # oscillation faster than the ladder resolves keeps every rung at the
    # full amplitude, so the extrapolated limit is the amplitude itself
    nodes = np.linspace(1.0, 3.0, 257)
    zigzag = np.where(np.arange(257) % 2 == 0, 0.0, 0.3)
    e = FunctionEnsemble(nodes, zigzag[None, :])
    est = mnc_estimate(e, [0.25, 0.125, 0.0625])
    np.testing.assert_allclose(est.moduli, 0.3)
    assert est.mu0 == pytest.approx(0.3, abs=1e-12)
    assert est.hausdorff == pytest.approx(0.15, abs=1e-12)


def test_mnc_estimate_validation():
    nodes = np.linspace(1.0, 3.0, 17)
    e = FunctionEnsemble(nodes, np.zeros((1, 17)))
    with pytest.raises(DomainError):
        mnc_estimate(e, [0.25, 0.125])
    with pytest.raises(DomainError):
        mnc_estimate(e, [0.125, 0.25, 0.5])


def test_axiom_checks_identity_weight():
    nodes = np.linspace(1.0, 3.0, 65)
    rng = np.random.default_rng(9)
    e = FunctionEnsemble(nodes, rng.uniform(-1.0, 1.0, size=(4, 65)))
    report = mnc_axiom_checks(e, e, L=1.0, deltas=[0.25, 0.125])
    assert report.monotonicity_applicable
    assert report.monotonicity_pass
    assert report.convexity_pass
    assert report.convexity_slack <= 1e-12


def test_axiom_checks_sublist_monotonicity():
    nodes = np.linspace(1.0, 3.0, 65)
    rng = np.random.default_rng(10)
    big = rng.uniform(-1.0, 1.0, size=(5, 65))
    e_small = FunctionEnsemble(nodes, big[:2])
    e_big = FunctionEnsemble(nodes, big)
    report = mnc_axiom_checks(e_small, e_big, L=0.5, deltas=[0.25, 0.125, 0.0625])
    assert report.monotonicity_applicable
    assert report.monotonicity_pass
    assert report.convexity_pass


def test_axiom_checks_validation():
    nodes = np.linspace(1.0, 3.0, 17)
    e = FunctionEnsemble(nodes, np.zeros((1, 17)))
    with pytest.raises(DomainError):
        mnc_axiom_checks(e, e, L=1.5, deltas=[0.25])
    with pytest.raises(DomainError):
        mnc_axiom_checks(e, e, L=0.5, deltas=[])


def test_darbo_trace_shape_and_decay():
    cfg = bundled_example()
    eq = cfg.equations[0]
    nodes = uniform_nodes(3.0, 65)
    rng = np.random.default_rng(1)
    seed = FunctionEnsemble(nodes, rng.uniform(-0.1, 0.1, size=(10, 65)))
    trace = darbo_iterate(eq, seed, p_max=4, convex_samples=10, deltas=cfg.mnc.deltas, rng_seed=7)
    assert len(trace) == 5
    assert trace[0].mu0 > 0.0
    cert = certify(eq, kernel_factor_override=cfg.kernel_factor_override)
    factor = cert.factor_at(0.1)
    for p in range(4):
        assert trace[p + 1].mu0 <= (factor + 0.05) * trace[p].mu0 + 1e-15


def test_darbo_matches_row_by_row_reference():
    cfg = bundled_example()
    eq = cfg.equations[0]
    nodes = uniform_nodes(3.0, 65)
    rng = np.random.default_rng(2)
    seed_values = rng.uniform(-0.1, 0.1, size=(8, 65))
    p_max, samples, rng_seed = 3, 8, 3
    trace = darbo_iterate(
        eq,
        FunctionEnsemble(nodes, seed_values),
        p_max=p_max,
        convex_samples=samples,
        deltas=cfg.mnc.deltas,
        rng_seed=rng_seed,
    )
    # the same scheme, applying the operator to one member at a time
    draws = np.random.default_rng(rng_seed)
    values = seed_values
    reference = [mnc_estimate(FunctionEnsemble(nodes, values), cfg.mnc.deltas)]
    for _ in range(p_max):
        images = np.vstack([apply_operator(eq, _gf(nodes, row)).values for row in values])
        weights = draws.dirichlet(np.ones(images.shape[0]), size=samples)
        values = np.vstack([images, weights @ images])
        reference.append(mnc_estimate(FunctionEnsemble(nodes, values), cfg.mnc.deltas))
    assert len(trace) == len(reference) == p_max + 1
    for got, want in zip(trace, reference):
        np.testing.assert_allclose(got.moduli, want.moduli, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got.mu0, want.mu0, rtol=1e-12, atol=0.0)


def test_darbo_halving_operator_halves_measure():
    # a zigzag seed keeps the measure strictly positive, and halving the
    # values must halve the measure step by step
    nodes = np.linspace(1.0, 3.0, 33)
    zigzag = np.where(np.arange(33) % 2 == 0, 0.0, 0.3)
    seed = FunctionEnsemble(nodes, zigzag[None, :])
    trace = darbo_iterate(
        _halving_equation(), seed, p_max=3, convex_samples=0, deltas=[0.5, 0.25, 0.125]
    )
    assert trace[0].mu0 == pytest.approx(0.3, abs=1e-12)
    for p in range(3):
        assert trace[p + 1].mu0 == pytest.approx(0.5 * trace[p].mu0, rel=1e-12)


def test_darbo_validation():
    nodes = np.linspace(1.0, 3.0, 17)
    seed = FunctionEnsemble(nodes, np.zeros((2, 17)))
    halve = _halving_equation()
    with pytest.raises(DomainError):
        darbo_iterate(halve, seed, p_max=0, convex_samples=1, deltas=[0.5, 0.25, 0.125])
    with pytest.raises(DomainError):
        darbo_iterate(halve, seed, p_max=1, convex_samples=-1, deltas=[0.5, 0.25, 0.125])
    # finite f, psi and g whose combination f + psi * I overflows
    overflow = _halving_equation(f="1.7e308", psi="1.7e308", g="1")
    with pytest.raises(DomainError, match="operator image is not finite"):
        darbo_iterate(overflow, seed, p_max=1, convex_samples=1, deltas=[0.5, 0.25, 0.125])


def test_default_certificate_classes():
    cert = default_certificate(gain=0.3)
    assert check_certificate_classes(cert)
    assert cert.h(1.0, 2.0) == 3.0
    assert cert.upsilon(2.0) == 1.0
    assert cert.gamma_cmp(2.0) == pytest.approx(0.6)
    with pytest.raises(DomainError):
        default_certificate(gain=0.0)
    with pytest.raises(DomainError):
        default_certificate(gain=1.0)


def test_certificate_inequality_on_geometric_trace():
    nodes = np.linspace(1.0, 3.0, 33)
    deltas = [0.5, 0.25, 0.125]
    zigzag = np.where(np.arange(33) % 2 == 0, 0.0, 0.3)
    seed = FunctionEnsemble(nodes, zigzag[None, :])
    trace = darbo_iterate(_halving_equation(), seed, p_max=4, convex_samples=0, deltas=deltas)
    report = certificate_inequality_check(default_certificate(gain=0.2), trace, factor=0.6)
    assert report.all_pass
    assert report.gain == pytest.approx(0.2)
    assert len(report.steps) == 4
    # a factor tighter than the actual decay must fail without slack
    tight = certificate_inequality_check(default_certificate(gain=0.45), trace, factor=0.1, slack=0.0)
    assert not tight.all_pass


def test_certificate_inequality_validation():
    nodes = np.linspace(1.0, 3.0, 17)
    e = FunctionEnsemble(nodes, np.zeros((1, 17)))
    est = mnc_estimate(e, [0.5, 0.25, 0.125])
    cert = default_certificate(gain=0.2)
    with pytest.raises(DomainError):
        certificate_inequality_check(cert, [est], factor=0.5)
    with pytest.raises(DomainError):
        certificate_inequality_check(cert, [est, est], factor=1.5)
