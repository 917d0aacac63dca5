"""Modulus of continuity, measure estimation, axioms, Darbo iteration."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilfer_mnc.mnc as mnc_mod
from hilfer_mnc.config import bundled_example
from hilfer_mnc.equations import EquationSpec, Nonlinearity, apply_operator
from hilfer_mnc.errors import DomainError
from hilfer_mnc.fractional import FracParams, GridFunction, uniform_nodes
from hilfer_mnc.mnc import (
    FunctionEnsemble,
    MncEstimate,
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
        f=Nonlinearity.from_string(f, lipschitz=0.5),
        psi=Nonlinearity.from_string(psi, lipschitz=0.0),
        g=Nonlinearity.from_string(g, lipschitz=0.0),
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
    # every width, powers of two or not, up to the whole row (m = n - 1);
    # unit spacing makes a delta of m the window of m + 1 values
    from hilfer_mnc.mnc import _modulus_ladder

    rng = np.random.default_rng(n * 10 + rows)
    values = rng.standard_normal((rows, n))
    nodes = np.arange(1.0, n + 1.0)
    brutes = []
    for m in range(1, n):
        win = np.lib.stride_tricks.sliding_window_view(values, m + 1, axis=1)
        brute = float(np.max(win.max(axis=2) - win.min(axis=2)))
        brutes.append(brute)
        assert _modulus_ladder(nodes, values, [float(m)])[0] == brute
        if rows == 1:
            assert _modulus_ladder(nodes, values[0], [float(m)])[0] == brute
    # one sweep through every width gives the same rungs
    assert np.array_equal(_modulus_ladder(nodes, values, np.arange(1.0, n)), brutes)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=2, max_value=200),
    steps=st.lists(st.integers(min_value=1, max_value=199), min_size=1, max_size=6),
    odd=st.integers(min_value=0, max_value=198),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ladder_matches_brute_force_windows(rows, n, steps, odd, seed):
    from hilfer_mnc.mnc import _modulus_general, _modulus_ladder

    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, n))
    nodes = uniform_nodes(3.0, n)
    h = nodes[1] - nodes[0]
    # aligned rungs in drawn order, then the whole span (its width equals
    # that of any rung of n - 1 steps)
    ms = [min(m, n - 1) for m in steps] + [n - 1]
    deltas = [m * h for m in ms[:-1]] + [nodes[-1] - nodes[0]]

    def brute(v, m):
        win = np.lib.stride_tricks.sliding_window_view(v, m + 1, axis=1)
        return (win.max(axis=2) - win.min(axis=2)).max()

    def general(v, grid, delta):
        return max(_modulus_general(grid, row, delta) for row in v)

    got = _modulus_ladder(nodes, values, deltas)
    assert np.array_equal(got, [brute(values, m) for m in ms])
    # ladders that take the exact general path: one rung between two nodes
    # among the aligned ones on two rows, and the first rung and the span
    # on a graded grid on one row
    few = values[:2]
    between = (min(odd, n - 2) + 0.5) * h
    got = _modulus_ladder(nodes, few, [between] + deltas)
    assert np.array_equal(got, [general(few, nodes, between)] + [brute(few, m) for m in ms])
    if n >= 3:
        graded = 1.0 + 2.0 * np.linspace(0.0, 1.0, n) ** 2
        ends = [deltas[0], deltas[-1]]
        got = _modulus_ladder(graded, values[:1], ends)
        assert np.array_equal(got, [general(values[:1], graded, d) for d in ends])


def _reference_interp(nodes, row, z):
    i = int(np.searchsorted(nodes, z, side="right")) - 1
    i = min(max(i, 0), nodes.size - 2)
    x0, x1 = nodes[i], nodes[i + 1]
    v0, v1 = row[i], row[i + 1]
    t = (z - x0) / (x1 - x0)
    t = min(max(t, 0.0), 1.0)
    val = v0 + t * (v1 - v0)
    lo, hi = (v0, v1) if v0 <= v1 else (v1, v0)
    return min(max(val, lo), hi)


def _reference_modulus(nodes, row, delta):
    """The general path as it was first written: a loop over window starts."""
    lo_z = nodes[0]
    hi_z = max(nodes[-1] - delta, lo_z)
    starts = np.unique(np.clip(np.concatenate([nodes, nodes - delta]), lo_z, hi_z))
    best = 0.0
    for z in starts:
        z2 = min(z + delta, nodes[-1])
        a = _reference_interp(nodes, row, z)
        b = _reference_interp(nodes, row, z2)
        wmax = a if a >= b else b
        wmin = a if a <= b else b
        lo = int(np.searchsorted(nodes, z, side="right"))
        hi = int(np.searchsorted(nodes, z2, side="left"))
        if hi > lo:
            inner = row[lo:hi]
            wmax = max(wmax, float(inner.max()))
            wmin = min(wmin, float(inner.min()))
        best = max(best, wmax - wmin)
    return best


@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from(["uniform", "random", "graded"]),
    rows=st.integers(min_value=1, max_value=20),
    n=st.integers(min_value=2, max_value=200),
    frac=st.floats(min_value=1e-3, max_value=1.0),
    j=st.integers(min_value=1, max_value=199),
    integer_values=st.booleans(),
    block=st.sampled_from([1, 500, 2**15]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_general_modulus_matches_loop_reference(
    grid, rows, n, frac, j, integer_values, block, seed
):
    from unittest import mock

    from hilfer_mnc import mnc

    rng = np.random.default_rng(seed)
    if grid == "uniform":
        nodes = uniform_nodes(3.0, n)
    elif grid == "random":
        nodes = 1.0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
    else:
        nodes = 1.0 + 2.0 * np.linspace(0.0, 1.0, n) ** 2
    values = rng.standard_normal((rows, n))
    if integer_values:  # flat stretches and ties between window ends and inner nodes
        values = np.round(2.0 * values)
    span = nodes[-1] - nodes[0]
    j = min(j, n - 1)
    # a fraction of the span, a node distance, and half a first step past it
    reach = nodes[j] - nodes[0]
    deltas = [frac * span, reach, min(reach + 0.5 * (nodes[1] - nodes[0]), span)]
    # block 1 runs one row per block, 500 a few rows, 2**15 all of them at once
    with mock.patch.object(mnc, "_GENERAL_BLOCK", block):
        for delta in deltas:
            want = [_reference_modulus(nodes, row, delta) for row in values]
            got = [mnc._modulus_general(nodes, row, delta) for row in values]
            assert np.array_equal(got, want)
            assert mnc._modulus_general(nodes, values, delta) == max(want)


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


_NAN = float("nan")


@pytest.mark.parametrize(
    "deltas, moduli, mu0, message",
    [
        (np.ones((2, 2)), np.ones((2, 2)), 0.0, "deltas and moduli must be matching vectors"),
        ([0.5, 0.25, 0.125], [0.2, 0.1], 0.0, "deltas and moduli must be matching vectors"),
        ([0.5, 0.5, 0.125], [0.3, 0.2, 0.1], 0.0, "deltas must be strictly decreasing"),
        ([0.125, 0.25, 0.5], [0.3, 0.2, 0.1], 0.0, "deltas must be strictly decreasing"),
        ([0.5, _NAN, 0.125], [0.3, 0.2, 0.1], 0.0, "deltas must be strictly decreasing"),
        ([0.5, 0.25, 0.125], [0.0, 2e-12, 0.0], 0.0, "moduli must be nonincreasing along the ladder"),
        ([0.5, 0.25, 0.125], [0.3, _NAN, 0.1], 0.0, "moduli must be nonincreasing along the ladder"),
        ([0.5, 0.25, 0.125], [0.3, 0.2, 0.1], -1e-3, "mu0 must be >= 0"),
        ([0.5, 0.25, 0.125], [0.3, 0.2, 0.1], _NAN, "mu0 must be >= 0"),
    ],
    ids=[
        "2-d",
        "mismatched",
        "equal-deltas",
        "increasing-deltas",
        "nan-delta",
        "rising-moduli",
        "nan-modulus",
        "negative-mu0",
        "nan-mu0",
    ],
)
def test_mnc_estimate_refuses_a_bad_ladder(deltas, moduli, mu0, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        MncEstimate(deltas=deltas, moduli=moduli, mu0=mu0)


def test_mnc_estimate_accepts_a_rise_of_exactly_the_slack():
    # 1e-12 - 0.0 is exactly the slack left for the interpolated general path
    est = MncEstimate(deltas=[0.5, 0.25, 0.125], moduli=[0.0, 1e-12, 1e-12], mu0=0.0)
    assert est.deltas.dtype == est.moduli.dtype == np.float64
    np.testing.assert_array_equal(est.moduli, [0.0, 1e-12, 1e-12])


def test_fit_intercept_matches_polyfit():
    from hilfer_mnc.mnc import _fit_intercept

    rng = np.random.default_rng(11)
    for _ in range(2000):
        # a decreasing ladder of three deltas and nonincreasing moduli in [0, 1]
        x = rng.uniform(1e-3, 1.0) * np.cumprod(rng.uniform(1.1, 4.0, 3))[::-1]
        y = np.sort(rng.uniform(0.0, 1.0, 3))[::-1]
        want = np.polyfit(x, y, 1)[1]
        got = _fit_intercept(x.tolist(), y.tolist())
        assert abs(got - want) <= max(1e-12 * abs(want), 1e-15)


def test_mnc_estimate_clamps_a_negative_intercept():
    # two unit jumps 8 steps apart: moduli 2, 1, 1 at 8, 6, 4 steps lie on
    # a line with intercept -1/6, which the estimate clamps to zero
    nodes = np.linspace(1.0, 3.0, 33)
    values = np.zeros(33)
    values[10:] += 1.0
    values[17:] += 1.0
    deltas = [0.5, 0.375, 0.25]
    est = mnc_estimate(FunctionEnsemble(nodes, values[None, :]), deltas)
    np.testing.assert_array_equal(est.moduli, [2.0, 1.0, 1.0])
    assert np.polyfit(deltas, est.moduli, 1)[1] == pytest.approx(-1.0 / 6.0)
    assert est.mu0 == 0.0
    assert est.hausdorff == 0.0


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


def test_darbo_passes_one_near_band_to_every_step(monkeypatch):
    # above 2049 nodes darbo_iterate builds the operator's near band once
    # and gives it to every step; the trace is the same, bit for bit, as
    # steps that each build their own
    cfg = bundled_example()
    eq = cfg.equations[0]
    n, p_max, samples, rng_seed = 4097, 3, 2, 5
    nodes = uniform_nodes(3.0, n)
    seed_values = np.random.default_rng(4).uniform(-0.1, 0.1, size=(3, n))
    bands = []
    batch = mnc_mod.apply_operator_batch

    def recorded(op, grid, values, *, band=None):
        bands.append(band)
        return batch(op, grid, values, band=band)

    monkeypatch.setattr(mnc_mod, "apply_operator_batch", recorded)
    trace = darbo_iterate(
        eq, FunctionEnsemble(nodes, seed_values), p_max, samples, cfg.mnc.deltas, rng_seed
    )
    assert len(bands) == p_max and bands[0] is not None
    assert all(band is bands[0] for band in bands)
    draws = np.random.default_rng(rng_seed)
    values = seed_values
    for got in trace[1:]:
        images = batch(eq, nodes, values)
        weights = draws.dirichlet(np.ones(images.shape[0]), size=samples)
        values = np.vstack([images, weights @ images])
        want = mnc_estimate(FunctionEnsemble(nodes, values), cfg.mnc.deltas)
        assert np.array_equal(got.moduli, want.moduli) and got.mu0 == want.mu0


_MIXED_LADDER = [0.5, 0.3, 0.1, 1.0 / 64.0, 0.011]


@pytest.mark.parametrize(
    "grid, n, rows, samples, p_max, deltas",
    [
        ("graded", 129, 5, 4, 3, _MIXED_LADDER),
        ("uniform", 129, 5, 4, 3, _MIXED_LADDER),
        ("uniform", 129, 5, 0, 3, _MIXED_LADDER),
        ("graded", 65, 5, 0, 3, _MIXED_LADDER),
        ("uniform", 65, 5, 4, 3, _MIXED_LADDER),
        ("uniform", 129, 5, 4, 3, None),
        ("uniform", 4097, 3, 4, 2, None),
    ],
    ids=[
        "graded-129",
        "uniform-129",
        "uniform-129-no-samples",
        "graded-65-no-samples",
        "uniform-65",
        "uniform-129-bundled-ladder",
        "uniform-4097-moments",
    ],
)
def test_planned_darbo_trace_matches_the_estimate_of_every_step(grid, n, rows, samples, p_max, deltas):
    # darbo_iterate plans the ladder once for the trace and measures each
    # step's images; each estimate has the bits of mnc_estimate on that
    # step's whole sampled ensemble, images and convex samples, the last
    # step's included. On t = 1 + 2 u^2 every delta takes the general path;
    # on the uniform grid the mixed ladder has node-aligned deltas (1/2,
    # 1/64 at 129 nodes) and general ones, and the bundled ladder is all
    # aligned. At 4097 nodes the bundled equation (a = 2) sums panel moments
    cfg = bundled_example()
    eq = cfg.equations[0]
    deltas = cfg.mnc.deltas if deltas is None else deltas
    rng_seed = 6
    u = np.linspace(0.0, 1.0, n)
    nodes = 1.0 + 2.0 * u * u if grid == "graded" else uniform_nodes(3.0, n)
    seed_values = np.random.default_rng(12).uniform(-0.1, 0.1, size=(rows, n))
    trace = darbo_iterate(eq, FunctionEnsemble(nodes, seed_values), p_max, samples, deltas, rng_seed)
    draws = np.random.default_rng(rng_seed)
    values = seed_values
    assert len(trace) == p_max + 1
    for p, got in enumerate(trace):
        if p:
            images = mnc_mod.apply_operator_batch(eq, nodes, values)
            weights = draws.dirichlet(np.ones(images.shape[0]), size=samples)
            values = np.vstack([images, weights @ images])
        want = mnc_estimate(FunctionEnsemble(nodes, values), deltas)
        assert np.array_equal(got.moduli, want.moduli) and got.mu0 == want.mu0
        assert np.array_equal(got.deltas, want.deltas)


def test_darbo_trace_of_one_seed_row_differs_from_its_ensemble_by_rounding_alone():
    # from one seed row all images coincide, and every convex sample is the
    # image times a weight sum that rounds to 1 +- ulp: the whole ensemble's
    # ladder may then read a few ulp above the trace's (here at steps 2 and
    # 4), never below, since the images are some of its rows
    cfg = bundled_example()
    eq = cfg.equations[0]
    deltas = _MIXED_LADDER
    u = np.linspace(0.0, 1.0, 65)
    nodes = 1.0 + 2.0 * u * u
    seed_values = np.random.default_rng(12).uniform(-10.0, 10.0, size=(1, 65))
    trace = darbo_iterate(eq, FunctionEnsemble(nodes, seed_values), 4, 3, deltas, 8)
    draws = np.random.default_rng(8)
    values = seed_values
    for p, got in enumerate(trace):
        if p:
            images = mnc_mod.apply_operator_batch(eq, nodes, values)
            weights = draws.dirichlet(np.ones(images.shape[0]), size=3)
            values = np.vstack([images, weights @ images])
        want = mnc_estimate(FunctionEnsemble(nodes, values), deltas)
        assert (got.moduli <= want.moduli).all()
        np.testing.assert_allclose(got.moduli, want.moduli, rtol=1e-14, atol=0.0)
        assert got.mu0 == pytest.approx(want.mu0, rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("p_max", [1, 3])
def test_darbo_draws_samples_only_for_a_later_step(monkeypatch, p_max):
    # the convex samples of a step serve only the next step's application:
    # a trace of p_max steps draws them p_max - 1 times, and the operator
    # sees m0, m0 + samples, ... rows
    cfg = bundled_example()
    nodes = uniform_nodes(3.0, 129)
    m0, samples = 4, 3
    default_rng = np.random.default_rng
    draws, rows = [], []

    class CountingGenerator:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def dirichlet(self, alpha, size=None):
            draws.append(size)
            return self._rng.dirichlet(alpha, size=size)

    batch = mnc_mod.apply_operator_batch

    def recorded(op, grid, values, *, band=None):
        rows.append(values.shape[0])
        return batch(op, grid, values, band=band)

    seed = FunctionEnsemble(nodes, np.random.default_rng(3).uniform(-0.1, 0.1, size=(m0, 129)))
    monkeypatch.setattr(mnc_mod.np.random, "default_rng", CountingGenerator)
    monkeypatch.setattr(mnc_mod, "apply_operator_batch", recorded)
    trace = darbo_iterate(cfg.equations[0], seed, p_max, samples, cfg.mnc.deltas)
    assert len(trace) == p_max + 1
    assert draws == [samples] * (p_max - 1)
    assert rows == [m0 + k * samples for k in range(p_max)]


@pytest.mark.parametrize("deltas", [[0.5, 0.25, 0.0], [5.0, 1.0, 0.5]])
def test_darbo_refuses_a_bad_delta_before_any_application(monkeypatch, deltas):
    cfg = bundled_example()
    nodes = uniform_nodes(3.0, 129)
    calls = []
    monkeypatch.setattr(mnc_mod, "near_band", lambda *args: calls.append("near_band"))
    monkeypatch.setattr(mnc_mod, "apply_operator_batch", lambda *args, **kw: calls.append("apply"))
    seed = FunctionEnsemble(nodes, np.zeros((2, 129)))
    with pytest.raises(DomainError, match="^delta must"):
        darbo_iterate(cfg.equations[0], seed, 2, 1, deltas)
    assert calls == []


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


@pytest.mark.parametrize(
    "field, broken",
    [
        ("h", lambda z1, z2: 0.5 * (z1 + z2)),
        ("h", lambda z1, z2: z1 + z2 + (z1 + z2) ** 2),
        ("upsilon", lambda v: 0.5 * v + 1.0),
        ("upsilon", lambda v: -v),
        ("gamma_cmp", lambda v: 0.3 * v + 1.0),
        ("gamma_cmp", lambda v: v * (v - 5.0)),
    ],
    ids=["h-below-max", "h-not-subadditive", "upsilon-at-0", "upsilon-decreasing", "gamma-at-0",
         "gamma-not-positive"],
)
def test_certificate_classes_reject_each_broken_function(field, broken):
    # the other two functions are the built-ins, which pass every check
    cert = replace(default_certificate(gain=0.3), **{field: broken})
    assert not check_certificate_classes(cert)


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
