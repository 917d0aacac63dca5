"""Product-integration quadrature for the weakly singular integral."""

from __future__ import annotations

import inspect
import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilfer_mnc import fractional
from hilfer_mnc.errors import DomainError
from hilfer_mnc.fractional import (
    FracParams,
    GridFunction,
    closed_form_constant,
    hilfer_integral,
    measure_convergence_order,
    panel_weights,
    product_quadrature,
    uniform_nodes,
)
from hilfer_mnc.special_functions import k_gamma

_P = FracParams(k=1.0 / 3.0, rho=1.0 / 3.0, gamma_ord=2.0 / 3.0, T=3.0)
# points per block of the point rule on a 4096-panel mesh (4097 unit nodes)
_BLOCK = fractional._POINT_BLOCK // 4097


def _const(params: FracParams, c: float, n: int = 257) -> GridFunction:
    nodes = uniform_nodes(params.T, n)
    return GridFunction(nodes=nodes, values=np.full(nodes.shape, c))


def _s_aligned(params: FracParams, s_values, panels_mult: int = 8192) -> GridFunction:
    """phi sampled on nodes uniform in s = t**rho so the quadrature's
    evaluation points coincide with phi's own nodes."""
    X = params.T**params.rho
    s = 1.0 + (X - 1.0) * np.linspace(0.0, 1.0, panels_mult + 1)
    t = s ** (1.0 / params.rho)
    t[0], t[-1] = 1.0, params.T
    return GridFunction(nodes=t, values=np.asarray(s_values(s), dtype=float))


def test_params_validation():
    for kw in (
        dict(k=0.0, rho=0.3, gamma_ord=0.5, T=2.0),
        dict(k=1.0, rho=0.3, gamma_ord=0.5, T=2.0),
        dict(k=0.3, rho=0.0, gamma_ord=0.5, T=2.0),
        dict(k=0.3, rho=1.0, gamma_ord=0.5, T=2.0),
        dict(k=0.3, rho=0.3, gamma_ord=0.0, T=2.0),
        dict(k=0.3, rho=0.3, gamma_ord=1.0, T=2.0),
        dict(k=0.3, rho=0.3, gamma_ord=0.5, T=1.0),
        dict(k=0.0005, rho=0.5, gamma_ord=0.9, T=3.0),  # rho^(-gamma_ord/k) overflows
    ):
        with pytest.raises(DomainError):
            FracParams(**kw)
    assert _P.exponent == pytest.approx(2.0)


def test_grid_function_validation():
    good = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        GridFunction(nodes=np.array([0.5, 2.0, 3.0]), values=good)
    with pytest.raises(DomainError):
        GridFunction(nodes=np.array([1.0, 2.0, 2.0]), values=good)
    with pytest.raises(DomainError):
        GridFunction(nodes=good, values=np.array([1.0, np.nan, 2.0]))
    with pytest.raises(DomainError):
        GridFunction(nodes=good, values=np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        GridFunction(nodes=np.array([1.0]), values=np.array([1.0]))


def test_grid_function_interpolates():
    g = GridFunction(nodes=np.array([1.0, 2.0, 3.0]), values=np.array([0.0, 2.0, 0.0]))
    assert g(1.5) == 1.0
    assert g(2.5) == 1.0
    assert g.sup_norm == 2.0


def test_uniform_nodes():
    nodes = uniform_nodes(3.0, 5)
    np.testing.assert_allclose(nodes, [1.0, 1.5, 2.0, 2.5, 3.0])
    with pytest.raises(DomainError):
        uniform_nodes(3.0, 1)


@pytest.mark.parametrize("n", [2**60, 2**62, 2**63 - 1, 2**64])
def test_uniform_nodes_refuses_a_count_no_array_holds(n):
    # numpy refuses each of these counts before allocating (ValueError or
    # IndexError); uniform_nodes refuses them first, naming the count
    with pytest.raises(DomainError, match=f"need at most {fractional.MAX_FLOATS} nodes.*got {n}$"):
        uniform_nodes(3.0, n)


def test_value_at_left_endpoint_is_zero():
    assert hilfer_integral(_P, _const(_P, 5.0), 1.0) == 0.0


def test_domain_checks():
    phi = _const(_P, 1.0)
    with pytest.raises(DomainError):
        hilfer_integral(_P, phi, 0.5)
    with pytest.raises(DomainError):
        hilfer_integral(_P, phi, 3.5)
    short = GridFunction(nodes=np.array([1.0, 2.0]), values=np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        hilfer_integral(_P, short, 2.0)
    with pytest.raises(DomainError):
        product_quadrature(_P, phi, 2.0, panels=0)
    with pytest.raises(DomainError):
        product_quadrature(_P, phi, 2.0, mesh="chebyshev")


def test_domain_check_names_the_point_outside():
    phi = _const(_P, 1.0)
    with pytest.raises(DomainError, match=r"got 3\.5$"):
        product_quadrature(_P, phi, np.array([1.0, 2.0, 3.5, 2.5]))
    with pytest.raises(DomainError, match=r"got nan$"):
        product_quadrature(_P, phi, np.array([2.0, np.nan]))
    with pytest.raises(DomainError):
        product_quadrature(_P, phi, np.full((2, 2), 2.0))


def test_constant_closed_form_frozen():
    # mpmath at 40 digits for phi == 1
    cases = [
        (FracParams(k=1.0 / 3.0, rho=1.0 / 3.0, gamma_ord=2.0 / 3.0, T=3.0), 1.7, 1.5161476951148234863),
        (FracParams(k=1.0 / 3.0, rho=1.0 / 3.0, gamma_ord=2.0 / 3.0, T=3.0), 3.0, 7.921179638702038379),
        (FracParams(k=0.7, rho=0.45, gamma_ord=0.5, T=3.0), 1.7, 0.98201666688054228162),
        (FracParams(k=0.7, rho=0.45, gamma_ord=0.5, T=3.0), 3.0, 1.819414202960954536),
        (FracParams(k=0.35, rho=0.8, gamma_ord=0.9, T=2.5), 1.7, 1.4254757044255293789),
        (FracParams(k=0.35, rho=0.8, gamma_ord=0.9, T=2.5), 2.5, 8.9703452632203823772),
    ]
    for params, x, want in cases:
        assert closed_form_constant(params, x) == pytest.approx(want, rel=1e-12)
        got = hilfer_integral(params, _const(params, 1.0), x)
        assert got == pytest.approx(want, rel=1e-10)


def test_constant_is_integrated_exactly_at_any_panel_count():
    want = 2.5 * closed_form_constant(_P, 2.4)
    for panels in (1, 3, 16):
        got = product_quadrature(_P, _const(_P, 2.5), 2.4, panels=panels)
        assert got == pytest.approx(want, rel=1e-13)


def test_linear_in_s_is_integrated_exactly():
    phi = _s_aligned(_P, lambda s: 7.0 - 2.0 * s)
    a = _P.exponent
    gk = k_gamma(_P.k, _P.gamma_ord).value
    X_T = _P.T**_P.rho
    # upper limits whose s-meshes stay aligned with phi's nodes
    half_x = float((1.0 + 0.5 * (X_T - 1.0)) ** (1.0 / _P.rho))
    for x in (half_x, 3.0):
        X = x**_P.rho
        # int_1^X (X-s)^(a-1) (7 - 2s) ds via the Beta moments
        exact = (
            _P.rho ** (-a)
            / (_P.k * gk)
            * (
                5.0 * (X - 1.0) ** a / a
                - 2.0 * math.gamma(2.0) * math.gamma(a) / math.gamma(2.0 + a)
                * (X - 1.0) ** (1.0 + a)
            )
        )
        got = product_quadrature(_P, phi, x, panels=512)
        assert got == pytest.approx(exact, rel=1e-12)


def test_sin_frozen_reference():
    # mpmath at 40 digits for phi = sin(t)
    nodes = uniform_nodes(3.0, 20001)
    phi = GridFunction(nodes=nodes, values=np.sin(nodes))
    got2 = product_quadrature(_P, phi, 2.0, panels=2048)
    got3 = product_quadrature(_P, phi, 3.0, panels=2048)
    assert got2 == pytest.approx(2.566223726879020745, rel=1e-6)
    assert got3 == pytest.approx(7.194322194127952647, rel=1e-6)


def test_graded_mesh_agrees_with_uniform():
    nodes = uniform_nodes(3.0, 20001)
    phi = GridFunction(nodes=nodes, values=np.sin(nodes))
    u = product_quadrature(_P, phi, 3.0, panels=2048, mesh="uniform")
    g = product_quadrature(_P, phi, 3.0, panels=2048, mesh="graded")
    assert g == pytest.approx(7.194322194127952647, rel=1e-6)
    assert abs(u - g) <= 1e-5


def test_gamma_k_value_rescales_prefactor():
    phi = _const(_P, 1.0)
    base = product_quadrature(_P, phi, 2.5)
    replaced = product_quadrature(replace(_P, gamma_k_override=2.4047), phi, 2.5)
    gk = k_gamma(_P.k, _P.gamma_ord).value
    assert replaced == pytest.approx(base * gk / 2.4047, rel=1e-13)
    assert "gamma_k_value" not in inspect.signature(product_quadrature).parameters
    assert "gamma_k_value" not in inspect.signature(closed_form_constant).parameters


@pytest.mark.parametrize("override", [None, 2.4047])
def test_prefactor_has_the_bits_of_its_expression(override):
    params = replace(_NEAR_ONE, gamma_k_override=override)
    gk = k_gamma(params.k, params.gamma_ord).value if override is None else override
    assert params.gamma_k == gk
    assert params.prefactor == params.rho ** (-params.exponent) / (params.k * gk)


def test_params_compute_gamma_k_once_each(monkeypatch):
    # Gamma_k is kept per params object; an override computes none
    calls = []

    def counted(k, z):
        calls.append((k, z))
        return k_gamma(k, z)

    monkeypatch.setattr(fractional, "k_gamma", counted)
    params = replace(_P)
    for _ in range(3):
        params.gamma_k, params.prefactor
    assert calls == [(params.k, params.gamma_ord)]
    replace(params).prefactor
    assert len(calls) == 2
    replace(params, gamma_k_override=2.4047).prefactor
    assert len(calls) == 2


# (k, rho, gamma_ord, T) of the frac-int workload; kernel exponent 0.5
_NEAR_ONE = FracParams(k=0.6, rho=0.4, gamma_ord=0.3, T=3.0)


@pytest.mark.parametrize("mesh", ["uniform", "graded"])
def test_points_next_to_left_endpoint_stay_finite(mesh):
    # a per-point s-mesh 1 + (X - 1) * lin rounds to repeated nodes this
    # close to x = 1, where the divided differences are 0 / 0; the unit mesh
    # cannot collapse
    phi = _const(_NEAR_ONE, 1.0, n=4097)
    xs = np.array([1.000000000001, 1.000000001])
    got = product_quadrature(_NEAR_ONE, phi, xs, panels=4096, mesh=mesh)
    for x, value in zip(xs, got):
        want = closed_form_constant(_NEAR_ONE, x)
        assert value == pytest.approx(want, rel=1e-12)
        assert product_quadrature(_NEAR_ONE, phi, x, panels=4096, mesh=mesh) == value


@pytest.mark.parametrize("mesh", ["uniform", "graded"])
def test_array_call_matches_scalar_calls(mesh):
    # two full blocks and part of a third; unsorted, repeated, and x = 1
    # where the integrand is negative (the value must be +0.0, not -0.0)
    nodes = uniform_nodes(_P.T, 513)
    phi = GridFunction(nodes=nodes, values=np.cos(2.0 * nodes) - 0.9)
    rng = np.random.default_rng(7)
    xs = np.concatenate(([2.5, 1.0, 3.0], rng.uniform(1.0, 3.0, 2 * _BLOCK), [2.5, 1.0, 1.2]))
    got = product_quadrature(_P, phi, xs, panels=4096, mesh=mesh)
    want = np.array([product_quadrature(_P, phi, float(x), panels=4096, mesh=mesh) for x in xs])
    assert got.shape == xs.shape
    assert np.array_equal(got, want)
    assert np.all(got[xs == 1.0] == 0.0) and not np.any(np.signbit(got[xs == 1.0]))
    empty = product_quadrature(_P, phi, np.array([]), panels=4096, mesh=mesh)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_array_call_builds_weights_and_gamma_k_once(monkeypatch):
    calls = {"panel_weights": 0, "k_gamma": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fractional, "panel_weights", counting("panel_weights", panel_weights))
    monkeypatch.setattr(fractional, "k_gamma", counting("k_gamma", k_gamma))
    # a fresh params object: _P keeps the Gamma_k an earlier test computed
    params = replace(_P)
    xs = np.linspace(1.0, params.T, 256)
    product_quadrature(params, _const(params, 1.0), xs, panels=4096, mesh="graded")
    assert calls == {"panel_weights": 1, "k_gamma": 1}


def _longdouble_point_rule(params: FracParams, x: float, dist: np.ndarray, v: np.ndarray) -> np.longdouble:
    """The product rule at x on the exact scaled mesh, in extended precision.

    dist is the unit mesh as distances 1 - sigma from its singular end, so the
    s-mesh's distances X - s = (X - 1) dist carry no cancellation. Summed by
    parts like the program; Gamma_k is the program's float64 value.
    """
    X = np.longdouble(x**params.rho)
    a = np.longdouble(params.exponent)
    g = np.asarray(v, dtype=np.longdouble)
    d = (X - 1) * np.asarray(dist, dtype=np.longdouble)
    w = np.zeros_like(d)
    ahead = d > 0
    w[ahead] = np.exp((a + 1) * np.log(d[ahead]))
    slopes = (w[1:] - w[:-1]) / (d[:-1] - d[1:])
    total = (a + 1) * d[0] ** a * g[0] - (g[1:] - g[:-1]) @ slopes
    gk = np.longdouble(k_gamma(params.k, params.gamma_ord).value)
    pref = np.longdouble(params.rho) ** -a / (np.longdouble(params.k) * gk)
    return pref * total / (a * (a + 1))


def test_point_rule_matches_extended_precision():
    # error relative to |W| @ |v|, the rule applied to |v| (W >= 0); phi is
    # sampled at the program's own float64 mesh, so only the weights and the
    # sum are compared
    T = 10.0
    nodes = uniform_nodes(T, 2001)
    xs = np.array([1.0 + 1e-9, 1.5, 3.0, 10.0])
    errors = []
    for a, rho, mesh, panels in itertools.product(
        (0.2, 0.5, 1.3, 2.0), (0.1, 0.4, 0.9), ("uniform", "graded"), (7, 1024)
    ):
        params = FracParams(k=0.45, rho=rho, gamma_ord=0.45 * a, T=T)
        if mesh == "uniform":
            lin = np.linspace(0.0, 1.0, panels + 1)
            dist = 1 - lin.astype(np.longdouble)
        else:
            lin = np.linspace(1.0, 0.0, panels + 1) ** 2.0
            dist = lin
        for f in (np.cos, lambda t: np.exp(-t / T)):
            phi = GridFunction(nodes=nodes, values=f(nodes))
            got = product_quadrature(params, phi, xs, panels=panels, mesh=mesh)
            for x, value in zip(xs, got):
                X = x**rho
                s = X - (X - 1.0) * lin if mesh == "graded" else 1.0 + (X - 1.0) * lin
                v = phi(s ** (1.0 / rho))
                exact = _longdouble_point_rule(params, x, dist, v)
                scale = _longdouble_point_rule(params, x, dist, np.abs(v))
                errors.append(float(abs(value - exact) / scale))
    # a NaN fails this too
    assert np.all(np.array(errors) <= 1e-14), max(errors)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=4.0),
    span=st.floats(min_value=0.1, max_value=2.0),
)
def test_point_rule_node_weights_are_nonnegative(a, span):
    # the point rule's node weights, derived from panel_weights' slopes, are
    # nonnegative, and their clamp drops no more than rounding: they still
    # sum to int_1^X (X - s)^(a-1) ds = (X-1)^a / a
    s = 1.0 + span * np.linspace(0.0, 1.0, 17)
    w = fractional._node_weights(float(s[-1]), s.copy(), a)
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(span**a / a, rel=1e-12)


def test_panel_weights_reproduce_plain_moment():
    # p == 1 has no differences, so its integral is the boundary entry over
    # a (a+1): int_1^X (X - s)^(a-1) ds = (X-1)^a / a. p = s - 1 adds the
    # slopes: a (a+1) int_1^X (X - s)^(a-1) (s - 1) ds = (X-1)^(a+1)
    a = 1.7
    s = 1.0 + 0.8 * np.linspace(0.0, 1.0, 33)
    linear = np.concatenate(([0.0], -np.diff(s)))
    for X in (float(s[-1]), float(s[20]), 0.5 * float(s[9] + s[10])):
        c = panel_weights(X, s, a)
        assert c[0] / (a * (a + 1.0)) == pytest.approx((X - 1.0) ** a / a, rel=1e-14)
        assert c @ linear == pytest.approx((X - 1.0) ** (a + 1.0), rel=1e-13)


def test_panel_weights_are_the_near_band_slopes():
    # entry j + 1 is power_differences over panel j's width, bit for bit, a
    # stale work buffer gives the same bits, and every panel that starts at
    # or beyond X weighs nothing
    s = 1.0 + 0.9 * np.linspace(0.0, 1.0, 41) ** 1.5
    limits = np.append(s[[1, 2, 7, 19, 40]], 0.5 * (s[25] + s[26]))
    for a in (0.5, 1.0, 2.0, 3.3):
        w, d = np.empty((s.size, limits.size)), np.empty((s.size - 1, limits.size))
        slopes = fractional.power_differences(limits, s, a, w, d) / np.diff(s)[:, None]
        stale = np.full(2 * s.size + 7, np.nan)
        for X, want in zip(limits, slopes.T):
            c = panel_weights(X, s, a)
            assert np.array_equal(c[1:], want)
            assert np.array_equal(panel_weights(X, s, a, stale), c)
            ahead = np.searchsorted(s, X) + 1
            assert np.all(c[1:ahead] < 0.0) and np.all(c[ahead:] == 0.0)


def test_power_differences_skip_zeros_bit_for_bit():
    # results are in the (panels, limits) layout. pow is skipped where
    # X - s clamps to zero, and the differences must equal the plain
    # formula's, which raises every clamped entry to the power too, at
    # every exponent, a + 1 = 3 included
    rng = np.random.default_rng(17)
    exponents = set()
    for _ in range(200):
        cols = int(rng.integers(2, 300))
        s = np.cumsum(rng.uniform(0.01, 1.0, cols)) + rng.uniform(-2.0, 2.0)
        # limits below, inside, on and beyond the mesh
        limits = np.concatenate(
            [
                rng.uniform(s[0] - 1.0, s[-1] + 1.0, int(rng.integers(1, 20))),
                rng.choice(s, 3),
                [s[0] - 0.5, s[-1] + 0.5],
            ]
        )
        rng.shuffle(limits)
        a = float(rng.choice([0.05, 0.5, 1.0, 2.0, 3.0, 3.7, rng.uniform(0.01, 5.0)]))
        w = np.power(np.maximum(limits - s[:, None], 0.0), a + 1.0)
        exponents.add(a + 1.0)
        want = w[1:] - w[:-1]
        work = np.full(cols * limits.size, np.nan).reshape(cols, limits.size)
        got = fractional.power_differences(limits, s, a, work, np.empty((cols - 1, limits.size)))
        assert np.array_equal(got, want)
        assert np.array_equal(work, w)
    assert 3.0 in exponents


def test_convergence_order_smooth():
    nodes = uniform_nodes(3.0, 20001)
    phi = GridFunction(nodes=nodes, values=np.sin(nodes))
    order = measure_convergence_order(_P, phi, 3.0, [64, 128, 256, 512])
    assert 1.9 <= order <= 2.3


def test_convergence_order_kink_stays_second_order():
    # the kink sits away from the singular endpoint
    nodes = uniform_nodes(3.0, 20001)
    phi = GridFunction(nodes=nodes, values=np.abs(nodes - 2.0))
    order = measure_convergence_order(_P, phi, 3.0, [64, 128, 256, 512])
    assert order >= 0.9


def test_convergence_order_exact_sentinel():
    assert measure_convergence_order(_P, _const(_P, 3.25), 3.0, [128, 256, 512]) == math.inf
    lin = _s_aligned(_P, lambda s: 7.0 - 2.0 * s)
    assert measure_convergence_order(_P, lin, 3.0, [128, 256, 512]) == math.inf


def test_convergence_order_validation():
    phi = _const(_P, 1.0)
    with pytest.raises(DomainError):
        measure_convergence_order(_P, phi, 3.0, [128, 256])
    with pytest.raises(DomainError):
        measure_convergence_order(_P, phi, 3.0, [256, 128, 512])


# -- the threaded point rule ----------------------------------------------------


@pytest.fixture
def helper_threads(monkeypatch):
    """Sets the point rule's helper count."""

    def use(n: int) -> None:
        monkeypatch.setattr(fractional, "_helper_count", lambda: n)

    return use


def _wavy(n: int = 4097) -> GridFunction:
    nodes = uniform_nodes(_NEAR_ONE.T, n)
    return GridFunction(nodes=nodes, values=np.cos(3.0 * nodes) - 0.4 * nodes)


@pytest.mark.parametrize("mesh", ["uniform", "graded"])
@pytest.mark.parametrize(
    "points",
    [None, _BLOCK - 2, 2 * _BLOCK, 3 * _BLOCK + 5, 256],
    ids=["scalar", "1-block", "2-blocks", "partial-last-block", "256-points"],
)
def test_pooled_point_rule_is_bit_identical_to_serial(helper_threads, mesh, points):
    phi = _wavy()
    rng = np.random.default_rng(11)
    x = 2.2 if points is None else np.sort(rng.uniform(1.0, _NEAR_ONE.T, points))
    helper_threads(0)
    want = product_quadrature(_NEAR_ONE, phi, x, panels=4096, mesh=mesh)
    for helpers in (1, 3):
        helper_threads(helpers)
        got = product_quadrature(_NEAR_ONE, phi, x, panels=4096, mesh=mesh)
        assert np.array_equal(got, want)
        assert type(got) is type(want)


def test_helpers_run_blocks_and_are_joined_before_the_call_returns(helper_threads):
    # each thread's first sample of phi waits until the other thread has made
    # one, so both threads take part whatever the scheduling (a helper that
    # started first cannot take every block); no helper outlives the call
    callers = set()
    both = threading.Condition()

    class RecordingGrid(GridFunction):
        def __call__(self, x):
            with both:
                if threading.get_ident() not in callers:
                    callers.add(threading.get_ident())
                    both.notify_all()
                    both.wait_for(lambda: len(callers) == 2, timeout=10)
            return super().__call__(x)

    xs = np.linspace(1.0, _NEAR_ONE.T, 4 * _BLOCK)
    helper_threads(0)
    want = product_quadrature(_NEAR_ONE, _wavy(), xs, panels=4096)
    helper_threads(1)
    phi = RecordingGrid(nodes=_wavy().nodes, values=_wavy().values)
    before = threading.active_count()
    got = product_quadrature(_NEAR_ONE, phi, xs, panels=4096)
    assert threading.active_count() == before
    assert len(callers) == 2
    assert np.array_equal(got, want)


def test_concurrent_calls_each_get_their_own_values(helper_threads):
    # 4 callers with 3 helpers each on any number of cores, switching threads
    # often: a block claimed twice or never would leave a wrong or unset value
    helper_threads(3)
    xs = np.linspace(1.0, _NEAR_ONE.T, 60)
    base = _wavy()
    phis = [GridFunction(nodes=base.nodes, values=base.values * c) for c in (1.0, -2.0, 0.5, 3.0)]
    want = [product_quadrature(_NEAR_ONE, phi, xs, panels=4096) for phi in phis]
    got: dict[tuple[int, int], np.ndarray] = {}

    def call(j: int) -> None:
        for rep in range(5):
            got[j, rep] = product_quadrature(_NEAR_ONE, phis[j], xs, panels=4096)

    threads = [threading.Thread(target=call, args=(j,)) for j in range(len(phis))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(got[j, rep], want[j]) for j in range(len(phis)) for rep in range(5))


def test_an_error_in_any_block_propagates(helper_threads):
    calls = []
    lock = threading.Lock()

    class FailingGrid(GridFunction):
        """Raises on its fifth evaluation, on whichever thread makes it."""

        def __call__(self, x):
            with lock:
                calls.append(threading.get_ident())
                if len(calls) == 5:
                    raise ValueError("fifth block")
            return super().__call__(x)

    helper_threads(3)
    phi = FailingGrid(nodes=_wavy().nodes, values=_wavy().values)
    with pytest.raises(ValueError, match="fifth block"):
        product_quadrature(_NEAR_ONE, phi, np.linspace(1.0, 3.0, 16 * _BLOCK), panels=4096)
    # 16 blocks: after the error each thread finishes at most the block it holds
    assert len(calls) <= 5 + 3


@pytest.mark.parametrize("helpers", [0, 3])
def test_caller_errstate_does_not_change_values(helper_threads, helpers):
    helper_threads(helpers)
    phi = _wavy()
    xs = np.random.default_rng(5).uniform(1.0, _NEAR_ONE.T, 256)
    want = product_quadrature(_NEAR_ONE, phi, xs, panels=4096, mesh="graded")
    with np.errstate(all="raise"):
        got = product_quadrature(_NEAR_ONE, phi, xs, panels=4096, mesh="graded")
    assert np.array_equal(got, want)


@pytest.mark.parametrize("helpers", [0, 3])
def test_overflowing_integral_raises_domain_error(helper_threads, helpers):
    # a = 1: the unit weights sum to 1, so the row sums stay finite and the
    # prefactor, above 1 from x = 1.12 on, carries the value past the double range
    helper_threads(helpers)
    params = FracParams(k=0.5, rho=0.5, gamma_ord=0.5, T=3.0)
    nodes = uniform_nodes(params.T, 4097)
    phi = GridFunction(nodes=nodes, values=np.full(nodes.shape, 1.7e308))
    xs = np.linspace(1.0, 3.0, 40)  # more than one block
    assert xs.size > _BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^the integral overflows a double at x = 1\.6153846153846154 "):
            product_quadrature(params, phi, xs, panels=4096)
        # a = 1/2: the unit weights sum to 2 and the row sums overflow
        # themselves; the value at x = 1 stays 0
        phi = GridFunction(nodes=uniform_nodes(_NEAR_ONE.T, 4097), values=phi.values)
        xs = np.concatenate(([1.0, 1.0 + 1e-9], np.linspace(1.5, 3.0, 20)))
        with pytest.raises(DomainError, match=r"^the integral overflows a double at x = 1\.000000001 "):
            product_quadrature(_NEAR_ONE, phi, xs, panels=4096)


_FORK_PROBE = """
import os, sys, time
import numpy as np
from hilfer_mnc import fractional
from hilfer_mnc.fractional import FracParams, GridFunction, product_quadrature, uniform_nodes

fractional._helper_count = lambda: 2
params = FracParams(k=0.6, rho=0.4, gamma_ord=0.3, T=3.0)
nodes = uniform_nodes(3.0, 4097)
phi = GridFunction(nodes=nodes, values=np.cos(nodes))
xs = np.linspace(1.0, 3.0, 64)
want = product_quadrature(params, phi, xs, panels=4096)
pid = os.fork()
if pid == 0:
    os._exit(0 if np.array_equal(product_quadrature(params, phi, xs, panels=4096), want) else 1)
deadline = time.monotonic() + 60
while True:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        print("child exit", os.waitstatus_to_exitcode(status))
        break
    if time.monotonic() > deadline:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        print("child hung")
        break
    time.sleep(0.01)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_a_threaded_call_gets_the_same_values():
    # the child starts helper threads of its own and finishes within 60 s
    run = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "child exit 0"


# -- the mesh power -------------------------------------------------------------


def _affine_meshes(params: FracParams, x: np.ndarray, panels: int, mesh: str) -> tuple:
    """X = x^rho, the unit mesh, its limit and every point's s-mesh (a row each), as the point rule forms them."""
    X = np.array([p**params.rho for p in x.tolist()])
    if mesh == "uniform":
        unit = np.linspace(0.0, 1.0, panels + 1)
        origin, end = np.ones_like(X), 1.0
    else:
        unit = -np.linspace(1.0, 0.0, panels + 1) ** fractional._GRADING_POWER
        origin, end = X, 0.0
    s = np.multiply((X - 1.0)[:, None], unit)
    s += origin[:, None]
    return X, unit, end, s


def _second_difference_weights(X: float, s: np.ndarray, a: float) -> np.ndarray:
    """The point rule's node weights, written out: second divided differences of (X - s)_+^(a+1).

    Each weight is the difference of its two panels' slopes, the first
    node's plus the boundary term (a+1) (X - s[0])^a, over a (a+1), clamped
    at 0: the point rule's bits, kept here apart from fractional._node_weights.
    """
    limits = np.array([X])
    w, d = np.empty((s.size, 1)), np.empty((s.size - 1, 1))
    fractional.power_differences(limits, s, a, w, d)
    d /= np.diff(s)[:, None]
    np.add((a + 1.0) * np.maximum(limits - s[0], 0.0) ** a, d[0], out=w[0])
    np.subtract(d[1:], d[:-1], out=w[1:-1])
    np.negative(d[-1], out=w[-1])
    w /= a * (a + 1.0)
    np.maximum(w, 0.0, out=w)
    return w[:, 0]


def _np_power_point_rule(params: FracParams, phi: GridFunction, x: np.ndarray, panels: int, mesh: str) -> np.ndarray:
    """The point rule with every mesh mapped back by np.power, s **= 1 / rho, whatever rho is."""
    a = params.exponent
    X, unit, end, s = _affine_meshes(params, x, panels, mesh)
    w = _second_difference_weights(end, unit, a)
    scale = params.rho ** (-a) / (params.k * k_gamma(params.k, params.gamma_ord).value) * (X - 1.0) ** a
    s **= 1.0 / params.rho
    v = phi(s)
    v *= w
    out = np.add.reduce(v, axis=1) * scale
    out[x == 1.0] = 0.0
    return out


_MESH_POINTS = np.concatenate(([1.0, 1.0 + 1e-9], np.sort(np.random.default_rng(23).uniform(1.0, 3.0, 254))))


@pytest.mark.parametrize("mesh", ["uniform", "graded"])
def test_mesh_power_for_rho_0_4_is_s_s_sqrt_s_within_two_ulps(helper_threads, mesh):
    seen = []

    class MeshRecorder(GridFunction):
        def __call__(self, x):
            seen.append(np.array(x))
            return super().__call__(x)

    helper_threads(0)
    phi = MeshRecorder(nodes=_wavy().nodes, values=_wavy().values)
    product_quadrature(_NEAR_ONE, phi, _MESH_POINTS, panels=4096, mesh=mesh)
    got = np.concatenate(seen)
    s = _affine_meshes(_NEAR_ONE, _MESH_POINTS, 4096, mesh)[3]
    assert got.shape == s.shape
    assert np.array_equal(got, s * s * np.sqrt(s))
    # three roundings allow up to 3 ulps; on these meshes the worst is 1.88
    exact = s.astype(np.longdouble) ** np.longdouble(2.5)
    ulps = np.abs(got - exact) / np.spacing(exact.astype(float))
    assert float(ulps.max()) <= 2.0


@pytest.mark.parametrize("mesh", ["uniform", "graded"])
def test_point_rule_values_against_np_power_meshes(helper_threads, mesh):
    # rho = 0.45 maps its meshes by np.power: the same bits; rho = 0.4 by
    # s*s*sqrt(s): the same values up to the last digits
    helper_threads(0)
    other = FracParams(k=0.6, rho=0.45, gamma_ord=0.3, T=3.0)
    for params, rtol in ((other, 0.0), (_NEAR_ONE, 1e-15)):
        phi = _wavy()
        got = product_quadrature(params, phi, _MESH_POINTS, panels=4096, mesh=mesh)
        want = _np_power_point_rule(params, phi, _MESH_POINTS, 4096, mesh)
        if rtol == 0.0:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
