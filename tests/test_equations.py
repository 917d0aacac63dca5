"""Operator assembly, batched application, and Lipschitz estimation."""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import hilfer_mnc.equations as eqmod
import hilfer_mnc.solver as solver_mod
from hilfer_mnc import fractional
from hilfer_mnc.config import bundled_example, parse_config
from hilfer_mnc.equations import (
    EquationSpec,
    Nonlinearity,
    apply_operator,
    apply_operator_batch,
    check_zero_conditions,
    estimate_lipschitz,
    near_band,
)
from hilfer_mnc.errors import DomainError, EvaluationError
from hilfer_mnc.fractional import FracParams, GridFunction, power_differences, uniform_nodes
from hilfer_mnc.solver import solve
from hilfer_mnc.special_functions import k_gamma

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
    n = Nonlinearity.from_string("abs(a)/6", lipschitz=1.0 / 6.0)
    assert n.lipschitz == pytest.approx(1.0 / 6.0)
    with pytest.raises(DomainError):
        Nonlinearity.from_string("a", lipschitz=-1.0)


def test_gamma_k_value_resolution():
    # the order parameters own Gamma_k and its override
    assert _ALPHA.params.gamma_k == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert replace(_ALPHA.params, gamma_k_override=2.4047).gamma_k == 2.4047
    for value in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(DomainError, match=rf"^gamma_k_override must be positive and finite, got {value}$"):
            replace(_ALPHA.params, gamma_k_override=value)


def test_operator_matches_brute_force_alpha():
    out = apply_operator(_ALPHA, _half(_ALPHA))
    for x, want in _FROZEN_ALPHA.items():
        assert float(out(x)) == pytest.approx(want, abs=5e-7)


def test_operator_matches_brute_force_beta():
    out = apply_operator(_BETA, _half(_BETA))
    for x, want in _FROZEN_BETA.items():
        assert float(out(x)) == pytest.approx(want, abs=5e-7)


def test_operator_with_override_matches_brute_force():
    eq = replace(_ALPHA, params=replace(_ALPHA.params, gamma_k_override=2.4047))
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


def _rule_eq(params: FracParams, gk: float = 1.0) -> EquationSpec:
    """An equation on params whose Gamma_k is gk."""
    return EquationSpec(params=replace(params, gamma_k_override=gk), f=_ALPHA.f, psi=_ALPHA.psi, g=_ALPHA.g)


def _integral(params: FracParams, nodes: np.ndarray, g: np.ndarray, gk: float = 1.0, band=None):
    """The operator's integral of g with Gamma_k = gk, through band or near_band(_rule_eq(...), nodes)."""
    if band is None:
        band = near_band(_rule_eq(params, gk), nodes)
    assert band.eq.params == replace(params, gamma_k_override=gk) and band.nodes is nodes
    return eqmod._integral_values(band, g)


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


def _check_large_grid_path(monkeypatch, params: FracParams, n: int, rng, rows) -> None:
    """The large-grid path may round differently from the dense matrix, but
    against an extended-precision evaluation of the same rule its error at
    rows must stay within 3x the dense path's (or 1e-14 of |W| @ |g|), on
    the _test_grids of n nodes, for two random and two smooth integrands.
    For a = 1 or 2 the large-grid path is the prefix sums above
    _INTEGER_MATRIX_MAX_NODES nodes, the general H^2 operator below."""
    prefix_above = eqmod._INTEGER_MATRIX_MAX_NODES
    for grid, nodes in _test_grids(params.T, n, rng).items():
        g = np.vstack(
            [rng.uniform(-0.5, 0.5, size=(2, n)), np.cos(nodes), np.exp(-nodes / params.T)]
        )
        monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", n)
        monkeypatch.setattr(eqmod, "_INTEGER_MATRIX_MAX_NODES", n)
        dense = _integral(params, nodes, g)
        eqmod._weight_matrix.cache_clear()
        monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
        monkeypatch.setattr(eqmod, "_INTEGER_MATRIX_MAX_NODES", prefix_above)
        fast = _integral(params, nodes, g)
        assert np.all(fast[:, 0] == 0.0)
        errs = _rule_errors(params, nodes, g, (dense, fast), rows)
        for kind, sel in (("random", slice(0, 2)), ("smooth", slice(2, 4))):
            dense_err, fast_err = errs[:, sel].max(axis=1)
            bound = max(3.0 * dense_err, 1e-14)
            assert fast_err <= bound, (n, params, grid, kind, fast_err, dense_err)


def test_streaming_path_matches_matrix_path(monkeypatch):
    rng = np.random.default_rng(5)
    for n, case in itertools.product((201, 1025), _RULE_CASES):
        _check_large_grid_path(monkeypatch, _rule_params(*case), n, rng, np.arange(1, n))


@pytest.mark.parametrize("n", [65, 130, 340, 341, 360, 4097, 4100])
def test_streaming_path_partial_last_cluster(monkeypatch, n):
    # 65 and 4097 nodes fill whole leaves of panels; 130, 340, 341, 360 and
    # 4100 continue the mesh past T by 63, 45, 44, 25 and 61 panels to a
    # whole last leaf, and the 65 leaves of 4100 end in a partial cluster
    # on every level above them. a = 2 takes the general operator here, not
    # the prefix sums
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
    monkeypatch.setattr(eqmod, "_INTEGER_MATRIX_MAX_NODES", 10**6)
    params = _rule_params(*_RULE_CASES[0])
    nodes = uniform_nodes(params.T, n)
    g = np.stack([np.cos(nodes), 1.0 + np.sqrt(nodes)])
    got = _integral(params, nodes, g)
    # every row of the last two leaves and a stride of the rest
    rows = np.unique(np.concatenate([np.arange(1, n, 37), np.arange(max(1, n - 130), n)]))
    assert _rule_errors(params, nodes, g, [got], rows).max() <= 1e-13


def test_streaming_path_last_row_is_accurate_on_rough_integrands():
    # 4097 nodes fill 64 leaves of panels and the last row shares the last
    # panel's leaf, so its far panels are interpolated as for every other
    # row. Evaluated exactly against all 4096 panels, this integrand's last
    # row errs by up to 1.4e-9 of |W| @ |g| on the u^2 grid and 1.1e-2 on u^4.
    # a = 2 takes the prefix sums of panel moments
    n = 4097
    u = np.linspace(0.0, 1.0, n)
    g = np.random.default_rng(41).uniform(-0.5, 0.5, size=(1, n))
    for a, rho, T in _RULE_CASES:
        params = _rule_params(a, rho, T)
        grids = {
            "uniform": (uniform_nodes(T, n), 1e-11),
            "u^2": (1.0 + (T - 1.0) * u**2, 1e-11),
            "u^4": (1.0 + (T - 1.0) * u**4, 1e-4),
        }
        for grid, (nodes, bound) in grids.items():
            got = _integral(params, nodes, g)
            err = _rule_errors(params, nodes, g, [got], [n - 1]).max()
            assert err <= bound, (a, rho, T, grid, err)
    eqmod._h2_operator.cache_clear()


def _count_exact_entries(monkeypatch) -> list:
    # the kernel the exact blocks of the large-grid path call
    entries = []

    def counted(X, s, a, w, d):
        entries.append(d.size)
        return power_differences(X, s, a, w, d)

    monkeypatch.setattr(eqmod, "power_differences", counted)
    return entries


def test_streaming_path_refines_blocks_that_are_close(monkeypatch):
    # on a grid graded toward t = 1 the s-spacing grows, so a row cluster is
    # wider than its gap to the columns; the block is split into its child
    # blocks instead of evaluated exactly, and the cost stays that of the
    # uniform grid (on t = 1 + 2 u^4, exact evaluation would take 3.4x). The
    # general kernel: for a = 2 no far block is evaluated exactly on any grid
    params = _rule_params(*_RULE_CASES[1])
    n = 1025
    g = np.random.default_rng(3).uniform(-0.5, 0.5, size=(1, n))
    u = np.linspace(0.0, 1.0, n)
    graded = {
        "u^2": _test_grids(params.T, n, np.random.default_rng(0))["graded"],
        "u^4": 1.0 + (params.T - 1.0) * u**4,
    }
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
    entries = _count_exact_entries(monkeypatch)
    _integral(params, uniform_nodes(params.T, n), g)
    on_uniform = sum(entries)
    assert on_uniform > 0
    for grid, nodes in graded.items():
        monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
        entries.clear()
        got = _integral(params, nodes, g)
        assert 0 < sum(entries) <= 2 * on_uniform, grid
        monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 2049)
        dense = _integral(params, nodes, g)
        errs = _rule_errors(params, nodes, g, (dense, got), np.arange(1, n))
        dense_err, fast_err = errs.max(axis=1)
        assert fast_err <= max(3.0 * dense_err, 1e-14), grid


def test_exact_entries_per_application_are_unchanged(monkeypatch):
    # the near band holds every exact block, merged ones included (graded
    # grids), so it evaluates the same entries as an application that builds
    # its own, and an application given the band evaluates none (the general
    # kernel; for a = 2 see test_integer_exponent_operator_structure)
    params = _rule_params(*_RULE_CASES[1])
    eq = _rule_eq(params)
    entries = _count_exact_entries(monkeypatch)
    want = {
        (4097, "uniform"): 520_192,
        (4097, "u^2"): 524_288,
        (4097, "u^4"): 552_960,
        (1025, "uniform"): 126_976,
        (1025, "u^2"): 131_072,
        (1025, "u^4"): 155_648,
    }
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
    for (n, grid), count in want.items():
        u = np.linspace(0.0, 1.0, n)
        nodes = {"uniform": uniform_nodes(3.0, n), "u^2": 1.0 + 2.0 * u**2, "u^4": 1.0 + 2.0 * u**4}[grid]
        entries.clear()
        _integral(params, nodes, np.ones((1, n)))
        assert sum(entries) == count, (n, grid)
        band = near_band(eq, nodes)
        assert sum(stack.size for stack in band.stacks) == count, (n, grid)
        entries.clear()
        _integral(params, nodes, np.ones((1, n)), band=band)
        assert entries == [], (n, grid)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("grid", ["uniform", "random", "graded"])
def test_large_grid_operator_is_bit_identical_for_any_helper_count(monkeypatch, grid, m):
    # a band given to the application and the band it builds for itself
    # give the same bits; the band is built on the calling thread, so the
    # helper count the point rule would use changes nothing and no thread
    # is started
    n = 4097
    params = _rule_params(*_RULE_CASES[1])
    eq = _rule_eq(params)
    nodes = _test_grids(params.T, n, np.random.default_rng(7))[grid]
    g = np.vstack([np.cos(3.0 * nodes), np.random.default_rng(8).uniform(-0.5, 0.5, (2, n))])[:m]
    want = _integral(params, nodes, g)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    for helpers in (0, 1, 3):
        monkeypatch.setattr(fractional, "_helper_count", lambda: helpers)
        band = near_band(eq, nodes)
        assert started == [], helpers
        assert np.array_equal(_integral(params, nodes, g, band=band), want), helpers


def test_streaming_path_cost_is_near_linear(monkeypatch):
    # a quadratic path evaluates 16x the slopes for 4x the nodes. Measured at
    # a = 0.5: a = 1 or 2 sums panel moments and evaluates none
    entries = _count_exact_entries(monkeypatch)
    total = []
    for n in (4097, 16385):
        entries.clear()
        _integral(_rule_params(*_RULE_CASES[1]), uniform_nodes(3.0, n), np.ones((2, n)))
        total.append(sum(entries))
    assert 0 < total[0] and total[1] <= 6 * total[0]


def test_large_grid_exact_blocks_are_merged():
    # 4097 nodes fill 64 leaves of panels, and row i shares the leaf of
    # panel i - 1; on the uniform grid every far block is interpolated, so
    # each leaf has one exact block, against the previous leaf and itself.
    # On no grid do two blocks on the same rows meet in panels: the u^4
    # grid's exact far blocks are merged with their leaf's near block
    n = 4097
    for grid, nodes in _run_test_grids(n).items():
        exact = eqmod._h2_operator(0.4, 0.5, nodes.tobytes(), n).exact
        if grid == "uniform":
            assert len(exact) == (n - 1) // eqmod._LEAF_ROWS == 64
            assert exact[-1] == (n - 64, n, n - 129, n - 1)
        for (r0, r1, c0, c1), (q0, q1, d0, d1) in itertools.combinations(exact, 2):
            if (r0, r1) == (q0, q1):
                assert c1 < d0 or d1 < c0, grid
    eqmod._h2_operator.cache_clear()


def _run_test_grids(n: int) -> dict:
    u = np.linspace(0.0, 1.0, n)
    grids = _test_grids(3.0, n, np.random.default_rng(7))
    return {
        "uniform": grids["uniform"],
        "random": grids["random"],
        "u^2": 1.0 + 2.0 * u**2,
        "u^4": 1.0 + 2.0 * u**4,
    }


@pytest.mark.parametrize("n", [2050, 4097, 8193])
def test_runs_partition_the_exact_blocks(n):
    # each run is a stretch of op.exact, in order; a run of more than one
    # block holds blocks of one shape, each one leaf below and right of the
    # last, with one leaf of rows
    leaf = eqmod._LEAF_ROWS
    counts = {}
    for grid, nodes in _run_test_grids(n).items():
        op = eqmod._h2_operator(0.4, 0.5, nodes.tobytes(), n)
        assert [i for first, count in op.runs for i in range(first, first + count)] == list(
            range(len(op.exact))
        ), grid
        for first, count in op.runs:
            blocks = op.exact[first : first + count]
            for (r0, r1, c0, c1), (q0, q1, d0, d1) in zip(blocks, blocks[1:]):
                assert (q0, q1, d0, d1) == (r0 + leaf, r1 + leaf, c0 + leaf, c1 + leaf), grid
                assert r1 - r0 == leaf, grid
        # maximal: no run could take the first block of the next one
        for (first, count), (nxt, _) in zip(op.runs, op.runs[1:]):
            r0, r1, c0, c1 = op.exact[first + count - 1]
            q0, q1, d0, d1 = op.exact[nxt]
            assert (q0, q1, d0, d1) != (r0 + leaf, r1 + leaf, c0 + leaf, c1 + leaf) or q1 - q0 != leaf
        counts[grid] = len(op.runs)
    eqmod._h2_operator.cache_clear()
    # the first leaf and the regular leaves; graded grids split the first
    # few leaves off
    assert (counts["uniform"], counts["u^2"], counts["u^4"]) == (2, 4, 6)


def _continued_differences(op, g: np.ndarray) -> np.ndarray:
    """g[:, j] - g[:, j + 1] on every panel of op's mesh continued past T: zero there."""
    dg = np.zeros((g.shape[0], op.widths.size))
    dg[:, : g.shape[1] - 1] = g[:, :-1] - g[:, 1:]
    return dg


def _per_block_values(params, nodes, g, band) -> np.ndarray:
    """_integral_values (Gamma_k = 1) with the near band multiplied block by block."""
    n, a = nodes.size, params.exponent
    op = eqmod._h2_operator(params.rho, a, nodes.tobytes(), n)
    dg = _continued_differences(op, g)
    c = dg / np.diff(op.s)
    total = np.zeros((g.shape[0], op.s.size))
    for (r0, r1, c0, c1), d in zip(op.exact, (block for stack in band.stacks for block in stack)):
        total[:, r0:r1] += c[:, c0:c1] @ d
    eqmod._h2_sums(replace(op, runs=()), dg, (), total)
    total += op.boundary * g[:, :1]
    return (params.rho ** (-a) / (params.k * (a * (a + 1.0)))) * total[:, :n]


@pytest.mark.parametrize("n", [2050, 4097, 8193])
def test_run_product_matches_a_per_block_loop(n):
    params = _rule_params(*_RULE_CASES[1])
    eq = _rule_eq(params)
    rng = np.random.default_rng(n)
    for grid, nodes in _run_test_grids(n).items():
        band = near_band(eq, nodes)
        for m in (0, 1, 3, 30):
            g = np.vstack([np.cos(3.0 * nodes), rng.uniform(-0.5, 0.5, (29, n))])[:m]
            got = _integral(params, nodes, g, band=band)
            want = _per_block_values(params, nodes, g, band)
            assert got.shape == want.shape == (m, n)
            if m:
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (grid, m)
    eqmod._h2_operator.cache_clear()


def _per_level_far_field(op, dg: np.ndarray) -> np.ndarray:
    """The far field of _h2_sums computed level by level and cluster by
    cluster: moments and local values in one array per level, each child's
    transfer sliced out of op.pairs, and each far block's kernel sliced out
    of its group's stack and its product added on its own."""
    m = dg.shape[0]
    out = np.zeros((m, op.s.size))
    if m == 0:
        return out
    leaf, p = eqmod._LEAF_ROWS, op.anterp.shape[2]
    leaves = op.anterp.shape[0]
    # level l has ceil(leaves / 2^l) clusters, the first leaves >> l of them full
    counts = [-(-leaves >> lvl) for lvl in range(len(op.pairs) + 1)]
    at = np.cumsum([0] + counts)

    def transfer(lvl: int, k: int) -> np.ndarray:
        """The transfer of child k of level lvl to its parent."""
        return op.pairs[lvl][k // 2, (k % 2) * p : (k % 2 + 1) * p]

    blocks = [
        (target, source, kernels[i, j * p : (j + 1) * p])
        for targets, sources, kernels in zip(op.targets, op.sources, op.kernels)
        for i, target in enumerate(targets.tolist())
        for j, source in enumerate(sources[i].tolist())
    ]
    moments = [np.matmul(dg.reshape(m, leaves, leaf).transpose(1, 0, 2), op.anterp)]
    for lvl in range(len(op.pairs)):
        below = moments[-1]
        moments.append(
            np.array([below[k] @ transfer(lvl, k) for k in range(2 * (leaves >> (lvl + 1)))])
            .reshape(-1, 2, m, p)
            .sum(axis=1)
        )
    local = None
    for lvl in reversed(range(len(counts))):
        here = np.zeros((counts[lvl], m, p))
        if local is not None:
            for k in range(counts[lvl]):
                here[k] = local[k // 2] @ transfer(lvl, k).T
        for target, source, kernel in blocks:
            if at[lvl] <= target < at[lvl + 1]:
                assert at[lvl] <= source < at[lvl] + (leaves >> lvl)
                here[target - at[lvl]] += moments[lvl][source - at[lvl]] @ kernel
        local = here
    out[:, 1:] += np.matmul(local, op.interp).transpose(1, 0, 2).reshape(m, leaves * leaf)
    return out


@pytest.mark.parametrize("n", [2050, 4097, 4160, 16385])
def test_far_field_matches_a_per_level_loop(n):
    # one product per level for each pass and one per group of far blocks,
    # over one array of all levels, give the per-level, per-block loop's
    # values to rounding: at most 1.5e-15 of the largest entry over these
    # grids, sizes and batches and all four rule cases when the bound was
    # set. At 16385 nodes the u^4 grid is left out: its second node rounds
    # to 1. a = 2 and a = 0.2 both take the general 20-point operator
    rng = np.random.default_rng(n)
    for (a, rho, T), (grid, nodes) in itertools.product(_RULE_CASES[0::2], _run_test_grids(n).items()):
        if grid == "u^4" and nodes[1] == 1.0:
            continue
        op = eqmod._h2_operator(rho, a, nodes.tobytes(), n)
        far = replace(op, runs=())
        for m in (0, 1, 3):
            g = np.vstack([np.cos(3.0 * nodes), rng.uniform(-0.5, 0.5, (2, n))])[:m]
            dg = _continued_differences(op, g)
            got = eqmod._h2_sums(far, dg, (), np.zeros((m, op.s.size)))
            want = _per_level_far_field(op, dg)
            assert got.shape == want.shape == (m, op.s.size)
            if m:
                assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max(), (a, grid, m)
    eqmod._h2_operator.cache_clear()


def _admissible_far_blocks(op) -> list:
    """(row cluster, column cluster) of every interpolated far block, the
    clusters of all levels numbered as one list, found by the admissibility
    pass that _h2_operator documents: row cluster k meets columns k - 2
    (even k) or k - 3 and k - 2 (odd k), and a block whose clusters are
    both at most _ADMISSIBLE times as wide as their gap is interpolated,
    any other split into its child blocks down to leaf level."""
    leaf = eqmod._LEAF_ROWS
    leaves = op.anterp.shape[0]
    counts = [-(-leaves >> lvl) for lvl in range(len(op.pairs) + 1)]
    at = np.cumsum([0] + counts).tolist()

    def span(lvl, k):
        b = leaf << lvl
        return op.s[k * b], op.s[min((k + 1) * b, leaves * leaf)]

    found = []

    def place(lvl, k, c):
        if k >= counts[lvl]:
            return
        (lo, hi), (c_lo, c_hi) = span(lvl, k), span(lvl, c)
        if max(hi - lo, c_hi - c_lo) <= eqmod._ADMISSIBLE * (lo - c_hi):
            found.append((at[lvl] + k, at[lvl] + c))
        elif lvl:
            for kk, cc in itertools.product((2 * k, 2 * k + 1), (2 * c, 2 * c + 1)):
                place(lvl - 1, kk, cc)

    for lvl, count in enumerate(counts):
        for k in range(2, count):
            for c in range(k - 2 - k % 2, k - 1):
                place(lvl, k, c)
    return found


def test_far_blocks_are_grouped_by_row_cluster():
    # each group maps the far blocks of its row clusters in one matmul and
    # assigns the products, so the groups must partition the far blocks, no
    # row cluster may be a target twice, and each target's row of sources
    # (and its stacked kernels) must follow its column clusters in order.
    # At 4097 uniform nodes 57 row clusters meet one far block and 57 two,
    # for a = 0.5 and a = 2 alike: the blocks depend on the grid alone
    n = 4097
    for a, (grid, nodes) in itertools.product((0.5, 2.0), _run_test_grids(n).items()):
        op = eqmod._h2_operator(1.0 / 3.0, a, nodes.tobytes(), n)
        p = op.anterp.shape[2]
        got = [
            (target, source)
            for targets, sources in zip(op.targets, op.sources)
            for target, row in zip(targets.tolist(), sources.tolist())
            for source in row
        ]
        assert sorted(got) == sorted(_admissible_far_blocks(op)) and len(set(got)) == len(got), (a, grid)
        every = np.concatenate(op.targets)
        assert np.unique(every).size == every.size, (a, grid)
        widths = [sources.shape[1] for sources in op.sources]
        assert len(set(widths)) == len(widths), (a, grid)
        for targets, sources, kernels in zip(op.targets, op.sources, op.kernels):
            assert sources.shape[0] == targets.size and np.all(np.diff(sources, axis=1) > 0), (a, grid)
            assert kernels.shape == (targets.size, sources.shape[1] * p, p), (a, grid)
        if grid == "uniform":
            sizes = [(sources.shape[1], targets.size) for targets, sources in zip(op.targets, op.sources)]
            assert sizes == [(1, 57), (2, 57)], a
    eqmod._h2_operator.cache_clear()


def test_application_multiplies_each_run_once(monkeypatch):
    # a batch on 4097 uniform nodes at a = 0.5: two runs, the first leaf
    # against its own panels and the 63 others each against the previous
    # leaf's and its own, so two band matmuls per application, not 64
    eq, start = _forced_solve_input(gamma_ord=1.0 / 6.0)
    band = near_band(eq, start.nodes)
    assert [len(stack) for stack in band.stacks] == [1, 63]
    calls = []
    matmul = np.matmul

    def counted(x, y, *args, **kwargs):
        calls.append(any(y is stack for stack in band.stacks))
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    apply_operator_batch(eq, start.nodes, np.vstack([start.values, -start.values]), band=band)
    assert sum(calls) == 2


_FORCED = {
    "params": {"k": 1.0 / 3.0, "rho": 1.0 / 3.0, "gamma_ord": 2.0 / 3.0, "T": 3.0},
    "equations": [
        {
            "name": "forced",
            "f": {"expr": "0.2*sin(x)+abs(a)/6", "lipschitz": 1.0 / 6.0},
            "psi": {"expr": "1/(1+a*a)", "lipschitz": 0.65},
            "g": {"expr": "a/(3+log(x))", "lipschitz": 1.0 / 3.0},
        }
    ],
}


def test_large_grid_operator_is_built_once_per_solve(monkeypatch):
    # the cluster tree and its factors depend on (nodes, rho, a) only, so a
    # Picard solve builds them once and replays them on every application
    # (a = 0.5: a = 1 or 2 builds none)
    builds = []
    build = eqmod._h2_operator.__wrapped__

    def counted(*key):
        builds.append(key[:2])
        return build(*key)

    monkeypatch.setattr(eqmod, "_h2_operator", lru_cache(maxsize=4)(counted))
    eq, start = _forced_solve_input(gamma_ord=1.0 / 6.0)
    report = solve(eq, start, tol=1e-10)
    assert report.converged and report.iterations >= 20
    assert builds == [(eq.params.rho, eq.params.exponent)]


def _forced_solve_input(gamma_ord: float = 2.0 / 3.0) -> tuple[EquationSpec, GridFunction]:
    """The forced equation with this gamma_ord (a = 3 gamma_ord) and its seed on 4097 nodes."""
    eq = parse_config(_FORCED).equations[0]
    eq = replace(eq, params=replace(eq.params, gamma_ord=gamma_ord))
    nodes = uniform_nodes(3.0, 4097)
    return eq, GridFunction(nodes=nodes, values=0.3 * np.cos(3.0 * nodes))


def test_solve_with_band_matches_applications_without_one():
    # solve passes one near band to every application; a loop of
    # applications that each build their own gives the same bits
    eq, start = _forced_solve_input()
    report = solve(eq, start, tol=1e-10)
    cur, steps = start, []
    for _ in range(report.iterations):
        nxt = apply_operator(eq, cur)
        steps.append(float(np.max(np.abs(nxt.values - cur.values))))
        cur = nxt
    assert np.array_equal(report.solution.values, cur.values)
    assert np.array_equal(report.sup_distances, steps)


def test_solve_evaluates_the_near_band_once(monkeypatch):
    # at 4097 uniform nodes and a = 0.5 the band's 64 exact blocks take
    # 520,192 entries: each leaf against its own panels and the previous
    # leaf's (64 x 128 each, 64 x 64 for the first). They are built once
    # per solve, by its first application, and no later application
    # evaluates any. The band is released when solve returns.
    bands = []

    def recorded(eq, nodes):
        band = near_band(eq, nodes)
        bands.append(weakref.ref(band))
        return band

    monkeypatch.setattr(solver_mod, "near_band", recorded)
    eq, start = _forced_solve_input(gamma_ord=1.0 / 6.0)
    assert eq.params.exponent == 0.5
    entries = _count_exact_entries(monkeypatch)
    report = solve(eq, start, tol=1e-10)
    assert report.iterations >= 20
    assert sum(entries) == 63 * 64 * 128 + 64 * 64 == 520_192
    assert len(bands) == 1 and bands[0]() is None


def test_one_row_applications_at_integer_a_evaluate_no_band(monkeypatch):
    # at a = 2 every application sums panel moments: a Picard solve, an
    # application that builds its own band, and a batch evaluate no power
    # difference and look no operator up
    eq, start = _forced_solve_input()
    entries = _count_exact_entries(monkeypatch)
    monkeypatch.setattr(eqmod, "_h2_operator", None)
    report = solve(eq, start, tol=1e-10)
    assert report.converged and report.iterations >= 20
    apply_operator(eq, start)
    apply_operator_batch(eq, start.nodes, np.vstack([start.values, -start.values]))
    assert entries == []


def test_near_band_builds_the_band_once(monkeypatch):
    # at 4097 uniform nodes and a = 0.5 the band's 64 exact blocks take
    # 520,192 entries. near_band builds them all, and the band holds them
    # for every application, of one row or many, which builds none and
    # gives the bits of an application that builds its own band
    eq, start = _forced_solve_input(gamma_ord=1.0 / 6.0)
    entries = _count_exact_entries(monkeypatch)
    band = near_band(eq, start.nodes)
    assert sum(entries) == 520_192
    entries.clear()
    row = start.values[None, :]
    batch = np.vstack([start.values, 0.5 * start.values, -start.values])
    first = apply_operator_batch(eq, start.nodes, batch, band=band)
    assert np.array_equal(apply_operator_batch(eq, start.nodes, batch, band=band), first)
    alone = apply_operator_batch(eq, start.nodes, row, band=band)
    assert entries == []
    assert np.array_equal(apply_operator_batch(eq, start.nodes, row), alone)
    assert np.array_equal(apply_operator_batch(eq, start.nodes, batch), first)


def test_solve_computes_gamma_k_once(monkeypatch):
    # every application reads Gamma_k; the equation's params compute it once
    calls = []

    def counted(k, z):
        calls.append((k, z))
        return k_gamma(k, z)

    monkeypatch.setattr(fractional, "k_gamma", counted)
    eq, start = _forced_solve_input()
    report = solve(eq, start, tol=1e-10)
    assert report.iterations >= 20
    assert len(calls) == 1
    assert eq.params.gamma_k == k_gamma(eq.params.k, eq.params.gamma_ord).value
    assert len(calls) == 1


def test_gamma_k_failure_is_not_kept(monkeypatch):
    # params whose Gamma_k cannot be computed raise on every use
    def failing(k, z):
        raise DomainError("Gamma_k out of range")

    monkeypatch.setattr(fractional, "k_gamma", failing)
    eq, _ = _forced_solve_input()
    for _ in range(2):
        with pytest.raises(DomainError, match="Gamma_k out of range"):
            eq.params.gamma_k
        with pytest.raises(DomainError, match="Gamma_k out of range"):
            eq.params.prefactor


@pytest.mark.parametrize("n", [129, 4097])
def test_band_of_another_equation_or_nodes_array_is_refused(n):
    # an application uses only the band built for its own equation and
    # nodes array, on the dense and the large-grid path alike: not one of
    # another equation on the same params and nodes (whose blocks would be
    # equal), nor one for an equal copy of the nodes, other nodes, rho or a
    eq = parse_config(_FORCED).equations[0]
    nodes = uniform_nodes(3.0, n)
    band = near_band(eq, nodes)
    shifted = nodes.copy()
    shifted[1:-1] += 1e-6
    other = replace(eq, f=Nonlinearity.from_string("0.1*cos(x)+a/7", 1.0 / 7.0))
    others = [
        (other, nodes),
        (replace(other, params=replace(eq.params)), nodes),
        (replace(eq), nodes),
        (eq, nodes.copy()),
        (eq, shifted),
        (replace(eq, params=replace(eq.params, rho=0.4)), nodes),
        (replace(eq, params=replace(eq.params, gamma_ord=0.5)), nodes),
        (eq, uniform_nodes(3.0, 65)),
    ]
    for other_eq, grid in others:
        with pytest.raises(DomainError, match="near band was built for another equation or nodes array"):
            apply_operator_batch(other_eq, grid, np.zeros((1, grid.size)), band=band)


def test_band_holds_the_dense_matrix_or_the_exact_blocks(monkeypatch):
    # the dense matrix is the all-near-band case, with no stacks; a 65-node
    # large grid has one leaf. near_band evaluates the blocks of a large
    # grid, and no application evaluates any. At a = 2 a large grid holds
    # its panel moments' coefficients, and no stacks
    eq = parse_config(_FORCED).equations[0]
    entries = _count_exact_entries(monkeypatch)
    dense = near_band(eq, uniform_nodes(3.0, 129))
    assert isinstance(dense.op, np.ndarray) and dense.stacks == ()
    moments = near_band(eq, uniform_nodes(3.0, 4097))
    assert isinstance(moments.op, eqmod._PanelMoments) and moments.stacks == ()
    assert entries == []

    def built(nodes, eq=eq):
        band = near_band(eq, nodes)
        assert sum(entries) == sum(stack.size for stack in band.stacks) > 0
        entries.clear()
        apply_operator_batch(eq, nodes, np.zeros((2, nodes.size)), band=band)
        assert entries == []
        return band

    half, _ = _forced_solve_input(gamma_ord=1.0 / 6.0)
    assert [len(stack) for stack in built(uniform_nodes(3.0, 4097), half).stacks] == [1, 63]
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
    small = built(uniform_nodes(3.0, 65))
    assert [stack.shape for stack in small.stacks] == [(1, 64, 64)]


@pytest.mark.parametrize("a", [2.0, 0.5])
def test_dense_matrix_holds_the_near_band_slopes(monkeypatch, a):
    # one rule on every grid: a 65-node large grid is one leaf, whose band
    # block over the panel widths is the dense matrix's slope columns, and
    # whose boundary column is the dense matrix's first, bit for bit (both
    # raise by np.power, at a = 2 as at a = 0.5)
    params = _rule_params(a, 1.0 / 3.0, 3.0)
    u = np.linspace(0.0, 1.0, 65)
    for nodes in (uniform_nodes(3.0, 65), 1.0 + 2.0 * u**4):
        monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 2049)
        dense = near_band(_rule_eq(params), nodes).op
        monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
        band = near_band(_rule_eq(params), nodes)
        ((block,),) = band.stacks
        assert np.array_equal(block.T / band.op.widths, dense[1:, 1:])
        assert np.array_equal(band.op.boundary, dense[:, 0])


def test_dense_path_is_exact_on_graded_grids():
    # the rule integrates g = 1 and g = s - s_0 exactly. On grids graded
    # toward t = 1 the panels near x = 1 are 1e-11 to 1e-14 wide, where node
    # weights formed as second differences of (X - s)^(a+1) cancel (errors
    # up to 1.4e-3); the slopes against the integrand differences do not
    rows = {}
    for q, n, a in itertools.product((3, 4), (129, 1025, 2049), (2.0, 0.3)):
        params = _rule_params(a, 1.0 / 3.0, 3.0)
        nodes = 1.0 + 2.0 * np.linspace(0.0, 1.0, n) ** q
        s = nodes**params.rho
        got = _integral(params, nodes, np.vstack([np.ones(n), s - s[0]]))[:, 1:]
        # the closed forms on the program's own mesh, with Gamma_k = 1
        x = s[1:].astype(np.longdouble) - np.longdouble(s[0])
        al = np.longdouble(a)
        pref = np.longdouble(params.rho) ** -al / np.longdouble(params.k)
        want = pref * np.vstack([x**al / al, x ** (al + 1) / (al * (al + 1))])
        rows[q, n, a] = float(np.max(np.abs(got - want) / want))
    eqmod._weight_matrix.cache_clear()
    assert max(rows.values()) <= 4e-15, rows


@pytest.mark.parametrize("n", [65, 129])
def test_dense_differences_in_one_flat_subtraction_are_bit_identical(n):
    # the dense path differences every row in one flat subtraction and then
    # overwrites column 0 with g_0; the row-by-row 2-D subtraction gives the
    # same bits
    params = _rule_params(*_RULE_CASES[1])
    band = near_band(_rule_eq(params, 1.7), uniform_nodes(params.T, n))
    a = params.exponent
    rng = np.random.default_rng(n)
    for m in (1, 30):
        g = rng.uniform(-1.0, 1.0, (m, n))
        dg = np.empty((m, n))
        dg[:, 0] = g[:, 0]
        np.subtract(g[:, :-1], g[:, 1:], out=dg[:, 1:])
        want = dg @ band.op.T
        want *= params.rho ** (-a) / (params.k * 1.7) / (a * (a + 1.0))
        assert np.array_equal(eqmod._integral_values(band, g), want), m


def test_dense_path_application_with_band_matches_one_without():
    # at 129 nodes the band binds f, psi and g and the weight matrix too: an
    # application given it gives the bits of one that builds its own, and a
    # part in x alone that fails on the nodes fails in the application with
    # the same message either way
    eq = parse_config(_FORCED).equations[0]
    nodes = uniform_nodes(3.0, 129)
    values = np.vstack([0.3 * np.cos(3.0 * nodes), 0.2 * np.sin(5.0 * nodes)])
    band = near_band(eq, nodes)
    assert np.array_equal(
        apply_operator_batch(eq, nodes, values, band=band), apply_operator_batch(eq, nodes, values)
    )
    for part, expr in (("g", "a/(x-2)"), ("f", "abs(a)/6+log(x-3)")):
        failing = replace(eq, **{part: Nonlinearity.from_string(expr, 1.0)})
        messages = []
        for given in (near_band(failing, nodes), None):
            with pytest.raises(EvaluationError) as err:
                apply_operator_batch(failing, nodes, values, band=given)
            messages.append(str(err.value))
        assert messages[0] == messages[1] in ("division by zero", "log of a nonpositive value"), part


# T = 3: nodes that are not a grid on [1, 3], each refused by name
_BAD_GRIDS = {
    "not increasing": ([1.0, 2.5, 2.0, 3.0], "strictly increasing"),
    "not starting at 1": ([0.5, 1.5, 2.0, 3.0], "must start at 1"),
    "not ending at T": ([1.0, 1.5, 2.0], "grid ends at 2.0"),
    "one node": ([1.0], "at least two nodes"),
    "not one-dimensional": ([[1.0, 3.0]], "one-dimensional"),
    "integer": ([1, 2, 3], "float64 array, got int"),
    # a list, even of the floats of a grid, is not an array
    "list": ([1.0, 2.0, 3.0], "float64 array, got list"),
}


@pytest.mark.parametrize("limit", [2049, 2])
@pytest.mark.parametrize("grid", list(_BAD_GRIDS))
def test_operator_rejects_a_nodes_array_that_is_not_a_grid_on_the_domain(monkeypatch, grid, limit):
    # near_band checks the grid, so an application given no band refuses it
    # too, on the dense path and (with the dense limit moved down) the
    # large-grid path
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", limit)
    nodes, message = _BAD_GRIDS[grid]
    if grid != "list":
        nodes = np.array(nodes)
    with pytest.raises(DomainError, match=message):
        near_band(_ALPHA, nodes)
    with pytest.raises(DomainError, match=message):
        apply_operator_batch(_ALPHA, nodes, np.zeros((1, np.shape(nodes)[-1])))


def test_solve_binds_the_equation_to_its_grid_once(monkeypatch):
    # near_band evaluates f's sin(x) and binds the operator once per solve:
    # it looks the H^2 operator up (a = 0.5), or computes the panel
    # moments' coefficients (a = 2); the applications do neither again
    sines, lookups, moments = [], [], []
    sin, lookup, of = np.sin, eqmod._h2_operator, eqmod._PanelMoments.of

    def counted_sin(*args, **kwargs):
        sines.append(np.shape(args[0]))
        return sin(*args, **kwargs)

    def counted_lookup(*key):
        lookups.append(key[:2])
        return lookup(*key)

    def counted_of(s):
        moments.append(s.shape)
        return of(s)

    monkeypatch.setattr(np, "sin", counted_sin)
    monkeypatch.setattr(eqmod, "_h2_operator", counted_lookup)
    monkeypatch.setattr(eqmod._PanelMoments, "of", counted_of)
    for gamma_ord in (1.0 / 6.0, 2.0 / 3.0):
        for seen in (sines, lookups, moments):
            seen.clear()
        eq, start = _forced_solve_input(gamma_ord)
        report = solve(eq, start, tol=1e-10)
        assert report.iterations >= 20
        assert sines == [start.nodes.shape]
        if eq.params.exponent == 2.0:
            assert lookups == [] and moments == [start.nodes.shape]
        else:
            assert lookups == [(eq.params.rho, eq.params.exponent)] and moments == []


@pytest.mark.parametrize("n", [65, 4097])
def test_operator_of_no_rows_is_empty(monkeypatch, n):
    # on the dense path, and on the large-grid path with and without a band
    nodes = uniform_nodes(3.0, n)
    assert apply_operator_batch(_ALPHA, nodes, np.zeros((0, n))).shape == (0, n)
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
    band = near_band(_ALPHA, nodes)
    for given in (None, band):
        assert apply_operator_batch(_ALPHA, nodes, np.zeros((0, n)), band=given).shape == (0, n)


def test_large_grid_operator_stores_linear_memory():
    # nested bases store O(n p) floats: 2.3 MB at 4097 nodes (2,342,520
    # bytes) for the general 20-point operator, not the 10.8 MB of one
    # interpolation matrix per far block
    stored = []
    for n in (4097, 16385):
        nodes = uniform_nodes(3.0, n)
        stored.append(eqmod._h2_operator(1.0 / 3.0, 0.5, nodes.tobytes(), n).nbytes)
    eqmod._h2_operator.cache_clear()
    assert stored[0] <= 2.5e6
    assert stored[1] <= 4.5 * stored[0]


@pytest.mark.parametrize("a", [1, 2])
def test_integer_exponent_path_matches_matrix_path(monkeypatch, a):
    # a = gamma_ord / k exact in binary, so grids above
    # _INTEGER_MATRIX_MAX_NODES take the prefix sums of panel moments; their
    # error is checked as in test_streaming_path_matches_matrix_path, at
    # sizes where they run unforced, at every eleventh row
    params = FracParams(k=2.0**-6, rho=1.0 / 3.0, gamma_ord=a * 2.0**-6, T=3.0)
    assert params.exponent == a
    rng = np.random.default_rng(a)
    for n in (513, 2050):
        nodes = uniform_nodes(params.T, n)
        assert isinstance(near_band(_rule_eq(params), nodes).op, eqmod._PanelMoments)
        _check_large_grid_path(monkeypatch, params, n, rng, np.arange(1, n, 11))


def _moment_rule(params: FracParams, nodes: np.ndarray, g: np.ndarray, rows) -> np.ndarray:
    """The rule for a = 1 or 2 with Gamma_k = 1 at the selected rows, in extended precision.

    Same float64 mesh s = nodes**rho as the program. Row i sums, over the
    panels j < i, the integral of the integrand's linear interpolant
    against (X - s)^(a-1): h_j (g_j + g_(j+1)) / 2 at a = 1, and at a = 2
    (X - s_(j+1)) h_j (g_j + g_(j+1)) / 2 + h_j^2 (g_j / 3 + g_(j+1) / 6).
    Every weight on g is a sum of nonnegative terms, so nothing cancels
    but the integrand's own signs.
    """
    s = (nodes**params.rho).astype(np.longdouble)
    g = np.asarray(g, dtype=np.longdouble)
    h = np.diff(s)
    mean = h * (g[:, :-1] + g[:, 1:]) / 2
    tail = h * h * (g[:, :-1] / 3 + g[:, 1:] / 6)
    out = np.empty((g.shape[0], len(rows)), dtype=np.longdouble)
    for k, i in enumerate(rows):
        if params.exponent == 1.0:
            out[:, k] = mean[:, :i].sum(axis=1)
        else:
            out[:, k] = ((s[i] - s[1 : i + 1]) * mean[:, :i] + tail[:, :i]).sum(axis=1)
    return np.longdouble(params.rho) ** -np.longdouble(params.exponent) / np.longdouble(params.k) * out


@pytest.mark.parametrize("n", [129, 2049, 4097, 16385])
@pytest.mark.parametrize("a", [1, 2])
def test_prefix_sums_are_accurate_on_every_grid(monkeypatch, a, n):
    # the prefix sums, forced down to 129 nodes, err by at most 1e-14 of
    # |W| @ |g| against _moment_rule on uniform, u^2, u^4 and random grids,
    # for rough (uniform random) and smooth integrands, at rows 1-39 and
    # 120 spread rows. u^4 stops at 4097 nodes, where float64 nodes stay
    # distinct; there the prefix sums erred by at most 2.3e-15. At 2049 u^4
    # nodes the dense path errs by 1.9e-4 on the rough integrands. Batches
    # of none, one and five rows; a row's bits do not depend on the batch
    monkeypatch.setattr(eqmod, "_INTEGER_MATRIX_MAX_NODES", 2)
    params = _rule_params(a, 1.0 / 3.0, 3.0)
    assert params.exponent == a
    rng = np.random.default_rng(n)
    grids = _run_test_grids(n)
    if n > 4097:
        del grids["u^4"]
    rows = np.unique(np.concatenate([np.arange(1, 40), np.linspace(1, n - 1, 120).astype(int)]))
    for grid, nodes in grids.items():
        band = near_band(_rule_eq(params), nodes)
        assert isinstance(band.op, eqmod._PanelMoments)
        smooth = [np.cos(nodes), np.sin(7.0 * nodes), np.exp(-nodes / 3.0)]
        g = np.vstack([rng.uniform(-1.0, 1.0, (2, n)), *smooth])
        got = _integral(params, nodes, g, band=band)
        assert _integral(params, nodes, g[:0], band=band).shape == (0, n)
        for i in (0, 3):
            assert np.array_equal(_integral(params, nodes, g[i : i + 1], band=band), got[i : i + 1])
        ref = _moment_rule(params, nodes, np.vstack([g, np.abs(g)]), rows)
        err = np.abs(got[:, rows] - ref[:5]) / ref[5:]
        assert np.all(got[:, 0] == 0.0)
        assert err.max() <= 1e-14, (grid, err.max(axis=1))


@pytest.mark.parametrize("n", [4097, 16385])
@pytest.mark.parametrize("a", [1, 2])
def test_prefix_sums_do_not_depend_on_the_batch(a, n):
    # each row of a batch of 240 has the bits it has alone and inside the
    # batches of its first 5 and 30 rows; n - 1 = 4096 and 16384 fill
    # whole blocks, so each row's blocks end in a zero block of padding
    params = _rule_params(a, 1.0 / 3.0, 3.0)
    nodes = uniform_nodes(params.T, n)
    band = near_band(_rule_eq(params), nodes)
    assert isinstance(band.op, eqmod._PanelMoments)
    g = np.random.default_rng(n + a).uniform(-1.0, 1.0, (240, n))
    whole = _integral(params, nodes, g, band=band)
    for m in (5, 30):
        assert np.array_equal(_integral(params, nodes, g[:m], band=band), whole[:m])
    for i in (0, 4, 29, 239):
        assert np.array_equal(_integral(params, nodes, g[i : i + 1], band=band), whole[i : i + 1])


@pytest.mark.parametrize("rows", [2, 3, 65, 130, 3900])
def test_prefix_product_sums_each_block_as_cumsum(rows):
    # the product by the triangle of ones adds a block's moments in order,
    # as np.cumsum does, on moments of every sign and of magnitudes 1e-30
    # to 1e30; numpy hands a single row to gemv, which the operator avoids
    rng = np.random.default_rng(rows)
    tiles = rng.uniform(-1.0, 1.0, (rows, eqmod._PREFIX_BLOCK)) * 10.0 ** rng.uniform(-30, 30, (rows, 1))
    tiles[0, 1::2] *= 1e30
    assert np.array_equal(tiles @ eqmod._PREFIX_ONES, np.cumsum(tiles, axis=1))


def test_large_grid_operator_is_cached_per_rho_and_a(monkeypatch):
    # one node array under three parameter sets: each gets its own factors,
    # and each stays right when the others were built in between
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
    n = 1025
    nodes = _test_grids(3.0, n, np.random.default_rng(2))["graded"]
    g = np.stack([np.cos(nodes), 1.0 + np.sqrt(nodes)])
    rows = np.arange(1, n, 17)
    cases = [_rule_params(1.3, 1.0 / 3.0, 3.0), _rule_params(0.5, 1.0 / 3.0, 3.0), _rule_params(1.3, 0.7, 3.0)]
    eqmod._h2_operator.cache_clear()
    for params in cases + cases:
        got = _integral(params, nodes, g)
        assert _rule_errors(params, nodes, g, [got], rows).max() <= 1e-13
    info = eqmod._h2_operator.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_streaming_path_integrates_linear_in_s_to_rounding():
    # the rule is exact for integrands linear in s = t**rho, so on a grid
    # past the dense limit only rounding separates it from the closed form
    nodes = uniform_nodes(3.0, 4097)
    assert nodes.size > eqmod._MATRIX_MAX_NODES
    for params in (_ALPHA.params, FracParams(k=0.6, rho=0.4, gamma_ord=0.3, T=3.0)):
        a, rho = params.exponent, params.rho
        w = nodes**rho - 1.0
        gk = 1.25
        got = _integral(params, nodes, (0.5 + 2.0 * w)[None, :], gk)[0]
        pref = rho ** (-a) / (params.k * gk)
        exact = pref * (0.5 * w**a / a + 2.0 * w ** (a + 1.0) / (a * (a + 1.0)))
        assert got[0] == 0.0
        rel = np.abs(got[1:] - exact[1:]) / exact[1:]
        assert rel.max() <= 5e-15


def test_operator_overflow_raises_domain_error(monkeypatch):
    # finite f, psi and g whose image overflows; RuntimeWarnings are errors
    # under the test configuration, so none may be emitted on the way
    def spec(g: str) -> EquationSpec:
        big = Nonlinearity.from_string("1.7e308", lipschitz=0.0)
        return EquationSpec(
            params=_ALPHA.params, f=big, psi=big, g=Nonlinearity.from_string(g, 0.0)
        )

    nodes = uniform_nodes(3.0, 65)
    with pytest.raises(DomainError, match="operator image is not finite"):
        apply_operator_batch(spec("1"), nodes, np.zeros((2, 65)))
    # on the large-grid path the differences of g overflow first
    monkeypatch.setattr(eqmod, "_MATRIX_MAX_NODES", 50)
    with pytest.raises(DomainError, match="operator image is not finite"):
        apply_operator_batch(spec("1.7e308*cos(100*x)"), nodes, np.zeros((2, 65)))


# every operator kind on [1, 3]: the dense matrix, the panel moments at a = 1
# and a = 2, and the H^2 operator at a = 0.5 (gamma_ord = a k)
_OPERATOR_KINDS = {
    "dense": (2.0 / 3.0, 129),
    "moments-a1": (1.0 / 3.0, 4097),
    "moments-a2": (2.0 / 3.0, 4097),
    "h2-half": (1.0 / 6.0, 4097),
}
# values that are not finite but raise nothing: at the first node, at the
# last node, at every node
_NONFINITE = ("a+exp(710*(2-x))", "a+exp(710*(x-2))", "a+0*exp(710*x)")
_FINITE_PARTS = ("0.2*sin(x)+abs(a)/6", "1/(1+a*a)", "a/(3+log(x))")


def _kind_equation(kind: str, f: str, psi: str, g: str) -> tuple[EquationSpec, np.ndarray]:
    gamma_ord, n = _OPERATOR_KINDS[kind]
    params = FracParams(k=1.0 / 3.0, rho=1.0 / 3.0, gamma_ord=gamma_ord, T=3.0)
    parts = (Nonlinearity.from_string(src, 1.0) for src in (f, psi, g))
    return EquationSpec(params, *parts), uniform_nodes(3.0, n)


def _failure(eq: EquationSpec, nodes: np.ndarray) -> tuple[type, str]:
    values = np.random.default_rng(8).uniform(-0.5, 0.5, (2, nodes.size))
    with pytest.raises((DomainError, EvaluationError)) as info:
        apply_operator_batch(eq, nodes, values)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("kind", sorted(_OPERATOR_KINDS))
def test_operator_names_the_first_failing_part_on_every_kind(kind):
    # a part that is not finite always gives a non-finite image; the
    # application then names the first such part in f, psi, g order, as an
    # EvaluationError, whatever the later parts do: finite, not finite, or
    # raising as they are evaluated. A part that raises before it keeps its
    # own error.
    nonfinite = (EvaluationError, "expression produced a non-finite value")
    raising = ("log(a-5)", "a/(x-2)")
    for bad in _NONFINITE:
        for i in range(3):
            for later in (None, bad, *raising):
                srcs = list(_FINITE_PARTS)
                srcs[i] = bad
                if later is not None:
                    srcs[i + 1 :] = [later] * (2 - i)
                assert _failure(*_kind_equation(kind, *srcs)) == nonfinite, (bad, i, later)
            if i:
                # an earlier part that raises while it is evaluated wins
                srcs = list(_FINITE_PARTS)
                srcs[i - 1], srcs[i] = "log(a-5)", bad
                assert _failure(*_kind_equation(kind, *srcs)) == (EvaluationError, "log of a nonpositive value")
    # finite parts whose image overflows
    eq, nodes = _kind_equation(kind, "1.7e308", "1.7e308", "1")
    assert _failure(eq, nodes) == (DomainError, "operator image is not finite")


def test_successful_application_makes_one_finiteness_test(monkeypatch):
    # the parts are checked only to name a failure: an image that is finite
    # shows that every part was
    calls = []
    monkeypatch.setattr(eqmod, "_finite", lambda value: calls.append(value))
    for kind in sorted(_OPERATOR_KINDS):
        eq, nodes = _kind_equation(kind, *_FINITE_PARTS)
        apply_operator_batch(eq, nodes, np.zeros((2, nodes.size)))
    assert calls == []


@pytest.mark.parametrize("n", [129, 4097])
def test_operator_whose_weights_overflow_raises_domain_error(n):
    # a = gamma_ord / k = 600: (X - s)^(a+1) overflows while near_band builds
    # the operator, before any application; that shows as a non-finite
    # image, with no RuntimeWarning (an error under the test configuration)
    params = FracParams(k=0.0015, rho=0.99, gamma_ord=0.9, T=100.0)
    eq = replace(_ALPHA, params=params)
    nodes = uniform_nodes(params.T, n)
    band = near_band(eq, nodes)
    for given in (band, None):
        with pytest.raises(DomainError, match="operator image is not finite"):
            apply_operator_batch(eq, nodes, np.full((1, n), 0.5), band=given)


def test_operator_rejects_wrong_domain():
    nodes = np.linspace(1.0, 2.0, 65)
    with pytest.raises(DomainError):
        apply_operator_batch(_ALPHA, nodes, np.zeros((1, 65)))


@pytest.mark.parametrize("n", [129, 4097])
def test_operator_batch_rejects_values_that_are_not_a_matrix_on_the_nodes(n):
    # 1-D values, a column-count mismatch, a stack of matrices, a list of
    # the wrong shape and ragged lists are refused by name on the dense and
    # the large-grid path alike; a list of the right shape is a matrix
    nodes = uniform_nodes(3.0, n)
    ragged = ([[0.0] * n, [0.0]], [[0.0] * n, [0.0] * (n - 1)])
    for values in (np.zeros(n), np.zeros((2, n - 1)), np.zeros((1, 1, n)), [[0.0] * 5], *ragged):
        with pytest.raises(DomainError, match=rf"values must be an \(m, {n}\) matrix"):
            apply_operator_batch(_ALPHA, nodes, values)
    rows = [[0.1] * n, [-0.2] * n]
    want = apply_operator_batch(_ALPHA, nodes, np.array(rows))
    assert np.array_equal(apply_operator_batch(_ALPHA, nodes, rows), want)


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
        estimate_lipschitz(_ALPHA.f, r0=0.0, probes=100, t_end=3.0)
    with pytest.raises(DomainError):
        estimate_lipschitz(_ALPHA.f, r0=1.0, probes=1, t_end=3.0)


# estimate_lipschitz of these nonlinearities at (r0, probes) = (1, 101),
# (0.3, 21), (4, 2000) and (1, 2), as evaluating the u grid and the random
# pairs apart gave them: evaluating the pairs as one batch keeps every bit
_LIPSCHITZ_SETTINGS = ((1.0, 101), (0.3, 21), (4.0, 2000), (1.0, 2))
_LIPSCHITZ_PINNED = {
    "f": (0.16666666666666471, 0.1666666666666647, 0.16666666666666471, 0.16666666666666474),
    "psi": (0.9999999999999882, 0.9999999999999882, 0.9999999999999882, 0.9999999999999882),
    "alpha.g": (0.3333333333333297, 0.33333333333332976, 0.33333333333332976, 0.3333333333333297),
    "beta.g": (0.3333333333333297, 0.33333333333332976, 0.33333333333332976, 0.3333333333333297),
    "sin(3*a)*x": (8.974120094232852, 8.898330657284218, 8.905349714413433, 8.36797057669818),
    "a*a/4": (0.44444444444443804, 0.10490875401800162, 1.953488372092966, 0.44834889432165287),
    "max(a, 0.1*x)": (0.999999999999988, 0.9999999999999872, 0.9999999999999881, 0.9999999999999878),
    "exp(a)": (2.4374335353425405, 1.23377332325669, 49.82010161299944, 2.4516370886985994),
    "0.3": (0.0, 0.0, 0.0, 0.0),
    "x": (0.0, 0.0, 0.0, 0.0),
}


def _pinned_nonlinearities() -> dict:
    """The nonlinearities of _LIPSCHITZ_PINNED: the bundled f, psi (shared by
    both equations) and both g, then the rest parsed from their names."""
    assert _ALPHA.f == _BETA.f and _ALPHA.psi == _BETA.psi
    named = {"f": _ALPHA.f, "psi": _ALPHA.psi, "alpha.g": _ALPHA.g, "beta.g": _BETA.g}
    return {key: named.get(key) or Nonlinearity.from_string(key, 1.0) for key in _LIPSCHITZ_PINNED}


def test_estimate_lipschitz_is_pinned_bit_for_bit():
    for key, nl in _pinned_nonlinearities().items():
        got = tuple(estimate_lipschitz(nl, r0, probes, t_end=3.0) for r0, probes in _LIPSCHITZ_SETTINGS)
        assert got == _LIPSCHITZ_PINNED[key], key


def test_estimate_lipschitz_evaluates_once(monkeypatch):
    # the adjacent pairs of the u grid and the random pairs form one batch,
    # evaluated in one call at both ends of every pair
    calls = []
    evaluate = eqmod.evaluate

    def counted(expr, x, a):
        calls.append(expr)
        return evaluate(expr, x, a)

    monkeypatch.setattr(eqmod, "evaluate", counted)
    for nl in _pinned_nonlinearities().values():
        for r0, probes in _LIPSCHITZ_SETTINGS:
            calls.clear()
            estimate_lipschitz(nl, r0, probes, t_end=3.0)
            assert len(calls) == 1, (nl, r0, probes)


# parts f, psi and g that evaluate to a float, to the read-only (n,) array
# bound to the nodes, or (g = a) to the values themselves
_F_PARTS = ("0.3", "0.2*sin(x)")
_PSI_PARTS = ("0.4", "1/(1+x*x)")
_G_PARTS = ("a", "1/(2+x)")


@pytest.mark.parametrize("n", [129, 4097])
@pytest.mark.parametrize("gamma_ord", [2.0 / 3.0, 1.0 / 6.0])
def test_operator_uses_each_part_at_the_shape_it_evaluates_to(n, gamma_ord):
    # f, psi and g are used at their own shapes and broadcast; the image is
    # f + psi * I[g] with every part spread over the (m, n) grid first, bit
    # for bit, on the dense path and the large grid, at a = 2 (panel
    # moments) and a = 0.5 (the H^2 operator). values is read-only, so a
    # write to it raises
    params = FracParams(k=1.0 / 3.0, rho=1.0 / 3.0, gamma_ord=gamma_ord, T=3.0)
    nodes = uniform_nodes(3.0, n)
    rng = np.random.default_rng(n)
    for f, psi, g in itertools.product(_F_PARTS, _PSI_PARTS, _G_PARTS):
        eq = EquationSpec(
            params=params,
            f=Nonlinearity.from_string(f, 1.0),
            psi=Nonlinearity.from_string(psi, 1.0),
            g=Nonlinearity.from_string(g, 1.0),
        )
        band = near_band(eq, nodes)
        for m in (0, 1, 3):
            values = rng.uniform(-0.5, 0.5, (m, n))
            values.flags.writeable = False

            def grid(part):
                return np.array(np.broadcast_to(eqmod.evaluate(part.expr, nodes, values), values.shape))

            want = grid(eq.f) + grid(eq.psi) * eqmod._integral_values(band, grid(eq.g))
            got = apply_operator_batch(eq, nodes, values, band=band)
            assert got.shape == (m, n) and np.array_equal(got, want), (f, psi, g, m)


@pytest.mark.parametrize("n", [129, 4097])
def test_operator_evaluates_f_then_psi_then_g(n):
    # the first part that fails raises: f before psi, psi before g
    params = parse_config(_FORCED).equations[0].params
    nodes = uniform_nodes(3.0, n)
    cases = (
        (("abs(a)/6+log(x-3)", "1/(x-2)", "a/(x-2)"), "log of a nonpositive value"),
        (("abs(a)/6", "log(x-3)+a", "a/(x-2)"), "log of a nonpositive value"),
        (("abs(a)/6", "1/(1+a*a)", "a/(x-2)"), "division by zero"),
    )
    for parts, message in cases:
        f, psi, g = (Nonlinearity.from_string(expr, 1.0) for expr in parts)
        eq = EquationSpec(params=params, f=f, psi=psi, g=g)
        with pytest.raises(EvaluationError) as err:
            apply_operator_batch(eq, nodes, np.zeros((2, n)))
        assert str(err.value) == message, parts


def test_zero_conditions():
    assert check_zero_conditions(_ALPHA, probes=33)
    assert check_zero_conditions(_BETA, probes=33)
    shifted = EquationSpec(
        params=_ALPHA.params,
        f=Nonlinearity.from_string("abs(a)/6+1", lipschitz=1.0 / 6.0),
        psi=_ALPHA.psi,
        g=_ALPHA.g,
    )
    assert not check_zero_conditions(shifted, probes=33)
