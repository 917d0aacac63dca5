"""Acceptance suite: ten pinned criteria for the bundled scenario.

Each test freezes one externally meaningful guarantee: reference
arithmetic, cross-method consistency, quadrature oracles, convergence
order, contraction behavior of the iteration and of the measure, estimator
exactness, the expression round trip, and Lipschitz validation. Tolerances
are part of the contract; do not loosen them.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from hilfer_mnc.cli import main
from hilfer_mnc.config import bundled_example
from hilfer_mnc.equations import apply_operator_batch, estimate_lipschitz
from hilfer_mnc.expressions import Bin, Call, Lit, Neg, Var, evaluate, parse, to_string
from hilfer_mnc.fractional import (
    FracParams,
    GridFunction,
    closed_form_constant,
    hilfer_integral,
    measure_convergence_order,
    uniform_nodes,
)
from hilfer_mnc.mnc import (
    FunctionEnsemble,
    certificate_inequality_check,
    darbo_iterate,
    default_certificate,
    mnc_axiom_checks,
    mnc_estimate,
    modulus_of_continuity,
)
from hilfer_mnc.solvability import certify
from hilfer_mnc.solver import solve
from hilfer_mnc.special_functions import k_gamma, k_gamma_integral

_SEED = 20240816
_REFERENCE_GAMMA_K = 2.4047


def _check_payload(capsys, *argv: str) -> tuple[int, dict]:
    code = main(["check", "--paper-example", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_criterion_1_reference_radius_arithmetic(capsys):
    # with the reference gamma-k value the bundled radius 0.83 is admitted
    # and the threshold lands on 0.831 +/- 0.001
    code, data = _check_payload(capsys, "--gamma-k-override", str(_REFERENCE_GAMMA_K))
    assert code == 0
    assert data["status"] == "pass"
    assert data["r0"] == 0.83
    assert data["system_admissible"] is True
    for rec in data["equations"]:
        assert rec["threshold"] == pytest.approx(0.831, abs=1e-3)
        assert rec["admissible"] is True
    assert data["epsilon"] < 1.0


def test_criterion_2_gamma_k_consistency(capsys):
    rng = np.random.default_rng(_SEED)
    for _ in range(20):
        k = float(rng.uniform(0.3, 1.0))
        z = float(rng.uniform(0.2, 2.0))
        ident = k_gamma(k, z).value
        integral = k_gamma_integral(k, z).value
        assert abs(ident - integral) <= 1e-6
    third = k_gamma(1.0 / 3.0, 2.0 / 3.0).value
    assert third == pytest.approx(1.0 / 3.0, abs=1e-10)
    # the reference value differs from the identity; both must stay visible
    code, data = _check_payload(capsys, "--gamma-k-override", str(_REFERENCE_GAMMA_K))
    assert data["gamma_k_standard"] == pytest.approx(1.0 / 3.0, abs=1e-10)
    rec = data["equations"][0]
    assert rec["gamma_k_used"] == _REFERENCE_GAMMA_K
    assert rec["gamma_k_overridden"] is True
    assert abs(rec["gamma_k_used"] - data["gamma_k_standard"]) > 2.0
    code, data = _check_payload(capsys)
    assert data["equations"][0]["gamma_k_overridden"] is False
    assert data["equations"][0]["gamma_k_used"] == pytest.approx(1.0 / 3.0, abs=1e-10)


def _random_params(rng: np.random.Generator) -> FracParams:
    return FracParams(
        k=float(rng.uniform(0.3, 0.95)),
        rho=float(rng.uniform(0.3, 0.95)),
        gamma_ord=float(rng.uniform(0.3, 0.9)),
        T=float(rng.uniform(2.0, 4.0)),
    )


def test_criterion_3_constant_oracle():
    rng = np.random.default_rng(_SEED)
    for _ in range(10):
        params = _random_params(rng)
        nodes = uniform_nodes(params.T, 257)
        phi = GridFunction(nodes=nodes, values=np.ones(257))
        for x in rng.uniform(1.0 + 1e-3, params.T, size=50):
            got = hilfer_integral(params, phi, float(x), panels=1024)
            ref = closed_form_constant(params, float(x))
            assert got == pytest.approx(ref, rel=1e-10)


def test_criterion_3_beta_moment_oracle():
    # the smooth factor is sampled uniformly in s = t**rho so the dyadic
    # quadrature meshes land exactly on its nodes; what remains is pure
    # second-order scheme error, far below the pinned tolerance
    rng = np.random.default_rng(_SEED)
    panels = 32768
    for _ in range(10):
        params = _random_params(rng)
        a = params.exponent
        big_x = params.T**params.rho
        s = 1.0 + (big_x - 1.0) * np.linspace(0.0, 1.0, 4 * panels + 1)
        t = s ** (1.0 / params.rho)
        t[0], t[-1] = 1.0, params.T
        pref = params.rho ** (-a) / (params.k * k_gamma(params.k, params.gamma_ord).value)
        half_x = float((1.0 + 0.5 * (big_x - 1.0)) ** (1.0 / params.rho))
        for m in (1, 2):
            phi = GridFunction(nodes=t, values=(s - 1.0) ** m)
            beta_m = math.gamma(m + 1.0) * math.gamma(a) / math.gamma(m + 1.0 + a)
            for x in (params.T, half_x):
                got = hilfer_integral(params, phi, x, panels=panels)
                ref = pref * beta_m * (x**params.rho - 1.0) ** (m + a)
                assert got == pytest.approx(ref, rel=1e-8)


def test_criterion_4_convergence_order():
    params = FracParams(k=1.0 / 3.0, rho=1.0 / 3.0, gamma_ord=2.0 / 3.0, T=3.0)
    nodes = uniform_nodes(3.0, 20001)
    phi = GridFunction(nodes=nodes, values=np.sin(nodes))
    order = measure_convergence_order(params, phi, 3.0, [128, 256, 512, 1024, 2048])
    assert order >= 1.9


def test_criterion_5_picard_contraction_both_gamma_modes():
    cfg = bundled_example()
    cases = [
        cfg.equations[0],
        cfg.with_gamma_k_override(_REFERENCE_GAMMA_K).equations[0],
    ]
    for eq in cases:
        seed = GridFunction(nodes=uniform_nodes(3.0, 129), values=np.full(129, 0.5))
        report = solve(eq, seed, tol=1e-10, max_iter=200)
        assert report.converged
        assert report.solution.sup_norm <= 1e-8
        assert report.measured_rate <= certify(eq).factor_at(0.5) + 0.05


def test_criterion_6_ball_invariance():
    cfg = bundled_example()
    eq = cfg.equations[0]
    cert = certify(eq)
    r0 = 0.3
    assert cert.admits(r0)
    nodes = uniform_nodes(3.0, 129)
    rng = np.random.default_rng(_SEED)
    members = rng.uniform(-r0, r0, size=(200, 129))
    images = apply_operator_batch(eq, nodes, members)
    bound = cert.c1 * r0 + cert.kappa * r0**2 + 1e-6
    assert float(np.max(np.abs(images))) <= bound


def test_criterion_7_measure_contraction_ensemble():
    cfg = bundled_example()
    nodes = uniform_nodes(3.0, cfg.solver.nodes)
    for eq in cfg.equations:
        cert = certify(eq, kernel_factor_override=cfg.kernel_factor_override)
        factor = cert.factor_at(0.1)
        assert 0.0 < factor < 1.0
        for rep in range(50):
            rng = np.random.default_rng(1000 + rep)
            seed = FunctionEnsemble.from_matrix(
                nodes, rng.uniform(-0.1, 0.1, size=(cfg.mnc.ensemble, nodes.size))
            )
            trace = darbo_iterate(
                eq,
                seed,
                p_max=cfg.mnc.p_max,
                convex_samples=cfg.mnc.ensemble,
                deltas=cfg.mnc.deltas,
                rng_seed=rep,
            )
            for p in range(len(trace) - 1):
                assert trace[p + 1].mu0 <= (factor + 0.05) * trace[p].mu0 + 1e-15
            report = certificate_inequality_check(
                default_certificate(gain=0.5 * (1.0 - factor)), trace, factor, slack=0.05
            )
            assert report.all_pass


def test_criterion_8_modulus_estimator_suite():
    # 33 nodes give spacing 1/16: all ladder deltas are node aligned and
    # integer values keep monotonicity and subadditivity exact
    rng = np.random.default_rng(_SEED)
    nodes = np.linspace(1.0, 3.0, 33)
    ladder = [0.125, 0.25, 0.5, 0.75, 1.0]
    for _ in range(1000):
        f = GridFunction(
            nodes=nodes, values=rng.integers(-1000, 1001, size=33).astype(float)
        )
        d1, d2 = sorted(rng.choice(ladder, size=2))
        lo = modulus_of_continuity(f, float(d1))
        hi = modulus_of_continuity(f, float(d2))
        assert lo <= hi
        assert modulus_of_continuity(f, float(d1 + d2)) <= lo + hi

    shared = np.linspace(1.0, 3.0, 65)
    deltas = bundled_example().mnc.deltas
    for _ in range(100):
        big = rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 7)), 65))
        e_big = FunctionEnsemble.from_matrix(shared, big)
        e_small = FunctionEnsemble.from_matrix(shared, big[: int(rng.integers(1, 3))])
        report = mnc_axiom_checks(e_small, e_big, L=float(rng.uniform(0.0, 1.0)), deltas=deltas)
        assert report.monotonicity_applicable
        assert report.monotonicity_pass
        assert report.convexity_pass
        est = mnc_estimate(e_big, deltas)
        assert est.hausdorff == 0.5 * est.mu0


def _random_tree(r: random.Random, depth: int):
    if depth == 0 or r.random() < 0.3:
        if r.random() < 0.5:
            return Lit(abs(round(r.uniform(0.0, 10.0), 3)))
        return Var(r.choice(["x", "a"]))
    kind = r.randrange(4)
    if kind == 0:
        return Neg(_random_tree(r, depth - 1))
    if kind == 1:
        return Call(r.choice(["abs", "log", "exp", "sin", "cos", "sqrt"]), (_random_tree(r, depth - 1),))
    if kind == 2:
        return Call(
            r.choice(["min", "max"]),
            (_random_tree(r, depth - 1), _random_tree(r, depth - 1)),
        )
    return Bin(
        r.choice(["+", "-", "*", "/", "^"]),
        _random_tree(r, depth - 1),
        _random_tree(r, depth - 1),
    )


def test_criterion_9_expression_round_trip():
    r = random.Random(_SEED)
    for _ in range(1000):
        tree = _random_tree(r, depth=5)
        assert parse(to_string(tree)) == tree

    rng = np.random.default_rng(_SEED)
    xs = rng.uniform(1.0, 3.0, size=20)
    zs = rng.uniform(-2.0, 2.0, size=20)
    cases = [
        ("abs(a)/6", lambda x, a: np.abs(a) / 6.0),
        ("abs(a)", lambda x, a: np.abs(a)),
        ("a/(3+log(x))", lambda x, a: a / (3.0 + np.log(x))),
        ("a/(2+x)", lambda x, a: a / (2.0 + x)),
    ]
    for src, hand in cases:
        expr = parse(src)
        got = np.asarray(evaluate(expr, xs, zs), dtype=float)
        np.testing.assert_allclose(got, hand(xs, zs), rtol=1e-12, atol=0.0)


def test_criterion_10_lipschitz_validation():
    cfg = bundled_example()
    declared = {"f": 1.0 / 6.0, "psi": 1.0, "g": 1.0 / 3.0}
    for eq in cfg.equations:
        for label, n in (("f", eq.f), ("psi", eq.psi), ("g", eq.g)):
            est = estimate_lipschitz(n, r0=1.0, probes=100_000, t_end=cfg.params.T)
            assert est <= declared[label]
            assert est >= declared[label] - 1e-3
