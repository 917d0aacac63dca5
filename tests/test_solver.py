"""Picard iteration on the bundled scenario."""

from __future__ import annotations

import numpy as np
import pytest

from hilfer_mnc.config import bundled_example
from hilfer_mnc.equations import apply_operator
from hilfer_mnc.errors import DomainError
from hilfer_mnc.fractional import GridFunction, uniform_nodes
from hilfer_mnc.solver import SolveReport, _measured_rate, solve


def _zero_seed(n: int = 129) -> GridFunction:
    nodes = uniform_nodes(3.0, n)
    return GridFunction(nodes=nodes, values=np.zeros(n))


def _wavy_seed(n: int = 129) -> GridFunction:
    nodes = uniform_nodes(3.0, n)
    return GridFunction(nodes=nodes, values=0.5 * np.sin(3.0 * (nodes - 1.0)))


def test_bundled_alpha_converges_fast():
    cfg = bundled_example()
    report = solve(cfg.equations[0], _wavy_seed(), tol=1e-10, max_iter=30)
    assert report.converged
    assert report.iterations <= 30
    assert report.residual <= 1e-10
    assert report.sup_distances.shape == (report.iterations,)
    assert report.sup_norms.shape == (report.iterations + 1,)
    assert 0.49 < report.sup_norms[0] <= 0.5


def test_solution_is_an_operator_fixed_point():
    cfg = bundled_example()
    report = solve(cfg.equations[0], _wavy_seed(), tol=1e-10, max_iter=50)
    again = apply_operator(cfg.equations[0], report.solution)
    gap = float(np.max(np.abs(again.values - report.solution.values)))
    assert gap == pytest.approx(report.residual, abs=1e-15)


def test_zero_seed_is_already_fixed():
    # the bundled equations vanish at the zero function, so the zero seed
    # is an exact fixed point and the loop stops after one look
    cfg = bundled_example()
    report = solve(cfg.equations[0], _zero_seed(65))
    assert report.iterations == 1
    assert report.residual == 0.0
    assert report.converged


def test_measured_rate_is_a_contraction_ratio():
    cfg = bundled_example()
    report = solve(cfg.equations[0], _wavy_seed(), tol=1e-12, max_iter=60)
    assert report.converged
    assert 0.0 < report.measured_rate < 1.0
    ratios = report.sup_distances[2:] / report.sup_distances[1:-1]
    assert report.measured_rate == pytest.approx(float(ratios.max()), rel=1e-12)


def test_measured_rate_skips_first_transient():
    assert _measured_rate([10.0, 1.0, 0.5]) == 0.5
    assert _measured_rate([10.0, 0.0, 0.5]) == 0.0
    assert _measured_rate([5.0]) == 0.0
    assert _measured_rate([]) == 0.0


def test_seed_outside_radius_warns():
    cfg = bundled_example()
    nodes = uniform_nodes(3.0, 65)
    big = GridFunction(nodes=nodes, values=np.full(65, 2.0))
    with pytest.warns(UserWarning, match="certified radius"):
        solve(cfg.equations[0], big, tol=1e-8, max_iter=5, r0=0.83)


def test_seed_inside_radius_does_not_warn():
    cfg = bundled_example()
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve(cfg.equations[0], _zero_seed(65), tol=1e-8, max_iter=5, r0=0.83)


def test_budget_exhaustion_reports_not_converged():
    cfg = bundled_example()
    report = solve(cfg.equations[0], _wavy_seed(65), tol=1e-13, max_iter=2)
    assert report.iterations == 2
    assert not report.converged
    assert report.residual > 1e-13


def test_solve_validation():
    cfg = bundled_example()
    for tol in (0.0, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            solve(cfg.equations[0], _zero_seed(65), tol=tol)
    with pytest.raises(DomainError):
        solve(cfg.equations[0], _zero_seed(65), max_iter=0)


def test_report_validation():
    nodes = uniform_nodes(3.0, 5)
    g = GridFunction(nodes=nodes, values=np.zeros(5))
    with pytest.raises(DomainError):
        SolveReport(
            iterations=1,
            sup_distances=np.array([1.0]),
            residual=0.1,
            measured_rate=float("nan"),
            solution=g,
            converged=False,
            sup_norms=np.array([0.0, 1.0]),
        )
