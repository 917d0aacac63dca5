"""solve against an equation whose fixed point is known in closed form.

With k = rho = 1/3 on [1, 3], psi = 0.4 and g = a, the unknown
u*(x) = 0.3 (x^rho - 1) is linear in s = x^rho, and its (k, rho)-Hilfer
integral is 0.3 C (x^rho - 1)^(1 + a) with C = (rho k)^(-a) / Gamma(2 + a)
(a Beta moment, Gamma_k(gamma) = k^(a - 1) Gamma(a)). f subtracts psi times
that integral from u* and adds 0.1 (sin(a) - sin(u*)), which vanishes at
a = u* and keeps the map nonlinear, so u* is the fixed point. The product
rule integrates every integrand that is linear in s on its mesh exactly,
so on every grid the discrete fixed point is u* at the nodes, up to
rounding: the dense matrix, the large-grid operator and its far field
included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hilfer_mnc.equations import EquationSpec, Nonlinearity
from hilfer_mnc.fractional import FracParams, GridFunction, uniform_nodes
from hilfer_mnc.solver import solve

_THIRD = 1.0 / 3.0


def _equation(a: float) -> EquationSpec:
    params = FracParams(k=_THIRD, rho=_THIRD, gamma_ord=a * _THIRD, T=3.0)
    assert params.exponent == a
    c = (_THIRD * _THIRD) ** (-a) / math.gamma(2.0 + a)
    s1 = f"(x^{_THIRD!r}-1)"
    f = f"0.3*{s1}-{0.4 * 0.3 * c!r}*{s1}^{1.0 + a!r}+0.1*sin(a)-0.1*sin(0.3*{s1})"
    return EquationSpec(
        params=params,
        f=Nonlinearity.from_string(f, 0.1),
        psi=Nonlinearity.from_string("0.4", 0.0),
        g=Nonlinearity.from_string("a", 1.0),
    )


def _nodes(grid: str, n: int) -> np.ndarray:
    if grid == "uniform":
        return uniform_nodes(3.0, n)
    return 1.0 + 2.0 * np.linspace(0.0, 1.0, n) ** 2


@pytest.mark.parametrize("grid", ["uniform", "graded"])
@pytest.mark.parametrize("n", [129, 4097])
@pytest.mark.parametrize("a", [2.0, 0.5])
def test_solve_reproduces_the_exact_solution(a, n, grid):
    # 129 nodes take the dense matrix, 4097 the large-grid operator
    nodes = _nodes(grid, n)
    report = solve(_equation(a), GridFunction(nodes=nodes, values=np.zeros(n)), tol=1e-14)
    assert report.converged
    exact = 0.3 * (nodes**_THIRD - 1.0)
    assert np.max(np.abs(report.solution.values - exact)) <= 1e-14
