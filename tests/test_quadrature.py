"""Adaptive panel engine and the Filon compact engine on known integrals."""

import math

import mpmath as mp
import numpy as np
import pytest

from oscphase.errors import BudgetError
from oscphase.quadrature import (
    adaptive,
    corner_graded,
    osc_power_integral,
)



def test_adaptive_smooth():
    res = adaptive(np.exp, np.array([0.0, 1.0]), 1e-14, 1e-14, 10_000)
    assert abs(res.value - (math.e - 1.0)) <= 1e-14
    assert res.est_error >= 0.0


def test_adaptive_refines_peak():
    f = lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2)
    # closed form: 100 (atan(70) + atan(30))
    expect = (math.atan(70.0) + math.atan(30.0)) / 1e-2
    res = adaptive(f, np.linspace(0.0, 1.0, 5), 1e-10, 1e-12, 200_000)
    assert abs(res.value - expect) <= 1e-8


def test_corner_graded_shape():
    pts = corner_graded(1.0, 4)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)


def test_singular_endpoint_oscillatory():
    # integral_0^1 e^(ix) x^(-1/2) dx, oracle via mpmath
    expect = complex(mp.quad(lambda t: mp.e ** (1j * t) / mp.sqrt(t), [0, 1]))
    res = osc_power_integral(
        lambda x: np.ones((1, x.size)), 1.0, 1.0, 0.5, 1.0, +1, [1.0], 0.0, 1e-12, 1e-12, 100_000
    )
    assert abs(res.value[0] - expect) <= 1e-11


def test_mildly_singular_direct_branch():
    # q = 1.5: a bounded corner factor x^(1/2); e^(2ix) x^(1/2)
    expect = complex(mp.quad(lambda t: mp.e ** (2j * t) * mp.sqrt(t), [0, 1]))
    res = osc_power_integral(
        lambda x: np.ones((1, x.size)), 1.0, 1.0, 1.5, 2.0, +1, [1.0], 0.0, 1e-12, 1e-12, 100_000
    )
    assert abs(res.value[0] - expect) <= 1e-11


def test_rows_of_opposite_sign_match_one_row_calls():
    # one call with a row per sign shares panels and moments; each row equals
    # its own one-row call within their estimates
    def weight(x):
        g = np.exp(-x * x)
        return np.vstack([g, (1.0 + x) * g])

    args = (2.5, 2.0, 1.0, 7.0)  # X, p, q, lam
    both = osc_power_integral(weight, *args, [+1, -1], [1.0, 1.0], 2.0, 1e-12, 1e-10, 100_000)
    assert both.converged and both.value.shape == (2,)
    for r, sign in enumerate((+1, -1)):
        one = osc_power_integral(lambda x: weight(x)[r : r + 1], *args, sign, [1.0], 2.0, 1e-12,
                                 1e-10, 100_000)
        assert abs(both.value[r] - one.value[0]) <= both.est_error[r] + one.est_error[0]


def test_budget_error():
    f = lambda x: np.exp(1j * 500.0 * x**2)
    with pytest.raises(BudgetError):
        adaptive(f, np.array([0.0, 6.0]), 1e-14, 1e-14, 300)
