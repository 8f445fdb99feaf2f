"""Amplitude catalogue, envelopes and regularizer oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from oscphase import (
    Amplitude,
    OrderError,
    UnknownAmplitude,
    builtin,
    default_regularizer,
    rational_regularizer,
    reflected,
)
from oscphase.amplitudes import corner_slope, ladder_weight, regularized
from oscphase.ibp import coefficient_rows

# the bounds must hold on [-60, 60] and far beyond it, out to |x| = 1e6
FAR_XS = np.concatenate([
    np.linspace(-60.0, 60.0, 2401), np.geomspace(60.0, 1e6, 400), -np.geomspace(60.0, 1e6, 400),
])

def test_builtin_values():
    one = builtin("constant_one")
    assert one.deriv(0, 3.7) == 1.0
    assert one.deriv(1, 3.7) == 0.0
    g = builtin("gaussian")
    assert g.deriv(1, 0.0) == 0.0
    assert g.deriv(2, 0.0) == -2.0  # d2/dx2 e^(-x^2) at 0, Hermite recurrence
    r = builtin("rational_decay(1.5)")
    assert r.tau == -3.0
    assert r.deriv(0, 0.0) == 1.0
    pg = builtin("polynomial(1,2)*gaussian")
    assert pg.deriv(0, 0.0) == 1.0
    assert pg.deriv(1, 0.0) == 2.0  # (1+2x)' g + (1+2x) g' at 0


def test_unknown_amplitude():
    with pytest.raises(UnknownAmplitude):
        builtin("lorentzian")
    with pytest.raises(UnknownAmplitude):
        builtin("rational_decay(-1)")


@pytest.mark.parametrize(
    "name,f",
    [
        ("gaussian", lambda x: mp.e ** (-(x**2))),
        ("rational_decay(2)", lambda x: (1 + x**2) ** -2),
        ("polynomial(1,0,-1)*gaussian", lambda x: (1 - x**2) * mp.e ** (-(x**2))),
    ],
)
def test_derivatives_match_mpmath(name, f):
    a = builtin(name)
    for x in (0.3, 1.1):
        for k in range(7):
            expect = float(mp.diff(f, mp.mpf(str(x)), k))
            got = a.deriv(k, x)
            assert got == pytest.approx(expect, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize(
    "name", ["constant_one", "gaussian", "rational_decay(1)", "polynomial(0,1)*gaussian"]
)
def test_envelope_certification(name):
    # |a^(k)(x)| <= deriv_bound(k) <x>^(tau + delta k), sampled densely
    a = builtin(name)
    xs = np.linspace(-50.0, 50.0, 4001)
    for k in range(9):
        d = np.abs(a.deriv_stack(xs, k)[k])
        env = a.deriv_bound(k) * (1.0 + xs**2) ** ((a.tau + a.delta * k) / 2.0)
        assert np.all(d <= env + 1e-300)


@pytest.mark.parametrize(
    "name",
    ["constant_one", "gaussian", "rational_decay(0.5)", "rational_decay(1)",
     "rational_decay(2.5)", "polynomial(1,0,1)*gaussian"],
)
def test_envelope_holds_beyond_grid(name):
    a = builtin(name)
    d = np.abs(a.deriv_stack(FAR_XS, 12))
    for k in range(13):
        env = a.deriv_bound(k) * (1.0 + FAR_XS**2) ** ((a.tau + a.delta * k) / 2.0)
        assert np.all(d[k] <= env + 1e-300), (name, k)


def _assert_bounds_sampled_sup(rows, bound, exponent):
    """bound(k) >= the sup over FAR_XS of |rows[k]| <x>^(-exponent(k)).

    Compared in logs, so the weight cannot overflow. Entries below 1e-290 are
    skipped: the float recurrences lose their relative precision where they
    underflow. The 1e-12 is the float oracle's own roundoff, which matters
    where a constant is sharp.
    """
    log_hyp = 0.5 * np.log1p(FAR_XS**2)
    for k, row in enumerate(rows):
        c = bound(k)
        if c == 0.0:
            assert not row.any(), k
            continue
        live = np.abs(row) > 1e-290
        got = np.log(np.abs(row[live])) - exponent(k) * log_hyp[live]
        assert np.max(got) <= math.log(c) + 1e-12, k


@pytest.mark.parametrize(
    "name",
    ["constant_one", "gaussian", "rational_decay(0.5)", "rational_decay(1)",
     "rational_decay(1.3)", "rational_decay(2.5)", "polynomial(1,0,1)*gaussian",
     "polynomial(0,1)*gaussian", "polynomial(1,-2,0,0,3)*gaussian"],
)
def test_closed_form_constants_bound_sampled_sup(name):
    a = builtin(name)
    _assert_bounds_sampled_sup(
        a.deriv_stack(FAR_XS, a.max_order), a.deriv_bound, lambda k: a.tau + a.delta * k
    )
    # the Filon corner's constant: sup |a'| on [0, 1]
    xs = np.linspace(0.0, 1.0, 2001)
    assert np.max(np.abs(a.deriv_stack(xs, 1)[1])) <= corner_slope(a)


@pytest.mark.parametrize("chi", [default_regularizer(), rational_regularizer()],
                         ids=lambda chi: chi.name)
@pytest.mark.parametrize(
    "name",
    ["constant_one", "gaussian", "rational_decay(0.5)", "rational_decay(1)",
     "rational_decay(1.3)", "rational_decay(2.5)", "polynomial(1,0,1)*gaussian",
     "polynomial(0,1)*gaussian", "polynomial(1,-2,0,0,3)*gaussian"],
)
def test_regularized_constants_bound_sampled_sup(name, chi):
    # C_0..C_12 of the rows a(x) chi(eps x) hold in a's class at every eps,
    # and so does the Filon corner's constant: sup |(a chi_eps)'| on [0, 1]
    a = builtin(name)
    xs = np.linspace(0.0, 1.0, 2001)
    for eps in (1.0, 0.05, 0.005):
        rows = regularized(a, chi, eps)
        _assert_bounds_sampled_sup(
            rows.deriv_stack(FAR_XS, 12), rows.deriv_bound, lambda k: a.tau + a.delta * k
        )
        assert np.max(np.abs(rows.deriv_stack(xs, 1)[1])) <= corner_slope(rows), eps


@pytest.mark.parametrize(
    "name",
    ["constant_one", "gaussian", "rational_decay(0.5)", "rational_decay(1)",
     "rational_decay(1.3)", "rational_decay(2.5)", "polynomial(1,0,1)*gaussian",
     "polynomial(0,1)*gaussian", "polynomial(1,-2,0,0,3)*gaussian"],
)
@pytest.mark.parametrize("p,q", [(0.7, 5.0), (1.0, 6.0), (2.0, 9.5), (3.0, 20.0)])
def test_ladder_weight_constants_bound_sampled_sup(name, p, q):
    a = builtin(name)
    for l in (1, 2, 3, 4):
        b = ladder_weight(a, coefficient_rows(p, q, l)[l])
        assert (b.tau, b.delta, b.max_order) == (a.tau + (1.0 + a.delta) * l, a.delta, 1)
        _assert_bounds_sampled_sup(
            b.deriv_stack(FAR_XS, 1), b.deriv_bound, lambda k: b.tau + b.delta * k
        )


@pytest.mark.parametrize(
    "name,f",
    [
        ("gaussian", lambda x: mp.e ** (-(x**2))),
        ("rational_decay(2)", lambda x: (1 + x**2) ** -2),
        ("polynomial(1,0,-1)*gaussian", lambda x: (1 - x**2) * mp.e ** (-(x**2))),
    ],
)
def test_ladder_weight_matches_mpmath(name, f):
    # b = sum_j C_j x^j f^(j) and b' = sum_j C_j (j x^(j-1) f^(j) + x^j f^(j+1))
    row = coefficient_rows(1.0, 6.0, 3)[3]
    b = ladder_weight(builtin(name), row)
    for x in (0.0, 0.3, 1.1, 2.7):
        xm = mp.mpf(str(x))
        d = [mp.diff(f, xm, j) for j in range(len(row) + 1)]
        b0 = sum(c * xm**j * d[j] for j, c in enumerate(row))
        b1 = sum(c * (j * xm ** (j - 1) * d[j] if j else 0) + c * xm**j * d[j + 1]
                 for j, c in enumerate(row))
        got = b.deriv_stack(np.array([x]), 1)[:, 0]
        assert got[0] == pytest.approx(float(b0), rel=1e-11, abs=1e-12), x
        assert got[1] == pytest.approx(float(b1), rel=1e-11, abs=1e-12), x
    with pytest.raises(OrderError):
        b.deriv_bound(2)


def test_ladder_weight_reads_parent_constants():
    a, calls = _counting("polynomial(1,0,1)*gaussian")
    parent = builtin("polynomial(1,0,1)*gaussian")
    row = coefficient_rows(1.0, 6.0, 4)[4]
    b = ladder_weight(a, row)
    assert b.deriv_bound(0) == sum(abs(c) * parent.deriv_bound(j) for j, c in enumerate(row))
    assert b.deriv_bound(1) == sum(
        abs(c) * (j * parent.deriv_bound(j) + parent.deriv_bound(j + 1)) for j, c in enumerate(row)
    )
    assert calls == []
    assert ladder_weight(a, (1.0,)) is a  # the direct split keeps its amplitude


def test_regularizer_constants_bound_sampled_sup():
    for chi in (default_regularizer(), rational_regularizer()):
        _assert_bounds_sampled_sup(
            chi.scaled_stack(FAR_XS, 1.0, chi.max_order), chi.uniform_bound, lambda u: -u
        )


@pytest.mark.parametrize("s,k", [(0.5, 26), (0.5, 40), (0.5, 60), (1.0, 60), (2.5, 60)])
def test_rational_decay_constant_holds_far_out(s, k):
    # |a^(k)(x)| <x>^(2s+k) tends to its sup (2s)_k only as x -> inf: the
    # derivative recurrence at 80 digits, at x = 1e8
    with mp.workdps(80):
        x, sm = mp.mpf("1e8"), mp.mpf(s)
        w = 1 + x**2
        y = [w**-sm, -2 * sm * x * w ** (-sm - 1)]
        for n in range(1, k):
            y.append(-((2 * n + 2 * sm) * x * y[n] + n * (n - 1 + 2 * sm) * y[n - 1]) / w)
        weighted = abs(y[k]) * w ** ((2 * sm + k) / 2)
    assert builtin(f"rational_decay({s})").deriv_bound(k) >= weighted


def test_regularizer_envelope_holds_beyond_grid():
    for chi in (default_regularizer(), rational_regularizer()):
        for eps in (0.9, 0.05, 0.005):
            d = np.abs(chi.scaled_stack(FAR_XS, eps, 12))
            for u in range(13):
                env = chi.uniform_bound(u) * (1.0 + FAR_XS**2) ** (-u / 2.0)
                assert np.all(d[u] <= env + 1e-300), (chi.name, eps, u)


def _counting(name):
    """builtin(name) with a log of its grid-sized stack evaluations."""
    a = builtin(name)
    calls = []

    def stack(x, order):
        if x.size > 1000:
            calls.append(order)
        return a.deriv_stack(x, order)

    return Amplitude(a.name, a.tau, a.delta, a.max_order, stack, a.bound), calls


@pytest.mark.parametrize("name", ["gaussian", "rational_decay(1.3)", "polynomial(1,0,1)*gaussian"])
def test_envelope_constants_independent_of_request_order(name):
    filled = builtin(name)
    for k in (7, 0, 30, 3, 60, 12, 1):
        filled.deriv_bound(k)
    for k in (0, 1, 2, 5, 8, 13, 21, 34, 47, 60):
        assert filled.deriv_bound(k) == builtin(name).deriv_bound(k), k
    for chi_factory in (default_regularizer, rational_regularizer):
        chi = chi_factory()
        for u in (9, 2, 40, 0):
            chi.uniform_bound(u)
        for u in (0, 1, 3, 8, 17, 29, 40):
            assert chi.uniform_bound(u) == chi_factory().uniform_bound(u), u


def test_reflected_and_shifted_read_parent_constants():
    for name in ("rational_decay(1.3)", "gaussian", "polynomial(1,0,1)*gaussian"):
        a, calls = _counting(name)
        parent = builtin(name)
        ref = reflected(a)
        for k in range(a.max_order - 2):
            assert ref.deriv_bound(k) == parent.deriv_bound(k)
        assert ref.deriv_bound(a.max_order) == parent.deriv_bound(a.max_order)
        assert calls == []  # no grid stack, of theirs or the parent's


def test_deriv_bound_past_max_order_raises():
    a = builtin("gaussian")
    a.deriv_bound(a.max_order)
    with pytest.raises(OrderError):
        a.deriv_bound(a.max_order + 1)
    with pytest.raises(OrderError):
        reflected(a).deriv_bound(a.max_order + 1)


def test_reflected_amplitude():
    pg = builtin("polynomial(0,1)*gaussian")  # odd function x e^(-x^2)
    ref = reflected(pg)
    for x in (0.0, 0.7, 2.1):
        assert ref.deriv(0, x) == pytest.approx(-pg.deriv(0, x), abs=1e-15)
        assert ref.deriv(1, x) == pytest.approx(pg.deriv(1, -x) * -1.0, abs=1e-15)
    assert ref.tau == pg.tau and ref.delta == pg.delta


@pytest.mark.parametrize("name,coeffs,reflect", [
    ("gaussian", (1,), False),
    ("polynomial(1,-2,0,3)*gaussian", (1, -2, 0, 3), False),
    ("polynomial(1,0,1)*gaussian", (1, 0, 1), True),
])
def test_tail_mass_bounds_the_tail(name, coeffs, reflect):
    # P(+-x) > 0 for x >= 0.5 in these three cases, so the tail integral of
    # x^(q-1) |P(+-x)| e^(-x^2) is sum_m c_m Gamma((q+m)/2, X^2)/2 exactly
    a = reflected(builtin(name)) if reflect else builtin(name)
    sgn = -1 if reflect else 1
    with mp.workdps(30):
        for q in (0.05, 0.5, 1.0, 2.5, 7.0, 40.0):
            for X in (0.5, 2.0, 6.0, 30.0, 1e3, 1e56):
                exact = sum(c * sgn**m * mp.gammainc(mp.mpf(q + m) / 2, mp.mpf(X) ** 2) / 2
                            for m, c in enumerate(coeffs) if c)
                assert exact > 0
                assert a.mass(q, X) >= float(exact), (q, X)
    # in logs, where X^(q-1) and e^(-X^2) alone leave double range
    assert a.mass(40.0, 1e56) == 0.0


def test_regularizer_normalization():
    at_zero = [chi.scaled_stack(np.zeros(1), 1.0, 2)[:, 0]
               for chi in (default_regularizer(), rational_regularizer())]
    for d in at_zero:
        assert d[0] == 1.0
        assert d[1] == 0.0
    assert at_zero[0][2] == -2.0
    assert at_zero[1][2] == -4.0


def test_regularizer_uniform_bound():
    # |d^u/dx^u chi(eps x)| <= C_u <x>^(-u) for 0 < eps < 1
    for chi in (default_regularizer(), rational_regularizer()):
        xs = np.linspace(0.0, 80.0, 2001)
        for u in (1, 3, 5):
            cu = chi.uniform_bound(u)
            for eps in (0.9, 0.3, 0.01):
                d = np.abs(chi.scaled_stack(xs, eps, u)[u])
                assert np.all(d <= cu * (1.0 + xs**2) ** (-u / 2.0) + 1e-300)


def test_regularizer_family_tends_to_one_on_compacts():
    chi = default_regularizer()
    xs = np.linspace(-10.0, 10.0, 101)
    prev = math.inf
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        gap = float(np.max(np.abs(chi.scaled_stack(xs, eps, 0)[0] - 1.0)))
        assert gap <= prev
        prev = gap
    assert prev <= 1e-9
