"""Adjoint-operator coefficient table against the exact symbolic oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscphase import ClassError, builtin, ibp_coefficients, ibp_depth, verification
from oscphase.ibp import coefficient_rows, strict_floor_ratio
from oscphase.oscillatory import _TermChain
from oscphase.verification import brute_ibp_rows, check_ibp_oracle, run_suites


def test_depth_zero_and_one_rows():
    t = ibp_coefficients(2.0, 1.0, 1)
    assert t.rows[0] == (1.0,)
    assert t.rows[1] == (1.0 - 2.0, 1.0)  # (q - p, 1)


def test_depth_two_interior_from_brute_force():
    p, q = Fraction(3, 2), Fraction(7, 3)
    rec = coefficient_rows(p, q, 2)
    brute = brute_ibp_rows(p, q, 2)
    assert rec == tuple(brute)
    # C[2][1] = (q - 2p + 1) + (q - p), collected by hand
    assert rec[2][1] == (q - 2 * p + 1) + (q - p)


rational = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(6, 1), max_denominator=10
)


@given(rational, rational)
@settings(max_examples=60, deadline=None)
def test_recurrence_matches_symbolic_oracle(p, q):
    assert coefficient_rows(p, q, 8) == tuple(brute_ibp_rows(p, q, 8))


def test_oracle_row_text_is_pinned():
    res = check_ibp_oracle()
    assert res.passed
    assert res.lines[0] == "PASS  100 random rational (p,q), l<=8: 0 mismatches"


def test_oracle_catches_a_perturbed_coefficient(monkeypatch):
    # C[5][2] off by 1e-9 must fail every case, not pass within a tolerance
    def perturbed(p, q, l):
        rows = [list(r) for r in coefficient_rows(p, q, l)]
        rows[5][2] += 1e-9
        return tuple(tuple(r) for r in rows)

    monkeypatch.setattr(verification, "coefficient_rows", perturbed)
    res = check_ibp_oracle()
    assert not res.passed
    assert res.lines[0] == "FAIL  100 random rational (p,q), l<=8: 100 mismatches"


def test_stray_term_is_a_fail_row(monkeypatch):
    # a stray term in the brute force is a mismatch, not an escaping exception
    def stray(p, q, lmax):
        raise AssertionError("stray term (Fraction(1, 2), 0) at depth 1")

    monkeypatch.setattr(verification, "brute_ibp_rows", stray)
    (res,) = run_suites(["ibp"])
    assert not res.passed
    assert res.lines[0] == "FAIL  100 random rational (p,q), l<=8: 100 mismatches"


def test_brute_rows_are_fractions():
    rows = brute_ibp_rows(Fraction(3, 2), Fraction(7, 3), 4)
    assert all(type(c) is Fraction for row in rows for c in row)
    assert rows[1] == (Fraction(5, 6), Fraction(1))  # (q - p, 1)


def test_boundary_closed_forms():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = float(rng.uniform(0.2, 5.0))
        q = float(rng.uniform(0.2, 8.0))
        rows = coefficient_rows(p, q, 20)
        prod = 1.0
        for l in range(1, 21):
            prod *= q - p * l
            assert rows[l][0] == prod
            assert rows[l][l] == 1.0


def test_table_memoized():
    assert ibp_coefficients(2.0, 1.0, 3) is ibp_coefficients(2.0, 1.0, 3)


def test_strict_floor():
    assert strict_floor_ratio(2.0, 2.0) == 0
    assert strict_floor_ratio(5.0, 2.0) == 2
    assert strict_floor_ratio(1.0, 2.0) == 0
    assert strict_floor_ratio(6.0, 2.0) == 2  # integer ratio steps down


def test_depth_params():
    d = ibp_depth(2.0, 1.0, tau=0.0, delta=0.0)
    assert d.l_pq == 2  # floor(1/1) + 1
    assert ibp_depth(2.0, 2.0).l0 == 0
    assert ibp_depth(2.0, 5.0).l0 == 2
    with pytest.raises(ClassError):
        ibp_depth(1.0, 1.0, tau=0.0, delta=0.0)  # delta >= p-1
    with pytest.raises(ClassError):
        ibp_depth(2.0, 1.0, tau=0.0, delta=-1.5)


def test_term_chain_hand_case():
    # constant amplitude, no regularizer, one step of L* at p=2, q=1:
    # (i/(2 lam)) (1-2) x^(-2)
    lam, x = 3.7, 1.9
    chain = _TermChain(2.0, lam, +1, builtin("constant_one"), 0.0, [1.0 + 0.0j])
    expect = (1j / (2.0 * lam)) * (-1.0) * x**-2.0
    link = chain.step()
    assert link.value_at(x, link.derivs_at(x)) == pytest.approx(expect, rel=1e-14)


def test_transformed_tail_decays_at_integrable_rate():
    # at depth l_pq the magnitude falls at least like the envelope exponent
    a = builtin("rational_decay(1)")  # tau = -2, delta = -1
    p, q = 2.0, 1.5
    d = ibp_depth(p, q, a.tau, a.delta)
    beta = max(q + a.tau, 0.0) - 1.0 - (p - 1.0 - a.delta) * d.l_pq
    assert beta < -1.0
    chain = _TermChain(p, 1.0, +1, a, q - 1.0, [1.0 + 0.0j])
    for _ in range(d.l_pq):
        chain = chain.step()
    xs = [10.0, 20.0, 40.0]
    vals = [abs(chain.value_at(x, chain.derivs_at(x))) for x in xs]
    slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
    assert slope <= beta + 0.1
