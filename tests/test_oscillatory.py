"""Oscillatory integral paths against closed forms and each other."""

import cmath
import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from oscphase import (
    Amplitude,
    BudgetError,
    ClassError,
    ConvergenceError,
    DEFAULT_EPS_LADDER,
    DomainError,
    OrderError,
    QuadratureConfig,
    builtin,
    default_regularizer,
    epsilon_regularized,
    generalized_fresnel,
    os_integral_fullline,
    os_integral_halfline,
    rational_regularizer,
    rotated_contour_reference,
)
from oscphase.amplitudes import RegularizerSpec, _gaussian_stack, reflected, regularized
from oscphase.ibp import coefficient_rows
import oscphase.oscillatory as osc_mod
import oscphase.quadrature as quad_mod
from oscphase.oscillatory import (
    _TermChain,
    _by_parts_from,
    _halves,
    _tail,
    default_eps_ladder,
)
from oscphase.quadrature import _sph_jn, adaptive, osc_power_integral
from oscphase.verification import GRID_P

ONE = builtin("constant_one")
GAUSS = builtin("gaussian")
# the gaussian without its tail mass: the recursion alone must certify the tail
GAUSS_NO_MASS = Amplitude("gaussian-no-mass", 0.0, -1.0, 60, _gaussian_stack, GAUSS.bound)


def test_fresnel_anchor_quadrature():
    rep = os_integral_halfline(2.0, 1.0, +1, 1.0, ONE)
    expect = math.sqrt(math.pi) / 2.0 * cmath.exp(1j * math.pi / 4.0)
    assert abs(rep.value - expect) <= 1e-8
    assert rep.est_error >= abs(rep.value - expect) / 100.0  # honest estimate
    assert rep.tail_cut >= 2.0


def test_cube_phase_value():
    # (1/3) e^(i pi/3) Gamma(2/3); Gamma(2/3) frozen from mpmath
    gamma_23 = 1.3541179394264004169
    rep = os_integral_halfline(3.0, 2.0, +1, 1.0, ONE)
    expect = cmath.exp(1j * math.pi / 3.0) * gamma_23 / 3.0
    assert abs(rep.value - expect) <= 1e-8


def test_lambda_scaling():
    expect = generalized_fresnel(2.0, 1.0, +1).value
    for lam in (4.0, 100.0):
        rep = os_integral_halfline(2.0, 1.0, +1, lam, ONE)
        assert abs(rep.value - lam**-0.5 * expect) <= 1e-8


def test_gaussian_amplitude_halfline_conjugate():
    plus = os_integral_halfline(2.0, 1.3, +1, 3.0, GAUSS)
    minus = os_integral_halfline(2.0, 1.3, -1, 3.0, GAUSS)
    assert abs(minus.value - plus.value.conjugate()) <= 1e-12


def test_fullline_quadratic_gaussian_exact():
    # oracle: integral of e^((i lam - 1) x^2) = sqrt(pi / (1 - i lam))
    for lam in (1.0, 10.0):
        rep = os_integral_fullline(2, +1, lam, GAUSS)
        expect = cmath.sqrt(math.pi / (1.0 - 1j * lam))
        assert abs(rep.value - expect) <= 1e-10


def test_fullline_linear_gaussian_fourier():
    # oracle: Fourier transform of the gaussian
    for lam in (3.0, 8.0):
        rep = os_integral_fullline(1, +1, lam, GAUSS)
        expect = math.sqrt(math.pi) * math.exp(-lam * lam / 4.0)
        assert abs(rep.value - expect) <= 1e-10


def test_fullline_odd_amplitude_cancels():
    odd = builtin("polynomial(0,1)*gaussian")
    rep = os_integral_fullline(2, +1, 1.0, odd)
    assert abs(rep.value) <= 1e-10


def test_fullline_rejects_non_integer():
    with pytest.raises(DomainError):
        os_integral_fullline(2.5, +1, 1.0, GAUSS)


def test_epsilon_path_matches_closed_form():
    expect = generalized_fresnel(2.0, 1.0, +1).value
    v = epsilon_regularized(2.0, 1.0, +1, 1.0, ONE, default_regularizer(), DEFAULT_EPS_LADDER)
    assert abs(v - expect) <= 1e-4


def test_epsilon_path_chi_independent():
    v1 = epsilon_regularized(2.0, 1.0, +1, 1.0, ONE, default_regularizer(), DEFAULT_EPS_LADDER)
    v2 = epsilon_regularized(2.0, 1.0, +1, 1.0, ONE, rational_regularizer(), DEFAULT_EPS_LADDER)
    assert abs(v1 - v2) <= 1e-4


def test_epsilon_path_linear_phase():
    v = epsilon_regularized(1.0, 1.0, +1, 1.0, ONE, default_regularizer(), DEFAULT_EPS_LADDER)
    assert abs(v - 1j) <= 1e-4


@pytest.mark.parametrize("name", ["gaussian", "polynomial(1,0,1)*gaussian"])
@pytest.mark.parametrize("q", [0.5, 1.5])
@pytest.mark.parametrize("sign", [+1, -1])
def test_epsilon_path_nonconstant_amplitude(name, q, sign):
    # int_0^inf e^(i s x^2) x^(q-1) x^(2m) e^(-x^2) dx = Gamma(q/2 + m) z^(-q/2-m) / 2
    z = 1.0 - 1j * sign
    expect = 0.5 * math.gamma(q / 2.0) * z ** (-q / 2.0)
    if name.startswith("polynomial"):
        expect += 0.5 * math.gamma(q / 2.0 + 1.0) * z ** (-q / 2.0 - 1.0)
    v = epsilon_regularized(2.0, q, sign, 1.0, builtin(name), default_regularizer(),
                            DEFAULT_EPS_LADDER)
    assert abs(v - expect) <= 1e-9


@pytest.mark.parametrize("sign", [+1, -1])
def test_far_tail_recursion_brackets_the_tail(sign):
    # the boundary-term recursion over [X, inf) with a and chi both in play;
    # with the tail mass, step 0's bound is the mass and the value is 0
    p, q, lam, eps, X = 2.0, 1.5, 1.0, 0.05, 4.0
    chi = default_regularizer()

    def f(x):
        return (np.exp(1j * sign * lam * x**p) * x ** (q - 1.0)
                * GAUSS.deriv_stack(x, 0)[0] * chi.scaled_stack(x, eps, 0)[0])

    # beyond x = 12 the integrand is below e^(-144); breakpoints pi of phase apart
    pts = np.append((np.arange(lam * X**p, lam * 12.0**p, math.pi) / lam) ** (1.0 / p), 12.0)
    direct = adaptive(f, pts, 1e-22, 1e-13, 10**6)
    for amp in (GAUSS_NO_MASS, GAUSS):
        chain = _TermChain(p, lam, sign, regularized(amp, chi, eps), q - 1.0, [1.0 + 0.0j])
        # the bound does not reach 1e-14 here, so no boundary term is evaluated;
        # asking for its least bound stops the recursion at that step
        none, least = _by_parts_from(chain, X, 1e-14)
        assert none is None
        value, bound = _by_parts_from(chain, X, least)
        assert math.isfinite(bound) and bound < abs(direct.value) * 1e3, amp.name
        assert abs(value - direct.value) <= bound + direct.est_error, amp.name


def test_term_chain_collapses_the_lattice():
    # steps give the ibp coefficient rows; values the derivatives of a * chi_eps
    # (mpmath); the bound the term-by-term envelope sum over k with the
    # constants of regularized(a, chi), here with delta = -1/2, where the
    # envelope exponent moves with k
    p, q, lam, sign, eps, x = 2.0, 1.5, 1.3, -1, 0.3, 5.0
    f = sign * 1j / (lam * p)
    chain = _TermChain(p, lam, sign, GAUSS, q - 1.0, [1.0 + 0.0j])
    for _ in range(5):
        chain = chain.step()
    rows = coefficient_rows(p, q, 5)
    assert chain.c == pytest.approx([f**5 * c for c in rows[5]], rel=1e-13)

    chi = default_regularizer()
    # delta = -1/2: the gaussian constants serve, as <x>^(-k) <= <x>^(-k/2)
    amp = Amplitude("gaussian-half", 0.0, -0.5, 60, _gaussian_stack, GAUSS.bound)
    chain = _TermChain(p, lam, sign, regularized(amp, chi, eps), q - 1.0, [1.0 + 0.0j])
    with mp.workdps(40):  # a * chi_eps = e^(-x^2) e^(-(eps x)^2)
        g = [float(mp.diff(lambda y: mp.e ** (-(1 + eps**2) * y**2), mp.mpf(x), k))
             for k in range(7)]
    deepest = chain
    for _ in range(5):
        deepest = deepest.step()
    shared = deepest.derivs_at(x)
    for n in range(6):
        expect = sum(c * x ** (q - 1.0 - p * n + k) * g[k] for k, c in enumerate(chain.c))
        got = chain.value_at(x, chain.derivs_at(x))
        assert got == chain.value_at(x, shared)  # rows of a later step change nothing
        assert got == pytest.approx(expect, rel=1e-13, abs=1e-300)
        brute = 0.0
        for k, c in enumerate(chain.c):
            t_env = amp.tau + amp.delta * k
            e_net = q - 1.0 - p * n + k + t_env
            if e_net >= -1.0:
                brute = math.inf
                break
            c_k = sum(math.comb(k, j) * amp.deriv_bound(j) * chi.uniform_bound(k - j)
                      for j in range(k + 1))
            brute += (abs(c) * c_k * 2.0 ** (max(t_env, 0.0) / 2.0)
                      * x ** (e_net + 1.0) / (-e_net - 1.0))
        assert chain.bound_beyond(x) == pytest.approx(brute, rel=1e-13)
        chain = chain.step()
    assert math.isfinite(brute)


@pytest.mark.parametrize("name", ["constant_one", "gaussian"])
def test_shared_chain_matches_a_fresh_chain_per_eps(name):
    # the chain's steps and bounds do not depend on eps: one walk over the
    # rows of every rung gives each rung's boundary terms, bit for bit, as the
    # chain of that rung alone, and so does a second walk from its memoized
    # steps and bounds
    p, q, lam, sign = 2.0, 1.5, 1.0, +1
    X = max(4.0, 2.0 * (40.0 / (lam * p)) ** (1.0 / p))
    a, chi = builtin(name), default_regularizer()
    rungs = []
    for eps in (0.05, 0.005):
        fresh = _TermChain(p, lam, sign, regularized(a, chi, eps), q - 1.0, [1.0 + 0.0j])
        got = _by_parts_from(fresh, X, 1e-14)
        assert got[0] is not None and got[1] <= 1e-14
        rungs.append(got)
    shared = _TermChain(p, lam, sign, regularized(a, chi, [0.05, 0.005]), q - 1.0, [1.0 + 0.0j])
    for _ in range(2):
        values, bound = _by_parts_from(shared, X, 1e-14)
        assert [(complex(v), bound) for v in np.broadcast_to(values, 2)] == rungs


def test_uncertified_recursion_evaluates_no_boundary_term(monkeypatch):
    calls = []
    derivs_at = _TermChain.derivs_at

    def counted(self, *args):
        calls.append(self.n)
        return derivs_at(self, *args)

    monkeypatch.setattr(_TermChain, "derivs_at", counted)
    # without the tail mass, which would certify at X = 12 with no boundary term
    rows = regularized(GAUSS_NO_MASS, default_regularizer(), 0.05)
    chain = _TermChain(2.0, 1.0, +1, rows, 0.5, [1.0 + 0.0j])
    # at X = 4 the least bound is about 2.5e-6, far above 1e-14
    value, bound = _by_parts_from(chain, 4.0, 1e-14)
    assert value is None and 1e-14 < bound < math.inf
    assert calls == []
    # where it certifies, the derivatives are evaluated once, at the orders of
    # the last step before the stop step, for every boundary term
    value, bound = _by_parts_from(chain, 12.0, 1e-14)
    assert value is not None and bound <= 1e-14
    assert len(calls) == 1 and calls[0] >= 1


@pytest.mark.parametrize("name", ["constant_one", "gaussian"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_epsilon_path_integrates_once_per_rung(monkeypatch, p, name):
    # one compact call integrates every rung over the common [0, X], one row
    # per rung; no rung falls back on adaptive Gauss-Legendre panels
    calls = {"adaptive": 0, "compact": []}
    adaptive_, compact_ = quad_mod.adaptive, osc_mod.osc_power_integral

    def counted(*args, **kw):
        calls["adaptive"] += 1
        return adaptive_(*args, **kw)

    def compact(*args, **kw):
        res = compact_(*args, **kw)
        calls["compact"].append(len(res.value))
        return res

    monkeypatch.setattr(quad_mod, "adaptive", counted)
    monkeypatch.setattr(osc_mod, "adaptive", counted)
    monkeypatch.setattr(osc_mod, "osc_power_integral", compact)
    epsilon_regularized(p, 1.0, +1, 1.0, builtin(name), default_regularizer())
    assert calls == {"adaptive": 0, "compact": [len(default_eps_ladder(p, 1.0))]}


def test_epsilon_tail_evaluates_chi_once_for_all_rungs(monkeypatch):
    # one tail walk serves every rung: chi's stack at the tail abscissa is
    # evaluated once, for all rungs, at the X that certifies; a gaussian's
    # tail mass certifies with no boundary term at all
    calls = []
    scaled_stack = RegularizerSpec.scaled_stack

    def counted(self, x, eps, order):
        if np.size(x) == 1 and np.all(np.asarray(x) > 0.0):  # not w(0) of the compact part
            calls.append(np.size(eps))
        return scaled_stack(self, x, eps, order)

    monkeypatch.setattr(RegularizerSpec, "scaled_stack", counted)
    rungs = len(default_eps_ladder(1.0, 1.0))
    epsilon_regularized(1.0, 0.5, +1, 1.0, ONE, default_regularizer())
    assert calls == [rungs]
    calls.clear()
    epsilon_regularized(2.0, 0.5, +1, 1.0, GAUSS, default_regularizer())
    assert calls == []


def _compact_nodes(monkeypatch):
    """nodes_used of every compact call that returns, in call order."""
    nodes = []
    compact_ = osc_mod.osc_power_integral

    def compact(*args, **kw):
        res = compact_(*args, **kw)
        nodes.append(res.nodes_used)
        return res

    monkeypatch.setattr(osc_mod, "osc_power_integral", compact)
    return nodes


def test_epsilon_node_budget_covers_whole_call(monkeypatch):
    # max_nodes limits the whole eps call, all rungs together
    nodes = _compact_nodes(monkeypatch)
    cfg = QuadratureConfig()
    epsilon_regularized(2.0, 1.0, +1, 1e4, ONE, default_regularizer(), cfg=cfg)
    assert nodes and sum(nodes) <= cfg.max_nodes
    used = sum(nodes)
    with pytest.raises(BudgetError):
        epsilon_regularized(2.0, 1.0, +1, 1e4, ONE, default_regularizer(),
                            cfg=QuadratureConfig(max_nodes=1000))
    # a budget below what the call wants stops the refinement short of it
    for budget in (1000, used // 2, used - 1):
        nodes.clear()
        try:
            epsilon_regularized(2.0, 1.0, +1, 1e4, ONE, default_regularizer(),
                                cfg=QuadratureConfig(max_nodes=budget))
        except (BudgetError, ConvergenceError):
            pass
        assert sum(nodes) <= budget, budget


@pytest.mark.parametrize(
    "p,q,lam,name",
    [(8.0, 0.5, 1.0, "constant_one"), (12.0, 1.0, 100.0, "constant_one"),
     (20.0, 0.5, 1.0, "constant_one"), (2.0, 1.0, 1e4, "constant_one"),
     (2.0, 1.0, 1e4, "gaussian"), (2.0, 2.5, 1e4, "gaussian")],
)
def test_epsilon_path_reach(monkeypatch, p, q, lam, name):
    # large powers and many periods: one batched Filon call within the node
    # budget, judged against the closed form within the ladder's spread budget
    nodes = _compact_nodes(monkeypatch)
    cfg = QuadratureConfig()
    v = epsilon_regularized(p, q, +1, lam, builtin(name), default_regularizer(), cfg=cfg)
    if name == "gaussian":
        expect = 0.5 * math.gamma(q / 2.0) * (1.0 - 1j * lam) ** (-q / 2.0)
    else:
        expect = lam ** (-q / p) * generalized_fresnel(p, q, +1).value
    assert abs(v - expect) <= 1e2 * max(cfg.rel_tol, 1e-6) * max(1.0, abs(expect))
    assert len(nodes) == 1 and nodes[0] <= cfg.max_nodes


@pytest.mark.parametrize("lam", [0.01, 1.0, 1e3])
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_default_eps_ladder_small_powers(p, lam):
    # the default ladder sets the phase at x = 1/eps, lam eps^(-p), so small
    # powers reach the limit too; judged within the ladder's own spread budget
    q = 0.25
    expect = generalized_fresnel(p, q, +1).value * lam ** (-q / p)
    v = epsilon_regularized(p, q, +1, lam, ONE, default_regularizer())
    assert abs(v - expect) <= 1e-4 * max(1.0, abs(expect))


def test_default_eps_ladder_shape():
    # the fixed ladder where it already puts the phase past 400 (p = 2,
    # lam = 1, up to rounding) and at large lam; strictly decreasing always
    for p, lam in ((2.0, 1.0), (3.0, 1e3)):
        assert default_eps_ladder(p, lam) == pytest.approx(DEFAULT_EPS_LADDER, rel=1e-15)
    for p in (0.3, 0.7, 1.0, 2.0, 4.0):
        for lam in (1e-3, 1.0, 1e3):
            ladder = default_eps_ladder(p, lam)
            assert all(0.0 < e2 < e1 < 1.0 for e1, e2 in zip(ladder, ladder[1:]))


def test_epsilon_ladder_validation():
    chi = default_regularizer()
    with pytest.raises(DomainError):
        epsilon_regularized(2.0, 1.0, +1, 1.0, ONE, chi, [0.1, 0.2])
    with pytest.raises(DomainError):
        epsilon_regularized(2.0, 1.0, +1, 1.0, ONE, chi, [1.5, 0.5])
    with pytest.raises(DomainError):
        epsilon_regularized(2.0, 1.0, +1, 1.0, ONE, chi, [0.1])


def test_epsilon_path_reports_a_missed_tolerance():
    # with no tolerance to meet, the compact part stops at the node budget
    # short of it: the call raises instead of returning the rungs' values
    cfg = QuadratureConfig(rel_tol=0.0, abs_tol=0.0, max_nodes=30000)
    with pytest.raises(ConvergenceError):
        epsilon_regularized(2.0, 1.0, +1, 1.0, GAUSS, default_regularizer(), cfg=cfg)


@pytest.mark.parametrize("name", ["constant_one", "gaussian"])
def test_epsilon_path_honours_cutoff_radius(monkeypatch, name):
    # cutoff_radius is the least tail abscissa of the eps path too
    starts = []
    tail_ = osc_mod._tail

    def tail(chain, X):
        starts.append(X)
        return tail_(chain, X)

    monkeypatch.setattr(osc_mod, "_tail", tail)
    a, chi = builtin(name), default_regularizer()
    v = epsilon_regularized(2.0, 1.0, +1, 1.0, a, chi, cfg=QuadratureConfig(cutoff_radius=50.0))
    assert len(starts) == 1 and starts[0] >= 50.0
    assert abs(v - epsilon_regularized(2.0, 1.0, +1, 1.0, a, chi)) <= 1e-8


@pytest.mark.parametrize(
    "p,q,expect",
    [
        (2.0, 1.0, math.sqrt(math.pi) / 2.0 * cmath.exp(1j * math.pi / 4.0)),
        (1.0, 2.0, -1.0 + 0.0j),  # e^(i pi) 1! = -1
        (2.7, 2.7, 1j / 2.7),
    ],
)
def test_rotated_contour_values(p, q, expect):
    assert abs(rotated_contour_reference(p, q, +1) - expect) <= 1e-10


def test_cutoff_radius_independence():
    # at lambda = 100 the split floor (40/(lambda p))^(1/p) = 0.45 is below both
    # radii, so the radius really moves X
    a = os_integral_halfline(2.0, 1.0, +1, 100.0, ONE, QuadratureConfig(cutoff_radius=1.5))
    b = os_integral_halfline(2.0, 1.0, +1, 100.0, ONE, QuadratureConfig(cutoff_radius=3.0))
    assert a.tail_cut != b.tail_cut
    assert abs(a.value - b.value) <= 10.0 * (a.est_error + b.est_error) + 1e-13


@pytest.mark.parametrize(
    "p,q,lam,name",
    [(2.0, 1.0, 1.0, "constant_one"), (0.7, 2.7, 1.0, "constant_one"),
     (0.7, 0.5, 1e3, "constant_one"), (3.0, 1.0, 10.0, "gaussian")],
)
def test_split_abscissa_independence(p, q, lam, name):
    # the smallest split abscissa, then 2x and 5x it: the compact part and the
    # tail trade mass, and the sum stays within both estimates
    x0 = max(2.0, (40.0 / (lam * p)) ** (1.0 / p))
    reps = [os_integral_halfline(p, q, +1, lam, builtin(name), QuadratureConfig(cutoff_radius=r))
            for r in (x0, 2.0 * x0, 5.0 * x0)]
    assert reps[2].tail_cut >= 5.0 * x0
    for rep in reps[1:]:
        assert abs(rep.value - reps[0].value) <= rep.est_error + reps[0].est_error


# the half-line cases of the lambda grid 10^(k/2) where X0 = max(2, (40/(lam p))^(1/p))
# does not certify and the tail doubles X
_DOUBLING_CASES = (
    [(1.5, q, lam, "constant_one") for q in (0.5, 1.0, 2.0) for lam in (1.0, 10**0.5, 10.0)]
    + [(p, q, lam, "constant_one") for p in (2.0, 3.0) for q in (0.5, 1.0, p + 0.5)
       for lam in (1.0, 10**0.5)]
    + [(2.0, 1.0, lam, "gaussian") for lam in (1.0, 10**0.5)]
)


def test_halfline_tail_integrates_nothing(monkeypatch):
    # the tail is the boundary-term recursion alone, from a doubled X where
    # X0 does not certify; the compact part is Filon
    calls = []
    adaptive_ = quad_mod.adaptive

    def counted(*args, **kw):
        calls.append(1)
        return adaptive_(*args, **kw)

    monkeypatch.setattr(quad_mod, "adaptive", counted)
    monkeypatch.setattr(osc_mod, "adaptive", counted)
    for p, q, lam, name in _DOUBLING_CASES:
        rep = os_integral_halfline(p, q, +1, lam, builtin(name))
        if name == "gaussian":
            expect = 0.5 * math.gamma(q / 2.0) * (1.0 - 1j * lam) ** (-q / 2.0)
        else:
            expect = lam ** (-q / p) * generalized_fresnel(p, q, +1).value
        assert rep.tail_cut > max(2.0, (40.0 / (lam * p)) ** (1.0 / p))
        assert abs(rep.value - expect) <= rep.est_error, (p, q, lam, name)
    assert len(_DOUBLING_CASES) == 23 and calls == []


def _small_power_reference(name, q, lam, p=0.1):
    """Os-integral of e^(i lam x^p) x^(q-1) a(x) over (0, inf) as a series in lam.

    Gaussian: term by term, int x^(q+pn-1) e^(-x^2) dx = Gamma((q+pn)/2)/2.
    (1+x^2)^(-1): the residues of the Mellin-Barnes integrand
    p^-1 Gamma(s/p) lam^(-s/p) e^(i pi s/(2p)) pi/(2 sin(pi (q-s)/2)) at
    s = -p n and at s = q - 2k (neither may coincide).
    """
    if name == "gaussian":
        return sum((1j * lam) ** n / math.factorial(n) * math.gamma((q + p * n) / 2.0) / 2.0
                   for n in range(60))
    series = sum((1j * lam) ** n / math.factorial(n) * math.pi
                 / (2.0 * math.sin(math.pi * (q + p * n) / 2.0)) for n in range(60))
    return series - sum(
        (-1) ** k / p * math.gamma((q - 2 * k) / p) * lam ** ((2 * k - q) / p)
        * cmath.exp(1j * math.pi * (q - 2 * k) / (2.0 * p)) for k in range(1, 4))


@pytest.mark.parametrize("lam", [1e-3, 0.01, 0.1, 1.0])
def test_small_power_tail_is_honest(lam):
    # at p = 0.1 the tail starts at X0 ~ 1e26..1e56; for the Gaussian types
    # the tail mass certifies there at once, while the recursion's boundary
    # terms would multiply c_k X^e beyond double range by derivatives that
    # underflow to 0
    p = 0.1
    rep = os_integral_halfline(p, 0.05, +1, lam, ONE)
    expect = lam ** (-0.05 / p) * generalized_fresnel(p, 0.05, +1).value
    assert abs(rep.value - expect) <= rep.est_error
    for q in (0.05, 0.25):
        rep = os_integral_halfline(p, q, +1, lam, builtin("rational_decay(1)"))
        expect = _small_power_reference("rational_decay(1)", q, lam)
        assert abs(rep.value - expect) <= rep.est_error, q
    for name in ("gaussian", "polynomial(1,0,1)*gaussian"):
        for q in (0.05, 0.5):
            rep = os_integral_halfline(p, q, +1, lam, builtin(name))
            expect = _small_power_reference("gaussian", q, lam)
            if name != "gaussian":  # x^2 e^(-x^2) is the gaussian at q + 2
                expect += _small_power_reference("gaussian", q + 2.0, lam)
            assert abs(rep.value - expect) <= rep.est_error, (name, q)


@pytest.mark.parametrize("p", [20.0, 33.0])
def test_large_power_tail_is_honest(p):
    for lam in (1e-3, 1.0, 1e3):
        rep = os_integral_halfline(p, 0.5, +1, lam, ONE)
        expect = lam ** (-0.5 / p) * generalized_fresnel(p, 0.5, +1).value
        assert abs(rep.value - expect) <= rep.est_error, lam


def _flat_amplitude(delta: float) -> Amplitude:
    def stack(x, order):
        out = np.zeros((order + 1, x.size))
        out[0] = 1.0
        return out

    return Amplitude("flat", 0.0, delta, 8, stack, ONE.bound)


def test_class_error_for_bad_delta():
    with pytest.raises(ClassError):
        os_integral_halfline(1.0, 1.0, +1, 1.0, _flat_amplitude(0.0))


def test_order_error_for_shallow_amplitude():
    shallow = Amplitude("shallow", 0.0, -1.0, 1, lambda x, o: np.vstack(
        [np.ones(x.size)] + [np.zeros(x.size)] * o) if o else np.ones((1, x.size)), ONE.bound)
    # the integrability depth floor(5/2) + 1 = 3 needs a'' and a'''
    with pytest.raises(OrderError):
        os_integral_halfline(2.0, 5.0, +1, 1.0, shallow)


def test_budget_error():
    with pytest.raises(BudgetError):
        os_integral_halfline(2.0, 1.0, +1, 300.0, ONE, QuadratureConfig(max_nodes=200))


def test_missed_tolerance_is_reported():
    # zero tolerances cannot be met: the compact part stops at the budget with
    # an honest estimate, and the report says it missed
    cfg = QuadratureConfig(rel_tol=0.0, abs_tol=0.0, max_nodes=20_000)
    rep = os_integral_halfline(2.0, 1.0, +1, 1.0, ONE, cfg)
    assert not rep.converged and rep.nodes_used <= cfg.max_nodes
    assert abs(rep.value - generalized_fresnel(2.0, 1.0, +1).value) <= rep.est_error
    assert os_integral_halfline(2.0, 1.0, +1, 1.0, ONE).converged
    assert not os_integral_fullline(2, +1, 1.0, GAUSS, cfg).converged
    assert os_integral_fullline(2, +1, 1.0, GAUSS).converged


def test_domain_validation():
    with pytest.raises(DomainError):
        os_integral_halfline(0.0, 1.0, +1, 1.0, ONE)
    with pytest.raises(DomainError):
        os_integral_halfline(2.0, -1.0, +1, 1.0, ONE)
    with pytest.raises(DomainError):
        os_integral_halfline(2.0, 1.0, +1, 0.0, ONE)
    with pytest.raises(DomainError):
        os_integral_halfline(2.0, 1.0, 0, 1.0, ONE)


def test_report_invariants():
    rep = os_integral_halfline(1.5, 0.7, -1, 2.0, GAUSS)
    assert rep.est_error >= 0.0
    assert rep.tail_cut >= 2.0
    assert rep.nodes_used > 0
    assert rep.ibp_depth_used >= 1


def test_filon_switch_large_lambda():
    lam = 3.0e6  # ~1.9e6 periods over the compact region: Filon path
    rep = os_integral_halfline(2.0, 1.0, +1, lam, ONE)
    expect = lam**-0.5 * generalized_fresnel(2.0, 1.0, +1).value
    assert abs(rep.value - expect) <= 1e-6 * abs(expect)


def test_large_exponent_uses_ladder_reduction():
    # l_pq = floor(12 / 0.5) + 1 = 25 is far beyond usable transformed-tail
    # depth; the no-cutoff ladder peels q down and stays accurate
    rep = os_integral_halfline(0.5, 12.0, +1, 1.0, ONE)
    exact = generalized_fresnel(0.5, 12.0, +1).value
    assert abs(rep.value - exact) <= 1e-6 * abs(exact)
    assert rep.ibp_depth_used >= 23


def test_order_error_when_depth_unreachable():
    # an amplitude too shallow for both the direct depth and the reduction
    shallow = Amplitude(
        "shallow8", 0.0, -1.0, 8,
        lambda x, o: np.vstack([np.ones(x.size)] + [np.zeros(x.size)] * o)
        if o else np.ones((1, x.size)),
        ONE.bound,
    )
    with pytest.raises(OrderError):
        os_integral_halfline(0.5, 12.0, +1, 1.0, shallow)


def test_fullline_reflection_with_asymmetric_amplitude():
    # oracle: Fourier transform of (1+x) e^(-x^2) is sqrt(pi) e^(-lam^2/4) (1 + i lam/2);
    # exercises the reflected half-line with the sign flip for odd m
    amp = builtin("polynomial(1,1)*gaussian")
    for lam in (2.0, 6.0):
        rep = os_integral_fullline(1, +1, lam, amp)
        expect = math.sqrt(math.pi) * math.exp(-lam * lam / 4.0) * (1.0 + 0.5j * lam)
        assert abs(rep.value - expect) <= 1e-10


# both regimes of the spherical Bessel moments (Miller's ratio recurrence up
# to nmax + 12 = 35, upward recurrence above) and both edges of the switch;
# tiny arguments, where an unnormalized recurrence would overflow; pi and
# 2 pi are zeros of j_0, where the normalization must not divide by it
_BESSEL_THETAS = (1e-8, 0.3, 1.49, 1.5, 2.0, math.pi, 2.0 * math.pi, 10.0, 35.0, 35.9,
                  36.1, 100.0, 1e4)


def test_spherical_bessel_moments_match_mpmath():
    got = _sph_jn(23, np.array(_BESSEL_THETAS))
    assert got.shape == (len(_BESSEL_THETAS), 24)
    for row, theta in zip(got, _BESSEL_THETAS):
        t = mp.mpf(theta)
        for n in range(24):
            ref = float(mp.sqrt(mp.pi / (2 * t)) * mp.besselj(n + 0.5, t))
            assert abs(row[n] - ref) <= 1e-15 + 1e-12 * abs(ref), (theta, n)


def test_spherical_bessel_moments_dense_grid():
    # the three regimes (power series to 3, Miller's recurrence to 60, Hankel's
    # sum above) from 1e-9 to 1e6, one ulp either side of both switches, and
    # the zeros of j_0 and j_1 below 60, where an anchor could divide by zero
    zeros = [float(mp.besseljzero(v, k)) for v in (0.5, 1.5) for k in range(1, 20)]
    edges = [np.nextafter(b, d) for b in (3.0, 60.0) for d in (0.0, math.inf)] + [3.0, 60.0]
    thetas = np.concatenate([np.logspace(-9, 6, 121), np.linspace(0.5, 70.0, 56),
                             [z for z in zeros if z < 60.0], edges])
    got = _sph_jn(23, thetas)
    worst = 0.0
    with mp.workdps(40):
        for row, theta in zip(got, thetas):
            t = mp.mpf(float(theta))
            for n in range(24):
                ref = float(mp.sqrt(mp.pi / (2 * t)) * mp.besselj(n + 0.5, t))
                worst = max(worst, abs(row[n] - ref) / (1e-15 + 1e-12 * abs(ref)))
    assert worst <= 0.1


@pytest.mark.parametrize(
    "p,q,lam",
    [(0.7, 0.5, 10**4.5), (0.7, 1.0, 10**4.5), (0.7, 1.2, 10**4.5), (2.0, 2.5, 1e4)],
)
def test_node_budget_respected(p, q, lam):
    cfg = QuadratureConfig()
    rep = os_integral_halfline(p, q, +1, lam, ONE, cfg)
    assert rep.nodes_used <= cfg.max_nodes
    expect = lam ** (-q / p) * generalized_fresnel(p, q, +1).value
    assert abs(rep.value - expect) <= max(cfg.abs_tol, cfg.rel_tol * abs(expect))


@pytest.mark.parametrize("p,q,lam", [(1.0, 0.5, 3.2e3), (3.0, 1.0, 1e3)])
def test_filon_and_gl_compact_engines_agree(p, q, lam):
    # the compact part over [0, X] by Filon, plus the tail from X, against
    # the closed form
    cfg = QuadratureConfig()
    X = max(cfg.cutoff_radius, (40.0 / (lam * p)) ** (1.0 / p))
    X, far_val, far_bound = _tail(_TermChain(p, lam, +1, ONE, q - 1.0, [1.0 + 0.0j]), X)
    filon = osc_power_integral(lambda x: ONE.deriv_stack(x, 0), X, p, q, lam, +1, [1.0], 0.0,
                               0.3 * cfg.abs_tol, 0.3 * cfg.rel_tol, cfg.max_nodes)
    expect = lam ** (-q / p) * generalized_fresnel(p, q, +1).value
    assert abs(filon.value[0] + far_val - expect) <= filon.est_error[0] + far_bound


@pytest.mark.parametrize("p", [0.7, 1.0, 1.5, 2.0, 3.0])
def test_forced_filon_estimate_is_honest(p):
    # at few periods too, where the aliased Legendre tail dominates the
    # error at small panel arguments
    cfg = QuadratureConfig()
    for q in (0.3, 0.5, 1.0, p + 0.5):
        for lam in (1.0, 10.0, 100.0, 1e3):
            rep = os_integral_halfline(p, q, +1, lam, ONE, cfg)
            expect = lam ** (-q / p) * generalized_fresnel(p, q, +1).value
            err = abs(rep.value - expect)
            assert err <= rep.est_error, (q, lam)
            assert err <= max(cfg.abs_tol, cfg.rel_tol * abs(expect)), (q, lam)


def _assert_honest_within_tol(rep, expect, cfg, label):
    err = abs(rep.value - expect)
    assert err <= rep.est_error, label
    assert err <= max(cfg.abs_tol, cfg.rel_tol * abs(expect)), label


@pytest.mark.parametrize("p", GRID_P)
def test_halfline_estimate_honest_over_grid(p):
    # q = 1.01 is where an estimate 6% low used to show; lambda reaches 1e6
    cfg = QuadratureConfig()
    for q in (0.3, 0.5, 1.0, 1.01, p + 0.5):
        for k in (0.0, 1.5, 3.0, 4.5, 6.0):
            lam = 10.0**k
            rep = os_integral_halfline(p, q, +1, lam, ONE, cfg)
            expect = lam ** (-q / p) * generalized_fresnel(p, q, +1).value
            _assert_honest_within_tol(rep, expect, cfg, (q, lam))


def test_estimate_honest_against_closed_form_at_small_q_over_p():
    # at q/p < 0.04 the closed form must be exact enough to judge est_error;
    # the shifted Stirling Gamma erred by up to 1e-13 relative here
    rng = np.random.default_rng(3)
    for _ in range(80):
        p = rng.uniform(0.7, 4.0)
        q = p * rng.uniform(0.003, 0.04)
        lam = 10.0 ** rng.uniform(0.0, 3.0)
        rep = os_integral_halfline(p, q, +1, lam, ONE)
        expect = lam ** (-q / p) * generalized_fresnel(p, q, +1).value
        assert abs(rep.value - expect) <= rep.est_error, (p, q, lam)


@pytest.mark.parametrize("q", [0.5, 1.01, 7.0])
def test_gaussian_halfline_estimate_honest(q):
    # int_0^inf e^(i lam x^2) x^(q-1) e^(-x^2) dx = Gamma(q/2) (1 - i lam)^(-q/2) / 2
    cfg = QuadratureConfig()
    for lam in (0.01, 1.0, 30.0):
        rep = os_integral_halfline(2.0, q, +1, lam, GAUSS, cfg)
        expect = 0.5 * math.gamma(q / 2.0) * (1.0 - 1j * lam) ** (-q / 2.0)
        _assert_honest_within_tol(rep, expect, cfg, lam)


@pytest.mark.parametrize(
    "p,q", [(1.0, 6.0), (0.7, 5.0), (2.0, 7.0), (1.0, 7.5), (3.0, 20.0), (0.5, 2.0),
            (0.3, 1.0), (1.0, 1.01)],
)
def test_ladder_and_direct_split_edges(p, q):
    # large q/p: the ladder must win where the direct compact part would cancel
    # catastrophically; p = 1, q = 1.01 must not peel down to q' = 0.01
    cfg = QuadratureConfig()
    for lam in (0.01, 1.0, 1e3):
        rep = os_integral_halfline(p, q, +1, lam, ONE, cfg)
        expect = lam ** (-q / p) * generalized_fresnel(p, q, +1).value
        _assert_honest_within_tol(rep, expect, cfg, lam)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_small_exponent_ratio_corner(p):
    # q/p <= 0.05: t^(q/p - 1) puts most of the mass near t = 0, where the
    # Filon corner is integrated with its leading term instead of dropped
    cfg = QuadratureConfig()
    for lam in (0.01, 1.0, 1e4):
        rep = os_integral_halfline(p, 0.1, +1, lam, ONE, cfg)
        expect = lam ** (-0.1 / p) * generalized_fresnel(p, 0.1, +1).value
        _assert_honest_within_tol(rep, expect, cfg, lam)


def test_ladder_sub_integrals_stay_within_budget():
    cfg = QuadratureConfig()
    amp = builtin("polynomial(1,0,1)*gaussian")
    rep = os_integral_halfline(1.0, 6.0, +1, 1e3, amp, cfg)
    assert rep.nodes_used <= cfg.max_nodes
    assert math.isfinite(rep.est_error)


@pytest.mark.parametrize("max_nodes", [3000, 3840, 5000])
def test_fullline_node_budget_covers_whole_call(max_nodes):
    # both halves are rows of one compact call, which max_nodes limits
    cfg = QuadratureConfig(max_nodes=max_nodes)
    try:
        rep = os_integral_fullline(2, +1, 1.0, GAUSS, cfg)
    except BudgetError:
        return
    assert rep.nodes_used <= cfg.max_nodes


@pytest.mark.parametrize(
    "name,p,q,lam", [("polynomial(1,0,1)*gaussian", 1.0, 6.0, 1e3), ("gaussian", 2.0, 2.5, 1.0)]
)
def test_ladder_node_budget_covers_whole_call(name, p, q, lam):
    # max_nodes limits the whole ladder call, not each term of the row
    cfg = QuadratureConfig(max_nodes=3000)
    try:
        rep = os_integral_halfline(p, q, +1, lam, builtin(name), cfg)
    except BudgetError:
        return
    assert rep.nodes_used <= cfg.max_nodes


@pytest.mark.parametrize("name", ["gaussian", "polynomial(1,0,1)*gaussian",
                                  "polynomial(1,1)*gaussian"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_fullline_equals_its_half_lines(m, name):
    a = builtin(name)
    for sign in (+1, -1):
        for lam in (1.0, 10.0):
            full = os_integral_fullline(m, sign, lam, a)
            right = os_integral_halfline(float(m), 1.0, sign, lam, a)
            left = os_integral_halfline(float(m), 1.0, sign * (-1) ** m, lam, reflected(a))
            assert full.converged
            assert (abs(full.value - (right.value + left.value))
                    <= full.est_error + right.est_error + left.est_error), (sign, lam)


def test_fullline_rows_share_one_tail_walk(monkeypatch):
    # the rows share every tail bound, so one walk serves both; the row of the
    # other sign takes the conjugate boundary terms, the doubles its own chain gives
    # without the tail mass, which would certify with no boundary term
    a = dataclasses.replace(builtin("polynomial(1,1)*gaussian"), mass=None)
    p, lam, b = 3.0, 1.0, reflected(a)
    chain = _TermChain(p, lam, +1, _halves(a), 0.0, [1.0 + 0.0j])
    X, both, bound = _tail(chain, 2.0)
    assert bound <= 1e-14 and both.shape == (2,) and both[0] != both[1]
    for sign, amp, value in ((+1, a, both[0]), (-1, b, np.conj(both[1]))):
        assert _tail(_TermChain(p, lam, sign, amp, 0.0, [1.0 + 0.0j]), 2.0) == (
            X, value, bound)
    calls = []
    tail_ = osc_mod._tail

    def tail(chain, X):
        calls.append(chain.derivs_at(X).shape[1:])  # the rows the walk serves
        return tail_(chain, X)

    monkeypatch.setattr(osc_mod, "_tail", tail)
    rep = os_integral_fullline(3, +1, 1.0, a)
    assert calls == [(2,)]
    halves = [os_integral_halfline(p, 1.0, sign, lam, amp) for sign, amp in ((+1, a), (-1, b))]
    assert (abs(rep.value - sum(h.value for h in halves))
            <= rep.est_error + sum(h.est_error for h in halves))


def test_fullline_runs_one_compact_call_with_two_rows(monkeypatch):
    rows = []
    compact_ = osc_mod.osc_power_integral

    def compact(*args, **kw):
        res = compact_(*args, **kw)
        rows.append(len(res.value))
        return res

    monkeypatch.setattr(osc_mod, "osc_power_integral", compact)
    rep = os_integral_fullline(1, +1, 10.0, builtin("polynomial(1,1)*gaussian"))
    assert rows == [2]
    expect = math.sqrt(math.pi) * math.exp(-25.0) * (1.0 + 5.0j)
    assert abs(rep.value - expect) <= rep.est_error


def test_ladder_call_runs_one_split(monkeypatch):
    calls = {"filon": 0, "tail": 0}

    def spy(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(osc_mod, "osc_power_integral", spy("filon", osc_mod.osc_power_integral))
    monkeypatch.setattr(osc_mod, "_tail", spy("tail", osc_mod._tail))
    rep = os_integral_halfline(2.0, 2.5, +1, 1.0, GAUSS)
    assert rep.ibp_depth_used >= 2  # peeled at depth 1, then the reduced integral's own
    assert calls == {"filon": 1, "tail": 1}
    expect = 0.5 * math.gamma(1.25) * (1.0 - 1j) ** -1.25
    assert abs(rep.value - expect) <= rep.est_error
