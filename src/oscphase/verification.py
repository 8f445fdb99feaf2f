"""Acceptance checks runnable from the CLI (`verify`) and the test suite.

Each check returns a CheckResult with per-case detail lines; the pytest
acceptance module asserts on them and the CLI prints them. Tolerances are
pinned here, one place, at the values the package promises.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .amplitudes import builtin, default_regularizer, rational_regularizer
from .cgamma import gamma
from .errors import OscPhaseError
from .expand import (
    evaluate_expansion,
    expand_fullline,
    remainder_slope,
    stationary_phase_quadratic,
)
from .fresnel import (
    c_tilde,
    generalized_beta,
    generalized_fresnel,
    generalized_fresnel_continued,
)
from .ibp import coefficient_rows
from .oscillatory import (
    QuadratureConfig,
    epsilon_regularized,
    neville_at_zero,
    os_integral_fullline,
    os_integral_halfline,
    rotated_contour_reference,
)

GRID_P = (0.7, 1.0, 1.5, 2.0, 3.0)
SLOPE_GRID = (10.0, 31.6, 100.0, 316.0, 1000.0, 1.0e4)


@dataclass
class CheckResult:
    name: str
    passed: bool
    lines: list = field(default_factory=list)
    elapsed: float = 0.0

    def row(self, ok: bool, text: str) -> bool:
        self.lines.append(("PASS" if ok else "FAIL") + "  " + text)
        if not ok:
            self.passed = False
        return ok


def _timed(budget_s: float | None = None):
    """Set the check's elapsed time; with a budget, also row it as the last check."""

    def wrap(check):
        @functools.wraps(check)
        def timed(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            out = check(*args, **kwargs)
            out.elapsed = time.perf_counter() - t0
            if budget_s is not None:
                out.row(out.elapsed < budget_s, f"runtime {out.elapsed:.2f}s < {budget_s:g}s")
            return out

        return timed

    return wrap


@_timed(5.0)
def check_fresnel_anchor() -> CheckResult:
    """Criterion 1: the classical Fresnel value through all three paths."""
    out = CheckResult("fresnel-anchor", True)
    exact = math.sqrt(math.pi) / 2.0 * cmath.exp(1j * math.pi / 4.0)
    for sign in (+1, -1):
        v = generalized_fresnel(2.0, 1.0, sign).value
        e = exact if sign > 0 else exact.conjugate()
        rel = abs(v - e) / abs(e)
        out.row(rel <= 1e-14, f"closed form sign={sign:+d}: rel {rel:.2e} <= 1e-14")
    rep = os_integral_halfline(2.0, 1.0, +1, 1.0, builtin("constant_one"))
    d = abs(rep.value - exact)
    out.row(d <= 1e-8, f"quadrature path: diff {d:.2e} <= 1e-8")
    v = epsilon_regularized(2.0, 1.0, +1, 1.0, builtin("constant_one"), default_regularizer())
    d = abs(v - exact)
    out.row(d <= 1e-4, f"epsilon path: diff {d:.2e} <= 1e-4")
    return out


@_timed(120.0)
def check_three_path_grid() -> CheckResult:
    """Criterion 2: quadrature and rotated contour vs closed form on the grid."""
    out = CheckResult("three-path-grid", True)
    one = builtin("constant_one")
    for p in GRID_P:
        for q in sorted({0.3, 1.0, p, p + 0.5, p + 2.0}):
            exact = generalized_fresnel(p, q, +1).value
            d_num = abs(os_integral_halfline(p, q, +1, 1.0, one).value - exact)
            d_rot = abs(rotated_contour_reference(p, q, +1) - exact)
            out.row(
                d_num < 1e-6 and d_rot < 1e-9,
                f"p={p:g} q={q:g}: quad {d_num:.2e} < 1e-6, contour {d_rot:.2e} < 1e-9",
            )
    return out


@_timed()
def check_gelfand_shilov() -> CheckResult:
    """Criterion 3: epsilon path against the p=1 Fourier-transform identity."""
    out = CheckResult("gelfand-shilov", True)
    one = builtin("constant_one")
    chi = default_regularizer()
    for q in (0.5, 1.0, 1.5, 2.5):
        v = epsilon_regularized(1.0, q, +1, 1.0, one, chi)
        exact = cmath.exp(1j * math.pi * q / 2.0) * gamma(q)
        d = abs(v - exact)
        out.row(d < 1e-4, f"q={q}: diff {d:.2e} < 1e-4")
    return out


@_timed()
def check_beta_identity() -> CheckResult:
    """Criterion 4: generalized Beta reduces to Euler Beta at p=(1,1,1)."""
    out = CheckResult("beta-identity", True)
    for q1, q2 in ((2.0, 3.0), (0.5, 0.5), (1.3, 2.7)):
        b = generalized_beta(1.0, 1.0, 1.0, q1, q2, q1 + q2, +1)
        exact = gamma(q1) * gamma(q2) / gamma(q1 + q2)
        d = abs(b - exact)
        out.row(d < 1e-10, f"(q1,q2)=({q1},{q2}): diff {d:.2e} < 1e-10")
    return out


def brute_ibp_rows(p: Fraction, q: Fraction, lmax: int):
    """Symbolic repeated application of the adjoint operator, exact rationals.

    Tracks sums of c x^e f^(j) under g -> d/dx[g x^(1-p)/p]; row l returns
    p^l times the coefficient of x^(q-1-pl+j) f^(j), which must equal C[l,j].
    """
    terms = {(q - 1, 0): Fraction(1)}
    rows = [(Fraction(1),)]
    for l in range(1, lmax + 1):
        new: dict = {}
        for (e, j), c in terms.items():
            k1 = (e - p, j)
            new[k1] = new.get(k1, Fraction(0)) + c * (e + 1 - p) / p
            k2 = (e + 1 - p, j + 1)
            new[k2] = new.get(k2, Fraction(0)) + c / p
        terms = {k: v for k, v in new.items() if v != 0}
        allowed = {(q - 1 - p * l + j, j): j for j in range(l + 1)}
        for key in terms:
            if key not in allowed:
                raise AssertionError(f"stray term {key} at depth {l}")
        scale = p**l
        rows.append(tuple(scale * terms.get((q - 1 - p * l + j, j), Fraction(0)) for j in range(l + 1)))
    return rows


@_timed(30.0)
def check_ibp_oracle(cases: int = 100, lmax: int = 8, seed: int = 20240817) -> CheckResult:
    """Criterion 5: recurrence table == brute-force symbolic application."""
    out = CheckResult("ibp-oracle", True)
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        p = Fraction(rng.randint(1, 30), rng.randint(1, 10))
        q = Fraction(rng.randint(1, 30), rng.randint(1, 10))
        rec = coefficient_rows(p, q, lmax)
        brute = brute_ibp_rows(p, q, lmax)
        if rec != tuple(brute):
            bad += 1
    out.row(bad == 0, f"{cases} random rational (p,q), l<={lmax}: {bad} mismatches")
    return out


@_timed()
def check_continuation() -> CheckResult:
    """Criterion 6: numeric residue limits match e^(-i pi j/2) (-1)^j / j!."""
    out = CheckResult("continuation", True)
    hs = (4e-3, 2e-3, 1e-3, 5e-4)
    for p, j in ((1, 1), (2, 1), (2, 2)):
        vals = [
            h * generalized_fresnel_continued(p, -p * j + h, +1).value for h in hs
        ]
        limit = neville_at_zero(hs, vals)
        expect = cmath.exp(-1j * math.pi * j / 2.0) * (-1) ** j / math.factorial(j)
        d = abs(limit - expect)
        out.row(d < 1e-6, f"(p,j)=({p},{j}): residue-limit diff {d:.2e} < 1e-6")
    return out


@_timed(300.0)
def check_remainder_fullline() -> CheckResult:
    """Criterion 7: full-line remainder order for m=2, gaussian, N in 3..5."""
    out = CheckResult("remainder-fullline", True)
    a = builtin("gaussian")
    directs = [os_integral_fullline(2, +1, lam, a).value for lam in SLOPE_GRID]
    for N in (3, 4, 5):
        fit = remainder_slope(2, +1, a, N, SLOPE_GRID, direct_values=directs)
        bound = -(N - 2 + 1) / 2.0 + 0.15
        out.row(
            fit.fitted_slope <= bound,
            f"N={N}: slope {fit.fitted_slope:.3f} <= {bound:.3f} (r2 {fit.r_squared:.4f})",
        )
    return out


@_timed()
def check_remainder_halfline() -> CheckResult:
    """Criterion 8: half-line remainder order for p=2.5, gaussian, N=5."""
    out = CheckResult("remainder-halfline", True)
    fit = remainder_slope(2.5, +1, builtin("gaussian"), 5, SLOPE_GRID)
    bound = -(5 - 2.5 + 1) / 2.5 + 0.2
    out.row(
        fit.fitted_slope <= bound,
        f"N=5: slope {fit.fitted_slope:.3f} <= {bound:.3f} (r2 {fit.r_squared:.4f})",
    )
    return out


@_timed()
def check_superpolynomial_decay() -> CheckResult:
    """Criterion 9: m=1 gaussian decays faster than any power; exact anchor."""
    out = CheckResult("decay-m1", True)
    a = builtin("gaussian")
    grid = (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    fit = remainder_slope(1, +1, a, 3, grid)
    out.row(fit.fitted_slope <= -6.0, f"slope {fit.fitted_slope:.2f} <= -6")
    for lam in (5.0, 10.0, 50.0):
        v = os_integral_fullline(1, +1, lam, a).value
        exact = math.sqrt(math.pi) * math.exp(-lam * lam / 4.0)
        d = abs(v - exact)
        out.row(d < 1e-8, f"lam={lam:g}: |J - sqrt(pi)e^(-lam^2/4)| = {d:.2e} < 1e-8")
    return out


@_timed()
def check_stationary_reduction() -> CheckResult:
    """Criterion 10: quadratic-phase wrapper == full-line expansion at m=2."""
    out = CheckResult("stationary-reduction", True)
    a = builtin("gaussian")
    spq = stationary_phase_quadratic(+1, a, 4)
    ful = expand_fullline(2, +1, a, 9)
    worst = max(
        abs(c1 - c2) for (_, c1, _), (_, c2, _) in zip(spq.terms, ful.terms)
    )
    out.row(worst <= 1e-14, f"term-by-term coeff diff {worst:.2e} <= 1e-14")
    partial = evaluate_expansion(stationary_phase_quadratic(+1, a, 1), 100.0)
    direct = os_integral_fullline(2, +1, 100.0, a).value
    nxt = math.sqrt(math.pi) * 0.5 * 100.0 ** (-1.5)  # |a''(0)|/4 = 1/2
    d = abs(direct - partial)
    out.row(d < 3.0 * nxt, f"N=1 at lam=100: |direct-sum| {d:.3e} < 3*next-term {3*nxt:.3e}")
    return out


@_timed(180.0)
def check_structural_invariants() -> CheckResult:
    """Criterion 11: conjugate symmetry, odd-term vanishing, split-abscissa/chi
    independence, and the lambda-scaling law."""
    out = CheckResult("invariants", True)
    one = builtin("constant_one")
    gauss = builtin("gaussian")

    vp = os_integral_halfline(2.0, 1.3, +1, 3.0, gauss)
    vm = os_integral_halfline(2.0, 1.3, -1, 3.0, gauss)
    d = abs(vm.value - vp.value.conjugate())
    out.row(d <= 1e-12, f"conjugate symmetry: {d:.2e} <= 1e-12")

    worst = 0.0
    for l in range(1, 7):
        for k in range(11):
            worst = max(worst, abs(c_tilde(2 * l, 2 * k + 1, +1)))
    out.row(worst <= 1e-14, f"c~ odd-term vanishing (even m): max {worst:.2e} <= 1e-14")

    for p, q, lam, a in ((2.0, 1.0, 1.0, one), (0.7, 2.7, 1.0, one), (2.0, 1.0, 4.0, gauss)):
        # the half line's own split abscissa x0 against one from at least 2 x0
        r_small = os_integral_halfline(p, q, +1, lam, a)
        x0 = r_small.tail_cut
        r_big = os_integral_halfline(p, q, +1, lam, a, QuadratureConfig(cutoff_radius=2.0 * x0))
        d = abs(r_small.value - r_big.value)
        budget = 10.0 * (r_small.est_error + r_big.est_error)
        out.row(d <= budget and r_big.tail_cut != x0,
                f"cutoff independence p={p} q={q} X={x0:.3g},{r_big.tail_cut:.3g}: "
                f"{d:.2e} <= {budget:.2e}")

    v_g = epsilon_regularized(2.0, 1.0, +1, 1.0, one, default_regularizer())
    v_r = epsilon_regularized(2.0, 1.0, +1, 1.0, one, rational_regularizer())
    d = abs(v_g - v_r)
    out.row(d <= 1e-4, f"chi independence: {d:.2e} <= 1e-4")

    for p, q in ((2.0, 1.0), (0.7, 1.2)):
        exact = generalized_fresnel(p, q, +1).value
        worst = max(
            abs(os_integral_halfline(p, q, +1, lam, one).value * lam ** (q / p) - exact)
            / abs(exact)
            for lam in (1.0, 4.0, 10.0, 100.0)
        )
        out.row(worst <= 1e-6, f"lambda scaling p={p} q={q}: rel {worst:.2e} <= 1e-6")

    # decay order for q > p, fitted loosely
    lams = (10.0, 100.0, 1000.0, 1.0e4)
    mags = [abs(os_integral_halfline(2.0, 3.0, +1, lam, one).value) for lam in lams]
    slope = np.polyfit(np.log(lams), np.log(mags), 1)[0]
    out.row(slope <= -(3.0 - 2.0) / 2.0 + 0.1, f"decay slope q>p: {slope:.3f} <= -0.4")

    return out


SUITES = {
    "anchor": check_fresnel_anchor,
    "three-path": check_three_path_grid,
    "gelfand": check_gelfand_shilov,
    "beta": check_beta_identity,
    "ibp": check_ibp_oracle,
    "continuation": check_continuation,
    "slopes-fullline": check_remainder_fullline,
    "slopes-halfline": check_remainder_halfline,
    "decay-m1": check_superpolynomial_decay,
    "stationary": check_stationary_reduction,
    "invariants": check_structural_invariants,
}


def run_suites(names) -> list[CheckResult]:
    results = []
    for name in names:
        try:
            results.append(SUITES[name]())
        except OscPhaseError as exc:
            failed = CheckResult(name, False)
            failed.row(False, f"raised {type(exc).__name__}: {exc}")
            results.append(failed)
    return results
