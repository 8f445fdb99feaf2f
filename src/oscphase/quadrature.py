"""Panel quadrature: the Filon compact engine and adaptive Gauss-Legendre panels.

osc_power_integral is the one compact engine of the oscillatory integrals,
for both halves of the full line and for every rung of the epsilon path at
once: Filon quadrature after t = x^p (Legendre projection on geometric panels
against spherical-Bessel moments), exact in the oscillation, so its cost
hardly grows with the phase span. The moments come as one matrix product of
the power series or of Hankel's finite sum at small or large arguments, and
by Miller's recurrence at the few in between. adaptive integrates
non-oscillatory integrands on given breakpoints with an embedded
Gauss-Legendre pair per panel; the rotated-contour reference uses it with
corner_graded points. Both refine by bisecting the panels that carry the
error mass, and all reductions run in fixed panel order, so results are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetError

_N_LO, _N_HI = 15, 21
_MAX_ROUNDS = 200


def _gl(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


_GL_LO = _gl(_N_LO)
_GL_HI = _gl(_N_HI)


@dataclass
class QuadResult:
    """value and est_error: scalars from adaptive, one entry per row from osc_power_integral.

    converged is false when the refinement stopped short of the tolerance (of
    any row): out of rounds, out of budget, or accepted at a stall.
    """

    value: complex | np.ndarray
    est_error: float | np.ndarray
    nodes_used: int
    converged: bool


def _panel_eval(f, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the GL pair on a batch of panels; returns (I_hi, err)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs_lo = (mid[:, None] + half[:, None] * _GL_LO[0][None, :]).ravel()
    xs_hi = (mid[:, None] + half[:, None] * _GL_HI[0][None, :]).ravel()
    f_lo = f(xs_lo).reshape(len(lo), _N_LO)
    f_hi = f(xs_hi).reshape(len(lo), _N_HI)
    i_lo = half * (f_lo @ _GL_LO[1])
    i_hi = half * (f_hi @ _GL_HI[1])
    return i_hi, np.abs(i_hi - i_lo)


_ROUNDOFF = 2.2e-16


def adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
    abs_tol: float,
    rel_tol: float,
    max_nodes: int,
) -> QuadResult:
    """Integrate f over the panelization given by breakpoints `points`.

    Stops at the requested tolerance or at the roundoff floor of the panel
    sum, whichever is reached first; the floor scales with the accumulated
    panel magnitudes, so heavily cancelling integrands report honestly.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size < 2 or pts[-1] <= pts[0]:
        return QuadResult(0.0 + 0.0j, 0.0, 0, True)
    while pts.size < 17:
        # tiny seeds are bisected up front: a feature narrower than a panel
        # can fool the embedded estimate on both rules at once
        pts = np.sort(np.concatenate([pts, 0.5 * (pts[:-1] + pts[1:])]))
    if (pts.size - 1) * (_N_LO + _N_HI) > max_nodes:
        raise BudgetError(
            f"initial panelization needs {(pts.size - 1) * (_N_LO + _N_HI)} nodes, "
            f"budget is {max_nodes}"
        )
    lo, hi = pts[:-1].copy(), pts[1:].copy()
    vals, errs = _panel_eval(f, lo, hi)
    nodes = lo.size * (_N_LO + _N_HI)

    prev_err = math.inf
    stalls = 0
    for _ in range(_MAX_ROUNDS):
        total = complex(np.sum(vals))
        err = float(np.sum(errs))
        floor = 6.0 * _ROUNDOFF * float(np.sum(np.abs(vals)))
        target = max(abs_tol, rel_tol * abs(total), floor)
        if err <= target:
            return QuadResult(total, max(err, floor), nodes, True)
        # estimates pinned at a roundoff floor (e.g. phase evaluation noise
        # at huge lam x^p) stop improving under refinement; accept honestly
        stalls = stalls + 1 if err > 0.95 * prev_err else 0
        prev_err = err
        if stalls >= 2:
            return QuadResult(total, max(err, floor), nodes, False)
        if nodes >= max_nodes:
            if err <= 30.0 * target:
                # near-converged: the report carries the achieved estimate
                return QuadResult(total, max(err, floor), nodes, False)
            raise BudgetError(
                f"node budget {max_nodes} exhausted (err {err:.3e} > target {target:.3e})"
            )
        # split every panel holding more than its per-panel share of the target
        share = 0.5 * target / lo.size
        split = errs > share
        if not np.any(split):
            split = errs >= errs.max()
        s_lo, s_hi = lo[split], hi[split]
        mid = 0.5 * (s_lo + s_hi)
        new_lo = np.concatenate([s_lo, mid])
        new_hi = np.concatenate([mid, s_hi])
        new_vals, new_errs = _panel_eval(f, new_lo, new_hi)
        nodes += new_lo.size * (_N_LO + _N_HI)
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        order = np.argsort(lo, kind="stable")
        lo, hi, vals, errs = lo[order], hi[order], vals[order], errs[order]

    return QuadResult(complex(np.sum(vals)), float(np.sum(errs)), nodes, False)


_CORNER_FACTOR = 2.0  # ratio of neighbouring corner-graded points


def corner_graded(x1: float, levels: int) -> np.ndarray:
    """Geometric grading 0 < x1/f^levels < ... < x1 toward an endpoint at 0, f = _CORNER_FACTOR."""
    pts = [x1 / _CORNER_FACTOR**k for k in range(levels + 1)]
    return np.asarray([0.0] + pts[::-1])


# ----------------------------------------------------------------------
# Filon compact engine: exact in the oscillation, at every phase span
# ----------------------------------------------------------------------

_FILON_DEG = 24
_FILON_XS, _FILON_WS = np.polynomial.legendre.leggauss(_FILON_DEG)
# Legendre coefficients c_n = (2n+1)/2 sum_i w_i h(x_i) P_n(x_i): (h * w) @ _FILON_VANDER
# (C order: legvander's is Fortran, and the per-row product then takes about 1.3x as long)
_FILON_VANDER = np.ascontiguousarray(np.polynomial.legendre.legvander(_FILON_XS, _FILON_DEG - 1)
                                     * ((2.0 * np.arange(_FILON_DEG) + 1.0) / 2.0))


_HANKEL_MIN = 60.0
# DLMF 10.53.1: j_n(x) = x^n sum_k (-x^2/2)^k / (k! (2n+2k+1)!!), k <= 16 at x <= 3
_FACT = [math.factorial(m) for m in range(2 * _FILON_DEG + 32)]
_DFACT = [_FACT[2 * m + 1] // (_FACT[m] << m) for m in range(_FILON_DEG + 16)]  # (2m+1)!!
_SERIES = np.array([[(-0.5) ** k / (_FACT[k] * _DFACT[n + k]) for n in range(_FILON_DEG)]
                    for k in range(17)])
# DLMF 10.49.6: j_n(x) = Re e^(ix) sum_(k<=n) i^(k-n-1) a_k(n+1/2) x^(-k-1), with
# a_k(n+1/2) = (n+k)!/(2^k k! (n-k)!); as i^(k-n-1) is real or imaginary, the
# columns hold the factors of cos x and then those of sin x in x j_n(x)
_HANKEL = np.array([[_FACT[n + k] / (_FACT[k] * _FACT[n - k] << k) if k <= n else 0.0
                     for n in range(_FILON_DEG)] for k in range(_FILON_DEG)])
_I_POWER = np.subtract.outer(np.arange(_FILON_DEG), np.arange(1, _FILON_DEG + 1)) % 4
_HANKEL = np.hstack([_HANKEL * np.array([1, 0, -1, 0])[_I_POWER],
                     _HANKEL * np.array([0, -1, 0, 1])[_I_POWER]])
# 2k + 1 as floats, down from Miller's highest start nmax + 12 + 1.1 x
_ODD = [2.0 * k + 1.0 for k in range(_FILON_DEG + 12 + int(1.1 * _HANKEL_MIN))]


def _miller(nmax: int, x: float) -> list:
    """j_0..j_nmax at one x by Miller's downward recurrence in ratio form
    r_k = j_k / j_(k-1), so nothing overflows; anchored on the larger of j_0 and
    j_1, which never vanish together. For nmax = 23 and 3 <= x <= 60 its start
    gives the same doubles as a far higher one (checked at 20,000 x)."""
    rk, r = 0.0, [0.0] * (nmax + 1)
    for d in _ODD[nmax + 12 + int(1.1 * x) : nmax : -1]:
        rk = x / (d - x * rk)
    for k in range(nmax, 0, -1):
        rk = r[k] = x / (_ODD[k] - x * rk)
    j0 = math.sin(x) / x
    j1 = (j0 - math.cos(x)) / x
    out = [j0, j0 * r[1]] if abs(j0) >= abs(j1) else [j1 / r[1], j1]
    for k in range(2, nmax + 1):
        out.append(out[-1] * r[k])
    return out


def _sph_jn(nmax: int, x: np.ndarray) -> np.ndarray:
    """Spherical Bessel j_0..j_nmax (1 <= nmax <= 23) at every x > 0, shape (x.size, nmax + 1).

    The power series at x <= 3 and Hankel's finite sum at x > 60, each one
    matrix product over all x; Miller's recurrence per x in between.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, _FILON_DEG))
    small, large = x <= 3.0, x > _HANKEL_MIN
    if small.any():
        xs = x[small]
        out[small] = (np.vander(xs * xs, len(_SERIES), increasing=True) @ _SERIES
                      * np.vander(xs, _FILON_DEG, increasing=True))
    if large.any():
        xl = x[large]
        cs = np.vander(1.0 / xl, _FILON_DEG, increasing=True) @ _HANKEL / xl[:, None]
        out[large] = (np.cos(xl)[:, None] * cs[:, :_FILON_DEG]
                      + np.sin(xl)[:, None] * cs[:, _FILON_DEG:])
    for i in np.flatnonzero(~(small | large)):
        out[i] = _miller(_FILON_DEG - 1, float(x[i]))
    return out[:, : nmax + 1]


# M_n = int_(-1)^1 e^(i s theta u) P_n(u) du = 2 (s i)^n j_n(theta): real for even n,
# s i times real for odd n, so one set of j_n serves a row of either sign s; the
# columns sum c_n 2 (-1)^floor(n/2) j_n over the even and over the odd n
_PARITY = np.array([[2.0 * (-1) ** (n // 2) * (n % 2 == odd) for odd in (0, 1)]
                    for n in range(_FILON_DEG)])


def _filon_panels(h, lo, hi, lam, sign):
    """Integrals of e^(i s lam t) h(t) over the panels [lo, hi] via Legendre projection.

    h returns one real row per integrand, and sign is a column of one s for
    all rows or one per row; the (values, errors) returned have shape
    (rows, panels). The rows share the nodes, the moments and the phase: a
    row's panel value is hw e^(i lam t_mid) (E + i O) at s = 1, where E and O
    sum c_n 2 (-1)^floor(n/2) j_n over the even and the odd n, and its
    conjugate at s = -1.
    Each row is projected by its own (panels, degree) matrix product, as large
    as a half-line one: a product over all rows would cross the BLAS
    threading threshold rows times sooner, and there the threads' wake-up
    costs more than the product. An error bounds the panel's unresolved
    Legendre tail. The discrete projection aliases that tail into every
    coefficient, so the last coefficients are weighed by the largest moment,
    which at small theta is j_0's and not their own.
    """
    t_mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    hv = h((t_mid[:, None] + hw[:, None] * _FILON_XS).ravel())
    coeffs = np.empty((hv.shape[0], lo.size, _FILON_DEG))
    for row, out in zip(hv, coeffs):
        np.matmul(row.reshape(lo.size, _FILON_DEG) * _FILON_WS, _FILON_VANDER, out=out)
    jn = _sph_jn(_FILON_DEG - 1, lam * hw)
    even_odd = (coeffs * jn) @ _PARITY
    vals = hw * np.exp(1j * lam * t_mid) * (even_odd[..., 0] + 1j * even_odd[..., 1])
    vals.imag *= sign
    errs = hw * np.abs(coeffs[..., -4:]).sum(axis=2) * (2.0 * np.abs(jn).max(axis=1))
    errs += 1e-17 * np.abs(vals)
    return vals, errs


def osc_power_integral(
    weight: Callable[[np.ndarray], np.ndarray],
    X: float,
    p: float,
    q: float,
    lam: float,
    sign: int | list | np.ndarray,
    w0: list | np.ndarray,
    w1: float,
    abs_tol: float,
    rel_tol: float,
    max_nodes: int,
) -> QuadResult:
    """integral of e^(sign i lam x^p) x^(q-1) w(x) over [0, X], for each row w of weight.

    Filon quadrature after t = x^p: a finite Fourier integral with an
    algebraic corner at t = 0. weight(x) returns shape (rows, x.size); w0
    holds the rows' w(0), and w1 bounds |w'| on [0, 1] for every row; sign is
    one value for all rows or one per row. The rows share the panels and the
    moments, and a panel is split when any row still short of its tolerance
    needs it. nodes_used counts evaluations times rows, so max_nodes limits
    the whole batch. value and est_error hold one entry per row; converged
    says whether every row met its tolerance.
    """
    w0 = np.asarray(w0, dtype=float)
    rows = w0.size
    sign = np.asarray(sign, dtype=float).reshape(-1, 1)
    s0 = q / p
    T = X**p
    # corner [0, t_min]: h ~ w(0) t^(s0-1) / p, integrated exactly; what is left
    # is bounded by |w(x) - w(0)| <= w1 x (x <= 1) and |e^(i lam t) - 1| <= lam t
    budget = 0.01 * max(abs_tol, 1e-15) * p
    t_min = min(1.0, 0.5 * T)
    for coef, e in ((w1, s0 + 1.0 / p), (float(np.abs(w0).max()) * lam, s0 + 1.0)):
        if coef > 0.0:
            t_min = min(t_min, (budget * e / coef) ** (1.0 / e))
    if t_min < 1e-280:
        # at large p the corner exponent is tiny and t_min underflows
        raise BudgetError("corner exponent too small for the Filon path")
    corner = w0 * t_min**s0 / (s0 * p)
    corner_err = (w1 * t_min ** (s0 + 1.0 / p) / (s0 + 1.0 / p)
                  + np.abs(w0) * lam * t_min ** (s0 + 1.0) / (s0 + 1.0)) / p

    def h(t):
        return t ** (s0 - 1.0) * weight(t ** (1.0 / p)) / p

    # geometric panels resolve the algebraic corner; growth ratio keeps the
    # Legendre projection of t^(s0-1) at machine precision per panel
    pts = [t_min]
    while pts[-1] < T:
        pts.append(min(T, pts[-1] * 1.6))
    lo, hi = np.array(pts[:-1]), np.array(pts[1:])
    nodes = rows * lo.size * _FILON_DEG
    if nodes > max_nodes:
        raise BudgetError(f"initial panelization needs {nodes} nodes, budget is {max_nodes}")
    vals, errs = _filon_panels(h, lo, hi, lam, sign)
    for rounds in range(16):
        short = ~(errs.sum(axis=1) < np.maximum(abs_tol, rel_tol * np.abs(vals.sum(axis=1))))
        if not short.any() or rounds == 15:
            break
        # bisect the panels carrying the error mass of a row short of its
        # tolerance; keep the others' results
        e = errs[short]
        split = (e > 0.25 * e.max(axis=1, keepdims=True)).any(axis=0)
        s_lo, s_hi = lo[split], hi[split]
        if nodes + 2 * rows * s_lo.size * _FILON_DEG > max_nodes:
            break
        mid = 0.5 * (s_lo + s_hi)
        new_lo, new_hi = np.concatenate([s_lo, mid]), np.concatenate([mid, s_hi])
        new_vals, new_errs = _filon_panels(h, new_lo, new_hi, lam, sign)
        nodes += rows * new_lo.size * _FILON_DEG
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[:, keep], new_vals], axis=1)
        errs = np.concatenate([errs[:, keep], new_errs], axis=1)
        order = np.argsort(lo, kind="stable")
        lo, hi, vals, errs = lo[order], hi[order], vals[:, order], errs[:, order]
    # the phase argument lam*t is rounded at eps relative: reported, but left
    # out of the stop test because refinement cannot reduce it
    roundoff = _ROUNDOFF * lam * (0.5 * (lo + hi) * np.abs(vals)).sum(axis=1)
    return QuadResult(corner + vals.sum(axis=1), corner_err + errs.sum(axis=1) + roundoff, nodes,
                      not short.any())
