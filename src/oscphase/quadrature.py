"""Panel quadrature: the Filon compact engine and adaptive Gauss-Legendre panels.

osc_power_integral is the one compact engine of the oscillatory integrals,
for the half line and for every rung of the epsilon path at once: Filon
quadrature after t = x^p (Legendre projection on geometric panels against
spherical-Bessel moments), exact in the oscillation, so its cost hardly
grows with the phase span. adaptive integrates non-oscillatory integrands on
given breakpoints with an embedded Gauss-Legendre pair per panel; the
rotated-contour reference uses it with corner_graded points. Both refine by
bisecting the panels that carry the error mass, and all reductions run in
fixed panel order, so results are deterministic.
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
    """value and est_error: scalars from adaptive, one entry per row from osc_power_integral."""

    value: complex | np.ndarray
    est_error: float | np.ndarray
    nodes_used: int


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
        return QuadResult(0.0 + 0.0j, 0.0, 0)
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
            return QuadResult(total, max(err, floor), nodes)
        # estimates pinned at a roundoff floor (e.g. phase evaluation noise
        # at huge lam x^p) stop improving under refinement; accept honestly
        stalls = stalls + 1 if err > 0.95 * prev_err else 0
        prev_err = err
        if stalls >= 2:
            return QuadResult(total, max(err, floor), nodes)
        if nodes >= max_nodes:
            if err <= 30.0 * target:
                # near-converged: the report carries the achieved estimate
                return QuadResult(total, max(err, floor), nodes)
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

    return QuadResult(complex(np.sum(vals)), float(np.sum(errs)), nodes)


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
_FILON_VANDER = np.polynomial.legendre.legvander(_FILON_XS, _FILON_DEG - 1) * (
    (2.0 * np.arange(_FILON_DEG) + 1.0) / 2.0
)


def _sph_jn(nmax: int, x: np.ndarray) -> np.ndarray:
    """Spherical Bessel j_0..j_nmax (nmax >= 1) at every x > 0, shape (x.size, nmax + 1)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size))
    large = x > nmax + 12
    if large.any():
        # upward recurrence is stable for x above the order
        xl = x[large]
        jl = np.empty((nmax + 1, xl.size))
        jl[0] = np.sin(xl) / xl
        jl[1] = (jl[0] - np.cos(xl)) / xl
        for k in range(1, nmax):
            jl[k + 1] = (2 * k + 1) / xl * jl[k] - jl[k - 1]
        out[:, large] = jl
    rest = ~large
    if rest.any():
        # Miller's downward recurrence in ratio form r_k = j_k / j_(k-1), from
        # one common start for every x; ratios neither overflow nor underflow
        # at tiny x, so no power series is needed there
        xm = x[rest]
        r = np.zeros((nmax + 1, xm.size))
        rk = np.zeros(xm.size)
        for k in range(nmax + 22 + int(1.2 * xm.max()), 0, -1):
            rk = xm / (2 * k + 1 - xm * rk)
            if k <= nmax:
                r[k] = rk
        # anchor on the larger of j_0, j_1: they never vanish together
        j0 = np.sin(xm) / xm
        j1 = (j0 - np.cos(xm)) / xm
        use0 = np.abs(j0) >= np.abs(j1)
        out[0, rest] = np.where(use0, j0, j1 / r[1])
        out[1, rest] = np.where(use0, j0 * r[1], j1)
        out[2:, rest] = out[1, rest] * np.cumprod(r[2:], axis=0)
    return out.T


def _filon_panels(h, lo, hi, s_lam):
    """Integrals of e^(i s_lam t) h(t) over the panels [lo, hi] via Legendre projection.

    h returns one row per integrand; so do the (values, errors) returned, of
    shape (rows, panels). The rows share the nodes and the moments. Each row
    is projected by its own (panels, degree) matrix product, as large as a
    half-line one: a product over all rows would cross the BLAS threading
    threshold rows times sooner, and there the threads' wake-up costs more
    than the product. An error bounds the panel's unresolved
    Legendre tail. The discrete projection aliases that tail into every
    coefficient, so the last coefficients are weighed by the largest moment,
    which at small theta is j_0's and not their own.
    """
    t_mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    hv = h((t_mid[:, None] + hw[:, None] * _FILON_XS).ravel())
    coeffs = np.empty((hv.shape[0], lo.size, _FILON_DEG))
    for row, out in zip(hv, coeffs):
        np.matmul(row.reshape(lo.size, _FILON_DEG) * _FILON_WS, _FILON_VANDER, out=out)
    moments = 2.0 * (1j ** np.arange(_FILON_DEG)) * _sph_jn(_FILON_DEG - 1, abs(s_lam) * hw)
    if s_lam < 0:
        moments = np.conj(moments)
    vals = hw * np.exp(1j * s_lam * t_mid) * (coeffs * moments).sum(axis=2)
    errs = hw * np.abs(coeffs[..., -4:]).sum(axis=2) * np.abs(moments).max(axis=1)
    errs += 1e-17 * np.abs(vals)
    return vals, errs


def osc_power_integral(
    weight: Callable[[np.ndarray], np.ndarray],
    X: float,
    p: float,
    q: float,
    lam: float,
    sign: int,
    w0: list | np.ndarray,
    w1: float,
    abs_tol: float,
    rel_tol: float,
    max_nodes: int,
) -> QuadResult:
    """integral of e^(sign i lam x^p) x^(q-1) w(x) over [0, X], for each row w of weight.

    Filon quadrature after t = x^p: a finite Fourier integral with an
    algebraic corner at t = 0. weight(x) returns shape (rows, x.size); w0
    holds the rows' w(0), and w1 bounds |w'| on [0, 1] for every row. The
    rows share the panels and the moments, and a panel is split when any
    row still short of its tolerance needs it. nodes_used
    counts evaluations times rows, so max_nodes limits the whole batch.
    value and est_error hold one entry per row.
    """
    w0 = np.asarray(w0, dtype=float)
    rows = w0.size
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
    vals, errs = _filon_panels(h, lo, hi, sign * lam)
    for _ in range(15):
        short = ~(errs.sum(axis=1) < np.maximum(abs_tol, rel_tol * np.abs(vals.sum(axis=1))))
        if not short.any():
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
        new_vals, new_errs = _filon_panels(h, new_lo, new_hi, sign * lam)
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
    return QuadResult(corner + vals.sum(axis=1), corner_err + errs.sum(axis=1) + roundoff, nodes)
