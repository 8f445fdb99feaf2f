"""Vectorized adaptive panel quadrature for oscillatory power-weight integrals.

Panels are sized so each spans at most ~pi of phase lam*x^p; endpoint
singularities x^(q-1) with q < 1 are removed by the substitution u = x^q.
Error estimates come from an embedded Gauss-Legendre pair per panel, and
refinement bisects the panels carrying the error mass. All reductions run
in fixed (left-to-right) panel order so results are deterministic.
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
    value: complex
    est_error: float
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


_MAX_PHASE_PANELS = 400_000
_MAX_PHASE = math.pi  # phase span of one panel
_SHAPE_STEP = 0.5  # linear part of a shape step
_SHAPE_GROWTH = 1.25  # geometric part of a shape step
_CORNER_FACTOR = 2.0  # ratio of neighbouring corner-graded points


def phase_breakpoints(x_lo: float, x_hi: float, p: float, lam: float) -> np.ndarray:
    """Breakpoints on [x_lo, x_hi] capping phase increments and shape steps."""
    if x_hi <= x_lo:
        return np.asarray([x_lo, x_hi])
    # equal-phase points: lam x^p = lam x_lo^p + k*_MAX_PHASE
    ph_lo = lam * x_lo**p
    ph_hi = lam * x_hi**p
    n_ph = int(min((ph_hi - ph_lo) / _MAX_PHASE, _MAX_PHASE_PANELS))
    ks = np.arange(1, n_ph + 1)
    xs_phase = ((ph_lo + ks * _MAX_PHASE) / lam) ** (1.0 / p)
    # shape points: linear steps near the origin, geometric growth farther out
    shape_pts = []
    x = x_lo
    while x < x_hi:
        x = min(x_hi, x + _SHAPE_STEP + (_SHAPE_GROWTH - 1.0) * x)
        shape_pts.append(x)
    pts = np.unique(np.concatenate([[x_lo, x_hi], xs_phase, np.asarray(shape_pts)]))
    return pts[(pts >= x_lo) & (pts <= x_hi)]


def corner_graded(x1: float, levels: int) -> np.ndarray:
    """Geometric grading 0 < x1/f^levels < ... < x1 toward an endpoint at 0, f = _CORNER_FACTOR."""
    pts = [x1 / _CORNER_FACTOR**k for k in range(levels + 1)]
    return np.asarray([0.0] + pts[::-1])


def osc_power_integral(
    weight: Callable[[np.ndarray], np.ndarray],
    x_lo: float,
    x_hi: float,
    p: float,
    q: float,
    lam: float,
    sign: int,
    abs_tol: float,
    rel_tol: float,
    max_nodes: int,
) -> QuadResult:
    """integral of e^(sign i lam x^p) x^(q-1) weight(x) over [x_lo, x_hi].

    weight must be bounded; the algebraic x^(q-1) endpoint factor is handled
    here (substitution u = x^q when q < 1 touches x_lo = 0, geometric corner
    grading when q >= 1).
    """
    if x_hi <= x_lo:
        return QuadResult(0.0 + 0.0j, 0.0, 0)

    substitute = x_lo == 0.0 and q < 1.0

    if substitute:
        # u = x^q: integrand (1/q) e^(sign i lam u^(p/q)) weight(u^(1/q)), bounded
        def f(u):
            x = np.zeros_like(u)
            pos = u > 0.0
            x[pos] = u[pos] ** (1.0 / q)
            return (
                np.exp(1j * sign * lam * x**p) * weight(x) / q
            )

        breaks = phase_breakpoints(x_lo, x_hi, p, lam)
        u_breaks = breaks**q
        # flat-composition corner: modest grading suffices
        first = u_breaks[1] if u_breaks.size > 1 else x_hi**q
        u_pts = np.unique(np.concatenate([corner_graded(first, 24), u_breaks]))
        return adaptive(f, u_pts, abs_tol, rel_tol, max_nodes)

    def f(x):
        return np.exp(1j * sign * lam * x**p) * x ** (q - 1.0) * weight(x)

    breaks = phase_breakpoints(max(x_lo, 0.0), x_hi, p, lam)
    if x_lo == 0.0:
        # x^(q-1) with q >= 1 is bounded but can have unbounded higher
        # derivatives at 0; pre-grade the corner so refinement stays local
        first = breaks[1] if breaks.size > 1 else x_hi
        breaks = np.unique(np.concatenate([corner_graded(first, 20), breaks]))
    return adaptive(f, breaks, abs_tol, rel_tol, max_nodes)
