"""Asymptotic expansions at the degenerate critical point x = 0.

Half-line: sum over k of I(p, k+1, sign) a^(k)(0)/k! lam^(-(k+1)/p) with the
k range and remainder order tied to the Taylor depth N. Full-line (p = m
integer): same shape with the c~ coefficients. Remainder orders are verified
empirically by log-log slope fits against the direct quadrature values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .amplitudes import Amplitude
from .errors import DomainError, NoiseFloorError, OrderError
from .fresnel import c_tilde, generalized_fresnel
from .oscillatory import (
    QuadratureConfig,
    os_integral_fullline,
    os_integral_halfline,
)

NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class ExpansionResult:
    """Partial-sum data: term k carries coeff * lam^exponent."""

    terms: tuple  # of (k, coeff, exponent)
    N: int
    declared_remainder_exponent: float
    variant: str  # "halfline(p)" or "fullline(m)"


@dataclass(frozen=True)
class SlopeFit:
    lambdas: tuple
    residual_norms: tuple
    fitted_slope: float
    r_squared: float


def _deriv_at_zero(a: Amplitude, k: int) -> float:
    return float(a.deriv_stack(np.array([0.0]), k)[k, 0])


def expand_halfline(p: float, sign: int, a: Amplitude, N: int) -> ExpansionResult:
    """Terms k = 0..N-floor(p)-1 of the half-line expansion."""
    if not 0.0 < p < math.inf:
        raise DomainError(f"phase power must be positive, got {p}")
    if N < p + 1:
        raise DomainError(f"expansion depth N={N} must satisfy N >= p+1 = {p + 1}")
    if N > a.max_order:
        raise OrderError(f"N={N} exceeds amplitude max_order={a.max_order}")
    kmax = N - math.floor(p) - 1
    terms = []
    for k in range(kmax + 1):
        coeff = generalized_fresnel(p, k + 1.0, sign).value * _deriv_at_zero(a, k) / math.factorial(k)
        terms.append((k, coeff, -(k + 1.0) / p))
    return ExpansionResult(
        terms=tuple(terms),
        N=N,
        declared_remainder_exponent=-(N - p + 1.0) / p,
        variant=f"halfline({p:g})",
    )


def expand_fullline(m: int, sign: int, a: Amplitude, N: int) -> ExpansionResult:
    """Terms k = 0..N-m-1 of the full-line expansion (integer power m)."""
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"full-line power must be a positive integer, got {m!r}")
    if N <= m:
        raise DomainError(f"expansion depth N={N} must exceed m={m}")
    if N > a.max_order:
        raise OrderError(f"N={N} exceeds amplitude max_order={a.max_order}")
    terms = []
    for k in range(N - m):
        coeff = c_tilde(m, k, sign) * _deriv_at_zero(a, k) / math.factorial(k)
        terms.append((k, coeff, -(k + 1.0) / m))
    return ExpansionResult(
        terms=tuple(terms),
        N=N,
        declared_remainder_exponent=-(N - m + 1.0) / m,
        variant=f"fullline({m})",
    )


def stationary_phase_quadratic(sign: int, a: Amplitude, N: int) -> ExpansionResult:
    """Quadratic-phase specialization: sqrt(pi) e^(sign i pi (k+1/2)/2)
    a^(2k)(0) / (4^k k!) lam^(-k-1/2) for k < N.

    Emitted on the full-line index grid (odd entries zero) so it matches
    expand_fullline(2, sign, a, 2N+1) term by term.
    """
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    if 2 * N > a.max_order:
        raise OrderError(f"needs amplitude derivatives to order {2 * N}")
    if N < 1:
        raise DomainError("need at least one term")
    sqrt_pi = math.sqrt(math.pi)
    terms = []
    for j in range(2 * N - 1):
        if j % 2 == 1:
            terms.append((j, 0.0 + 0.0j, -(j + 1.0) / 2.0))
            continue
        k = j // 2
        phase = complex(
            math.cos(math.pi * (k + 0.5) / 2.0), sign * math.sin(math.pi * (k + 0.5) / 2.0)
        )
        coeff = sqrt_pi * phase * _deriv_at_zero(a, 2 * k) / (4.0**k * math.factorial(k))
        terms.append((j, coeff, -k - 0.5))
    return ExpansionResult(
        terms=tuple(terms),
        N=2 * N + 1,
        declared_remainder_exponent=-float(N),
        variant="fullline(2)",
    )


def evaluate_expansion(res: ExpansionResult, lam: float) -> complex:
    """Partial sum at lam >= 1."""
    if not 1.0 <= lam < math.inf:
        raise DomainError(f"expansion evaluation needs lambda >= 1, got {lam}")
    return sum((c * lam**e for _, c, e in res.terms), 0.0 + 0.0j)


def _ols_loglog(lams, residuals):
    lx = np.log(np.asarray(lams))
    ly = np.log(np.asarray(residuals))
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def remainder_slope(
    p_or_m: float,
    sign: int,
    a: Amplitude,
    N: int,
    lambda_grid: Sequence[float],
    cfg: Optional[QuadratureConfig] = None,
    variant: Optional[str] = None,
    direct_values: Optional[Sequence[complex]] = None,
) -> SlopeFit:
    """Log-log slope of |direct - partial sum| over the lambda grid.

    variant defaults to "fullline" for integer powers, "halfline" otherwise.
    Residuals below the 1e-13 noise floor are dropped; fewer than 4 usable
    points raises NoiseFloorError. Precomputed direct values may be passed
    to share quadrature across several N.
    """
    lams = [float(v) for v in lambda_grid]
    if len(lams) < 4 or any(v < 1.0 for v in lams) or any(
        b <= a_ for a_, b in zip(lams, lams[1:])
    ):
        raise DomainError("lambda grid must be increasing, >= 1, with at least 4 points")
    if variant is None:
        variant = "fullline" if float(p_or_m).is_integer() else "halfline"
    if variant == "fullline":
        res = expand_fullline(int(p_or_m), sign, a, N)
        if direct_values is None:
            direct_values = [os_integral_fullline(int(p_or_m), sign, lam, a, cfg).value for lam in lams]
    elif variant == "halfline":
        res = expand_halfline(float(p_or_m), sign, a, N)
        if direct_values is None:
            direct_values = [os_integral_halfline(float(p_or_m), 1.0, sign, lam, a, cfg).value for lam in lams]
    else:
        raise DomainError(f"variant must be 'halfline' or 'fullline', got {variant!r}")

    used_l, used_r = [], []
    for lam, direct in zip(lams, direct_values):
        resid = abs(direct - evaluate_expansion(res, lam))
        if resid > NOISE_FLOOR:
            used_l.append(lam)
            used_r.append(resid)
    if len(used_l) < 4:
        raise NoiseFloorError(
            f"only {len(used_l)} residuals above the {NOISE_FLOOR:g} noise floor"
        )
    slope, r2 = _ols_loglog(used_l, used_r)
    return SlopeFit(tuple(used_l), tuple(used_r), slope, r2)
