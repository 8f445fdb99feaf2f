"""Coefficient algebra of the formal adjoint operator and depth arithmetic.

Repeated application of L* = -(1/(i lam)) d/dx (1/(p x^(p-1))) to
x^(q-1) f(x) produces (i/(lam p))^l sum_j C[l,j] x^(q-1-pl+j) f^(j)(x).
The C table follows a two-term recurrence and is exact in rational
arithmetic; the production path evaluates it in doubles and memoizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ClassError, DomainError

_INT_TOL = 1e-12


def coefficient_rows(p, q, l: int) -> tuple:
    """Rows C[0..l]; works for float or Fraction p, q (exact in the latter).

    C[l,0] = (q-pl) C[l-1,0], C[l,l] = C[l-1,l-1], and for 0 < j < l
    C[l,j] = (q-pl+j) C[l-1,j] + C[l-1,j-1]; C[0,0] = 1.
    """
    if l < 0:
        raise DomainError("table depth must be >= 0")
    one = q - q + 1  # unit of the input arithmetic (Fraction stays Fraction)
    rows = [(one,)]
    for m in range(1, l + 1):
        prev = rows[-1]
        qm = q - p * m
        row = [qm * prev[0]]
        for j in range(1, m):
            row.append((qm + j) * prev[j] + prev[j - 1])
        row.append(prev[m - 1])
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class IbpTable:
    """Coefficients C[l'][j] for l' <= l at fixed (p, q)."""

    p: float
    q: float
    l: int
    rows: tuple


_TABLE_CACHE: dict = {}


def ibp_coefficients(p: float, q: float, l: int) -> IbpTable:
    """Memoized coefficient table for the depth-l transformed integrand."""
    key = (float(p), float(q), int(l))
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = IbpTable(float(p), float(q), int(l), coefficient_rows(float(p), float(q), int(l)))
        _TABLE_CACHE[key] = tab
    return tab


def strict_floor_ratio(q: float, p: float) -> int:
    """Greatest integer strictly smaller than q/p."""
    ratio = q / p
    n = math.floor(ratio)
    if abs(ratio - round(ratio)) <= _INT_TOL * max(1.0, abs(ratio)):
        return int(round(ratio)) - 1
    return int(n)


@dataclass(frozen=True)
class DepthParams:
    """l0: max depth without a tail cutoff; l_pq: depth making the tail integrable."""

    l0: int
    l_pq: int
    tau: float
    delta: float


def ibp_depth(p: float, q: float, tau: float = 0.0, delta: float = -1.0) -> DepthParams:
    if p <= 0:
        raise DomainError(f"phase power must be positive, got {p}")
    if not -1.0 <= delta:
        raise ClassError(f"delta must be >= -1, got {delta}")
    if delta >= p - 1.0:
        raise ClassError(f"amplitude class delta={delta} incompatible with p={p} (needs delta < p-1)")
    l0 = strict_floor_ratio(q, p)
    l_pq = int(math.floor(max(q + tau, 0.0) / (p - 1.0 - delta))) + 1
    return DepthParams(l0=l0, l_pq=l_pq, tau=tau, delta=delta)
