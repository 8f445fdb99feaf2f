"""Closed-form generalized Fresnel integrals and relatives.

The regularized half-line integral of e^(sign i x^p) x^(q-1) equals
p^(-1) exp(sign i (pi/2) q/p) Gamma(q/p) for p, q > 0, extends meromorphically
in q with simple poles where q/p is a non-positive integer, and specializes
to the sign-twisted family, the full-line expansion coefficients and a
generalized Beta function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

from .cgamma import POLE_TOL, gamma, gamma_residue, pole_index
from .errors import DomainError, PoleError


def _check_sign(sign: int) -> int:
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    return sign


@dataclass(frozen=True)
class FresnelValue:
    """Closed-form value p^(-1) e^(sign i pi q / (2p)) Gamma(q/p)."""

    value: complex
    p: complex
    q: complex
    sign: int


@dataclass(frozen=True)
class PoleReport:
    """Simple pole in the q-variable at q = -p*j with its residue."""

    location: complex
    order: int
    residue: complex


def _closed_form(p: complex, q: complex, sign: int) -> complex:
    w = q / p
    return cmath.exp(sign * 1j * (math.pi / 2.0) * w) * gamma(w) / p


def generalized_fresnel(p: float, q: float, sign: int) -> FresnelValue:
    """Os-integral of e^(sign i x^p) x^(q-1) over (0, inf) for p, q > 0."""
    _check_sign(sign)
    if not (isinstance(p, (int, float)) and isinstance(q, (int, float))) or p <= 0 or q <= 0:
        raise DomainError(
            f"generalized_fresnel needs real p > 0 and q > 0 (got p={p}, q={q}); "
            "use generalized_fresnel_continued elsewhere"
        )
    return FresnelValue(_closed_form(float(p), float(q), sign), float(p), float(q), sign)


def generalized_fresnel_continued(
    p: complex, q: complex, sign: int, pole_tol: float = POLE_TOL
) -> Union[FresnelValue, PoleReport]:
    """Meromorphic continuation; returns a PoleReport when q/p hits -j.

    The q-variable residue at q = -p j is e^(-sign i pi j / 2) (-1)^j / j!,
    independent of p.
    """
    _check_sign(sign)
    p = complex(p)
    q = complex(q)
    if p == 0:
        raise DomainError("continuation requires p != 0")
    if not (cmath.isfinite(p) and cmath.isfinite(q)):
        raise DomainError(f"continuation needs finite p and q, got p={p}, q={q}")
    w = q / p
    j = pole_index(w, pole_tol)
    if j is not None:
        residue = cmath.exp(-sign * 1j * math.pi * j / 2.0) * gamma_residue(j)
        return PoleReport(location=-p * j, order=1, residue=residue)
    return FresnelValue(_closed_form(p, q, sign), p, q, sign)


def signed_fresnel_m(m: int, k: int, sign: int) -> complex:
    """Os-integral of e^(sign (-1)^m i x^m) x^(k-1): the reflected-side family."""
    _check_sign(sign)
    if m < 1 or k < 1:
        raise DomainError(f"signed_fresnel_m needs m >= 1 and k >= 1, got m={m}, k={k}")
    twisted = sign * (-1) ** m
    return cmath.exp(twisted * 1j * (math.pi / 2.0) * k / m) * gamma(k / m) / m


def c_tilde(m: int, k: int, sign: int) -> complex:
    """Full-line expansion coefficient: I(m, k+1, sign) + (-1)^k I~(m, k+1, sign)."""
    _check_sign(sign)
    if m < 1 or k < 0:
        raise DomainError(f"c_tilde needs m >= 1 and k >= 0, got m={m}, k={k}")
    direct = generalized_fresnel(m, k + 1, sign).value
    mirrored = signed_fresnel_m(m, k + 1, sign)
    return direct + (-1) ** k * mirrored


def generalized_beta(
    p1: float, p2: float, p3: float,
    q1: complex, q2: complex, q3: complex,
    sign: int,
) -> complex:
    """Generalized Beta from ratios of continued Fresnel values.

    Reduces to the Euler Beta function when all p_j = 1 and q3 = q1 + q2.
    """
    _check_sign(sign)
    for pj in (p1, p2, p3):
        if not pj > 0:
            raise DomainError(f"generalized_beta needs p_j > 0, got {pj}")
    vals = []
    for pj, qj in ((p1, q1), (p2, q2), (p3, q3)):
        out = generalized_fresnel_continued(pj, qj, sign)
        if isinstance(out, PoleReport):
            raise PoleError(f"generalized Fresnel pole at p={pj}, q={qj}")
        vals.append(out.value)
    w = q1 / p1 + q2 / p2 - q3 / p3
    phase = cmath.exp(-sign * 1j * (math.pi / 2.0) * w)
    return phase * (p1 * p2 / p3) * vals[0] * vals[1] / vals[2]
