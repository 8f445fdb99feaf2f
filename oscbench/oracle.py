"""Reference values that do not use oscphase.

Every formula is a closed form written with ``math.gamma`` and ``cmath``
only, so a defect in ``oscphase.cgamma`` or ``oscphase.fresnel`` cannot hide
itself by moving the reference with it. The amplitudes are real, so the
sign -1 integral is the complex conjugate of the sign +1 integral.

  halfline_constant   Os-int_0^inf e^(s i lam x^p) x^(q-1) dx
                      = lam^(-q/p) p^-1 e^(s i pi q/(2p)) Gamma(q/p)
  halfline_gauss_p2   int_0^inf e^(s i lam x^2) x^(q-1) e^(-x^2) dx
                      = Gamma(q/2) / (2 (1 - s i lam)^(q/2))
  fullline_m2         int e^(s i lam x^2) (1 + c x^2) e^(-x^2) dx,  A = 1 - s i lam
                      = sqrt(pi) (A^(-1/2) + c A^(-3/2) / 2)
  fullline_m1         int e^(s i lam x) e^(-x^2) dx = sqrt(pi) e^(-lam^2/4)

c is 0 for ``gaussian`` and 1 for ``polynomial(1,0,1)*gaussian``.
"""

from __future__ import annotations

import cmath
import math

SQRT_PI = math.sqrt(math.pi)

# amplitude name -> coefficient c of x^2 in (1 + c x^2) e^(-x^2)
GAUSS_POLY = {"gaussian": 0.0, "polynomial(1,0,1)*gaussian": 1.0}


def _signed(z: complex, sign: int) -> complex:
    return z if sign > 0 else z.conjugate()


def halfline_constant(p: float, q: float, lam: float, sign: int) -> complex:
    z = lam ** (-q / p) / p * cmath.exp(1j * math.pi * q / (2.0 * p)) * math.gamma(q / p)
    return _signed(z, sign)


def halfline_gauss_p2(q: float, lam: float, sign: int) -> complex:
    z = math.gamma(q / 2.0) / (2.0 * (1.0 - 1j * lam) ** (q / 2.0))
    return _signed(z, sign)


def fullline_m2(amplitude: str, lam: float, sign: int) -> complex:
    c = GAUSS_POLY[amplitude]
    A = 1.0 - 1j * lam
    z = SQRT_PI * (A ** -0.5 + 0.5 * c * A ** -1.5)
    return _signed(z, sign)


def fullline_m1_gauss(lam: float) -> complex:
    return complex(SQRT_PI * math.exp(-lam * lam / 4.0))


def halfline(p: float, q: float, lam: float, sign: int, amplitude: str) -> complex:
    """Reference for the half-line integrals the workloads ask for."""
    if amplitude == "constant_one":
        return halfline_constant(p, q, lam, sign)
    if amplitude == "gaussian" and p == 2.0:
        return halfline_gauss_p2(q, lam, sign)
    raise KeyError(f"no reference for the half line with {amplitude} at p={p}")


def fullline(m: int, lam: float, sign: int, amplitude: str) -> complex:
    """Reference for the full-line integrals the workloads ask for."""
    if m == 2:
        return fullline_m2(amplitude, lam, sign)
    if m == 1 and amplitude == "gaussian":
        return fullline_m1_gauss(lam)
    raise KeyError(f"no reference for the full line with {amplitude} at m={m}")
