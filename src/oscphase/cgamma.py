"""Complex Gamma function with pole detection.

Single source of truth for Gamma throughout the package: every closed-form
integral value routes through :func:`gamma`.

Core algorithm: argument shift into Re w >= 21 followed by the Stirling
series with eight Bernoulli terms, with the large phase (w-1/2) log w - w
accumulated in compensated (two-product) arithmetic. The classic Lanczos
g=7 fit was measured at ~1.8e-13 relative error near |Im z| ~ 45, short of
the 1e-13 contract on |z| <= 50; the shifted Stirling form stays below
~1e-14 there. Reflection covers Re z < 0.5. Real arguments go through
math.gamma, within an ulp or so where the Stirling form errs by up to 1e-14.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import PoleError

POLE_TOL = 1e-12

_SHIFT_RE = 21.0
_LOG_HUGE = 709.0
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# B_{2n} / ((2n)(2n-1)) for the Stirling series in powers of 1/w^2
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)


def pole_index(z: complex, tol: float = POLE_TOL) -> int | None:
    """Index j >= 0 such that z is within tol of -j, or None."""
    z = complex(z)
    if z.real > 0.5:
        return None
    j = int(round(-z.real))
    if j >= 0 and abs(z - (-j)) <= tol:
        return j
    return None


def _sin_pi(z: complex) -> complex:
    # sin(pi z) with argument reduction so accuracy survives near integers
    n = math.floor(z.real + 0.5)
    return cmath.sin(cmath.pi * (z - n)) * (1.0 if n % 2 == 0 else -1.0)


def _two_prod(a: float, b: float):
    # Dekker splitting; exact product a*b = p + e in doubles
    p = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _acc(hi: float, lo: float, p: float, e: float):
    # add (p + e) to the running compensated sum (hi + lo)
    s = hi + p
    d = p - (s - hi)
    return s, lo + d + e


def _stirling_right(w: complex) -> complex:
    """Gamma(w) for Re w >= 0.5 via shift to Re >= 21 plus Stirling."""
    shift = 1.0 + 0.0j
    while w.real < _SHIFT_RE:
        shift *= w
        w += 1.0
    lw = cmath.log(w)
    a, b = w.real - 0.5, w.imag
    c, d = lw.real, lw.imag
    # L = (w - 1/2) log w - w + log(2 pi)/2, compensated in both components
    re_hi, re_lo = _acc(*_two_prod(a, c), *_two_prod(-b, d))
    re_hi, re_lo = _acc(re_hi, re_lo, -w.real, 0.0)
    re_hi, re_lo = _acc(re_hi, re_lo, _HALF_LOG_TWO_PI, 0.0)
    im_hi, im_lo = _acc(*_two_prod(a, d), *_two_prod(b, c))
    im_hi, im_lo = _acc(im_hi, im_lo, -w.imag, 0.0)
    if re_hi > _LOG_HUGE:
        raise OverflowError(f"Gamma overflow near w={w}")
    inv2 = 1.0 / (w * w)
    series = 0.0 + 0.0j
    for coef in reversed(_STIRLING):
        series = (series + coef) * inv2
    series = series * w  # = sum coef / w^(2n-1)
    main = cmath.exp(complex(re_hi, im_hi)) * (1.0 + complex(re_lo, im_lo))
    return main * cmath.exp(series) / shift


def gamma(z: complex) -> complex:
    """Gamma(z) for complex z.

    Raises PoleError within 1e-12 of a non-positive integer and OverflowError
    when the result would not fit in a double.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PoleError(f"Gamma argument must be finite, got {z}")
    if pole_index(z) is not None:
        raise PoleError(f"Gamma pole at z={z}")
    if z.imag == 0.0:
        try:
            g = math.gamma(z.real)
        except OverflowError:
            raise OverflowError(f"Gamma overflow at z={z}") from None
        if abs(g) < sys.float_info.min:  # far left of 0, where Gamma(1-z) overflows
            raise OverflowError(f"Gamma below normal double range at z={z}")
        return complex(g)
    if z.imag < 0.0:
        # enforce exact conjugate symmetry
        return gamma(z.conjugate()).conjugate()
    if z.real < 0.5:
        return cmath.pi / (_sin_pi(z) * _stirling_right(1.0 - z))
    return _stirling_right(z)


def gamma_residue(j: int) -> float:
    """Residue of Gamma at z = -j, i.e. (-1)^j / j!."""
    if j < 0:
        raise ValueError("residue index must be >= 0")
    r = 1.0 / math.factorial(j)
    return r if j % 2 == 0 else -r
