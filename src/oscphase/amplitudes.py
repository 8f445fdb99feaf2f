"""Amplitude class with closed-form growth envelopes; regularizers.

An amplitude a lives in the class with parameters (tau, delta) when
|a^(k)(x)| <= C_k <x>^(tau + delta k) for every k, where <x> = sqrt(1+x^2).
Built-ins carry exact derivative recurrences and closed-form constants C_k,
each proved where it is computed: the tail recursion's remainder bound, the
ladder test and the Filon corner need them to be true bounds. The Gaussian
types also carry a proved tail mass, which ends their tails without the
recursion. regularized(a, chi, eps) gives the epsilon path's rows a(x) chi(eps x)
under one envelope that holds for every eps.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OrderError, UnknownAmplitude
from .jets import derivs_to_jet, jet_to_derivs


@dataclass(frozen=True)
class Amplitude:
    """Derivative oracle with a (tau, delta) growth envelope.

    deriv_stack(x, order) returns [a(x), a'(x), ..., a^(order)(x)] as an
    array of shape (order+1, len(x)); deriv(k, x) is the scalar-order view.
    bound(k) is a proved C_k with |a^(k)(x)| <= C_k <x>^(tau+delta k) (0 for
    vanishing orders); deriv_bound(k) is bound(k) for k <= max_order. mass, where
    given, is a proved tail mass: mass(q, X) >= int_X^inf x^(q-1) |a(+-x)| dx for
    both signs, q > 0 and X > 0 (inf where it knows no bound).
    """

    name: str
    tau: float
    delta: float
    max_order: int
    _stack: Callable[[np.ndarray, int], np.ndarray]
    bound: Callable[[int], float]
    mass: Callable[[float, float], float] | None = None

    def _check_order(self, order: int) -> None:
        if order > self.max_order:
            raise OrderError(
                f"amplitude {self.name!r} supports derivatives up to "
                f"{self.max_order}, requested {order}"
            )

    def deriv_stack(self, x, order: int) -> np.ndarray:
        self._check_order(order)
        return self._stack(np.asarray(x, dtype=float), order)

    def deriv(self, k: int, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.deriv_stack(xs, k)[k]
        return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out

    def deriv_bound(self, k: int) -> float:
        """Envelope constant: |a^(k)(x)| <= deriv_bound(k) * <x>^(tau+delta k)."""
        self._check_order(k)
        return self.bound(k)


def _gauss_weight_sup(n: int) -> float:
    # sup_x <x>^n e^(-x^2/2): reached at <x>^2 = n for n > 1, else at x = 0
    return math.exp(0.5 * n * math.log(n) - 0.5 * (n - 1)) if n > 1 else 1.0


@functools.lru_cache(maxsize=4096)
def _poly_gaussian_bound(coeffs: tuple, k: int) -> float:
    """C_k of P(x) e^(-x^2), P = sum c_m x^m of degree d, in the class (d, -1).

    Leibniz: (P g)^(k) = sum_i binom(k,i) P^(i) g^(k-i), |x|^(m-i) <= <x>^(m-i),
    and Cramer's inequality (Abramowitz & Stegun 22.14.17) gives
    |g^(j)| = |H_j| e^(-x^2) <= 1.086435 2^(j/2) sqrt(j!) e^(-x^2/2); the weight
    <x>^(k-d) leaves sup <x>^(m-i-d+k) e^(-x^2/2). The gaussian is c = (1,).
    """
    deg, total = len(coeffs) - 1, 0.0
    for i in range(min(k, deg) + 1):
        g = math.comb(k, i) * 1.086435 * 2.0 ** ((k - i) / 2) * math.sqrt(math.factorial(k - i))
        total += sum(abs(c) * math.perm(m, i) * g * _gauss_weight_sup(m - i - deg + k)
                     for m, c in enumerate(coeffs[i:], i) if c)
    return total


def _upper_gamma_bound(s: float, T: float, scale: float) -> float:
    """scale * B with B >= Gamma(s, T) = int_T^inf t^(s-1) e^(-t) dt (DLMF 8.2.2), T > 0.

    For s <= 1, t^(s-1) <= T^(s-1) on t >= T, so Gamma(s, T) <= T^(s-1) e^(-T).
    For s > 1 and T > s - 1, put t = T + u: (1 + u/T)^(s-1) <= e^((s-1) u/T), so
      Gamma(s, T) <= T^(s-1) e^(-T) int_0^inf e^(-(1 - (s-1)/T) u) du
                  = T^(s-1) e^(-T) / (1 - (s-1)/T).
    Otherwise B = inf. B is formed in logs, as T^(s-1) leaves double range long
    before e^(-T) T^(s-1) does; raising the log by 1e-14 times the sum of its
    terms' moduli covers the rounding of log, log1p and exp.
    """
    if T == math.inf:
        return 0.0
    if not T > 0.0:
        return math.inf
    terms = [math.log(scale), (s - 1.0) * math.log(T), -T]
    if s > 1.0:
        if not T > s - 1.0:
            return math.inf
        terms.append(-math.log1p(-(s - 1.0) / T))
    log_b = sum(terms) + 1e-14 * (1.0 + sum(map(abs, terms)))
    return math.exp(log_b) if log_b < 709.0 else math.inf


def _poly_gaussian_mass(coeffs: tuple, q: float, X: float) -> float:
    """Tail mass of P(x) e^(-x^2): sum_m |c_m| Gamma((q+m)/2, X^2)/2, bounded.

    For x >= X > 0, |P(+-x)| <= sum_m |c_m| x^m, and t = x^2 turns
    int_X^inf x^(q+m-1) e^(-x^2) dx into Gamma((q+m)/2, X^2)/2; each term is
    bounded by _upper_gamma_bound. X^2 = inf leaves a mass of 0.
    """
    T = X * X
    return sum(_upper_gamma_bound((q + m) / 2.0, T, 0.5 * abs(c))
               for m, c in enumerate(coeffs) if c)


def _rational_bound(s: float, k: int) -> float:
    """C_k = (2s)_k of (1+x^2)^(-s), in the class (-2s, -1).

    (1+x^2)^(-s) = (x-i)^(-s) (x+i)^(-s) for real x, and d^j (x -+ i)^(-s) has
    modulus (s)_j <x>^(-s-j). Leibniz and Vandermonde's identity
    sum_j binom(k,j) (s)_j (s)_(k-j) = (2s)_k give C_k, which is sharp: it is
    the limit of |a^(k)(x)| <x>^(2s+k) as x -> inf.
    """
    return float(math.prod(2.0 * s + i for i in range(k)))


def _constant_stack(x: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros((order + 1, x.size))
    out[0] = 1.0
    return out


def _gaussian_stack(x: np.ndarray, order: int) -> np.ndarray:
    # y = exp(-x^2):  y^(n+1) = -2x y^(n) - 2n y^(n-1)
    out = np.zeros((order + 1, x.size))
    out[0] = np.exp(-(x**2))
    if order >= 1:
        out[1] = -2.0 * x * out[0]
    for n in range(1, order):
        out[n + 1] = -2.0 * x * out[n] - 2.0 * n * out[n - 1]
    return out


def _rational_stack(x: np.ndarray, order: int, s: float) -> np.ndarray:
    # y = (1+x^2)^(-s):  (1+x^2) y^(n+1) = -(2n+2s) x y^(n) - n(n-1+2s) y^(n-1)
    out = np.zeros((order + 1, x.size))
    w = 1.0 + x**2
    out[0] = w ** (-s)
    if order >= 1:
        out[1] = -2.0 * s * x * out[0] / w
    for n in range(1, order):
        out[n + 1] = -((2.0 * n + 2.0 * s) * x * out[n] + n * (n - 1.0 + 2.0 * s) * out[n - 1]) / w
    return out


def _poly_gaussian_stack(x: np.ndarray, order: int, coeffs: tuple) -> np.ndarray:
    # jet product P * g, skipping the zero Taylor coefficients of P beyond its degree
    g = derivs_to_jet(_gaussian_stack(x, order))
    out = np.zeros_like(g)
    for i in range(min(order, len(coeffs) - 1) + 1):
        # Taylor coefficient i of the polynomial about each x
        acc = np.zeros_like(x)
        for m in range(len(coeffs) - 1, i - 1, -1):
            acc = acc * x + coeffs[m] * math.comb(m, i)
        for k in range(i, order + 1):
            out[k] += acc * g[k - i]
    return jet_to_derivs(out)


_NUM = r"\s*[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?\s*"
_RATIONAL_RE = re.compile(rf"^rational_decay\(({_NUM})\)$")
_POLYGAUSS_RE = re.compile(rf"^polynomial\(({_NUM}(?:,{_NUM})*)\)\s*\*\s*gaussian$")

_MAX_ORDER = 60
_GAUSSIAN_BOUND = functools.partial(_poly_gaussian_bound, (1.0,))
_GAUSSIAN_MASS = functools.partial(_poly_gaussian_mass, (1.0,))


def builtin(name: str) -> Amplitude:
    """Catalogue lookup: constant_one, gaussian, rational_decay(s),
    polynomial(c0,...,cd)*gaussian."""
    name = name.strip()
    if name == "constant_one":
        return Amplitude("constant_one", 0.0, -1.0, _MAX_ORDER, _constant_stack,
                         lambda k: float(k == 0))
    if name == "gaussian":
        return Amplitude("gaussian", 0.0, -1.0, _MAX_ORDER, _gaussian_stack, _GAUSSIAN_BOUND,
                         _GAUSSIAN_MASS)
    m = _RATIONAL_RE.match(name)
    if m:
        s = float(m.group(1))
        if not 0 < s < math.inf:
            raise UnknownAmplitude(f"rational_decay needs a finite s > 0, got {s}")
        return Amplitude(
            f"rational_decay({s:g})", -2.0 * s, -1.0, _MAX_ORDER,
            lambda x, order, s=s: _rational_stack(x, order, s),
            functools.partial(_rational_bound, s),
        )
    m = _POLYGAUSS_RE.match(name)
    if m:
        coeffs = tuple(float(c) for c in m.group(1).split(","))
        if not all(map(math.isfinite, coeffs)):
            raise UnknownAmplitude(f"polynomial coefficients must be finite, got {coeffs}")
        deg = len(coeffs) - 1
        return Amplitude(
            f"polynomial({','.join('%g' % c for c in coeffs)})*gaussian",
            float(deg), -1.0, _MAX_ORDER,
            lambda x, order, coeffs=coeffs: _poly_gaussian_stack(x, order, coeffs),
            functools.partial(_poly_gaussian_bound, coeffs),
            functools.partial(_poly_gaussian_mass, coeffs),
        )
    raise UnknownAmplitude(f"unknown amplitude {name!r}")


def reflected(a: Amplitude) -> Amplitude:
    """Amplitude x -> a(-x); same class parameters, and a's envelope constants and
    tail mass, which bound both signs of x."""

    def stack(x, order):
        d = a.deriv_stack(-x, order)
        for k in range(1, order + 1, 2):
            d[k] = -d[k]
        return d

    return Amplitude(f"reflect({a.name})", a.tau, a.delta, a.max_order, stack, a.deriv_bound,
                     a.mass)


def ladder_weight(a: Amplitude, row) -> Amplitude:
    """b(x) = sum_j C_j x^j a^(j)(x) for a row C = C[l, 0..l]; a itself when row = (1,).

    The ladder identity peels depth l off the half line onto this weight. It
    has orders 0 and 1 only, in the class (tau + (1+delta) l, delta), with
    B_0 = sum |C_j| A_j and B_1 = sum |C_j| (j A_j + A_(j+1)); a term with
    C_j = 0, or A_j = 0 (then a^(j) = 0), is skipped. With |x| <= <x>, <x> >= 1,
    j <= l and -1 <= delta:
      |x^j a^(j)| <= A_j <x>^(tau + (1+delta) j) <= A_j <x>^(tau + (1+delta) l);
      b' = sum_j C_j (j x^(j-1) a^(j) + x^j a^(j+1)), where
      |j x^(j-1) a^(j)| <= j A_j <x>^(tau + (1+delta) j - 1) and
      |x^j a^(j+1)| <= A_(j+1) <x>^(tau + (1+delta) j + delta), both at most
      <x>^(tau + (1+delta) l + delta) times their constant.
    Where a's stack carries rows (see regularized), so does b's.
    """
    if tuple(row) == (1.0,):
        return a
    l = len(row) - 1
    live = [(j, c) for j, c in enumerate(row) if c != 0.0 and a.deriv_bound(j) != 0.0]
    top = max((j for j, _ in live), default=0)
    b0 = sum(abs(c) * a.deriv_bound(j) for j, c in live)
    b1 = sum(abs(c) * (j * a.deriv_bound(j) + a.deriv_bound(j + 1)) for j, c in live)

    def stack(x, order):
        d = a.deriv_stack(x, top + order)
        out = np.zeros((order + 1,) + d.shape[1:])
        for j, c in live:
            out[0] += c * x**j * d[j]
            if order:
                out[1] += c * (x**j * d[j + 1] + (j * x ** (j - 1) * d[j] if j else 0.0))
        return out

    return Amplitude(f"ladder{l}({a.name})", a.tau + (1.0 + a.delta) * l, a.delta, 1, stack,
                     lambda k: (b0, b1)[k])


def corner_slope(a: Amplitude) -> float:
    """Bound on |a'(x)| over 0 <= x <= 1: the Filon corner's constant.

    On [0, 1], <x> <= sqrt(2), so |a'| <= A_1 <x>^(tau + delta) <= A_1 2^(max(tau + delta, 0)/2).
    """
    return a.deriv_bound(1) * 2.0 ** (max(a.tau + a.delta, 0.0) / 2.0)


# ----------------------------------------------------------------------
# regularizer: Schwartz chi with chi(0)=1 defining the Os-integral limit
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegularizerSpec:
    """Schwartz-type regularizer chi with chi(0) = 1 and exact derivatives.

    bound(u) is chi's own envelope constant in the class (0, -1).
    """

    name: str
    max_order: int
    _stack: Callable[[np.ndarray, int], np.ndarray]
    bound: Callable[[int], float]

    def scaled_stack(self, x, eps, order: int) -> np.ndarray:
        """Derivatives in x of chi(eps x): d^k = eps^k chi^(k)(eps x).

        Shape (order+1, len(x)) for one eps; for a vector of eps (the rungs of a
        ladder), (order+1, len(eps), len(x)).
        """
        eps, x = np.asarray(eps, dtype=float), np.asarray(x, dtype=float)
        y = np.multiply.outer(eps, x)
        d = self._stack(y.ravel(), order).reshape((order + 1,) + y.shape)
        # eps^k as running products, k = 0..order
        powers = np.cumprod(np.stack([np.ones_like(eps)] + [eps] * order), axis=0)
        d *= powers.reshape(powers.shape + (1,) * x.ndim)
        return d

    def uniform_bound(self, u: int) -> float:
        """C_u with |d^u/dx^u chi(eps x)| <= C_u <x>^(-u) for all 0 < eps <= 1.

        chi's own constant serves: eps^u |chi^(u)(eps x)| <= C_u (eps / <eps x>)^u,
        and eps <x> <= <eps x>.
        """
        return self.bound(u)


def default_regularizer() -> RegularizerSpec:
    """chi(x) = exp(-x^2)."""
    return RegularizerSpec("gaussian", _MAX_ORDER, _gaussian_stack, _GAUSSIAN_BOUND)


def rational_regularizer() -> RegularizerSpec:
    """chi(x) = (1+x^2)^(-2); slow polynomial decay, for chi-independence checks.

    Its C_u = u! (u+2)/2, reached at x = 0 for even u, is from partial fractions:
    chi = -(i/4)/(x-i) - (1/4)/(x-i)^2 + (i/4)/(x+i) - (1/4)/(x+i)^2, whose u-th
    derivatives have moduli u!/4 <x>^(-1-u) and (u+1)!/4 <x>^(-2-u).
    """
    return RegularizerSpec(
        "rational", _MAX_ORDER, lambda x, order: _rational_stack(x, order, 2.0),
        lambda u: math.factorial(u) * (u + 2) / 2,
    )


def regularized(a: Amplitude, chi: RegularizerSpec, eps=1.0) -> Amplitude:
    """Rows a(x) chi(eps_k x), one per eps_k (one row for a scalar eps), under one envelope.

    deriv_stack has scaled_stack's shape: a's stack and chi's are evaluated
    once for all rows and combined by Leibniz over a's live orders. With K_u
    chi's uniform constants, every row with 0 < eps <= 1 is in a's class
    (tau, delta >= -1) with C_k = sum_j binom(k, j) A_j K_(k-j), as Leibniz gives
      |(a chi_eps)^(k)| <= sum_j binom(k, j) A_j K_(k-j) <x>^(tau + delta k - (1+delta)(k-j))
    and <x>^(-(1+delta)(k-j)) <= 1. |chi_eps| <= K_0 makes K_0 times a's tail
    mass a tail mass of every row. The constants are built as far as asked for.
    """
    A, K, live, consts = [], [], [], []  # a's and chi's constants, a's live orders, C

    def bound(k):
        for u in range(len(consts), k + 1):
            A.append(a.deriv_bound(u))
            K.append(chi.uniform_bound(u))
            if A[u] != 0.0:
                live.append(u)
            consts.append(sum(math.comb(u, j) * A[j] * K[u - j] for j in live))
        return consts[k]

    def stack(x, order):
        bound(order)
        js = [j for j in live if 0 < j <= order]
        d = a.deriv_stack(x, max(js, default=0))
        c = chi.scaled_stack(x, eps, order)
        out = d[0] * c  # the j = 0 terms
        for j in js:  # binom(k, j) a^(j) chi_eps^(k-j) for every k >= j
            w = np.array([math.comb(k, j) for k in range(j, order + 1)], dtype=float)
            out[j:] += w.reshape((-1,) + (1,) * (c.ndim - 1)) * d[j] * c[: order + 1 - j]
        return out

    mass = None if a.mass is None else (lambda q, X: chi.uniform_bound(0) * a.mass(q, X))
    return Amplitude(f"{a.name}*{chi.name}(eps x)", a.tau, a.delta,
                     min(a.max_order, chi.max_order), stack, bound, mass)
