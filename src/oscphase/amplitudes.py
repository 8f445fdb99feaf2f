"""Amplitude class with certified growth envelopes; regularizers.

An amplitude a lives in the class with parameters (tau, delta) when
|a^(k)(x)| <= C_k <x>^(tau + delta k) for every k, where <x> = sqrt(1+x^2).
Built-ins ship exact derivative recurrences plus sampled envelope constants;
the constants are upper bounds used by the certified tail truncation, so they
carry a small safety margin. A miss at order k fills every missing order up to
about 2k from one grid stack; a stack's rows do not depend on its order, so
the constants do not depend on the order in which they are asked for.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import OrderError, UnknownAmplitude
from .jets import derivs_to_jet, jet_to_derivs

_ENVELOPE_MARGIN = 1.05
_ENVELOPE_GRID = np.linspace(-60.0, 60.0, 12001)


def _hypot1(x: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2)


_ENVELOPE_HYPOT = _hypot1(_ENVELOPE_GRID)


def _fill_envelopes(cache: dict, k: int, max_order: int, stack, sup) -> None:
    """Fill the missing cache orders up to about 2k from one grid stack.

    sup(|d|, m) is the weighted sup of row m; a row that is zero everywhere on
    the grid gets 0 without it. Past max_order, stack raises OrderError.
    """
    top = max(k, min(2 * k, max_order))
    rows = stack(_ENVELOPE_GRID, top)
    for m in range(top + 1):
        if m not in cache:
            d = rows[m]
            cache[m] = sup(np.abs(d), m) * _ENVELOPE_MARGIN if d.any() else 0.0


@dataclass(frozen=True)
class Amplitude:
    """Derivative oracle with a certified (tau, delta) growth envelope.

    deriv_stack(x, order) returns [a(x), a'(x), ..., a^(order)(x)] as an
    array of shape (order+1, len(x)); deriv(k, x) is the scalar-order view.
    deriv_bound(k) bounds sup_x <x>^(-tau-delta k) |a^(k)(x)| (0 for vanishing orders).
    _bound_source (b, j) makes deriv_bound(k) read b.deriv_bound(k + j).
    """

    name: str
    tau: float
    delta: float
    max_order: int
    _stack: Callable[[np.ndarray, int], np.ndarray]
    _bound_cache: dict = field(default_factory=dict, compare=False)
    _bound_source: Optional[tuple] = field(default=None, compare=False)

    def deriv_stack(self, x, order: int) -> np.ndarray:
        if order > self.max_order:
            raise OrderError(
                f"amplitude {self.name!r} supports derivatives up to "
                f"{self.max_order}, requested {order}"
            )
        return self._stack(np.asarray(x, dtype=float), order)

    def deriv(self, k: int, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.deriv_stack(xs, k)[k]
        return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out

    def deriv_bound(self, k: int) -> float:
        """Envelope constant: |a^(k)(x)| <= deriv_bound(k) * <x>^(tau+delta k)."""
        if self._bound_source is not None:
            a, j = self._bound_source
            return a.deriv_bound(k + j)
        if k not in self._bound_cache:
            _fill_envelopes(
                self._bound_cache, k, self.max_order, self.deriv_stack,
                lambda ad, m: float(np.max(ad / _ENVELOPE_HYPOT ** (self.tau + self.delta * m))),
            )
        return self._bound_cache[k]


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


_RATIONAL_RE = re.compile(r"^rational_decay\(\s*([0-9.eE+-]+)\s*\)$")
_POLYGAUSS_RE = re.compile(r"^polynomial\(\s*([0-9.eE+,\s-]+)\)\s*\*\s*gaussian$")

_MAX_ORDER = 60


def builtin(name: str) -> Amplitude:
    """Catalogue lookup: constant_one, gaussian, rational_decay(s),
    polynomial(c0,...,cd)*gaussian."""
    name = name.strip()
    if name == "constant_one":
        return Amplitude("constant_one", 0.0, -1.0, _MAX_ORDER, _constant_stack)
    if name == "gaussian":
        return Amplitude("gaussian", 0.0, -1.0, _MAX_ORDER, _gaussian_stack)
    m = _RATIONAL_RE.match(name)
    if m:
        s = float(m.group(1))
        if s <= 0:
            raise UnknownAmplitude(f"rational_decay needs s > 0, got {s}")
        return Amplitude(
            f"rational_decay({s:g})", -2.0 * s, -1.0, _MAX_ORDER,
            lambda x, order, s=s: _rational_stack(x, order, s),
        )
    m = _POLYGAUSS_RE.match(name)
    if m:
        coeffs = tuple(float(c) for c in m.group(1).split(","))
        deg = len(coeffs) - 1
        return Amplitude(
            f"polynomial({','.join('%g' % c for c in coeffs)})*gaussian",
            float(deg), -1.0, _MAX_ORDER,
            lambda x, order, coeffs=coeffs: _poly_gaussian_stack(x, order, coeffs),
        )
    raise UnknownAmplitude(f"unknown amplitude {name!r}")


def reflected(a: Amplitude) -> Amplitude:
    """Amplitude x -> a(-x); same class parameters, and a's envelope constants."""

    def stack(x, order):
        d = a.deriv_stack(-x, order)
        for k in range(1, order + 1, 2):
            d[k] = -d[k]
        return d

    return Amplitude(
        f"reflect({a.name})", a.tau, a.delta, a.max_order, stack, _bound_source=(a, 0)
    )


def derivative_shift(a: Amplitude, j: int) -> Amplitude:
    """The amplitude a^(j), living in the class (tau + delta j, delta).

    Its order-k envelope constant is a's of order k + j: the class exponent
    tau + delta j + delta k is a's at order k + j.
    """
    if j == 0:
        return a
    if j > a.max_order:
        raise OrderError(f"amplitude {a.name!r} has no derivative of order {j}")

    def stack(x, order):
        return a.deriv_stack(x, order + j)[j:]

    return Amplitude(
        f"D{j}({a.name})", a.tau + a.delta * j, a.delta, a.max_order - j, stack,
        _bound_source=(a, j),
    )


# ----------------------------------------------------------------------
# regularizer: Schwartz chi with chi(0)=1 defining the Os-integral limit
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegularizerSpec:
    """Schwartz-type regularizer chi with chi(0) = 1 and exact derivatives."""

    name: str
    decay_class: str
    max_order: int
    _stack: Callable[[np.ndarray, int], np.ndarray]
    _bound_cache: dict = field(default_factory=dict, compare=False)

    def chi(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self._stack(xs, 0)[0]
        return float(out[0]) if np.ndim(x) == 0 else out

    def chi_deriv(self, k: int, x):
        if k > self.max_order:
            raise OrderError(f"regularizer derivatives available up to {self.max_order}")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self._stack(xs, k)[k]
        return float(out[0]) if np.ndim(x) == 0 else out

    def scaled_stack(self, x, eps: float, order: int) -> np.ndarray:
        """Derivatives in x of chi(eps x): d^k = eps^k chi^(k)(eps x)."""
        d = self._stack(eps * np.asarray(x, dtype=float), order)
        scale = 1.0
        for k in range(order + 1):
            d[k] *= scale
            scale *= eps
        return d

    def uniform_bound(self, u: int) -> float:
        """C_u with |d^u/dx^u chi(eps x)| <= C_u <x>^(-u) for all 0 < eps < 1."""
        if u not in self._bound_cache:
            _fill_envelopes(
                self._bound_cache, u, self.max_order, self._stack,
                lambda ad, m: float(np.max(ad * _ENVELOPE_HYPOT**m)),
            )
        return self._bound_cache[u]


def default_regularizer() -> RegularizerSpec:
    """chi(x) = exp(-x^2)."""
    return RegularizerSpec("gaussian", "schwartz", _MAX_ORDER, _gaussian_stack)


def rational_regularizer() -> RegularizerSpec:
    """chi(x) = (1+x^2)^(-2); slow polynomial decay, for chi-independence checks."""
    return RegularizerSpec(
        "rational", "polynomial-decay", _MAX_ORDER,
        lambda x, order: _rational_stack(x, order, 2.0),
    )
