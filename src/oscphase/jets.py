"""Vectorized truncated-Taylor (jet) arithmetic.

A jet of order K at points x is an array of shape (K+1, n) holding Taylor
coefficients c[k] = f^(k)(x) / k!. Products and quotients of jets give exact
derivatives of products and quotients, which is how the cutoff bump and the
Leibniz expansions of amplitude*cutoff*regularizer products are evaluated.
"""

from __future__ import annotations

import math

import numpy as np

_FACT = [math.factorial(k) for k in range(171)]


def derivs_to_jet(d: np.ndarray) -> np.ndarray:
    out = np.array(d, dtype=d.dtype, copy=True)
    for k in range(out.shape[0]):
        out[k] /= _FACT[k]
    return out


def jet_to_derivs(j: np.ndarray) -> np.ndarray:
    out = np.array(j, dtype=j.dtype, copy=True)
    for k in range(out.shape[0]):
        out[k] *= _FACT[k]
    return out


def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros_like(a)
    for k in range(n):
        for i in range(k + 1):
            out[k] += a[i] * b[k - i]
    return out


def jet_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # b[0] must be bounded away from 0
    n = a.shape[0]
    out = np.zeros_like(a)
    out[0] = a[0] / b[0]
    for k in range(1, n):
        acc = a[k].copy()
        for i in range(k):
            acc -= out[i] * b[k - i]
        out[k] = acc / b[0]
    return out
