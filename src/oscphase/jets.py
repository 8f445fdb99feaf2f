"""Vectorized truncated-Taylor (jet) arithmetic.

A jet of order K at points x is an array of shape (K+1, n) holding Taylor
coefficients c[k] = f^(k)(x) / k!. A product of jets is a Cauchy product of
their coefficients, which gives the exact derivatives of a product; that is
how the polynomial*gaussian amplitude is evaluated.
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
