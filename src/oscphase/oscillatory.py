"""Numerical oscillatory integrals: compact Filon part plus boundary-term tail.

The half-line Os-integral of e^(sign i lam x^p) x^(q-1) a(x) splits at an
abscissa X into a compact part over [0, X] (Filon quadrature after t = x^p,
exact in the oscillation) and a tail over [X, inf) finished by an exact
repeated integration-by-parts recursion: the adjoint operator L* applied
until the boundary terms plus a certified envelope remainder meet the
tolerance, with X doubled until they do. Large exponents q are first peeled
off by the ladder identity when that predicts less roundoff than the direct
split.

The epsilon-regularization path and the rotated-contour real-integral path
are independent implementations used to cross-validate the closed forms.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .amplitudes import Amplitude, RegularizerSpec, derivative_shift, reflected
from .errors import (
    BudgetError,
    ClassError,
    ConvergenceError,
    DomainError,
    OrderError,
)
from .ibp import ibp_coefficients, ibp_depth
from .quadrature import (
    QuadResult,
    adaptive,
    corner_graded,
    osc_power_integral,
)

_EPS = 2.2e-16
_FAR_STEP_CAP = 70
_TAIL_TOL = 1e-14  # least remainder bound the far-tail recursion aims for


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    cutoff_radius: float = 2.0  # smallest split abscissa X of the half line
    max_nodes: int = 2_000_000


@dataclass(frozen=True)
class QuadratureReport:
    value: complex
    est_error: float
    nodes_used: int
    ibp_depth_used: int
    tail_cut: float


def _check_config(cfg: QuadratureConfig) -> None:
    if not 0.0 < cfg.cutoff_radius < math.inf:
        raise DomainError(f"cutoff radius must be finite and positive, got {cfg.cutoff_radius}")
    for name, tol in (("rel_tol", cfg.rel_tol), ("abs_tol", cfg.abs_tol)):
        if not 0.0 <= tol < math.inf:
            raise DomainError(f"{name} must be finite and non-negative, got {tol}")
    if not cfg.max_nodes >= 1:
        raise DomainError(f"max_nodes must be at least 1, got {cfg.max_nodes}")


def _check_common(p: float, lam: float, sign: int, a: Amplitude) -> None:
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    if not 0.0 < p < math.inf:
        raise DomainError(f"phase power must be positive, got {p}")
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lambda must be positive, got {lam}")
    if a.delta >= p - 1.0:
        raise ClassError(
            f"amplitude class delta={a.delta} needs delta < p-1 = {p - 1.0}"
        )


def _ensure_finite(z: complex, what: str) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise OverflowError(f"{what} overflowed double precision")
    return z


# ----------------------------------------------------------------------
# far tail: exact repeated integration by parts from a finite abscissa
# ----------------------------------------------------------------------


class _TermChain:
    """Finite sum of c[k] * x^(e_base - p*n + k) * g^(k)(x) closed under L*.

    g = a * chi_eps with chi_eps(x) = chi(eps x), or g = a when chi is absent;
    n counts the applications of sign*L*. By Leibniz the coefficient of
    a^(j) chi_eps^(k-j) is binom(k, j) c[k]. ja is the highest amplitude order
    in play: an order whose envelope constant is 0 vanishes, and without chi
    it stops the list from growing.

    Nothing here depends on eps: the coefficients follow from p, lam and the
    exponents, and bound_beyond uses chi's constants, which are uniform in
    0 < eps < 1. Only value_at reads eps, so one chain serves every rung of
    an eps ladder; its steps and the envelope sums behind its bounds are
    memoized, and every step shares the envelope weight rows.
    """

    def __init__(self, p, lam, sign, amp, chi, e_base, c, n=0, ja=None, weights=None):
        self.p = p
        self.lam = lam
        self.sign = sign
        self.amp = amp
        self.chi = chi
        self.e_base = e_base
        self.c = c  # list of complex, index k
        self.n = n
        self.ja = len(c) - 1 if ja is None else ja
        self.weights = [] if weights is None else weights
        self._next = None
        self._mass = None  # [(net exponent, weight)] of the envelope sum

    def step(self) -> "_TermChain":
        if self._next is not None:
            return self._next
        # sign*L* of c x^e g^(k): f c ((e+1-p) x^(e-p) g^(k) + x^(e+1-p) g^(k+1))
        f = self.sign * 1j / (self.lam * self.p)
        c, top = self.c, len(self.c) - 1
        out = []
        for k in range(top + 1):
            e = self.e_base + k - self.p * self.n
            out.append(f * c[k] * (e + 1.0 - self.p) + (f * c[k - 1] if k else 0.0))
        ja = self.ja
        if ja == top and self.amp.deriv_bound(ja + 1) != 0.0:
            ja += 1
        if c and (self.chi is not None or ja > top):
            out.append(f * c[top])
        self._next = _TermChain(self.p, self.lam, self.sign, self.amp, self.chi,
                                self.e_base, out, self.n + 1, ja, self.weights)
        return self._next

    def _derivs_at(self, x: float, memo: dict, eps: float):
        """g^(0..K)(x); memo keeps the stacks at (x, eps) across the steps of one recursion."""
        a = _grown(memo, "a", self.ja, self.amp.max_order,
                   lambda m: self.amp.deriv_stack(np.array([x]), m)[:, 0])
        if self.chi is None:
            return a
        top = len(self.c) - 1
        cd = _grown(memo, "chi", top, self.chi.max_order,
                    lambda m: self.chi.scaled_stack(np.array([x]), eps, m)[:, 0])
        g = memo.setdefault("g", [])
        for k in range(len(g), top + 1):
            g.append(sum(math.comb(k, j) * a[j] * cd[k - j] for j in range(min(k, self.ja) + 1)))
        return g

    def value_at(self, x: float, memo: dict, eps: float = 0.0) -> complex:
        """The chain at x with chi(eps x); pass one memo per (x, eps) for every
        step of one recursion."""
        g = self._derivs_at(x, memo, eps)
        acc = 0.0 + 0.0j
        for k, c in enumerate(self.c):
            acc += c * x ** (self.e_base + k - self.p * self.n) * g[k]
        return acc

    def _weight_rows(self) -> list:
        """Row k: {(1+delta) j: sum of binom(k,j) A_j fudge_j C_(k-j)} over the live j.

        A_j, C_u are the envelope constants of a and chi (C = 1 without chi);
        (1+delta) j shifts the exponent of the term's envelope.
        """
        amp, chi, rows = self.amp, self.chi, self.weights
        for k in range(len(rows), len(self.c)):
            row: dict = {}
            for j in (range(min(k, self.ja) + 1) if chi is not None else (k,)):
                ab = amp.deriv_bound(j)
                if ab == 0.0:
                    continue
                cb = chi.uniform_bound(k - j) if chi is not None else 1.0
                fudge = 2.0 ** (max(amp.tau + amp.delta * j, 0.0) / 2.0)
                s = (1.0 + amp.delta) * j
                row[s] = row.get(s, 0.0) + math.comb(k, j) * ab * cb * fudge
            rows.append(row)
        return rows

    def bound_beyond(self, x: float) -> float:
        """Envelope bound of the chain's integral over [x, inf), for every eps."""
        if self._mass is None:
            e0 = self.e_base - self.p * self.n + self.amp.tau
            mass: dict = {}
            for c, row in zip(self.c, self._weight_rows()):
                if c != 0.0:
                    for s, w in row.items():
                        mass[s] = mass.get(s, 0.0) + abs(c) * w
            self._mass = [(e0 + s, m) for s, m in mass.items()]
        total = 0.0
        for e_net, m in self._mass:
            if e_net >= -1.0:
                total = math.inf
                break
            total += m * x ** (e_net + 1.0) / (-e_net - 1.0)
        return total

    def order_budget_ok(self) -> bool:
        # one more step must stay within the derivative orders of a and chi
        return self.ja < self.amp.max_order and (
            self.chi is None or len(self.c) <= self.chi.max_order)


def _grown(memo: dict, key: str, order: int, cap: int, stack):
    """Rows 0..order of stack(m) at one abscissa, re-evaluated at twice the order
    (at most cap) when a step needs more than memo holds."""
    rows = memo.get(key)
    if rows is None or len(rows) <= order:
        m = order if rows is None else min(max(order, 2 * len(rows)), cap)
        rows = memo[key] = stack(m)
    return rows


def _by_parts_from(chain: _TermChain, X: float, tol: float, eps: float = 0.0):
    """Boundary-term recursion for the integral of e^(phase) * chain over [X, inf).

    Walks the chain's bounds first and stops at the first step whose bound is
    <= tol, or, when a bound exceeds 10x the best so far or the derivative
    orders run out, settles for the step with the smallest bound. Returns
    (value, remainder_bound) with value the boundary terms up to that step at
    chi(eps x). value is None when the bound does not reach tol (then no
    boundary term is evaluated) or when a boundary term leaves double range.
    """
    bounds = []
    best = 0
    link = chain
    for n in range(_FAR_STEP_CAP):
        b = link.bound_beyond(X)
        bounds.append(b)
        if b < bounds[best]:
            best = n
        if b <= tol:
            break
        if math.isfinite(bounds[best]) and b > 10.0 * bounds[best]:
            break
        if not link.order_budget_ok():
            break
        link = link.step()
    if not bounds[best] <= tol:
        return None, bounds[best]
    p, lam, s = chain.p, chain.lam, chain.sign
    phase = cmath.exp(1j * s * lam * X**p)
    total = 0.0 + 0.0j
    memo: dict = {}
    link = chain
    # far out the amplitude's stack may overflow: a term is then inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(best):
            try:
                term = -phase * link.value_at(X, memo, eps) / (s * 1j * lam * p * X ** (p - 1.0))
            except OverflowError:
                term = math.inf
            if not cmath.isfinite(term):
                return None, min(bounds[: n + 1])
            total += term
            link = link.step()
    return total, bounds[best]


def _tail(chain: _TermChain, X: float, eps: float = 0.0):
    """Boundary-term recursion over [X, inf) from the first of X, 2X, 4X, ...
    where it certifies: the remainder bound reaches _TAIL_TOL and every
    boundary term is finite. Returns (X, value, bound).

    The abscissas depend on the starting X only, so the rungs of an eps
    ladder walk the same ones on the chain's memoized steps.
    """
    while X < math.inf:
        value, bound = _by_parts_from(chain, X, _TAIL_TOL, eps)
        if value is not None:
            return X, value, bound
        X *= 2.0
    raise OverflowError("tail abscissa overflowed double precision")


# ----------------------------------------------------------------------
# half-line oscillatory integral
# ----------------------------------------------------------------------


def _ladder_wins(p, q, lam, a, X, l) -> bool:
    """Whether peeling depth l off by the ladder predicts less roundoff than
    the direct split, whose compact part carries about A_0 X^q / q."""
    row = ibp_coefficients(p, q, l).rows[l]
    weights = [abs(c) * a.deriv_bound(j) for j, c in enumerate(row)]
    try:
        ladder = (lam * p) ** (-l) * sum(
            w * X ** (j - p * l) / (q - p * l + j) for j, w in enumerate(weights) if w
        )
    except OverflowError:
        return False
    return ladder < a.deriv_bound(0) / q


def os_integral_halfline(
    p: float, q: float, sign: int, lam: float, a: Amplitude,
    cfg: QuadratureConfig | None = None,
    _ladder: bool = True,
) -> QuadratureReport:
    """Os-integral of e^(sign i lam x^p) x^(q-1) a(x) over (0, inf).

    Boundary-term recursion from X plus the compact part over [0, X]. X is
    the first of X0, 2 X0, 4 X0, ... where the recursion certifies, from
    X0 = max(cutoff_radius, (40/(lam p))^(1/p)): there lam p X0^p >= 40, the
    factor a boundary-term step gains.
    """
    cfg = cfg or QuadratureConfig()
    _check_common(p, lam, sign, a)
    if not 0.0 < q < math.inf:
        raise DomainError(f"q must be positive, got {q}")
    _check_config(cfg)
    dp = ibp_depth(p, q, a.tau, a.delta)
    try:
        X = max(cfg.cutoff_radius, (40.0 / (lam * p)) ** (1.0 / p))
    except OverflowError:
        raise OverflowError("split abscissa overflowed double precision") from None
    # peel depth; one less when the reduced exponent would be tiny (Filon's corner)
    l = dp.l0 - 1 if q - p * dp.l0 < 0.25 * p else dp.l0
    if l >= 1 and _ladder and a.max_order >= l + 8 and _ladder_wins(p, q, lam, a, X, l):
        return _reduced_halfline(p, q, sign, lam, a, cfg, l)
    if dp.l_pq > a.max_order:
        raise OrderError(
            f"integrability depth {dp.l_pq} exceeds the amplitude's derivative orders "
            f"({a.max_order})"
        )
    abs_tol = 0.3 * cfg.abs_tol
    rel_tol = 0.3 * cfg.rel_tol

    X, far_val, far_bound = _tail(
        _TermChain(p, lam, sign, a, None, q - 1.0, [1.0 + 0.0j], ja=0), X)
    compact = _filon_compact(p, q, sign, lam, a, X, cfg, abs_tol, rel_tol)
    value = _ensure_finite(compact.value + far_val, "half-line integral")
    return QuadratureReport(
        value=value,
        est_error=compact.est_error + far_bound + 5.0 * _EPS * abs(value),
        nodes_used=compact.nodes_used,
        ibp_depth_used=dp.l_pq,
        tail_cut=X,
    )


def _reduced_halfline(
    p: float, q: float, sign: int, lam: float, a: Amplitude,
    cfg: QuadratureConfig, l0: int,
) -> QuadratureReport:
    """Ladder identity: I(p,q)[a] = (s i/(lam p))^l0 sum_j C[l0,j] I(p, q-p l0 + j)[a^(j)].

    The sub-integrals take the direct split: for p <= 1 a nested ladder would
    not lower the largest exponent, only differentiate a further.
    """
    rows = ibp_coefficients(p, q, l0).rows
    pref = (sign * 1j / (lam * p)) ** l0
    value = 0.0 + 0.0j
    est = 0.0
    nodes = 0
    depth = 0
    cut = cfg.cutoff_radius
    for j, c in enumerate(rows[l0]):
        if c == 0.0 or a.deriv_bound(j) == 0.0:
            continue
        sub = os_integral_halfline(
            p, q - p * l0 + j, sign, lam, derivative_shift(a, j), cfg,
            _ladder=False,
        )
        value += c * sub.value
        est += abs(c) * abs(pref) * sub.est_error
        nodes += sub.nodes_used
        depth = max(depth, sub.ibp_depth_used)
        cut = max(cut, sub.tail_cut)
    return QuadratureReport(
        value=_ensure_finite(pref * value, "half-line integral"),
        est_error=est + 5.0 * _EPS * abs(pref * value),
        nodes_used=nodes,
        ibp_depth_used=l0 + depth,
        tail_cut=cut,
    )


def os_integral_fullline(
    m: int, sign: int, lam: float, a: Amplitude,
    cfg: QuadratureConfig | None = None,
) -> QuadratureReport:
    """Os-integral of e^(sign i lam x^m) a(x) over the whole line.

    The reflected half-line carries phase sign * (-1)^m and amplitude a(-x).
    """
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"full-line power must be a positive integer, got {m!r}")
    right = os_integral_halfline(float(m), 1.0, sign, lam, a, cfg)
    sign_left = sign * (-1) ** m
    left = os_integral_halfline(float(m), 1.0, sign_left, lam, reflected(a), cfg)
    return QuadratureReport(
        value=right.value + left.value,
        est_error=right.est_error + left.est_error,
        nodes_used=right.nodes_used + left.nodes_used,
        ibp_depth_used=max(right.ibp_depth_used, left.ibp_depth_used),
        tail_cut=max(right.tail_cut, left.tail_cut),
    )


# ----------------------------------------------------------------------
# epsilon-regularization path (independent oracle)
# ----------------------------------------------------------------------


def _eps_single(chain, q, eps, X0, cfg) -> complex:
    """Absolutely convergent integral with the regularizer chi(eps x) inserted.

    The shared eps-free chain's boundary terms from X >= X0 (see _tail),
    evaluated at chi(eps x), then GL panels over [0, X].
    """
    p, lam, sign, a, chi = chain.p, chain.lam, chain.sign, chain.amp, chain.chi
    abs_tol = 0.25 * cfg.abs_tol
    rel_tol = 0.25 * cfg.rel_tol

    def weight(x):
        return a.deriv_stack(x, 0)[0] * chi.scaled_stack(x, eps, 0)[0]

    X, far_val, _ = _tail(chain, X0, eps)
    res = osc_power_integral(
        weight, 0.0, X, p, q, lam, sign, abs_tol, rel_tol, cfg.max_nodes
    )
    return res.value + far_val


def neville_at_zero(ts, vs):
    """Polynomial extrapolation to t=0 through the points (ts, vs)."""
    n = len(ts)
    tab = list(vs)
    for m in range(1, n):
        for i in range(n - m):
            tab[i] = tab[i + 1] + (tab[i] - tab[i + 1]) * ts[i + m] / (ts[i + m] - ts[i])
    return tab[0]


def epsilon_regularized(
    p: float, q: float, sign: int, lam: float, a: Amplitude,
    chi: RegularizerSpec, eps_ladder=None, cfg: QuadratureConfig | None = None,
) -> complex:
    """Regularized limit of the chi(eps x) integrals along a decreasing ladder.

    Polynomial extrapolation in eps of degree min(4, len-1) over the smallest
    rungs, per the empirical convergence of the regularized family. The
    ladder defaults to default_eps_ladder(p, lam).
    """
    cfg = cfg or QuadratureConfig()
    _check_common(p, lam, sign, a)
    if not 0.0 < q < math.inf:
        raise DomainError(f"q must be positive, got {q}")
    _check_config(cfg)
    eps = [float(e) for e in (default_eps_ladder(p, lam) if eps_ladder is None else eps_ladder)]
    if len(eps) < 2 or any(not 0.0 < e < 1.0 for e in eps) or any(
        e2 >= e1 for e1, e2 in zip(eps, eps[1:])
    ):
        raise DomainError("eps ladder must be strictly decreasing within (0, 1)")

    # the tail starts where lam p X0^p >= 40 * 2^p, where the chain's bound,
    # uniform in eps, mostly certifies at once
    try:
        X0 = max(4.0, 2.0 * (40.0 / (lam * p)) ** (1.0 / p))
    except OverflowError:
        raise OverflowError("epsilon-path split abscissa overflowed double precision") from None
    chain = _TermChain(p, lam, sign, a, chi, q - 1.0, [1.0 + 0.0j], ja=0)
    vals = [_eps_single(chain, q, e, X0, cfg) for e in eps]
    deg = min(4, len(eps) - 1)
    extr = [
        neville_at_zero(eps[i - deg : i + 1], vals[i - deg : i + 1])
        for i in range(deg, len(eps))
    ]
    if len(extr) >= 2:
        spread = abs(extr[-1] - extr[-2])
        # the path targets ~1e-4 agreement; treat rel_tol below 1e-6 as 1e-6
        budget = 1e2 * max(cfg.rel_tol, 1e-6) * max(1.0, abs(extr[-1]))
        if spread > budget:
            raise ConvergenceError(
                f"epsilon ladder did not stabilize (spread {spread:.3e} > {budget:.3e})"
            )
    return _ensure_finite(extr[-1], "epsilon-regularized limit")


# geometric, 0.05 down to 0.005: the default ladder at p = 2, lam = 1, and the
# cap of every rung of default_eps_ladder
DEFAULT_EPS_LADDER = tuple(0.05 * (0.1 ** (k / 7.0)) for k in range(8))


def default_eps_ladder(p: float, lam: float) -> tuple:
    """eps_k = min((lam / Phi_k)^(1/p), DEFAULT_EPS_LADDER[k]), Phi_k = 400 * 100^(k/7).

    chi(eps x) differs from 1 only beyond x ~ 1/eps; the correction it leaves
    dies with the phase there, lam eps^(-p), which this ladder sets to Phi_k
    (or more, where the cap binds) for every p and lam.
    """
    ratios = (lam / (400.0 * 100.0 ** (k / 7.0)) for k in range(len(DEFAULT_EPS_LADDER)))
    # compared as powers: (lam/Phi_k)^(1/p) can overflow where the cap binds
    ladder = tuple(cap if r >= cap**p else r ** (1.0 / p)
                   for r, cap in zip(ratios, DEFAULT_EPS_LADDER))
    if ladder[-1] < sys.float_info.min:
        raise OverflowError("default epsilon ladder underflowed double precision")
    return ladder


# ----------------------------------------------------------------------
# rotated-contour reference (independent of the Gamma implementation)
# ----------------------------------------------------------------------


def _gamma_real_integral(s0: float, abs_tol: float, max_nodes: int) -> float:
    """Numerical integral of e^(-t) t^(s0-1) over (0, inf)."""
    T = 60.0 + 12.0 * max(s0 - 1.0, 0.0)
    if s0 < 1.0:
        # u = t^s0 removes the endpoint singularity
        def f(u):
            t = np.zeros_like(u)
            pos = u > 0
            t[pos] = u[pos] ** (1.0 / s0)
            return np.exp(-t) / s0

        t_breaks = np.concatenate([[0.0], np.arange(1.0, T, 1.0), [T]])
        u_breaks = t_breaks**s0
        pts = np.unique(np.concatenate([corner_graded(u_breaks[1], 24), u_breaks]))
        res = adaptive(f, pts, abs_tol, 1e-13, max_nodes)
    else:
        def f(t):
            return np.exp(-t) * t ** (s0 - 1.0)

        pts = np.unique(
            np.concatenate([corner_graded(1.0, 24), np.arange(1.0, T, 1.0), [T]])
        )
        res = adaptive(f, pts, abs_tol, 1e-13, max_nodes)
    return res.value.real


def rotated_contour_reference(p: float, q: float, sign: int) -> complex:
    """Closed-form check via the rotated ray: e^(sign i pi q/(2p)) / p times a
    real Gamma-type integral evaluated by quadrature (no Gamma function)."""
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    if not (0.0 < p < math.inf and 0.0 < q < math.inf):
        raise DomainError(f"rotated contour needs p, q > 0, got p={p}, q={q}")
    s0 = q / p
    g = _gamma_real_integral(s0, 1e-14, 400_000)
    return cmath.exp(sign * 1j * math.pi * q / (2.0 * p)) * g / p


# ----------------------------------------------------------------------
# Filon compact part: exact in the oscillation, at every phase span
# ----------------------------------------------------------------------

_FILON_DEG = 24
_FILON_XS, _FILON_WS = np.polynomial.legendre.leggauss(_FILON_DEG)
# Legendre coefficients c_n = (2n+1)/2 sum_i w_i h(x_i) P_n(x_i): (h * w) @ _FILON_VANDER
_FILON_VANDER = np.polynomial.legendre.legvander(_FILON_XS, _FILON_DEG - 1) * (
    (2.0 * np.arange(_FILON_DEG) + 1.0) / 2.0
)


def _sph_jn(nmax: int, x: np.ndarray) -> np.ndarray:
    """Spherical Bessel j_0..j_nmax (nmax >= 1) at every x > 0, shape (x.size, nmax + 1)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size))
    large = x > nmax + 12
    if large.any():
        # upward recurrence is stable for x above the order
        xl = x[large]
        jl = np.empty((nmax + 1, xl.size))
        jl[0] = np.sin(xl) / xl
        jl[1] = (jl[0] - np.cos(xl)) / xl
        for k in range(1, nmax):
            jl[k + 1] = (2 * k + 1) / xl * jl[k] - jl[k - 1]
        out[:, large] = jl
    rest = ~large
    if rest.any():
        # Miller's downward recurrence in ratio form r_k = j_k / j_(k-1), from
        # one common start for every x; ratios neither overflow nor underflow
        # at tiny x, so no power series is needed there
        xm = x[rest]
        r = np.zeros((nmax + 1, xm.size))
        rk = np.zeros(xm.size)
        for k in range(nmax + 22 + int(1.2 * xm.max()), 0, -1):
            rk = xm / (2 * k + 1 - xm * rk)
            if k <= nmax:
                r[k] = rk
        # anchor on the larger of j_0, j_1: they never vanish together
        j0 = np.sin(xm) / xm
        j1 = (j0 - np.cos(xm)) / xm
        use0 = np.abs(j0) >= np.abs(j1)
        out[0, rest] = np.where(use0, j0, j1 / r[1])
        out[1, rest] = np.where(use0, j0 * r[1], j1)
        out[2:, rest] = out[1, rest] * np.cumprod(r[2:], axis=0)
    return out.T


def _filon_panels(h, lo, hi, s_lam):
    """Integrals of e^(i s_lam t) h(t) over the panels [lo, hi] via Legendre projection.

    Returns (values, errors); an error bounds the panel's unresolved Legendre
    tail. The discrete projection aliases that tail into every coefficient,
    so the last coefficients are weighed by the largest moment, which at small
    theta is j_0's and not their own.
    """
    t_mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    hv = h((t_mid[:, None] + hw[:, None] * _FILON_XS).ravel()).reshape(lo.size, _FILON_DEG)
    coeffs = (hv * _FILON_WS) @ _FILON_VANDER
    moments = 2.0 * (1j ** np.arange(_FILON_DEG)) * _sph_jn(_FILON_DEG - 1, abs(s_lam) * hw)
    if s_lam < 0:
        moments = np.conj(moments)
    vals = hw * np.exp(1j * s_lam * t_mid) * np.sum(coeffs * moments, axis=1)
    errs = hw * np.sum(np.abs(coeffs[:, -4:]), axis=1) * np.max(np.abs(moments), axis=1)
    errs += 1e-17 * np.abs(vals)
    return vals, errs


def _filon_compact(p, q, sign, lam, a, X, cfg, abs_tol, rel_tol) -> QuadResult:
    """Integral over [0, X] after t = x^p: finite Fourier integral with algebraic corner."""
    s0 = q / p
    T = X**p
    # corner [0, t_min]: h ~ a(0) t^(s0-1) / p, integrated exactly; what is left
    # is bounded by |a(x) - a(0)| <= A_1 x (x <= 1) and |e^(i lam t) - 1| <= lam t
    a0 = float(a.deriv(0, 0.0))
    a1 = a.deriv_bound(1) * 2.0 ** (max(a.tau + a.delta, 0.0) / 2.0)
    budget = 0.01 * max(abs_tol, 1e-15) * p
    t_min = min(1.0, 0.5 * T)
    for coef, e in ((a1, s0 + 1.0 / p), (abs(a0) * lam, s0 + 1.0)):
        if coef > 0.0:
            t_min = min(t_min, (budget * e / coef) ** (1.0 / e))
    if t_min < 1e-280:
        # at large p the corner exponent is tiny and t_min underflows
        raise BudgetError("corner exponent too small for the Filon path")
    corner = a0 * t_min**s0 / (s0 * p)
    corner_err = (a1 * t_min ** (s0 + 1.0 / p) / (s0 + 1.0 / p)
                  + abs(a0) * lam * t_min ** (s0 + 1.0) / (s0 + 1.0)) / p

    def h(t):
        x = t ** (1.0 / p)
        return t ** (s0 - 1.0) * a.deriv_stack(x, 0)[0] / p

    # geometric panels resolve the algebraic corner; growth ratio keeps the
    # Legendre projection of t^(s0-1) at machine precision per panel
    pts = [t_min]
    while pts[-1] < T:
        pts.append(min(T, pts[-1] * 1.6))
    lo, hi = np.array(pts[:-1]), np.array(pts[1:])
    nodes = lo.size * _FILON_DEG
    if nodes > cfg.max_nodes:
        raise BudgetError(
            f"initial panelization needs {nodes} nodes, budget is {cfg.max_nodes}"
        )
    vals, errs = _filon_panels(h, lo, hi, sign * lam)
    for _ in range(15):
        if np.sum(errs) < max(abs_tol, rel_tol * abs(np.sum(vals))):
            break
        # bisect the panels carrying the error mass; keep the others' results
        split = errs > 0.25 * errs.max()
        s_lo, s_hi = lo[split], hi[split]
        if nodes + 2 * s_lo.size * _FILON_DEG > cfg.max_nodes:
            break
        mid = 0.5 * (s_lo + s_hi)
        new_lo, new_hi = np.concatenate([s_lo, mid]), np.concatenate([mid, s_hi])
        new_vals, new_errs = _filon_panels(h, new_lo, new_hi, sign * lam)
        nodes += new_lo.size * _FILON_DEG
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        order = np.argsort(lo, kind="stable")
        lo, hi, vals, errs = lo[order], hi[order], vals[order], errs[order]
    # the phase argument lam*t is rounded at eps relative: reported, but left
    # out of the stop test because refinement cannot reduce it
    roundoff = _EPS * lam * float(np.sum(0.5 * (lo + hi) * np.abs(vals)))
    return QuadResult(corner + complex(np.sum(vals)), corner_err + float(np.sum(errs)) + roundoff,
                      nodes)
