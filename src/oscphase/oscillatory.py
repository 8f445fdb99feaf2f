"""Numerical oscillatory integrals: compact Filon part plus boundary-term tail.

The half-line Os-integral of e^(sign i lam x^p) x^(q-1) a(x) splits at an
abscissa X into a compact part over [0, X] (Filon quadrature after t = x^p,
exact in the oscillation) and a tail over [X, inf) finished by an exact
repeated integration-by-parts recursion: the adjoint operator L* applied
until the boundary terms plus a certified envelope remainder meet the
tolerance, with X doubled until they do; where the amplitude has a proved
tail mass that meets it alone, the tail is 0. Large exponents q are first peeled
off by the ladder identity when that predicts less roundoff than the direct
split: the same split then runs once, on exponent q - p l with the weight
sum_j C[l,j] x^j a^(j) and the tail recursion started at depth l. The full
line is the same split over two rows, a with its sign and the reflected
a(-x) with sign (-1)^m: one tail walk serves both rows, and one compact call
integrates both.

The epsilon-regularization path computes the defining limit: the integrals
with chi(eps x) inserted, along a decreasing eps ladder, extrapolated to
eps = 0 by Neville. Its rungs a(x) chi(eps x) are the rows of the same split,
unpeeled, under one envelope that holds for every eps (amplitudes.regularized):
one tail walk and one compact call serve all rungs. Only chi, the eps ladder,
its tail start and the extrapolation are its own. The rotated-contour
real-integral path is an independent, Gamma-free check of the closed forms.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .amplitudes import (Amplitude, RegularizerSpec, corner_slope, ladder_weight, reflected,
                         regularized)
from .errors import ClassError, ConvergenceError, DomainError, OrderError
from .ibp import ibp_coefficients, ibp_depth
from .quadrature import _ROUNDOFF, adaptive, corner_graded, osc_power_integral

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
    converged: bool  # whether the compact part met its tolerance


def _check_common(p: float, q: float, lam: float, sign: int, a: Amplitude,
                  cfg: QuadratureConfig) -> None:
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
    if not 0.0 < q < math.inf:
        raise DomainError(f"q must be positive, got {q}")
    if not 0.0 < cfg.cutoff_radius < math.inf:
        raise DomainError(f"cutoff radius must be finite and positive, got {cfg.cutoff_radius}")
    for name, tol in (("rel_tol", cfg.rel_tol), ("abs_tol", cfg.abs_tol)):
        if not 0.0 <= tol < math.inf:
            raise DomainError(f"{name} must be finite and non-negative, got {tol}")
    if not cfg.max_nodes >= 1:
        raise DomainError(f"max_nodes must be at least 1, got {cfg.max_nodes}")


def _ensure_finite(z: complex, what: str) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise OverflowError(f"{what} overflowed double precision")
    return z


# ----------------------------------------------------------------------
# far tail: exact repeated integration by parts from a finite abscissa
# ----------------------------------------------------------------------


class _TermChain:
    """Finite sum of c[k] * x^(e_base - p*n + k) * a^(k)(x) closed under L*.

    n counts the applications of sign*L*. a is one amplitude or rows of them
    under one envelope (see _split): the coefficients follow from p, lam and
    the exponents, and the bounds from a's envelope constants and tail mass,
    so one chain serves every row; only derivs_at reads the rows. An order
    whose envelope constant is 0 vanishes and stops the list from growing.
    Steps and the envelope sums behind the bounds are memoized, and every
    step shares the envelope weight rows.
    """

    def __init__(self, p, lam, sign, amp, e_base, c, n=0, weights=None):
        self.p = p
        self.lam = lam
        self.sign = sign
        self.amp = amp
        self.e_base = e_base
        self.c = c  # list of complex, index k
        self.n = n
        self.weights = [] if weights is None else weights
        self._next = None
        self._sums = None  # [(net exponent, weight)] of the envelope sum

    def step(self) -> "_TermChain":
        if self._next is not None:
            return self._next
        # sign*L* of c x^e a^(k): f c ((e+1-p) x^(e-p) a^(k) + x^(e+1-p) a^(k+1))
        f = self.sign * 1j / (self.lam * self.p)
        c, top = self.c, len(self.c) - 1
        out = []
        for k in range(top + 1):
            e = self.e_base + k - self.p * self.n
            out.append(f * c[k] * (e + 1.0 - self.p) + (f * c[k - 1] if k else 0.0))
        if self.amp.deriv_bound(top + 1) != 0.0:
            out.append(f * c[top])
        self._next = _TermChain(self.p, self.lam, self.sign, self.amp, self.e_base, out,
                                self.n + 1, self.weights)
        return self._next

    def derivs_at(self, x: float):
        """a^(0..K)(x) at this step's orders, which cover every earlier step's:
        shape (K+1,), or (K+1, rows) when a's stack carries rows."""
        return self.amp.deriv_stack(np.array([x]), len(self.c) - 1)[..., 0]

    def powers_at(self, x: float) -> list:
        """[c[k] x^(e_base - p*n + k)]: the chain at x is their sum with a^(k)(x)."""
        e = self.e_base - self.p * self.n
        return [c * x ** (e + k) for k, c in enumerate(self.c)]

    def value_at(self, x: float, g) -> complex:
        """The chain at x from rows g of derivs_at at this step or a later one."""
        return sum(ck * gk for ck, gk in zip(self.powers_at(x), g))

    def _weight_rows(self) -> list:
        """Row k: ((1+delta) k, A_k 2^(max(tau + delta k, 0)/2)), the exponent
        shift and weight of the envelope of x^k a^(k) over x >= 1."""
        amp, rows = self.amp, self.weights
        for k in range(len(rows), len(self.c)):
            fudge = 2.0 ** (max(amp.tau + amp.delta * k, 0.0) / 2.0)
            rows.append(((1.0 + amp.delta) * k, amp.deriv_bound(k) * fudge))
        return rows

    def bound_beyond(self, x: float) -> float:
        """Bound of the chain's integral over [x, inf), for every row.

        The envelope sum; at step 0 of a one-term chain c x^e_base a it is also
        |c| mass(e_base + 1, x), from the amplitude's tail mass, and the bound
        is the lesser of the two.
        """
        if self._sums is None:
            e0 = self.e_base - self.p * self.n + self.amp.tau
            sums: dict = {}
            for c, (s, w) in zip(self.c, self._weight_rows()):
                if c != 0.0 and w != 0.0:
                    sums[s] = sums.get(s, 0.0) + abs(c) * w
            self._sums = [(e0 + s, m) for s, m in sums.items()]
        total = 0.0
        for e_net, m in self._sums:
            if e_net >= -1.0:
                total = math.inf
                break
            total += m * x ** (e_net + 1.0) / (-e_net - 1.0)
        if self.n == 0 and len(self.c) == 1 and self.amp.mass is not None:
            total = min(total, abs(self.c[0]) * self.amp.mass(self.e_base + 1.0, x))
        return total

    def order_budget_ok(self) -> bool:
        # one more step must stay within the amplitude's derivative orders
        return len(self.c) <= self.amp.max_order


def _by_parts_from(chain: _TermChain, X: float, tol: float):
    """Boundary-term recursion for the integral of e^(phase) * chain over [X, inf).

    Walks the chain's bounds first and stops at the first step whose bound is
    <= tol, or, when a bound exceeds 10x the best so far or the derivative
    orders run out, settles for the step with the smallest bound. Returns
    (value, remainder_bound) with value the boundary terms before that step,
    one per row when the amplitude's stack carries rows (see derivs_at); 0
    when step 0's bound, the amplitude's tail mass, certifies. value is None
    when the bound does not reach tol (then no boundary term is evaluated) or
    when a boundary term leaves double range. Raises OverflowError when X^p
    does, as X cannot double further.
    """
    bounds, links = [], []
    best = 0
    link = chain
    for n in range(_FAR_STEP_CAP):
        links.append(link)
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
    if best == 0:
        return 0.0, bounds[0]
    p, lam, s = chain.p, chain.lam, chain.sign
    try:
        phase = cmath.exp(1j * s * lam * X**p)
    except OverflowError:
        raise OverflowError("tail abscissa overflowed double precision") from None
    # every boundary term is f times its chain at X: sum the chains' powers
    # first, then one sum with a^(k) per row
    coef = [0.0] * len(links[best - 1].c)
    try:
        f = -phase / (s * 1j * lam * p * X ** (p - 1.0))
        for link in links[:best]:
            for k, ck in enumerate(link.powers_at(X)):
                coef[k] += ck
    except OverflowError:
        return None, bounds[best]
    # far out the amplitude's stack may overflow: a term is then inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.asarray(links[best - 1].derivs_at(X), dtype=float)
    rows = g.T.reshape(-1, len(coef)).tolist()
    total = [f * sum(c * gk for c, gk in zip(coef, row)) for row in rows]
    total = total[0] if g.ndim == 1 else np.array(total)
    finite = cmath.isfinite(total) if isinstance(total, complex) else np.isfinite(total).all()
    return (total if finite else None), bounds[best]


def _tail(chain: _TermChain, X: float):
    """Boundary-term recursion over [X, inf) from the first of X, 2X, 4X, ...
    where it certifies: the remainder bound reaches _TAIL_TOL and every
    boundary term is finite, for every row. Returns (X, value, bound).
    """
    while X < math.inf:
        value, bound = _by_parts_from(chain, X, _TAIL_TOL)
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


def _start(p: float, lam: float) -> float:
    """(40/(lam p))^(1/p), where lam p X^p = 40, the factor a boundary-term step gains."""
    try:
        return (40.0 / (lam * p)) ** (1.0 / p)
    except OverflowError:
        raise OverflowError("split abscissa overflowed double precision") from None


def os_integral_halfline(
    p: float, q: float, sign: int, lam: float, a: Amplitude,
    cfg: QuadratureConfig | None = None,
) -> QuadratureReport:
    """Os-integral of e^(sign i lam x^p) x^(q-1) a(x) over (0, inf).

    Boundary-term recursion from X plus the compact part over [0, X]. X is
    the first of X0, 2 X0, 4 X0, ... where the recursion certifies, from
    X0 = max(cutoff_radius, (40/(lam p))^(1/p)).

    When the ladder wins, both parts start at depth l of the recursion: by the
    ladder identity I(p,q)[a] = (s i/(lam p))^l I(p, q - p l)[b] with
    b = sum_j C[l,j] x^j a^(j) (ladder_weight), so the compact part integrates
    b and the tail chain starts from the row C[l]. Otherwise l = 0 and b = a.
    """
    cfg = cfg or QuadratureConfig()
    _check_common(p, q, lam, sign, a, cfg)
    X0 = max(cfg.cutoff_radius, _start(p, lam))
    l0 = ibp_depth(p, q, a.tau, a.delta).l0
    # peel depth; one less when the reduced exponent would be tiny (Filon's corner)
    l = l0 - 1 if q - p * l0 < 0.25 * p else l0
    if not (l >= 1 and a.max_order >= l + 8 and _ladder_wins(p, q, lam, a, X0, l)):
        l = 0
    return _split(p, q, lam, (sign,), a, X0, l, cfg)[0]


def _split(p, q, lam, signs, rows: Amplitude, X, l, cfg: QuadratureConfig):
    """The half line's split at peel depth l over rows, one per sign of signs.

    rows.deriv_stack(x, order) has shape (order+1, len(signs), len(x)) (one
    row may leave that axis out), and rows' envelope constants and tail mass
    hold for every row: one tail walk from X, 2X, 4X, ... serves every row, a
    row of the other sign than the first taking the conjugate boundary terms
    (its real amplitude's chain is the conjugate one), and one compact call
    integrates every row over [0, X]. Returns the report of the rows' sum and
    each row's value.
    """
    l_pq = ibp_depth(p, q, rows.tau, rows.delta).l_pq
    if l == 0 and l_pq > rows.max_order:
        raise OrderError(
            f"integrability depth {l_pq} exceeds the amplitude's derivative orders "
            f"({rows.max_order})"
        )
    row = ibp_coefficients(p, q, l).rows[l]
    q_l = q - p * l
    s0 = signs[0]
    X, far, far_bound = _tail(_TermChain(p, lam, s0, rows, q_l - 1.0, list(map(complex, row))), X)
    far = (np.zeros(len(signs)) + far).tolist()  # 0 when the tail mass certifies
    b = ladder_weight(rows, row)

    def weight(x):
        return b.deriv_stack(x, 0)[0].reshape(len(signs), -1)

    compact = osc_power_integral(weight, X, p, q_l, lam, signs, weight(np.zeros(1))[:, 0],
                                 corner_slope(b), 0.3 * cfg.abs_tol, 0.3 * cfg.rel_tol,
                                 cfg.max_nodes)
    values, est_error = [], 0.0
    for s, c, c_err, far_val in zip(signs, compact.value.tolist(), compact.est_error, far):
        pref = (s * 1j / (lam * p)) ** l
        far_val = far_val if s == s0 else far_val.conjugate()
        v = _ensure_finite(pref * (c + far_val), "half-line integral")
        values.append(v)
        est_error += abs(pref) * (float(c_err) + far_bound) + 5.0 * _ROUNDOFF * abs(v)
    return QuadratureReport(
        value=sum(values),
        est_error=est_error,
        nodes_used=compact.nodes_used,
        ibp_depth_used=l + ibp_depth(p, q_l, b.tau, b.delta).l_pq,
        tail_cut=X,
        converged=compact.converged,
    ), values


def os_integral_fullline(
    m: int, sign: int, lam: float, a: Amplitude,
    cfg: QuadratureConfig | None = None,
) -> QuadratureReport:
    """Os-integral of e^(sign i lam x^m) a(x) over the whole line.

    The reflected half line carries phase sign * (-1)^m and amplitude a(-x);
    the two halves are the two rows of one split, so max_nodes limits both.
    """
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"full-line power must be a positive integer, got {m!r}")
    cfg = cfg or QuadratureConfig()
    _check_common(float(m), 1.0, lam, sign, a, cfg)
    # q = 1 never peels: the ladder needs q > p
    X0 = max(cfg.cutoff_radius, _start(float(m), lam))
    return _split(float(m), 1.0, lam, (sign, sign * (-1) ** m), _halves(a), X0, 0, cfg)[0]


def _halves(a: Amplitude) -> Amplitude:
    """The rows a(x) and a(-x) under a's envelope, which is reflected(a)'s too."""
    b = reflected(a)
    return replace(a, _stack=lambda x, order: np.stack(
        (a.deriv_stack(x, order), b.deriv_stack(x, order)), axis=1))


# ----------------------------------------------------------------------
# epsilon-regularization path: the defining limit
# ----------------------------------------------------------------------


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
    ladder defaults to default_eps_ladder(p, lam). The rungs a(x) chi(eps x)
    are the rows of one split (see regularized), so max_nodes limits the whole
    call; a compact part short of its tolerance raises ConvergenceError.
    """
    cfg = cfg or QuadratureConfig()
    _check_common(p, q, lam, sign, a, cfg)
    eps = [float(e) for e in (default_eps_ladder(p, lam) if eps_ladder is None else eps_ladder)]
    if len(eps) < 2 or any(not 0.0 < e < 1.0 for e in eps) or any(
        e2 >= e1 for e1, e2 in zip(eps, eps[1:])
    ):
        raise DomainError("eps ladder must be strictly decreasing within (0, 1)")
    # the tail starts where lam p X0^p >= 40 * 2^p, where the chain's bound,
    # uniform in eps, mostly certifies at once. No ladder peel: where it would
    # run, it gains about 5e-15 against the half line's value, far inside the
    # path's 1e-4, at up to 3x the cost
    X0 = max(cfg.cutoff_radius, 4.0, 2.0 * _start(p, lam))
    report, vals = _split(p, q, lam, [sign] * len(eps), regularized(a, chi, eps), X0, 0, cfg)
    if not report.converged:
        raise ConvergenceError("epsilon path: the compact part stopped short of its tolerance")
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
