"""Case lists of the three workloads, generated from a seed.

The program only ever sees the generated inputs. Seed 0 is the grid itself;
any other seed moves each lambda and each q up by a random share below 2%,
inside its grid cell. The same seed always gives the same cases, in the same
order.

Why so little, and why only up: the cost of one half-line call jumps by 10x
or more where the compact part switches between Gauss-Legendre and Filon, and
p = 1 at lambda = 10^4.5 sits 0.7% above that switch. A jitter that crosses
it changes the work of a pass with the seed, not with the code. The half-line
est_error is low by about 6% for q just above 1 and honest at q = 1 exactly
or below; an upward q jitter shows that defect on every nonzero seed instead
of on a random half of the cases.

This module imports nothing from oscphase, so a fresh set-up child can build
its first case before the clock starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import fullline, halfline, halfline_constant

# the (p) grid of the acceptance suite, oscphase.verification.GRID_P
GRID_P = (0.7, 1.0, 1.5, 2.0, 3.0)
HALF_DECADES = tuple(range(13))  # lambda = 10^(k/2): 1 ... 1e6

# oscphase.verification.SUITES, in its order
SUITES = (
    "anchor", "three-path", "gelfand", "beta", "ibp", "continuation",
    "slopes-fullline", "slopes-halfline", "decay-m1", "stationary", "invariants",
)


@dataclass(frozen=True)
class Case:
    """One call. kind: halfline (library), cli (argv) or suite (verify).

    path names the promise the result is held to: split, eps, contour,
    closed or suite. ref is the oracle value (None for suites).
    """

    id: int
    kind: str
    path: str
    args: tuple
    ref: complex | None


class _Jitter:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}") if seed else None

    def _up(self, x: float) -> float:
        return x * (1.0 + 0.02 * self.rng.random()) if self.rng else x

    def lam(self, half_decades: int) -> float:
        return self._up(10.0 ** (half_decades / 2.0))

    def q(self, q: float) -> float:
        return self._up(q)


def halfline_lambda(seed: int) -> list[Case]:
    jit = _Jitter("halfline-lambda", seed)
    specs = [
        (p, q, "constant_one") for p in GRID_P for q in (0.5, 1.0, p + 0.5)
    ] + [(2.0, 1.0, "gaussian")]
    cases = []
    for p, q0, amp in specs:
        for k in HALF_DECADES:
            q, lam = jit.q(q0), jit.lam(k)
            ref = halfline(p, q, lam, +1, amp)
            cases.append(Case(len(cases), "halfline", "split", (p, q, +1, lam, amp), ref))
    return cases


def _sign_token(sign: int) -> str:
    return "--sign=+" if sign > 0 else "--sign=-"


def cold_cli(seed: int) -> list[Case]:
    """77 in-process CLI calls, lambda <= 100, both signs."""
    jit = _Jitter("cold-cli", seed)
    cases: list[Case] = []

    def add(path, argv, ref):
        cases.append(Case(len(cases), "cli", path, tuple(argv), ref))

    def sign():
        return +1 if len(cases) % 2 == 0 else -1

    for m, amp in ((1, "gaussian"), (2, "gaussian"), (2, "polynomial(1,0,1)*gaussian")):
        for k in (0, 1, 2, 3, 4):
            s, lam = sign(), jit.lam(k)
            add("split", ["oscint", "--fullline", "--m", str(m), "--lambda", repr(lam),
                          "--amplitude", amp, _sign_token(s)], fullline(m, lam, s, amp))
    for q0 in (0.5, 1.0, 1.5, 2.5):
        for k in (0, 2, 4):
            s, q, lam = sign(), jit.q(q0), jit.lam(k)
            add("split", ["oscint", "--halfline", "--p", "2.0", "--q", repr(q), "--lambda",
                          repr(lam), "--amplitude", "gaussian", _sign_token(s)],
                halfline(2.0, q, lam, s, "gaussian"))
    for p in GRID_P:
        for q0 in (0.5, p + 0.5):
            for k in (0, 3):
                s, q, lam = sign(), jit.q(q0), jit.lam(k)
                add("split", ["oscint", "--halfline", "--p", repr(p), "--q", repr(q),
                              "--lambda", repr(lam), "--amplitude", "constant_one",
                              _sign_token(s)], halfline(p, q, lam, s, "constant_one"))
    for p in (1.0, 2.0, 3.0):
        for q0 in (0.5, 1.0):
            s, q, lam = sign(), jit.q(q0), jit.lam(0)
            add("eps", ["oscint", "--method", "eps", "--p", repr(p), "--q", repr(q),
                        "--lambda", repr(lam), _sign_token(s)], halfline_constant(p, q, lam, s))
    for q0 in (0.5, 1.0, 1.5, 2.5):
        s, q, lam = sign(), jit.q(q0), jit.lam(0)
        add("eps", ["oscint", "--method", "eps", "--p", "2.0", "--q", repr(q), "--lambda",
                    repr(lam), "--amplitude", "gaussian", _sign_token(s)],
            halfline(2.0, q, lam, s, "gaussian"))
    for p in GRID_P:
        for q0 in (0.5, p + 0.5):
            s, q = sign(), jit.q(q0)
            add("contour", ["oscint", "--method", "contour", "--p", repr(p), "--q", repr(q),
                            _sign_token(s)], halfline_constant(p, q, 1.0, s))
            s, q = sign(), jit.q(q0)
            add("closed", ["fresnel", "--p", repr(p), "--q", repr(q), _sign_token(s)],
                halfline_constant(p, q, 1.0, s))
    return cases


def verify_all(seed: int) -> list[Case]:
    """One case per acceptance suite; the suites take no inputs, so the seed
    does not change them."""
    return [Case(i, "suite", "suite", (name,), None) for i, name in enumerate(SUITES)]


BUILDERS = {"halfline-lambda": halfline_lambda, "cold-cli": cold_cli, "verify-all": verify_all}


def build(workload: str, seed: int) -> list[Case]:
    return BUILDERS[workload](seed)
