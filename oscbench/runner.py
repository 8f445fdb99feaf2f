"""Executes cases against oscphase and judges each result against the oracle.

``load`` imports oscphase from the ``src`` directory of the checkout this file
sits in, never from anywhere else. Nothing here imports oscphase at module
import time, so a set-up child can start its clock just before ``load``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EPS_TOL = 1e-4  # what the epsilon path promises (acceptance criterion 1)
CONTOUR_TOL = 1e-9  # rotated-contour reference (criterion 2)
CLOSED_REL_TOL = 1e-14  # closed form, relative (criterion 1)
# a result further from the oracle than this multiple of its promised
# tolerance is wrong, not merely imprecise, and makes the run incorrect
WRONG_FACTOR = 100.0


class MissingProgram(RuntimeError):
    pass


@dataclass
class Program:
    """The oscphase entry points the workloads call."""

    oscillatory: object
    cli: object
    verification: object
    amplitudes: dict
    abs_tol: float
    rel_tol: float


AMPLITUDES = ("constant_one", "gaussian")  # the ones halfline-lambda calls with


def load() -> Program:
    if not (SRC / "oscphase" / "__init__.py").is_file():
        raise MissingProgram(f"no oscphase package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import oscphase
    import oscphase.cli
    import oscphase.oscillatory
    import oscphase.verification

    if Path(oscphase.__file__).resolve().parent != SRC / "oscphase":
        raise MissingProgram(f"oscphase was imported from {oscphase.__file__}, not {SRC}")
    cfg = oscphase.oscillatory.QuadratureConfig()
    return Program(
        oscillatory=oscphase.oscillatory,
        cli=oscphase.cli,
        verification=oscphase.verification,
        amplitudes={n: oscphase.amplitudes.builtin(n) for n in AMPLITUDES},
        abs_tol=cfg.abs_tol,
        rel_tol=cfg.rel_tol,
    )


@dataclass
class Outcome:
    """What one call returned. value/est_error are None where the path does
    not report them; rows counts PASS and total rows of a suite."""

    ok: bool
    value: complex | None = None
    est_error: float | None = None
    rows: tuple = (0, 0)
    text: str = ""  # output that must repeat exactly from pass to pass


def _cli_call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _call(case, prog: Program):
    """(root span name, function, arguments) of one case."""
    if case.kind == "halfline":
        p, q, sign, lam, amp = case.args
        return ("oscillatory.os_integral_halfline", prog.oscillatory.os_integral_halfline,
                (p, q, sign, lam, prog.amplitudes[amp]))
    if case.kind == "cli":
        return "cli.main", _cli_call, (prog.cli.main, case.args)
    return "verification.run_suites", prog.verification.run_suites, ([case.args[0]],)


def execute(case, prog: Program, tracer=None) -> Outcome:
    """Run one case; the call is a root span when a tracer is given."""
    name, fn, args = _call(case, prog)
    if tracer is not None:
        tracer.case = case.id
    try:
        out = tracer.call(name, fn, *args) if tracer is not None else fn(*args)
    except Exception as exc:  # a failed case is counted, never fatal
        return Outcome(False, text=f"{type(exc).__name__}: {exc}")
    if case.kind == "halfline":
        return Outcome(True, out.value, out.est_error, text=repr((out.value, out.est_error, out.nodes_used)))
    if case.kind == "cli":
        code, text, err = out
        if code != 0:
            return Outcome(False, text=f"exit {code}: {err.strip()}")
        rec = json.loads(text)
        val = rec.get("value", rec)
        return Outcome(True, complex(val["re"], val["im"]), rec.get("est_error"), text=text)
    (res,) = out
    verdicts = [line[:4] for line in res.lines]  # the rows also carry run times
    return Outcome(True, rows=(verdicts.count("PASS"), len(verdicts)), text=" ".join(verdicts))


@dataclass
class Verdict:
    tol_met: int  # results within the promised tolerance (PASS rows for suites)
    tol_base: int  # results judged (rows for suites)
    honest: int  # reported est_error >= true error
    honest_base: int  # results that report an est_error
    wrong: bool  # off by more than WRONG_FACTOR x tolerance, or a FAIL row


def tolerance(case, prog: Program) -> float:
    ref = abs(case.ref)
    if case.path == "split":
        return max(prog.abs_tol, prog.rel_tol * ref)
    if case.path == "eps":
        return EPS_TOL
    if case.path == "contour":
        return CONTOUR_TOL
    return CLOSED_REL_TOL * ref


def judge(case, out: Outcome, prog: Program) -> Verdict:
    if not out.ok:
        return Verdict(0, 1, 0, 0, False)
    if case.kind == "suite":
        passed, total = out.rows
        return Verdict(passed, total, 0, 0, passed < total)
    err = abs(out.value - case.ref)
    tol = tolerance(case, prog)
    has_est = out.est_error is not None
    return Verdict(
        tol_met=int(err <= tol),
        tol_base=1,
        honest=int(has_est and out.est_error >= err),
        honest_base=int(has_est),
        wrong=not err <= WRONG_FACTOR * tol,
    )


def run_pass(cases, prog: Program, tracer=None):
    """All cases once, in order: (wall seconds of the pass, per-case latencies, outcomes)."""
    lat, outs = [], []
    clock = time.perf_counter
    t0 = clock()
    for case in cases:
        t = clock()
        outs.append(execute(case, prog, tracer))
        lat.append(clock() - t)
    return clock() - t0, lat, outs
