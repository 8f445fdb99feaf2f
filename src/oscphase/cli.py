"""Command-line front end: evaluation, expansion, verification, sweeps.

Output is deterministic: fixed field order and floats printed with 17
significant digits, so identical invocations produce byte-identical bytes.
Exit codes: 0 ok, 1 verification failure, 2 usage, 3 domain/class errors,
4 convergence/budget errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .amplitudes import builtin, default_regularizer, rational_regularizer
from .errors import (
    BudgetError,
    ClassError,
    ConvergenceError,
    DomainError,
    NoiseFloorError,
    OrderError,
    PoleError,
    UnknownAmplitude,
)
from .expand import evaluate_expansion, expand_fullline, expand_halfline, stationary_phase_quadratic
from .fresnel import (
    FresnelValue,
    generalized_fresnel,
    generalized_fresnel_continued,
)
from .oscillatory import (
    QuadratureConfig,
    epsilon_regularized,
    os_integral_fullline,
    os_integral_halfline,
    rotated_contour_reference,
)
from .verification import SUITES, run_suites

_USAGE_EXIT = 2
_DOMAIN_EXIT = 3
_CONVERGENCE_EXIT = 4


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return '"' + str(x).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_json(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ", ".join(f'"{k}": {_to_json(v)}' for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if obj is None:
        return "null"
    return _fmt(obj)


def _complex_fields(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _flatten(obj, prefix="") -> list:
    rows = []
    for k, v in obj.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            rows.extend(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            rows.append((key, ";".join(_fmt(x).strip('"') for x in v)))
        else:
            rows.append((key, _fmt(v).strip('"')))
    return rows


def _emit(record: dict, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(_to_json(record) + "\n")
    elif fmt == "csv":
        rows = _flatten(record)
        stream.write(",".join(k for k, _ in rows) + "\n")
        stream.write(",".join(v for _, v in rows) + "\n")
    else:
        for k, v in _flatten(record):
            stream.write(f"{k} = {v}\n")


def _sign(token: str) -> int:
    if token in ("+", "+1", "plus"):
        return +1
    if token in ("-", "−", "-1", "minus"):
        return -1
    raise argparse.ArgumentTypeError(f"sign must be '+' or '-', got {token!r}")


def _regularizer(name: str):
    if name == "gaussian":
        return default_regularizer()
    if name == "rational":
        return rational_regularizer()
    raise argparse.ArgumentTypeError(f"regularizer must be gaussian or rational, got {name!r}")


def _config(args) -> QuadratureConfig:
    kw = {}
    if getattr(args, "rel_tol", None) is not None:
        kw["rel_tol"] = args.rel_tol
    if getattr(args, "abs_tol", None) is not None:
        kw["abs_tol"] = args.abs_tol
    if getattr(args, "cutoff_radius", None) is not None:
        kw["cutoff_radius"] = args.cutoff_radius
    if getattr(args, "max_nodes", None) is not None:
        kw["max_nodes"] = args.max_nodes
    return QuadratureConfig(**kw)


def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv", "human"), default="json")


def _add_quad_flags(sub) -> None:
    sub.add_argument("--rel-tol", type=float, dest="rel_tol")
    sub.add_argument("--abs-tol", type=float, dest="abs_tol")
    sub.add_argument("--cutoff-radius", type=float, dest="cutoff_radius")
    sub.add_argument("--max-nodes", type=int, dest="max_nodes")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="oscphase",
        description="Generalized Fresnel integrals and degenerate stationary-phase expansions",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    fr = sub.add_parser("fresnel", help="closed-form generalized Fresnel value")
    fr.add_argument("--p", type=float, required=True)
    fr.add_argument("--q", type=float, required=True)
    fr.add_argument("--sign", type=_sign, default=+1)
    fr.add_argument("--continued", action="store_true",
                    help="use the meromorphic continuation (pole-aware)")
    _add_common(fr)

    oi = sub.add_parser("oscint", help="numerical oscillatory integral")
    grp = oi.add_mutually_exclusive_group()
    grp.add_argument("--halfline", action="store_true")
    grp.add_argument("--fullline", action="store_true")
    oi.add_argument("--p", type=float)
    oi.add_argument("--q", type=float, default=1.0)
    oi.add_argument("--m", type=int)
    oi.add_argument("--sign", type=_sign, default=+1)
    oi.add_argument("--lambda", type=float, dest="lam", default=1.0)
    oi.add_argument("--amplitude", default="constant_one")
    oi.add_argument("--method", choices=("split", "eps", "contour"), default="split",
                    help="split: Filon on [0, X] plus boundary-term recursion from X; eps: regularized limit; contour: rotated-ray reference")
    oi.add_argument("--eps-ladder", dest="eps_ladder",
                    help="comma-separated decreasing epsilons for --method eps "
                         "(default: a ladder set by p and lambda)")
    oi.add_argument("--chi", type=_regularizer, default=None,
                    help="regularizer for --method eps (gaussian|rational)")
    _add_quad_flags(oi)
    _add_common(oi)

    ex = sub.add_parser("expand", help="asymptotic expansion terms")
    grp = ex.add_mutually_exclusive_group(required=True)
    grp.add_argument("--halfline", action="store_true")
    grp.add_argument("--fullline", action="store_true")
    grp.add_argument("--quadratic", action="store_true")
    ex.add_argument("--p", type=float)
    ex.add_argument("--m", type=int)
    ex.add_argument("--sign", type=_sign, default=+1)
    ex.add_argument("--amplitude", default="gaussian")
    ex.add_argument("--N", type=int, required=True)
    ex.add_argument("--lambda", type=float, dest="lam",
                    help="also evaluate the partial sum at this lambda")
    _add_common(ex)

    ve = sub.add_parser("verify", help="run acceptance suites")
    ve.add_argument("--suite", default="all",
                    help="comma-separated suite names or 'all' (choices: %s)" % ", ".join(SUITES))
    _add_common(ve)

    sw = sub.add_parser("sweep", help="evaluate over a lambda or q grid")
    sw.add_argument("--over", choices=("lambda", "q"), default="lambda")
    sw.add_argument("--from", type=float, dest="lo", required=True)
    sw.add_argument("--to", type=float, dest="hi", required=True)
    sw.add_argument("--points", type=int, required=True)
    sw.add_argument("--log", action="store_true", help="logarithmic grid spacing")
    grp = sw.add_mutually_exclusive_group()
    grp.add_argument("--halfline", action="store_true")
    grp.add_argument("--fullline", action="store_true")
    sw.add_argument("--p", type=float)
    sw.add_argument("--q", type=float, default=1.0)
    sw.add_argument("--m", type=int)
    sw.add_argument("--sign", type=_sign, default=+1)
    sw.add_argument("--lambda", type=float, dest="lam", default=1.0)
    sw.add_argument("--amplitude", default="constant_one")
    _add_quad_flags(sw)
    _add_common(sw)

    return ap


def _report_record(rep) -> dict:
    return {
        "value": _complex_fields(rep.value),
        "est_error": rep.est_error,
        "nodes_used": rep.nodes_used,
        "ibp_depth_used": rep.ibp_depth_used,
        "tail_cut": rep.tail_cut,
    }


def _cmd_fresnel(args, stream) -> int:
    if args.continued:
        out = generalized_fresnel_continued(args.p, args.q, args.sign)
        if isinstance(out, FresnelValue):
            rec = {"pole": False, **_complex_fields(out.value)}
        else:
            rec = {
                "pole": True,
                "location": _complex_fields(out.location),
                "order": out.order,
                "residue": _complex_fields(out.residue),
            }
    else:
        rec = _complex_fields(generalized_fresnel(args.p, args.q, args.sign).value)
    _emit(rec, args.format, stream)
    return 0


def _cmd_oscint(args, stream) -> int:
    if args.method == "contour":
        if args.p is None:
            raise DomainError("--method contour needs --p and --q")
        v = rotated_contour_reference(args.p, args.q, args.sign)
        _emit(_complex_fields(v), args.format, stream)
        return 0
    amp = builtin(args.amplitude)
    cfg = _config(args)
    if args.method == "eps":
        if args.p is None:
            raise DomainError("--method eps needs --p (and optionally --q)")
        ladder = tuple(float(t) for t in args.eps_ladder.split(",")) if args.eps_ladder else None
        chi = args.chi or default_regularizer()
        v = epsilon_regularized(args.p, args.q, args.sign, args.lam, amp, chi, ladder, cfg)
        _emit(_complex_fields(v), args.format, stream)
        return 0
    if args.fullline:
        if args.m is None:
            raise DomainError("--fullline needs --m")
        rep = os_integral_fullline(args.m, args.sign, args.lam, amp, cfg)
    else:
        if args.p is None:
            raise DomainError("--halfline needs --p")
        rep = os_integral_halfline(args.p, args.q, args.sign, args.lam, amp, cfg)
    _emit(_report_record(rep), args.format, stream)
    return 0


def _cmd_expand(args, stream) -> int:
    amp = builtin(args.amplitude)
    if args.halfline:
        if args.p is None:
            raise DomainError("--halfline needs --p")
        res = expand_halfline(args.p, args.sign, amp, args.N)
    elif args.fullline:
        if args.m is None:
            raise DomainError("--fullline needs --m")
        res = expand_fullline(args.m, args.sign, amp, args.N)
    else:
        res = stationary_phase_quadratic(args.sign, amp, args.N)
    rec = {
        "variant": res.variant,
        "N": res.N,
        "declared_remainder_exponent": res.declared_remainder_exponent,
        "terms": [
            {"k": k, "coeff": _complex_fields(c), "exponent": e} for k, c, e in res.terms
        ],
    }
    if args.lam is not None:
        rec["partial_sum"] = _complex_fields(evaluate_expansion(res, args.lam))
    _emit(rec, args.format, stream)
    return 0


def _cmd_verify(args, stream) -> int:
    names = list(SUITES) if args.suite == "all" else [s.strip() for s in args.suite.split(",")]
    for name in names:
        if name not in SUITES:
            raise DomainError(f"unknown suite {name!r}; choices: {', '.join(SUITES)}")
    results = run_suites(names)
    ok = all(r.passed for r in results)
    if args.format == "json":
        rec = {
            "passed": ok,
            "suites": [
                {"name": r.name, "passed": r.passed, "elapsed_s": r.elapsed, "checks": list(r.lines)}
                for r in results
            ],
        }
        _emit(rec, "json", stream)
    else:
        for r in results:
            stream.write(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.elapsed:.2f}s)\n")
            for line in r.lines:
                stream.write("    " + line + "\n")
    return 0 if ok else 1


def _sweep_grid(lo: float, hi: float, points: int, log: bool) -> list:
    if points < 1 or hi < lo:
        raise DomainError("sweep grid needs points >= 1 and to >= from")
    if points == 1:
        return [lo]
    if log:
        if lo <= 0:
            raise DomainError("log grid needs positive bounds")
        return [lo * (hi / lo) ** (i / (points - 1)) for i in range(points)]
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


def _cmd_sweep(args, stream) -> int:
    amp = builtin(args.amplitude)
    cfg = _config(args)
    grid = _sweep_grid(args.lo, args.hi, args.points, args.log)

    def one(v: float):
        lam = v if args.over == "lambda" else args.lam
        q = v if args.over == "q" else args.q
        if args.fullline:
            if args.m is None:
                raise DomainError("--fullline needs --m")
            rep = os_integral_fullline(args.m, args.sign, lam, amp, cfg)
        else:
            if args.p is None:
                raise DomainError("sweep needs --p (or --fullline with --m)")
            rep = os_integral_halfline(args.p, q, args.sign, lam, amp, cfg)
        return {args.over: v, **_report_record(rep)}

    records = [one(v) for v in grid]

    if args.format == "csv":
        rows = [_flatten(r) for r in records]
        stream.write(",".join(k for k, _ in rows[0]) + "\n")
        for r in rows:
            stream.write(",".join(v for _, v in r) + "\n")
    else:
        for r in records:  # JSON Lines; human falls back to the same stream form
            if args.format == "json":
                stream.write(_to_json(r) + "\n")
            else:
                _emit(r, "human", stream)
                stream.write("\n")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else _USAGE_EXIT
    stream = sys.stdout
    try:
        if args.cmd == "fresnel":
            return _cmd_fresnel(args, stream)
        if args.cmd == "oscint":
            return _cmd_oscint(args, stream)
        if args.cmd == "expand":
            return _cmd_expand(args, stream)
        if args.cmd == "verify":
            return _cmd_verify(args, stream)
        if args.cmd == "sweep":
            return _cmd_sweep(args, stream)
        return _USAGE_EXIT
    except (DomainError, ClassError, OrderError, PoleError, UnknownAmplitude) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    except (ConvergenceError, BudgetError, NoiseFloorError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CONVERGENCE_EXIT


if __name__ == "__main__":
    sys.exit(main())
