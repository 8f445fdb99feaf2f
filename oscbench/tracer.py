"""Outside-in span tracer for oscphase.

It changes no file of the package. ``install`` replaces, for as long as the
tracer is active:

* every function one oscphase module imports from another, at the importing
  module's binding (``oscillatory.adaptive``, ``cli.os_integral_halfline``,
  ...). The span is named after the defining module, so a call through any
  binding of ``quadrature.adaptive`` is a ``quadrature.adaptive`` span. Calls
  a module makes to its own functions stay unwrapped;
* the public methods of ``Amplitude``, ``CutoffSpec`` and ``RegularizerSpec``.

A span records name, start, end, parent and case id, plus a small count
taken from the call's arguments or result (nodes, points, cache misses). The
spans are kept in memory; ``write`` puts them in a gzipped file at the end.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
A metric whose spans name a binding that no longer exists is reported in
``absent`` with value 0 instead of failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from dataclasses import dataclass

import numpy as np

MODULES = (
    "cgamma", "fresnel", "amplitudes", "jets", "ibp", "quadrature",
    "oscillatory", "expand", "verification", "cli",
)
CLASS_METHODS = {
    "amplitudes.Amplitude": ("deriv_stack", "deriv", "deriv_bound", "seminorm_bound"),
    "amplitudes.CutoffSpec": ("phi", "phi_deriv", "phi_stack", "psi_stack", "psi_deriv_sup"),
    "amplitudes.RegularizerSpec": ("chi", "chi_deriv", "scaled_stack", "uniform_bound"),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a case root
    case: int
    info: object = None


def _arg(args, kwargs, i, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[i] if len(args) > i else default


def _points(i, key="x"):
    return lambda args, kwargs, out, before: int(np.size(_arg(args, kwargs, i, key)))


def _nodes(args, kwargs, out, before):
    return int(out.nodes_used)


def _report(cfg_index):
    def probe(args, kwargs, out, before):
        cfg = _arg(args, kwargs, cfg_index, "cfg")
        budget = cfg.max_nodes if cfg is not None else before
        return (int(out.nodes_used), int(out.nodes_used) > budget)
    return probe


def _default_max_nodes():
    return importlib.import_module("oscphase.oscillatory").QuadratureConfig().max_nodes


def _table_size():
    return len(importlib.import_module("oscphase.ibp")._TABLE_CACHE)


def _table_grew(args, kwargs, out, before):
    return _table_size() > before


# span name -> (probe run before the call or None, probe on the result)
PROBES = {
    "quadrature.adaptive": (None, _nodes),
    "quadrature.osc_power_integral": (None, _nodes),
    "quadrature.phase_breakpoints": (None, lambda a, k, out, b: int(np.size(out))),
    "Amplitude.deriv_stack": (None, _points(1)),
    "CutoffSpec.phi_stack": (None, _points(1)),
    "RegularizerSpec.scaled_stack": (None, _points(1)),
    "RegularizerSpec.chi": (None, _points(1)),
    "RegularizerSpec.chi_deriv": (None, _points(2)),
    "ibp.transformed_integrand": (None, _points(4)),
    "ibp.ibp_coefficients": (_table_size, _table_grew),
    "oscillatory.os_integral_halfline": (_default_max_nodes, _report(5)),
    "oscillatory.os_integral_fullline": (_default_max_nodes, _report(4)),
    "expand.remainder_slope": (None, lambda a, k, out, b: len(_arg(a, k, 4, "lambda_grid"))),
    # root span of a cold-cli case: the runner's call returns (code, stdout, stderr)
    "cli.main": (None, lambda a, k, out, b: len(out[1].encode())),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.case = -1
        self.wrapped: set[str] = set()  # span names with at least one binding
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        pre, post = PROBES.get(name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.case)
            spans.append(span)
            before = pre() if pre else None
            stack.append(idx)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if post:
                span.info = post(args, kwargs, out, before)
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        """Run one case as a root span named after the public function."""
        return self._wrap(name, fn)(*args)

    # -- installing ------------------------------------------------------

    def install(self) -> "Tracer":
        for short in MODULES:
            mod = importlib.import_module(f"oscphase.{short}")
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", "") or ""
                if (inspect.isfunction(obj) and home.startswith("oscphase.")
                        and home != mod.__name__):
                    name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                    self._replace(mod, attr, obj, self._wrap(name, obj))
                    self.wrapped.add(name)
        for path, methods in CLASS_METHODS.items():
            modname, clsname = path.split(".")
            cls = getattr(importlib.import_module(f"oscphase.{modname}"), clsname, None)
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if inspect.isfunction(fn):
                    name = f"{clsname}.{meth}"
                    self._replace(cls, meth, fn, self._wrap(name, fn))
                    self.wrapped.add(name)
        return self

    def _replace(self, owner, attr, old, new):
        self._saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def take(self) -> list[Span]:
        """Spans recorded so far; the tracer starts a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out

    # -- output ----------------------------------------------------------

    @staticmethod
    def write(spans: list[Span], path) -> None:
        """One JSON list per line: index, name, start, end, parent, case, info."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, s in enumerate(spans):
                fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.case, s.info]) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# ----------------------------------------------------------------------


def _module(name: str) -> str:
    head = name.split(".", 1)[0]
    return "amplitudes" if head in ("Amplitude", "CutoffSpec", "RegularizerSpec") else head


# metric -> (unit, better, span names it reads)
LAYER_METRICS = {
    "quadrature.nodes": ("count", "lower", ("quadrature.adaptive", "quadrature.osc_power_integral")),
    "quadrature.adaptive.calls": ("count", "lower", ("quadrature.adaptive",)),
    "quadrature.self_s": ("s", "lower", ("quadrature.adaptive",)),
    "quadrature.breakpoints.points": ("count", "lower", ("quadrature.phase_breakpoints",)),
    "oscillatory.compact_gl.calls": ("count", "lower", ("quadrature.osc_power_integral",)),
    "oscillatory.compact_filon.calls": ("count", "lower", ("quadrature.osc_power_integral",)),
    "oscillatory.halfline.self_s": ("s", "lower", ("oscillatory.os_integral_halfline",)),
    "amplitudes.cutoff.points": ("count", "lower", ("CutoffSpec.phi_stack",)),
    "amplitudes.cutoff.self_s": ("s", "lower", ("CutoffSpec.phi_stack",)),
    "jets.calls": ("count", "lower", ("jets.jet_mul",)),
    "jets.self_s": ("s", "lower", ("jets.jet_mul",)),
    "amplitudes.deriv_bound.misses": ("count", "lower", ("Amplitude.deriv_bound", "Amplitude.deriv_stack")),
    "amplitudes.deriv_bound.self_s": ("s", "lower", ("Amplitude.deriv_bound",)),
    "amplitudes.deriv_stack.points": ("count", "lower", ("Amplitude.deriv_stack",)),
    "amplitudes.deriv_stack.self_s": ("s", "lower", ("Amplitude.deriv_stack",)),
    "amplitudes.regularizer.points": ("count", "lower", ("RegularizerSpec.scaled_stack",)),
    "amplitudes.regularizer.self_s": ("s", "lower", ("RegularizerSpec.scaled_stack",)),
    "oscillatory.eps.self_s": ("s", "lower", ("oscillatory.epsilon_regularized",)),
    "oscillatory.contour.self_s": ("s", "lower", ("oscillatory.rotated_contour_reference",)),
    "ibp.table.misses": ("count", "lower", ("ibp.ibp_coefficients",)),
    "ibp.integrand.points": ("count", "lower", ("ibp.transformed_integrand",)),
    "ibp.self_s": ("s", "lower", ("ibp.transformed_integrand",)),
    "oscillatory.report_nodes": ("count", "lower", ("oscillatory.os_integral_halfline",)),
    "oscillatory.budget_overruns": ("count", "lower", ("oscillatory.os_integral_halfline",)),
    "expand.lambda_points": ("count", "lower", ("expand.remainder_slope",)),
    "expand.self_s": ("s", "lower", ("expand.remainder_slope",)),
    "verification.self_s": ("s", "lower", ("verification.run_suites",)),
    "cgamma.gamma.calls": ("count", "lower", ("cgamma.gamma",)),
    "cgamma.self_s": ("s", "lower", ("cgamma.gamma",)),
    "fresnel.self_s": ("s", "lower", ("fresnel.generalized_fresnel",)),
    "cli.self_s": ("s", "lower", ("cli.main",)),
    "cli.bytes_out": ("count", "lower", ("cli.main",)),
}
# spans the workloads open themselves, around each case
ROOT_SPANS = ("oscillatory.os_integral_halfline", "cli.main", "verification.run_suites")


def absent_metrics(wrapped: set[str]) -> list[str]:
    have = set(wrapped) | set(ROOT_SPANS)
    return sorted(m for m, (_, _, needs) in LAYER_METRICS.items()
                  if not all(n in have for n in needs))


def layer_metrics(spans: list[Span], wrapped: set[str]) -> dict[str, float]:
    """Counts and self times (s) of one pass, keyed as in LAYER_METRICS."""
    n = len(spans)
    child_time = [0.0] * n
    has_opi_child = [False] * n
    has_stack_child = [False] * n
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
            if s.name == "quadrature.osc_power_integral":
                has_opi_child[s.parent] = True
            elif s.name == "Amplitude.deriv_stack":
                has_stack_child[s.parent] = True

    self_by_module: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    info_sum: dict[str, float] = {}
    gl = filon = overruns = misses = bound_misses = 0
    for i, s in enumerate(spans):
        own = (s.end - s.start) - child_time[i]
        mod = _module(s.name)
        self_by_module[mod] = self_by_module.get(mod, 0.0) + own
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name == "oscillatory.os_integral_halfline":
            gl += has_opi_child[i]
            filon += not has_opi_child[i]
        elif s.name == "Amplitude.deriv_bound":
            bound_misses += has_stack_child[i]
        info = s.info
        if info is None:  # the call raised, or its result carries no count
            continue
        if s.name in ("oscillatory.os_integral_halfline", "oscillatory.os_integral_fullline"):
            info_sum["report_nodes"] = info_sum.get("report_nodes", 0) + info[0]
            overruns += bool(info[1])
        elif s.name == "ibp.ibp_coefficients":
            misses += bool(info)
        elif s.name == "Amplitude.deriv_stack":
            if s.parent < 0 or spans[s.parent].name != "Amplitude.deriv_stack":
                info_sum[s.name] = info_sum.get(s.name, 0) + info
        elif isinstance(info, (int, float)) and not isinstance(info, bool):
            info_sum[s.name] = info_sum.get(s.name, 0) + info

    def total(*names):
        return sum(info_sum.get(k, 0) for k in names)

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    out = {
        "quadrature.nodes": total("quadrature.adaptive", "quadrature.osc_power_integral"),
        "quadrature.adaptive.calls": calls.get("quadrature.adaptive", 0),
        "quadrature.self_s": self_by_module.get("quadrature", 0.0),
        "quadrature.breakpoints.points": total("quadrature.phase_breakpoints"),
        "oscillatory.compact_gl.calls": gl,
        "oscillatory.compact_filon.calls": filon,
        "oscillatory.halfline.self_s": self_by_name.get("oscillatory.os_integral_halfline", 0.0),
        "amplitudes.cutoff.points": total("CutoffSpec.phi_stack"),
        "amplitudes.cutoff.self_s": prefixed(self_by_name, "CutoffSpec."),
        "jets.calls": prefixed(calls, "jets."),
        "jets.self_s": self_by_module.get("jets", 0.0),
        "amplitudes.deriv_bound.misses": bound_misses,
        "amplitudes.deriv_bound.self_s": self_by_name.get("Amplitude.deriv_bound", 0.0),
        "amplitudes.deriv_stack.points": total("Amplitude.deriv_stack"),
        "amplitudes.deriv_stack.self_s": self_by_name.get("Amplitude.deriv_stack", 0.0),
        "amplitudes.regularizer.points": total(
            "RegularizerSpec.scaled_stack", "RegularizerSpec.chi", "RegularizerSpec.chi_deriv"),
        "amplitudes.regularizer.self_s": prefixed(self_by_name, "RegularizerSpec."),
        "oscillatory.eps.self_s": self_by_name.get("oscillatory.epsilon_regularized", 0.0),
        "oscillatory.contour.self_s": self_by_name.get("oscillatory.rotated_contour_reference", 0.0),
        "ibp.table.misses": misses,
        "ibp.integrand.points": total("ibp.transformed_integrand"),
        "ibp.self_s": self_by_module.get("ibp", 0.0),
        "oscillatory.report_nodes": info_sum.get("report_nodes", 0),
        "oscillatory.budget_overruns": overruns,
        "expand.lambda_points": total("expand.remainder_slope"),
        "expand.self_s": self_by_module.get("expand", 0.0),
        "verification.self_s": self_by_module.get("verification", 0.0),
        "cgamma.gamma.calls": calls.get("cgamma.gamma", 0),
        "cgamma.self_s": self_by_module.get("cgamma", 0.0),
        "fresnel.self_s": self_by_module.get("fresnel", 0.0),
        "cli.self_s": self_by_module.get("cli", 0.0),
        "cli.bytes_out": total("cli.main"),
    }
    for name in absent_metrics(wrapped):
        out[name] = 0
    return out
