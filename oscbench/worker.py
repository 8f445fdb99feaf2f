"""Child process of the benchmark: one workload, one fresh interpreter.

    python3 oscbench/worker.py measure WORKLOAD SEED SECONDS TRACE OUT_DIR
    python3 oscbench/worker.py setup WORKLOAD SEED

``measure`` runs a warm-up pass, then timed passes of the whole case list
until SECONDS have passed (and at least enough passes for the latency
percentiles). With TRACE 0 it starts, between passes, the set-up children.
With TRACE 1 it alternates untraced and traced passes and writes the spans
of the first traced pass under OUT_DIR. The last stdout line is a JSON
summary for run.py.

``setup`` imports numpy, then times ``import oscphase`` plus the workload's
first case, and prints the seconds.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (before any clock starts; see setup())

import runner
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent

SETUP_CHILDREN = 11
MIN_LATENCY_SAMPLES = 100  # p90 needs at least ten samples beyond it
SETUP_TIMEOUT_S = 60


def setup(workload: str, seed: int) -> dict:
    # numpy is already imported: it is not this package's code, and it is the
    # noisiest part of a cold start (see NOTES.md)
    first = workloads.build(workload, seed)[0]
    t0 = time.perf_counter()
    prog = runner.load()
    out = runner.execute(first, prog)
    return {"setup_s": time.perf_counter() - t0, "ok": out.ok}


def _setup_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "setup", workload, str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not rec["ok"]:
        raise RuntimeError(f"first case of {workload} failed in the set-up child")
    return rec["setup_s"]


class Tally:
    """Correctness over every executed call."""

    def __init__(self, cases, prog):
        self.cases, self.prog = cases, prog
        self.first_text = None
        self.attempted = self.failed = 0
        self.tol_met = self.tol_base = self.honest = self.honest_base = 0
        self.wrong: list[str] = []
        self.unstable: list[int] = []

    def add(self, outs) -> None:
        texts = [o.text for o in outs]
        if self.first_text is None:
            self.first_text = texts
        for case, out, first in zip(self.cases, outs, self.first_text):
            v = runner.judge(case, out, self.prog)
            self.attempted += 1
            self.failed += not out.ok
            self.tol_met += v.tol_met
            self.tol_base += v.tol_base
            self.honest += v.honest
            self.honest_base += v.honest_base
            if v.wrong and len(self.wrong) < 20:
                self.wrong.append(f"case {case.id} {case.args}: {out.text[:200]}")
            if out.text != first and case.id not in self.unstable:
                self.unstable.append(case.id)


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    cases = workloads.build(workload, seed)
    prog = runner.load()
    tally = Tally(cases, prog)
    tracer = tracing.Tracer()

    _, _, outs = runner.run_pass(cases, prog)  # warm-up: caches fill, lazy set-up ends
    tally.add(outs)

    min_passes = 1 if trace else math.ceil(MIN_LATENCY_SAMPLES / len(cases))
    plain, traced, latencies, setups = [], [], [], []
    layer_passes, first_spans = [], None
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if not trace:
            due = min(SETUP_CHILDREN, 1 + int(SETUP_CHILDREN * elapsed / seconds))
            while len(setups) < due:
                setups.append(_setup_child(workload, seed))
        if elapsed >= seconds and len(plain) >= min_passes and (not trace or traced):
            break
        if trace and len(traced) < len(plain):
            with tracer:
                wall, _, outs = runner.run_pass(cases, prog, tracer)
            spans = tracer.take()
            layer_passes.append(tracing.layer_metrics(spans, tracer.wrapped))
            if first_spans is None:
                first_spans = spans
            traced.append(wall)
        else:
            wall, lat, outs = runner.run_pass(cases, prog)
            plain.append(wall)
            latencies.extend(lat)
        tally.add(outs)
    while not trace and len(setups) < SETUP_CHILDREN:
        setups.append(_setup_child(workload, seed))

    result = {
        "workload": workload,
        "seed": seed,
        "cases_per_pass": len(cases),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "tol_met": tally.tol_met,
        "tol_base": tally.tol_base,
        "honest": tally.honest,
        "honest_base": tally.honest_base,
        "wrong": tally.wrong,
        "unstable": tally.unstable,
        "pass_s": plain,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        span_file = out_dir / f"trace_{workload}_seed{seed}.jsonl.gz"
        tracing.Tracer.write(first_spans, span_file)
        result.update(
            traced_pass_s=traced,
            # counts repeat exactly from pass to pass; self times are medians
            layers={k: (statistics.median(p[k] for p in layer_passes)
                        if tracing.LAYER_METRICS[k][0] == "s" else layer_passes[0][k])
                    for k in layer_passes[0]},
            absent=tracing.absent_metrics(tracer.wrapped),
            span_file=str(span_file.relative_to(runner.ROOT)),
            spans=len(first_spans),
        )
    else:
        result.update(latency_s=latencies, setup_s=setups)
    return result


def main(argv) -> int:
    if argv[0] == "setup":
        print(json.dumps(setup(argv[1], int(argv[2]))))
        return 0
    _, workload, seed, seconds, trace, out_dir = argv
    print(json.dumps(measure(workload, int(seed), float(seconds), trace == "1", Path(out_dir))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
