#!/usr/bin/env python3
"""oscphase benchmark: one workload per call, in a fresh single-threaded child.

    python3 oscbench/run.py --workload halfline-lambda --seed 1 --seconds 32 --trace 0

Workloads: halfline-lambda, cold-cli, verify-all (see NOTES.md). With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. Every metric line shows its unit and sample count;
the last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.

Run from the root of a checkout; oscphase is imported from its src/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BUILDERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
DEADLINE_S = 175.0  # the whole run, set-up children included

# one process at a time, each single-threaded: no BLAS or OpenMP pools
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _fail(msg: str) -> int:
    print(f"oscbench: {msg}", file=sys.stderr)
    return 2


def _end_to_end(res: dict) -> list[tuple]:
    """(name, value, unit, samples, note) for every end-to-end metric."""
    lat = sorted(res["latency_s"])
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    beyond = sum(x > p90 for x in lat)
    if beyond < 10:
        raise RuntimeError(f"only {beyond} latency samples beyond p90")
    hb = res["honest_base"]
    return [
        ("setup_s", statistics.median(res["setup_s"]), "s", len(res["setup_s"]),
         "import oscphase + first case, fresh child, numpy pre-imported"),
        ("cases_per_s", res["cases_per_pass"] / statistics.median(res["pass_s"]), "1/s",
         len(res["pass_s"]), f"{res['cases_per_pass']} cases / median pass time"),
        ("latency_p50_ms", 1e3 * statistics.median(lat), "ms", len(lat), "per case"),
        ("latency_p90_ms", 1e3 * p90, "ms", len(lat), f"{beyond} samples beyond"),
        ("tol_met_frac", res["tol_met"] / res["tol_base"], "frac", res["tol_base"],
         "results within the promised tolerance" if res["workload"] != "verify-all"
         else "PASS rows"),
        ("honest_frac", res["honest"] / hb if hb else 1.0, "frac", hb,
         f"est_error >= true error; base {hb} results reporting est_error"),
        ("ok_frac", 1.0 - res["failed"] / res["attempted"], "frac", res["attempted"],
         "calls without exception or nonzero exit"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", 1, "ru_maxrss of the workload child"),
    ]


def _per_layer(res: dict) -> list[tuple]:
    from tracer import LAYER_METRICS  # imports numpy, which --trace 0 never needs here

    n_traced = len(res["traced_pass_s"])
    rows = []
    for name, (unit, _, _) in LAYER_METRICS.items():
        samples = n_traced if unit == "s" else 1
        note = "absent" if name in res["absent"] else ("median per pass" if unit == "s" else "per pass")
        rows.append((name, res["layers"][name], unit, samples, note))
    overhead = statistics.median(res["traced_pass_s"]) / statistics.median(res["pass_s"]) - 1.0
    rows.append(("trace.overhead_frac", overhead, "frac", n_traced + len(res["pass_s"]),
                 "traced / untraced median pass time - 1"))
    rows.append(("trace.absent_metrics", len(res["absent"]), "count", 1,
                 ", ".join(res["absent"]) or "none"))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=tuple(BUILDERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "oscphase" / "__init__.py").is_file():
        return _fail(f"no oscphase source under {ROOT / 'src'}; run from a checkout")

    t0 = time.perf_counter()
    env = {**os.environ, **CHILD_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"), "measure", args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(OUT_DIR)]
    # own process group, so a timeout also ends a set-up child the worker started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return _fail(f"{args.workload} did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        return _fail(f"{args.workload} worker exited with code {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])

    rows = _per_layer(res) if args.trace else _end_to_end(res)
    passes = sorted(res["pass_s"])
    print(f"# oscbench {args.workload} seed={args.seed} trace={args.trace} "
          f"cases/pass={res['cases_per_pass']} wall={time.perf_counter() - t0:.1f}s "
          f"untraced passes={len(passes)} (min {passes[0]:.3f} s, median "
          f"{statistics.median(passes):.3f} s, max {passes[-1]:.3f} s)")
    for name, value, unit, samples, note in rows:
        print(f"#   {name:32s} {value:>14.6g} {unit:6s} n={samples:<6d} {note}")
    if args.trace:
        print(f"#   spans of the first traced pass: {res['span_file']} ({res['spans']} spans)")
    for line in res["wrong"]:
        print(f"# WRONG {line}")
    if res["unstable"]:
        print(f"# UNSTABLE output differs between passes for cases {res['unstable'][:20]}")
    correct = not res["wrong"] and not res["unstable"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
