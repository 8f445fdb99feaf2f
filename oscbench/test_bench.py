"""Self-tests of the benchmark: the oracle, the tracer, and the empty-tree exit.

    python3 -m pytest -q oscbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import oracle
import runner
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# oracle against mpmath quadrature
# ----------------------------------------------------------------------


def _close(z, w, rel=1e-12):
    assert abs(complex(z) - complex(w)) <= rel * abs(complex(w))


@pytest.mark.parametrize("p, q, lam", [(2.0, 1.0, 1.0), (3.0, 1.5, 2.5), (1.5, 0.7, 7.0), (0.7, 0.3, 2.0)])
def test_halfline_constant_matches_mpmath(p, q, lam):
    # t = x^p turns it into (1/p) int_0^inf e^(i lam t) t^(q/p - 1) dt, which
    # converges (conditionally) for q < p; tanh-sinh takes the singular end
    # [0, 1], quadosc the oscillating tail
    s = mp.mpf(q) / p
    with mp.workdps(30):
        head = mp.quad(lambda t: mp.expj(lam * t) * t ** (s - 1), [0, 1])
        re = mp.quadosc(lambda t: mp.cos(lam * t) * t ** (s - 1), [1, mp.inf], omega=lam)
        im = mp.quadosc(lambda t: mp.sin(lam * t) * t ** (s - 1), [1, mp.inf], omega=lam)
        ref = (head + mp.mpc(re, im)) / p
    _close(oracle.halfline_constant(p, q, lam, +1), ref)
    _close(oracle.halfline_constant(p, q, lam, -1), mp.conj(ref))


@pytest.mark.parametrize("q, lam", [(0.5, 1.0), (1.3, 3.0), (2.5, 0.5)])
def test_halfline_gauss_p2_matches_mpmath(q, lam):
    with mp.workdps(30):
        ref = mp.quad(lambda x: mp.expj(lam * x * x) * x ** (q - 1) * mp.exp(-x * x),
                      [0, 1, 2, 4, 8, mp.inf])
    _close(oracle.halfline_gauss_p2(q, lam, +1), ref)
    _close(oracle.halfline(2.0, q, lam, -1, "gaussian"), mp.conj(ref))


@pytest.mark.parametrize("amplitude", ["gaussian", "polynomial(1,0,1)*gaussian"])
@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_fullline_m2_matches_mpmath(amplitude, lam):
    c = oracle.GAUSS_POLY[amplitude]
    with mp.workdps(30):
        ref = mp.quad(lambda x: mp.expj(lam * x * x) * (1 + c * x * x) * mp.exp(-x * x),
                      [-mp.inf, -4, -2, 0, 2, 4, mp.inf])
    _close(oracle.fullline(2, lam, +1, amplitude), ref)
    _close(oracle.fullline(2, lam, -1, amplitude), mp.conj(ref))


@pytest.mark.parametrize("lam", [1.0, 5.0])
def test_fullline_m1_gauss_matches_mpmath(lam):
    with mp.workdps(30):
        ref = mp.quad(lambda x: mp.expj(lam * x) * mp.exp(-x * x), [-mp.inf, -4, 0, 4, mp.inf])
    _close(oracle.fullline(1, lam, +1, "gaussian"), ref)


def test_oracle_does_not_import_oscphase():
    src = (HERE / "oracle.py").read_text()
    assert "oscphase" not in src.split('"""', 2)[2]


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------


def _small_cases():
    """Cheap cases of every kind, seed 1."""
    half = [c for c in workloads.build("halfline-lambda", 1) if c.args[3] < 12.0]
    cli = workloads.build("cold-cli", 1)[::6]
    suites = [c for c in workloads.build("verify-all", 1) if c.args[0] in ("beta", "stationary")]
    return half + cli + suites


@pytest.fixture(scope="module")
def prog():
    return runner.load()


def _traced_pass(cases, prog, tracer):
    runner.run_pass(cases, prog)  # warm-up, as the worker does
    with tracer:
        _, _, outs = runner.run_pass(cases, prog, tracer)
    return outs, tracing.layer_metrics(tracer.take(), tracer.wrapped)


def test_traced_and_untraced_values_are_bit_identical(prog):
    cases = _small_cases()
    _, _, plain = runner.run_pass(cases, prog)
    outs, _ = _traced_pass(cases, prog, tracing.Tracer())
    assert [o.text for o in outs] == [o.text for o in plain]
    assert all(o.ok for o in outs)
    assert all(runner.judge(c, o, prog).tol_base for c, o in zip(cases, outs))


def test_tracer_restores_every_binding(prog):
    import oscphase.amplitudes
    import oscphase.oscillatory

    before = (oscphase.oscillatory.adaptive, vars(oscphase.amplitudes.Amplitude)["deriv_stack"])
    with tracing.Tracer() as t:
        assert oscphase.oscillatory.adaptive is not before[0]
        assert "quadrature.adaptive" in t.wrapped
    after = (oscphase.oscillatory.adaptive, vars(oscphase.amplitudes.Amplitude)["deriv_stack"])
    assert after == before


def test_two_traced_runs_give_identical_counts(prog):
    cases = _small_cases()
    _, first = _traced_pass(cases, prog, tracing.Tracer())
    _, second = _traced_pass(cases, prog, tracing.Tracer())
    counts = [k for k, (unit, _, _) in tracing.LAYER_METRICS.items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for key in ("quadrature.nodes", "quadrature.adaptive.calls", "amplitudes.deriv_bound.misses",
                "oscillatory.report_nodes", "amplitudes.cutoff.points", "cli.bytes_out"):
        assert first[key] > 0, key


def test_deleted_binding_is_reported_absent(prog, monkeypatch):
    import oscphase.verification

    # as if a refactor stopped importing remainder_slope into verification
    monkeypatch.delattr(oscphase.verification, "remainder_slope")
    cases = [c for c in workloads.build("halfline-lambda", 1) if c.args[3] < 2.0]
    t = tracing.Tracer()
    outs, layers = _traced_pass(cases, prog, t)
    assert all(o.ok for o in outs)
    absent = tracing.absent_metrics(t.wrapped)
    assert {"expand.lambda_points", "expand.self_s"} <= set(absent)
    assert layers["expand.lambda_points"] == 0
    assert "quadrature.nodes" not in absent


# ----------------------------------------------------------------------
# the benchmark command itself
# ----------------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cold-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
