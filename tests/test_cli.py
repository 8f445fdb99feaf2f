"""CLI behaviour: outputs, determinism, exit codes."""

import cmath
import json
import math

import pytest

from oscphase.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fresnel_json(capsys):
    code, out = run(capsys, "fresnel", "--p", "2", "--q", "1", "--sign", "+")
    assert code == 0
    rec = json.loads(out)
    expect = math.sqrt(math.pi) / 2.0 * cmath.exp(1j * math.pi / 4.0)
    assert rec["re"] == pytest.approx(expect.real, rel=1e-14)
    assert rec["im"] == pytest.approx(expect.imag, rel=1e-14)


def test_fresnel_pole_report(capsys):
    code, out = run(capsys, "fresnel", "--p", "1", "--q", "-1", "--continued")
    assert code == 0
    rec = json.loads(out)
    assert rec["pole"] is True and rec["order"] == 1
    assert rec["location"]["re"] == pytest.approx(-1.0)


def test_byte_identical_reruns(capsys):
    _, out1 = run(capsys, "oscint", "--halfline", "--p", "2", "--q", "1", "--lambda", "1")
    _, out2 = run(capsys, "oscint", "--halfline", "--p", "2", "--q", "1", "--lambda", "1")
    assert out1 == out2


def test_oscint_halfline(capsys):
    code, out = run(capsys, "oscint", "--halfline", "--p", "2", "--q", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"]["re"] == pytest.approx(0.626657068657750, abs=1e-8)
    assert rec["est_error"] < 1e-8
    assert rec["tail_cut"] >= 2.0


def test_oscint_eps_and_contour(capsys):
    code, out = run(capsys, "oscint", "--method", "eps", "--p", "2", "--q", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["re"] == pytest.approx(0.626657068657750, abs=1e-4)
    code, out = run(capsys, "oscint", "--method", "contour", "--p", "2", "--q", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["im"] == pytest.approx(0.626657068657750, abs=1e-9)


def test_expand_output(capsys):
    code, out = run(
        capsys, "expand", "--fullline", "--m", "2", "--amplitude", "gaussian",
        "--N", "5", "--sign", "+",
    )
    assert code == 0
    rec = json.loads(out)
    first = rec["terms"][0]["coeff"]
    expect = math.sqrt(math.pi) * cmath.exp(1j * math.pi / 4.0)
    assert first["re"] == pytest.approx(expect.real, rel=1e-13)
    assert first["im"] == pytest.approx(expect.imag, rel=1e-13)
    assert rec["terms"][1]["coeff"]["re"] == 0.0


def test_sweep_jsonl_order(capsys):
    code, out = run(
        capsys, "sweep", "--over", "lambda", "--from", "1", "--to", "100",
        "--points", "3", "--log", "--p", "2", "--q", "1",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    assert [r["lambda"] for r in lines] == sorted(r["lambda"] for r in lines)
    assert lines[0]["lambda"] == pytest.approx(1.0)
    assert lines[2]["lambda"] == pytest.approx(100.0)


def test_sweep_csv_header(capsys):
    code, out = run(
        capsys, "sweep", "--over", "q", "--from", "0.5", "--to", "1.5",
        "--points", "2", "--p", "2",
    )
    assert code == 0


def test_sweep_csv_format(capsys):
    code, out = run(
        capsys, "sweep", "--over", "q", "--from", "0.5", "--to", "1.5",
        "--points", "2", "--p", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("q,value.re,value.im,")
    assert len(lines) == 3


def test_verify_beta_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "beta", "--format", "human")
    assert code == 0
    assert "[PASS] beta-identity" in out


def test_verify_reports_elapsed_per_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "beta,continuation")
    assert code == 0
    suites = json.loads(out)["suites"]
    assert [s["name"] for s in suites] == ["beta-identity", "continuation"]
    assert all(s["elapsed_s"] > 0 for s in suites)


def test_verify_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "--suite", "nonsense")
    assert code == 3


def test_usage_error_exit_code(capsys):
    assert main(["fresnel", "--q", "1"]) == 2  # missing --p
    # --ibp-depth and --tail-tol are not options
    for flag, value in (("--ibp-depth", "3"), ("--tail-tol", "1e-12")):
        assert main(["oscint", "--halfline", "--p", "2", flag, value]) == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err
    capsys.readouterr()


def test_reused_parser_keeps_output(capsys):
    # the parser is built once per process; a call must not leave state behind
    outs = []
    for argv in (["fresnel", "--q", "1"], ["oscint", "--halfline", "--p", "2", "--q", "0.5"],
                 ["fresnel", "--q", "1"], ["oscint", "--halfline", "--p", "2", "--q", "0.5"]):
        code = main(argv)
        outs.append((code, *capsys.readouterr()))
    assert outs[0] == outs[2] and outs[1] == outs[3]
    assert outs[0][0] == 2 and outs[0][2].startswith("usage: oscphase fresnel")
    assert outs[1][0] == 0


def test_domain_error_exit_code(capsys):
    code, _ = run(capsys, "fresnel", "--p", "-2", "--q", "1")
    assert code == 3


def test_budget_error_exit_code(capsys):
    code, _ = run(
        capsys, "oscint", "--halfline", "--p", "2", "--q", "1",
        "--lambda", "300", "--max-nodes", "200",
    )
    assert code == 4


def test_overflow_exit_code(capsys):
    # at p = 0.1 and lambda = 1e-30 the default eps ladder (lambda/Phi)^(1/p)
    # is below double range; the call must end in a one-line error, not a
    # traceback
    code = main(["oscint", "--method", "eps", "--p", "0.1", "--q", "0.5", "--lambda", "1e-30"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eps_small_power_exit_code(capsys):
    # the default eps ladder follows p and lambda, so p = 0.3 at lambda = 0.01
    # reaches the closed form instead of failing to stabilize
    code, out = run(capsys, "oscint", "--method", "eps", "--p", "0.3", "--q", "0.25",
                    "--lambda", "0.01")
    assert code == 0
    rec = json.loads(out)
    expect = cmath.exp(1j * math.pi * 0.25 / 0.6) * math.gamma(0.25 / 0.3) / 0.3 * 0.01 ** (-0.25 / 0.3)
    assert abs(complex(rec["re"], rec["im"]) - expect) <= 1e-4 * abs(expect)


@pytest.mark.parametrize("argv", [
    "oscint --halfline --p 2 --abs-tol nan",
    "oscint --halfline --p 2 --abs-tol -1",
    "oscint --halfline --p 2 --rel-tol inf",
    "oscint --halfline --p 2 --rel-tol nan",
    "oscint --halfline --p 2 --max-nodes 0",
    "oscint --fullline --m 2 --abs-tol inf",
    "oscint --method eps --p 2 --rel-tol -0.001",
    "sweep --from 1 --to 2 --points 2 --halfline --p 2 --abs-tol nan",
])
def test_bad_tolerance_exit_code(capsys, argv):
    # a tolerance must be finite and non-negative and the node budget at
    # least 1; a NaN tolerance never stops refinement
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "oscint --halfline --p 2 --lambda -1e-3",
    "oscint --halfline --p 2 --lambda=-1e-3",
    "oscint --halfline --p 2 --abs-tol -1e-3",
    "oscint --halfline --p 2 --abs-tol=-1e-3",
    "oscint --halfline --p 2 --q -2.5E+1",
    "sweep --from 1 --to 2 --points 2 --halfline --p 2 --rel-tol -1e-3",
])
def test_negative_exponent_is_a_domain_error(capsys, argv):
    # a negative number with an exponent is a value, not an unknown option
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_tail_abscissa_overflow_exit_code(capsys):
    # at p = 0.1 and q = 0.5, wherever the remainder bound certifies, some
    # boundary term multiplies a power of X beyond double range by a Gaussian
    # derivative that underflows to 0; the NaN makes X double out of range
    code = main(["oscint", "--halfline", "--p", "0.1", "--q", "0.5", "--lambda", "0.01",
                 "--amplitude", "polynomial(1,0,1)*gaussian"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == "" and err == "error: tail abscissa overflowed double precision\n"


def test_split_abscissa_overflow_exit_code(capsys):
    # at p = 0.1 and lambda = 1e-30 the split abscissa (40/(lambda p))^(1/p)
    # is beyond double range
    code = main(["oscint", "--halfline", "--p", "0.1", "--q", "0.5", "--lambda", "1e-30"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "error: split abscissa overflowed double precision\n"


def test_corner_underflow_exit_code(capsys):
    # at p = 40, q = 0.5 with a non-constant amplitude the Filon corner
    # t_min = (budget e / A_1)^(1/e), e = q/p + 1/p, is below 1e-280
    code = main(["oscint", "--halfline", "--p", "40", "--q", "0.5", "--amplitude", "gaussian"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "error: corner exponent too small for the Filon path\n"


@pytest.mark.parametrize("radius", ["nan", "inf", "-1", "0"])
def test_bad_cutoff_radius_exit_code(capsys, radius):
    code = main(["oscint", "--halfline", "--p", "2", "--q", "1", "--cutoff-radius", radius])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: cutoff radius must be finite and positive")


@pytest.mark.parametrize("argv", [
    "oscint --halfline --p 2 --q nan",
    "oscint --halfline --p 2 --lambda nan",
    "oscint --halfline --p nan",
    "oscint --halfline --p inf",
    "oscint --halfline --p 2 --lambda inf",
    "oscint --method eps --p nan",
    "oscint --method contour --p nan",
    "oscint --method contour --p 2 --q inf",
    "oscint --fullline --m 2 --lambda nan",
    "expand --halfline --p nan --N 4",
    "expand --fullline --m 2 --N 4 --lambda nan",
    "fresnel --p 2 --q nan --continued",
])
def test_non_finite_input_exit_code(capsys, argv):
    # a NaN or infinite p, q or lambda is a domain error, not a traceback,
    # a budget error or a NaN answer
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_unknown_amplitude_exit_code(capsys):
    code, _ = run(capsys, "oscint", "--halfline", "--p", "2", "--amplitude", "bogus")
    assert code == 3


def test_human_format(capsys):
    code, out = run(capsys, "fresnel", "--p", "2", "--q", "1", "--format", "human")
    assert code == 0
    assert out.startswith("re = ")
