"""Command-line surface: schemas, exit codes, determinism."""

import hashlib
import json
import math
import os
import random
import re
import types
import warnings

import numpy as np
import pytest

import bioassay as ba
from bioassay import birthdeath, cli
from bioassay.cli import CURVE_GALLERY, CsvError, main
from bioassay.fitting import FitResult
from bioassay.lowdose import PercentileQuery, vsd_upper_limit

from conftest import run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_survival_csv(path, rng, theta=1.0, s=1.3, n=300):
    times = rng.weibull(s, n) / theta
    lines = ["time,event"] + [f"{t:.10g},1" for t in times]
    path.write_text("\n".join(lines) + "\n")


# -- fit ----------------------------------------------------------------------

def test_fit_weibull_survival(tmp_path, capsys):
    csv_path = tmp_path / "surv.csv"
    write_survival_csv(csv_path, np.random.default_rng(1))
    code, out, _ = run_cli(capsys, "fit", "--model", "weibull-cdf", "--input", str(csv_path))
    assert code == 0
    report = json.loads(out)
    assert report["converged"]
    assert report["model"] == "weibull-cdf"
    assert len(report["theta_hat"]) == 2
    assert report["info"] is not None


@pytest.mark.parametrize("shape, seed", [(1.5, 3), (30.0, 5)])
def test_fit_weibull_survival_in_large_time_units(tmp_path, shape, seed):
    # with times near 1e9, t^s overflows at shape 30 (a RuntimeWarning, then exit 2)
    # and an absolute score tolerance fails at shape 1.5 (exit 3) unless the fit rescales
    rng = np.random.default_rng(seed)
    times = 1e9 * rng.weibull(shape, 60)
    censor = 1e9 * rng.exponential(2.0, 60)
    rows = [f"{t:.10g},{int(t <= c)}" for t, c in zip(np.minimum(times, censor), censor)]
    csv_path = tmp_path / "surv.csv"
    csv_path.write_text("time,event\n" + "\n".join(rows) + "\n")
    proc = run_python("-m", "bioassay", "fit", "--model", "weibull-cdf", "--input", str(csv_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["converged"]


@pytest.mark.parametrize(
    "flags, named",
    [(("--model", "one-hit"), "weibull-cdf only"), (("--model", "weibull-cdf", "--theta", "1,1"), "--theta")],
    ids=["other-model", "theta"],
)
def test_fit_survival_flags_without_effect_exit_2(tmp_path, capsys, flags, named):
    # the survival fit is weibull-cdf's censored MLE: it reads neither another model nor a start
    csv_path = tmp_path / "surv.csv"
    write_survival_csv(csv_path, np.random.default_rng(1))
    code, out, err = run_cli(capsys, "fit", *flags, "--data-format", "survival", "--input", str(csv_path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error:") and named in err


def test_fit_regression_model(tmp_path, capsys):
    xs = np.linspace(0.3, 8.0, 40)
    y = np.asarray(ba.evaluate("mm", xs, [2.0, 1.0]))
    csv_path = tmp_path / "reg.csv"
    csv_path.write_text("u,y\n" + "\n".join(f"{x:.10g},{v:.10g}" for x, v in zip(xs, y)) + "\n")
    code, out, _ = run_cli(
        capsys, "fit", "--model", "mm", "--input", str(csv_path), "--theta", "1,1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["theta_hat"] == pytest.approx([2.0, 1.0], abs=1e-6)


def test_fit_quantal_schema(tmp_path, capsys):
    rng = np.random.default_rng(2)
    doses = np.linspace(0.2, 3.0, 12)
    n = 200
    events = rng.binomial(n, np.asarray(ba.evaluate("one-hit", doses, [1.0])))
    csv_path = tmp_path / "quantal.csv"
    csv_path.write_text(
        "dose,n,events\n" + "\n".join(f"{d:.10g},{n},{e}" for d, e in zip(doses, events)) + "\n"
    )
    code, out, _ = run_cli(
        capsys, "fit", "--model", "one-hit", "--input", str(csv_path), "--theta", "0.5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["theta_hat"][0] == pytest.approx(1.0, abs=0.1)


def test_fit_quantal_with_control_group(tmp_path, capsys):
    # a dose-0 control row: the weibull-cdf gradient there is its limit (0, 0)
    csv_path = tmp_path / "quantal.csv"
    csv_path.write_text("dose,n,events\n0,50,1\n0.5,50,9\n1,50,21\n2,50,38\n4,50,49\n")
    code, out, err = run_cli(
        capsys, "fit", "--model", "weibull-cdf", "--data-format", "quantal", "--input", str(csv_path),
        "--theta", "0.5,1.5",
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["converged"] and all(math.isfinite(v) for v in report["theta_hat"])


def test_fit_non_finite_response_exit_2(tmp_path, capsys):
    # unchecked, the fit printed "objective": NaN, which is not JSON, and exited 3
    csv_path = tmp_path / "reg.csv"
    csv_path.write_text("u,y\n1,0.5\n2,nan\n3,inf\n4,0.8\n")
    code, out, err = run_cli(
        capsys, "fit", "--model", "mm", "--input", str(csv_path), "--theta", "1,1"
    )
    assert (code, out, err) == (2, "", "error: responses must be finite\n")


def test_fit_wrong_arity_exit_2(tmp_path, capsys):
    csv_path = tmp_path / "reg.csv"
    csv_path.write_text("u,y\n1,0.5\n2,0.6\n3,0.7\n")
    code, _, err = run_cli(
        capsys, "fit", "--model", "mm", "--input", str(csv_path), "--theta", "1,1,1"
    )
    assert code == 2
    assert "parameters" in err


def test_fit_empty_file_exit_2(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("")
    code, _, err = run_cli(
        capsys, "fit", "--model", "mm", "--input", str(csv_path), "--theta", "1,1"
    )
    assert code == 2
    assert "line 1" in err


def test_fit_malformed_row_reports_line(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("u,y\n1,0.5\nx,0.6\n")
    code, _, err = run_cli(
        capsys, "fit", "--model", "mm", "--input", str(csv_path), "--theta", "1,1"
    )
    assert code == 2
    assert "line 3" in err


def test_read_csv_blank_and_quoted_rows(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("u,y\n1,0.5\n2,0.75\n")
    odd = tmp_path / "odd.csv"
    odd.write_text('u,y\n\n1,"0.5"\n , \n2 , 0.75\n\n')
    expected = np.array([[1.0, 0.5], [2.0, 0.75]])
    for path in (plain, odd):
        got = cli._read_csv(str(path), ("u", "y"))
        assert got.dtype == float and np.array_equal(got, expected)


@pytest.mark.parametrize(
    "body, line",
    [("1,0.5\n2,0.6,7\n", "line 3: expected 2 fields, got 3"), ("\n1,0.5\n2,\n", "line 4"), ("\n \n", "no data rows")],
)
def test_read_csv_errors_name_the_line(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text("u,y\n" + body)
    with pytest.raises(CsvError, match=line):
        cli._read_csv(str(path), ("u", "y"))


def row_walk(body, width):
    """The csv-module reading of a body: blank rows skipped, ``float`` on every field."""
    import csv
    import io

    rows = [r for r in csv.reader(io.StringIO(body, newline="")) if r and any(c.strip() for c in r)]
    if not rows or any(len(r) != width for r in rows):
        return None
    try:
        return np.array([[float(c) for c in r] for r in rows])
    except ValueError:
        return None


CSV_BODIES = {
    "underscore": "1_0,2\n3,4_5\n",
    "quoted": '"1.5",2\n3,"4"\n',
    "crlf": "1,2\r\n3,4\r\n",
    "blank rows": "\n1,2\n\n \n3,4\n\n",
    "trailing comma": "1,2,\n3,4,\n",
    "nan and inf": "nan,inf\n-inf,NaN\n-nan,+Infinity\n",
    "subnormal": "4.9e-324,2.2250738585072014e-308\n1e-320,-5e-324\n",
    "lone cr in a field": "1\r5,2\n3,4\n",
    "lone cr rows": "1,2\r3,4\r",
    "padded": " 1 ,\t2 \n.5,-0.0\n",
    "plain": "".join(f"{i / 7:.17g},{i}\n" for i in range(200)),
}


@pytest.mark.parametrize("case", sorted(CSV_BODIES))
def test_read_csv_matches_the_row_walk_bit_for_bit(tmp_path, case):
    body = CSV_BODIES[case]
    path = tmp_path / "body.csv"
    path.write_bytes(("u,y\n" + body).encode())
    want = row_walk(body, 2)
    if want is None:
        with pytest.raises(CsvError, match="line"):
            cli._read_csv(str(path), ("u", "y"))
    else:
        got = cli._read_csv(str(path), ("u", "y"))
        assert got.dtype == float and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_fit_on_a_header_only_csv_prints_one_error_line(tmp_path):
    # np.loadtxt warns on an empty body; the warning must not reach stderr
    (tmp_path / "empty.csv").write_text("time,event\n\n")
    proc = run_python("-m", "bioassay", "fit", "--model", "weibull-cdf", "--input", "empty.csv", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: empty.csv: no data rows\n"


def test_fit_unknown_model_lists_registry(tmp_path, capsys):
    csv_path = tmp_path / "reg.csv"
    csv_path.write_text("u,y\n1,0.5\n")
    code, _, err = run_cli(capsys, "fit", "--model", "nope", "--input", str(csv_path))
    assert code == 2
    assert "mm" in err and "gompertz" in err


# -- curves ----------------------------------------------------------------------

def test_curves_default_grid_500_rows(capsys):
    code, out, _ = run_cli(capsys, "curves", "--model", "gompertz")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u,gompertz"
    assert len(lines) == 501
    first_u, first_v = (float(v) for v in lines[1].split(","))
    assert first_u == pytest.approx(0.01)
    assert first_v == pytest.approx(math.exp(math.exp(0.01)), rel=1e-12)


def test_curves_logistic_starts_near_half(capsys):
    code, out, _ = run_cli(capsys, "curves", "--model", "logistic", "--theta", "1,1,1")
    first = out.strip().split("\n")[1]
    assert float(first.split(",")[1]) == pytest.approx(0.5, abs=0.01)


def test_curves_comparison_shared_grid(capsys):
    code, out, _ = run_cli(capsys, "curves", "--model", "janoschek,bertalanffy")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u,janoschek,bertalanffy"
    assert len(lines[1].split(",")) == 3


def test_curves_byte_stable(capsys):
    a = run_cli(capsys, "curves", "--model", "tanh", "--grid", "0:5:100")
    b = run_cli(capsys, "curves", "--model", "tanh", "--grid", "0:5:100")
    assert a == b


def test_curves_gallery_configs_run(capsys):
    assert len(CURVE_GALLERY) == 12
    for config in CURVE_GALLERY:
        code, out, _ = run_cli(capsys, "curves", "--model", ",".join(config))
        assert code == 0
        assert len(out.strip().split("\n")) == 501


def test_curves_svg(capsys, tmp_path):
    out_path = tmp_path / "curve.svg"
    code, _, _ = run_cli(
        capsys, "curves", "--model", "tanh", "--format", "svg", "--out", str(out_path)
    )
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg") and "<polyline" in svg


def test_curves_svg_points_follow_the_axes(capsys):
    # every polyline vertex is the grid point and value mapped onto the 640x480 plot, 50 px padding
    code, out, _ = run_cli(capsys, "curves", "--model", "gompertz,tanh", "--grid", "0.5:4:40", "--format", "svg")
    assert code == 0
    grid = np.linspace(0.5, 4.0, 40)
    values = [ba.evaluate(m, grid, [1.0] * ba.get_model(m).arity) for m in ("gompertz", "tanh")]
    ylo, yhi = min(v.min() for v in values), max(v.max() for v in values)
    polylines = [line for line in out.splitlines() if line.startswith("<polyline")]
    assert len(polylines) == 2
    for line, vals in zip(polylines, values):
        pts = line.split('points="')[1].split('"')[0].split()
        assert len(pts) == grid.size
        for pt, x, y in zip(pts, grid.tolist(), vals.tolist()):
            sx = 50.0 + (x - 0.5) / (4.0 - 0.5) * 540.0
            sy = 480.0 - 50.0 - (y - ylo) / (yhi - ylo) * 380.0
            assert pt == "%.17g,%.17g" % (sx, sy)


GALLERY_DIGESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "gallery.sha256.json")


def test_curves_gallery_stdout_is_pinned(capsys):
    # the stored digests of the benchmark's curve checks: every gallery CSV and one SVG, byte for byte
    with open(GALLERY_DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    runs = [(",".join(config), ()) for config in CURVE_GALLERY] + [("janoschek,bertalanffy", ("--format", "svg"))]
    for models, flags in runs:
        code, out, _ = run_cli(capsys, "curves", "--model", models, *flags)
        assert code == 0
        key = models + (" svg" if flags else "")
        assert hashlib.sha256(out.encode()).hexdigest() == digests[key], key


def test_curves_clipped_cells_are_pinned(capsys):
    code, out, err = run_cli(capsys, "curves", "--model", "exp-time-power,tanh", "--grid=-1:5:20")
    assert code == 0 and err.count("clipped") == 1
    assert out.split("\n")[1:3] == ["-1,,0.035972419924183097", "-0.68421052631578949,,0.066594190383652552"]
    assert hashlib.sha256(out.encode()).hexdigest() == "2249ceefad86fbe8b7025cf6274a7cd8f8d055c0294d567c8fac8a1d0d5c08bd"


def test_curves_grid_clipped_with_warning(capsys):
    code, out, err = run_cli(capsys, "curves", "--model", "exp-time-power", "--grid=-1:5:20")
    assert code == 0
    assert "clipped" in err
    first = out.strip().split("\n")[1]
    assert first.endswith(",")  # clipped cell is empty


# -- lp / eff / fisher --------------------------------------------------------------

def test_lp_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "lp", "--model", "one-hit", "--theta", "1", "--p", "0.6321205588"
    )
    assert code == 0
    report = json.loads(out)
    assert report["Lp"] == pytest.approx(1.0, abs=1e-9)
    assert report["risk_type"] == "total"
    assert report["vsd"] is None


def test_lp_with_fit_produces_vsd(tmp_path, capsys):
    xs = np.linspace(0.1, 3.0, 200)
    rng = np.random.default_rng(3)
    y = np.asarray(ba.evaluate("one-hit", xs, [1.0])) + 0.05 * rng.standard_normal(xs.size)
    csv_path = tmp_path / "reg.csv"
    csv_path.write_text("u,y\n" + "\n".join(f"{x:.10g},{v:.10g}" for x, v in zip(xs, y)) + "\n")
    fit_path = tmp_path / "fit.json"
    code, _, _ = run_cli(
        capsys,
        "fit", "--model", "one-hit", "--input", str(csv_path),
        "--data-format", "regression", "--theta", "0.5", "--out", str(fit_path),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "lp", "--model", "one-hit", "--theta", "1", "--p", "0.1",
        "--fit", str(fit_path), "--confidence", "0.975",
    )
    assert code == 0
    report = json.loads(out)
    assert report["vsd"] is not None
    assert report["vsd"] < report["Lp"]
    assert report["vsd_method"] == "delta"


def test_lp_fit_takes_the_risk_scale_from_the_fit(tmp_path, capsys, monkeypatch):
    # --theta has no background (total risk), the fitted q0 = 0.02 has one (extra risk)
    theta_hat = [0.02, 0.3, 0.2]
    info = ba.fisher.total_info("multistage", np.linspace(0.0, 3.0, 20), theta_hat, 1e-4)
    fit = FitResult(np.array(theta_hat), 0.0, 1e-4, info, True, 5, model="multistage")
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(json.dumps(fit.to_dict()))
    monkeypatch.setattr(cli, "percentile", None)  # the percentile at --theta is not solved
    code, out, _ = run_cli(
        capsys, "lp", "--model", "multistage", "--theta", "0,0.3,0.2", "--p", "0.01", "--fit", str(fit_path)
    )
    assert code == 0
    report = json.loads(out)
    want = vsd_upper_limit(PercentileQuery("multistage", (0.0, 0.3, 0.2), 0.01), fit, 0.975)
    assert want.risk_type == "extra"
    assert (report["risk_type"], report["Lp"], report["vsd"]) == ("extra", want.lp, want.vsd)
    # --theta is still checked
    code, out, err = run_cli(
        capsys, "lp", "--model", "multistage", "--theta", "-1,0.3,0.2", "--p", "0.01", "--fit", str(fit_path)
    )
    assert (code, out) == (2, "") and "theta[0]" in err


def write_weibull_report(path):
    theta_hat = [1.0, 1.5]
    info = ba.fisher.total_info("weibull-cdf", np.linspace(0.2, 3.0, 20), theta_hat, 1e-4)
    path.write_text(json.dumps(FitResult(np.array(theta_hat), 0.0, 1e-4, info, True, 5, model="weibull-cdf").to_dict()))
    return str(path)


def test_lp_fit_of_another_model_exit_2(tmp_path, capsys):
    fit_path = write_weibull_report(tmp_path / "fit.json")
    code, out, err = run_cli(
        capsys, "lp", "--model", "logit-cdf", "--theta", "-2,1.5", "--p", "0.01", "--fit", fit_path
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "weibull-cdf" in err and "logit-cdf" in err


def test_lp_fit_needs_no_theta(tmp_path, capsys):
    fit_path = write_weibull_report(tmp_path / "fit.json")
    argv = ("lp", "--model", "weibull-cdf", "--p", "0.01", "--fit", fit_path)
    without = run_cli(capsys, *argv)
    assert without[0] == 0 and json.loads(without[1])["vsd"] is not None
    assert run_cli(capsys, *argv, "--theta", "3,0.5") == without


@pytest.mark.parametrize(
    "flags, named",
    [((), "--theta is required"), (("--theta", "1", "--confidence", "0.3"), "--confidence applies to --fit")],
    ids=["no-theta", "confidence"],
)
def test_lp_without_fit_flag_rules_exit_2(capsys, flags, named):
    code, out, err = run_cli(capsys, "lp", "--model", "one-hit", "--p", "0.1", *flags)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and named in err


@pytest.mark.parametrize(
    "report, named",
    [
        ({"model": "one-hit", "info": [[1.0]]}, "theta_hat"),
        ({"theta_hat": ["abc"], "info": [[1.0]]}, "'abc'"),
        ({"theta_hat": [1.0], "s2": "x", "info": [[1.0]]}, "'x'"),
        ({"theta_hat": [1.0], "info": [["abc"]]}, "'abc'"),
        ({"theta_hat": [1.0, 2.0], "info": [[1.0, 0.0], [0.0]]}, "fit report"),
    ],
    ids=["no-theta_hat", "text-theta_hat", "text-s2", "text-info", "ragged-info"],
)
def test_lp_fit_malformed_report_exit_2(tmp_path, capsys, report, named):
    fit_path = tmp_path / "bad.json"
    fit_path.write_text(json.dumps(report))
    code, out, err = run_cli(
        capsys, "lp", "--model", "one-hit", "--theta", "1", "--p", "0.1", "--fit", str(fit_path)
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and named in err


def test_lp_unattainable_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "lp", "--model", "multistage", "--theta", "0.2", "--p", "0.9", "--risk", "total"
    )
    assert code == 3
    assert "supremum" in err


@pytest.mark.parametrize("model", ["logit-cdf", "probit-cdf"])
def test_lp_non_finite_percentile_exit_2(capsys, model):
    # the closed form divides by a subnormal slope: -inf, an error and not a warning
    code, out, err = run_cli(capsys, "lp", "--model", model, "--theta", "0,1e-320", "--p", "0.1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "not finite" in err


def test_lp_non_finite_response_names_the_dose_exit_3(capsys):
    # multi-hit with 1e308 hits: F(1) = F(2) = 0 and F(4) is nan
    code, out, err = run_cli(capsys, "lp", "--model", "multi-hit", "--theta", "1e308,3", "--p", "0.5")
    assert code == 3
    assert out == ""
    assert "at dose 4.0" in err and "supremum" not in err


def test_eff_command(capsys):
    code, out, _ = run_cli(capsys, "eff", "--rho12", "0", "--rhoy21", "0")
    assert code == 0
    report = json.loads(out)
    assert report["eff"] == 1.0
    assert report["class"] == "unity"


@pytest.mark.parametrize(
    "argv, expect",
    [
        (("lp", "--model", "logit-cdf", "--theta", "-2,1.5", "--p", "0.01"), '"Lp": '),
        (("curves", "--model", "tanh", "--grid", "-1:5:20"), "-1,"),
        (("fisher", "--model", "logit-cdf", "--theta", "-2,1.5", "--grid", "-1:1:5"), '"info": '),
        (("fisher", "--model", "logit-cdf", "--theta", "-2,1.5", "--at", "-1,2"), '"design": [\n    -1.0,'),
        (("fisher", "--model", "logit-cdf", "--theta", "-2,1.5", "--at", "-.5"), '"design": [\n    -0.5'),
    ],
    ids=["theta", "grid", "fisher-grid", "at", "at-leading-point"],
)
def test_list_values_may_start_with_a_minus_sign(capsys, argv, expect):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert expect in out
    joined = list(argv)  # the same call with every list value written --flag=value
    for flag in ("--theta", "--grid", "--at"):
        if flag in joined:
            i = joined.index(flag)
            joined[i : i + 2] = [f"{flag}={joined[i + 1]}"]
    assert run_cli(capsys, *joined) == (code, out, err)


@pytest.mark.parametrize("flag", ["--theta", "--grid", "--at"])
def test_list_flag_followed_by_a_flag_exit_2(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["fisher", "--model", "logit-cdf", flag, "--sigma2", "1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_fisher_command_row_major(capsys):
    code, out, _ = run_cli(
        capsys, "fisher", "--model", "exp-time-power", "--theta", "2,3", "--at", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["info"] == [[1.0, 0.0], [0.0, 0.0]]


def test_fisher_design_with_a_control_dose(capsys):
    # the dose-0 row of the gradient is (0, 0): it adds no information
    code, out, err = run_cli(
        capsys, "fisher", "--model", "weibull-cdf", "--theta", "1,1.5", "--at", "0,0.5,1,2"
    )
    assert (code, err) == (0, "")
    expected = ba.fisher.total_info("weibull-cdf", [0.5, 1.0, 2.0], [1.0, 1.5]).entries
    assert np.allclose(json.loads(out)["info"], expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "model, theta",
    [("mm-two-substrate", [2.0, 1.0, 1.0, 1.0]), ("mm-series", [1.0, 2.0, 0.5, 1.5, 0.8])],
    ids=["mm-two-substrate", "mm-series"],
)
def test_fisher_two_input_pairs(capsys, model, theta):
    pairs = [[1.0, 2.0], [3.0, 0.5], [0.2, 4.0]]
    code, out, _ = run_cli(
        capsys, "fisher", "--model", model, "--theta", ",".join(map(str, theta)),
        "--at", ",".join(f"{x1}:{x2}" for x1, x2 in pairs),
    )
    assert code == 0
    report = json.loads(out)
    assert report["design"] == pairs
    assert report["info"] == ba.fisher.total_info(model, pairs, theta).entries.tolist()


@pytest.mark.parametrize(
    "argv",
    [("curves", "--model", "one-hit"), ("fisher", "--model", "one-hit", "--theta", "1")],
    ids=["curves", "fisher"],
)
def test_huge_grid_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--grid", "0:1:99999999999")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and f"capped at {cli.MAX_GRID_POINTS} points" in err


@pytest.mark.parametrize(
    "argv",
    [("curves", "--model", "one-hit"), ("fisher", "--model", "one-hit", "--theta", "1")],
    ids=["curves", "fisher"],
)
@pytest.mark.parametrize(
    "grid",
    [("--grid", "0:inf:3"), ("--grid=-1e308:1e308:3",), ("--grid=-inf:1:3",), ("--grid", "-inf:1:3"), ("--grid", "-nan:1:3")],
    ids=["inf-hi", "span-overflows", "inf-lo-joined", "inf-lo", "nan-lo"],
)
def test_grid_span_must_be_finite_exit_2(capsys, argv, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, *grid)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "finite span" in err


def test_fisher_design_from_both_at_and_grid_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "fisher", "--model", "one-hit", "--theta", "1", "--at", "1,2", "--grid", "0:1:5"
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "not both" in err


@pytest.mark.parametrize(
    "flags, named",
    [(("--grid", "0.1:4:5"), "--at"), (("--at", "1:2,3"), "x1:x2"), (("--at", "1:x"), "--at")],
    ids=["grid", "unpaired", "text"],
)
def test_fisher_two_input_bad_design_exit_2(capsys, flags, named):
    code, out, err = run_cli(
        capsys, "fisher", "--model", "mm-two-substrate", "--theta", "2,1,1,1", *flags
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and named in err


def test_fisher_multi_hit_large_hit_count(capsys):
    # Gamma(200) overflows a float; the gradient is computed in log space
    code, out, _ = run_cli(
        capsys, "fisher", "--model", "multi-hit", "--theta", "200,1", "--at", "150,200"
    )
    assert code == 0
    info = np.array(json.loads(out)["info"])
    assert np.all(np.isfinite(info)) and info[1, 1] > 0
    assert info[0].tolist() == [0.0, 0.0]


# -- tables ---------------------------------------------------------------------------

DIPTYCH = {
    "attributes": [
        {"name": "row", "domain": ["r1", "r2"]},
        {"name": "col", "domain": ["c1", "c2"]},
    ],
    "variable": {"name": "count", "type": "nonneg-integer"},
    "tables": [
        {"scheme": ["row"], "cells": [{"coords": ["r1"], "value": 3}, {"coords": ["r2"], "value": 1}]},
        {"scheme": ["col"], "cells": [{"coords": ["c1"], "value": 2}, {"coords": ["c2"], "value": 2}]},
    ],
}


def test_tables_consistent_diptych(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(DIPTYCH))
    code, out, _ = run_cli(capsys, "tables", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["consistent"] is True
    assert "witness" in report


def test_tables_inconsistent_still_exit_0(tmp_path, capsys):
    obj = json.loads(json.dumps(DIPTYCH))
    obj["tables"][0]["cells"][0]["value"] = 5
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "tables", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["consistent"] is False
    assert "grand totals differ" in report["certificate"]


def three_way_json(counts, kind="nonneg-integer"):
    """The three two-way margins of a three-way table: a cyclic polyptych."""
    codes = {n: [f"{n}{i}" for i in range(r)] for n, r in zip("abc", counts.shape)}
    return {
        "attributes": [{"name": n, "domain": d} for n, d in codes.items()],
        "variable": {"name": "count", "type": kind},
        "tables": [
            {
                "scheme": list(pair),
                "cells": [
                    {"coords": [codes[pair[0]][i], codes[pair[1]][j]], "value": v.item()}
                    for (i, j), v in np.ndenumerate(counts.sum(axis="abc".index(drop)))
                ],
            }
            for pair, drop in ((("a", "b"), "c"), (("a", "c"), "b"), (("b", "c"), "a"))
        ],
    }


def test_tables_integer_exact_time_limit_exit_3(tmp_path, capsys, monkeypatch):
    # a 10x10x10 count table: cyclic, so HiGHS decides it
    path = tmp_path / "p.json"
    path.write_text(json.dumps(three_way_json(np.random.default_rng(0).poisson(10, (10, 10, 10)))))
    monkeypatch.setattr("bioassay.tables.MAX_HIGHS_SECONDS", 1e-6)
    code, out, err = run_cli(capsys, "tables", "--input", str(path), "--integer-exact")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("failure: HiGHS did not decide")


def test_tables_nnls_iteration_limit_exit_3(tmp_path, capsys, monkeypatch):
    def stalled(*a, **k):
        raise RuntimeError("Maximum number of iterations reached.")

    # the three two-way margins of a 2x2x2 table: cyclic, small enough for NNLS
    monkeypatch.setattr("scipy.optimize.nnls", stalled)
    codes = {n: [f"{n}0", f"{n}1"] for n in "abc"}
    obj = {
        "attributes": [{"name": n, "domain": d} for n, d in codes.items()],
        "variable": {"name": "count", "type": "nonneg-integer"},
        "tables": [
            {"scheme": list(pair), "cells": [{"coords": [f"{pair[0]}{i}", f"{pair[1]}{i}"], "value": 1} for i in (0, 1)]}
            for pair in ("ab", "ac", "bc")
        ],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "tables", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err == "failure: NNLS did not decide the linear system: Maximum number of iterations reached.\n"


def test_tables_huge_marginals_exit_0(tmp_path, capsys):
    # r = 7 leaves NNLS for the HiGHS phase-1 LP, which needs b scaled at 1e20
    counts = np.random.default_rng(7).poisson(2.0, (7, 7, 7))
    reports = []
    for scale in (1, 1e20):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(three_way_json(counts * scale, "nonneg-real")))
        code, out, err = run_cli(capsys, "tables", "--input", str(path))
        assert (code, err) == (0, "")
        reports.append(json.loads(out)["consistent"])
    assert reports == [True, True]


@pytest.mark.parametrize(
    "argv",
    [("tables", "--input"), ("lp", "--model", "one-hit", "--theta", "1", "--p", "0.1", "--fit")],
    ids=["tables", "lp-fit"],
)
def test_invalid_json_names_the_file_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"


def test_tables_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "tables", "--input", str(path))
    assert code == 2
    obj = json.loads(json.dumps(DIPTYCH))
    obj["tables"][0]["cells"][0]["value"] = "abc"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "tables", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "'count'" in err


# -- simulate-bd -------------------------------------------------------------------------

def test_simulate_bd_replicates_past_the_cap_exit_2(capsys):
    n = birthdeath.MAX_REPLICATES + 1
    code, out, err = run_cli(capsys, "simulate-bd", "--birth", "1", "--death", "1", "--replicates", str(n))
    assert (code, out) == (2, "")
    assert err == f"error: {n} replicates exceed the cap of {birthdeath.MAX_REPLICATES} per study\n"


def test_simulate_bd_trajectory(capsys):
    code, out, _ = run_cli(
        capsys, "simulate-bd", "--birth", "1", "--death", "1", "--t-end", "2", "--seed", "9"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,population"
    assert lines[1].startswith("0,") or lines[1].startswith("0.0,")


def test_simulate_bd_replicates_and_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("BIOASSAY_SEED", "77")
    a = run_cli(
        capsys, "simulate-bd", "--birth", "0", "--death", "1", "--t-end", "100",
        "--replicates", "5",
    )
    b = run_cli(
        capsys, "simulate-bd", "--birth", "0", "--death", "1", "--t-end", "100",
        "--replicates", "5",
    )
    assert a == b
    assert a[0] == 0
    lines = a[1].strip().split("\n")
    assert lines[0] == "replicate,outcome,time"
    assert len(lines) == 6
    assert all(line.split(",")[1] == "extinct" for line in lines[1:])


def test_simulate_bd_invalid_rates_exit_2(capsys):
    code, _, err = run_cli(capsys, "simulate-bd", "--birth", "0", "--death", "0")
    assert code == 2


@pytest.mark.parametrize("birth, death", [("nan", "1"), ("1", "inf")])
def test_simulate_bd_non_finite_rates_exit_2(capsys, birth, death):
    code, out, err = run_cli(
        capsys, "simulate-bd", "--birth", birth, "--death", death, "--replicates", "3"
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "finite" in err


def test_simulate_bd_infinite_horizon_exit_2(capsys):
    # a pure-birth clone never dies: with t_end = inf each one was reported "extinct" at inf
    code, out, err = run_cli(
        capsys, "simulate-bd", "--birth", "1", "--death", "0", "--replicates", "2", "--t-end", "inf", "--seed", "3"
    )
    assert (code, out) == (2, "")
    assert err == "error: t_end must be > 0 and finite, got inf\n"


def test_simulate_bd_i0_past_int64_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "simulate-bd", "--birth", "1", "--death", "1", "--i0", "100000000000000000000"
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "initial population" in err


def test_simulate_bd_binned_hazard(capsys):
    code, out, _ = run_cli(
        capsys, "simulate-bd", "--birth", "0", "--death", "1", "--t-end", "50",
        "--replicates", "500", "--bins", "4", "--seed", "4",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t_mid,hazard"
    assert len(lines) == 5
    assert all(float(line.split(",")[1]) > 0 for line in lines[1:])


def test_simulate_bd_bins_needs_replicates(capsys):
    code, _, err = run_cli(
        capsys, "simulate-bd", "--birth", "0", "--death", "1", "--bins", "4"
    )
    assert code == 2
    assert "replicates" in err


@pytest.mark.parametrize(
    "flags", [("--replicates", "0"), ("--replicates", "3", "--bins", "0")], ids=["replicates", "bins"]
)
def test_simulate_bd_zero_counts_exit_2(capsys, flags):
    code, out, err = run_cli(
        capsys, "simulate-bd", "--birth", "0", "--death", "1", "--t-end", "50", "--seed", "4", *flags
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and ">= 1" in err


def test_simulate_bd_bins_checked_before_simulating(capsys):
    # every replicate is censored, so a late check would report "no events observed"
    code, out, err = run_cli(
        capsys, "simulate-bd", "--birth", "1", "--death", "0.01", "--t-end", "0.05", "--seed", "1",
        "--replicates", "3", "--bins", "0",
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and ">= 1" in err


@pytest.mark.parametrize("threshold", ["0", "5"])
def test_simulate_bd_threshold_needs_replicates(capsys, threshold):
    code, out, err = run_cli(
        capsys, "simulate-bd", "--birth", "1", "--death", "1", "--t-end", "0.5", "--threshold", threshold
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "--threshold" in err and "--replicates" in err


def test_simulate_bd_event_budget_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(birthdeath, "MAX_TRAJECTORY_EVENTS", 1000)
    code, out, err = run_cli(
        capsys, "simulate-bd", "--birth", "2", "--death", "1", "--i0", "20", "--t-end", "12", "--seed", "3"
    )
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "1000 events" in err


def test_simulate_bd_replicate_step_budget_exit_3(capsys, monkeypatch):
    # an onset study runs the jump chain, which the step budget bounds
    monkeypatch.setattr(birthdeath, "MAX_REPLICATE_STEPS", 100_000)
    code, out, err = run_cli(
        capsys, "simulate-bd", "--birth", "2", "--death", "1", "--i0", "20", "--t-end", "100",
        "--replicates", "2", "--threshold", "1000000000", "--seed", "3",
    )
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "100000 steps" in err


def test_simulate_bd_long_extinction_study_exit_0(capsys):
    # an extinction study draws one uniform per clone, whatever the rates and horizon
    code, out, err = run_cli(
        capsys, "simulate-bd", "--birth", "2", "--death", "1", "--i0", "20", "--t-end", "100",
        "--replicates", "2", "--seed", "3",
    )
    assert (code, err) == (0, "")
    assert out.split("\n")[0] == "replicate,outcome,time"
    assert len(out.strip().split("\n")) == 3


@pytest.mark.parametrize("flags", [(), ("--replicates", "3")], ids=["trajectory", "replicates"])
def test_simulate_bd_negative_seed_exit_2(capsys, flags):
    code, out, err = run_cli(capsys, "simulate-bd", "--birth", "1", "--death", "1", "--seed=-1", *flags)
    assert (code, out) == (2, "")
    assert err == "error: seed must be an integer >= 0, got -1\n"


def test_simulate_bd_negative_env_seed_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("BIOASSAY_SEED", "-3")
    code, out, err = run_cli(capsys, "simulate-bd", "--birth", "1", "--death", "1", "--replicates", "3")
    assert (code, out) == (2, "")
    assert err == "error: seed must be an integer >= 0, got -3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("tables", "--input"),
        ("lp", "--model", "one-hit", "--theta", "1", "--p", "0.1", "--fit"),
        ("fit", "--model", "mm", "--theta", "1,1", "--input"),
    ],
    ids=["tables", "lp-fit", "fit"],
)
def test_non_utf8_input_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "utf-8" in err


def test_module_entry_point():
    proc = run_python("-m", "bioassay", "eff", "--rho12", "0", "--rhoy21", "0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["eff"] == 1.0


def test_main_reuses_one_parser_without_leaking_state(tmp_path, capsys, monkeypatch):
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    cli._parser.cache_clear()
    try:
        out_path = tmp_path / "eff.json"
        code, out, _ = run_cli(capsys, "eff", "--rho12", "0.5", "--rhoy21", "0", "--out", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["eff"] == pytest.approx(0.75)
        # a second subcommand with other flags: no --out, --seed or value carries over
        code, out, _ = run_cli(
            capsys, "simulate-bd", "--birth", "0", "--death", "1", "--t-end", "100",
            "--replicates", "2", "--seed", "5",
        )
        assert code == 0 and out.startswith("replicate,outcome,time\n")
        code, out, _ = run_cli(capsys, "eff", "--rho12", "0", "--rhoy21", "0")
        assert code == 0 and json.loads(out)["eff"] == 1.0
        monkeypatch.setenv("BIOASSAY_SEED", "6")
        seeded = run_cli(
            capsys, "simulate-bd", "--birth", "0", "--death", "1", "--t-end", "100",
            "--replicates", "2",
        )
        again = run_cli(
            capsys, "simulate-bd", "--birth", "0", "--death", "1", "--t-end", "100",
            "--replicates", "2", "--seed", "6",
        )
        assert seeded == again
        with pytest.raises(SystemExit) as exc:
            main(["eff", "--rho12", "0"])  # argparse rejects the missing flag
        assert exc.value.code == 2
        capsys.readouterr()
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize (and scipy.sparse, for the LP's constraint matrix) are
    # imported inside the LP path only, and scipy.special on first use: together
    # they would add about 0.6 s to every process that imports the package
    code = (
        "import sys, bioassay, bioassay.cli; print('scipy.optimize' in sys.modules, 'scipy.sparse' in sys.modules,"
        " 'scipy' in sys.modules, 'scipy.special' in sys.modules)"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False False False"


def _scipy_imports(importtime_report):
    """Names of the scipy modules listed in a ``python -X importtime`` report."""
    names = (line.rsplit("|", 1)[-1].strip() for line in importtime_report.splitlines())
    return [name for name in names if name.split(".")[0] == "scipy"]


SCIPY_FREE_COMMANDS = {
    "eff": ["eff", "--rho12", "0", "--rhoy21", "0.6"],
    "simulate-bd": ["simulate-bd", "--birth", "1", "--death", "1", "--t-end", "1", "--seed", "7"],
    "curves": ["curves", "--model", "tanh"],
    "fit": ["fit", "--model", "one-hit", "--data-format", "regression", "--input", "reg.csv", "--theta", "0.5"],
    "tables": ["tables", "--input", "diptych.json"],  # a decomposable scheme: the join tree, no LP
}


@pytest.mark.parametrize("command", sorted(SCIPY_FREE_COMMANDS))
def test_subcommand_runs_without_scipy(command, tmp_path):
    xs = np.linspace(0.0, 4.0, 20)
    y = np.asarray(ba.evaluate("one-hit", xs, [1.2]))
    (tmp_path / "reg.csv").write_text("u,y\n" + "\n".join(f"{x:.10g},{v:.10g}" for x, v in zip(xs, y)) + "\n")
    (tmp_path / "diptych.json").write_text(json.dumps(DIPTYCH))
    proc = run_python("-X", "importtime", "-m", "bioassay", *SCIPY_FREE_COMMANDS[command], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert _scipy_imports(proc.stderr) == []


FIRST_USE_IMPORTS = """\
import numpy as np
from bioassay.fitting import FitResult, ks_test
from bioassay.lowdose import PercentileQuery, percentile, vsd_upper_limit
from bioassay.models import evaluate, get_model, gradient
"""

# every call site that imports scipy.special on first use (the probit-cdf
# gradient is the normal density in numpy and has none)
FIRST_USE = {
    "multi-hit evaluate": "evaluate('multi-hit', [0.0, 0.5, 2.0], [3.0, 1.5])",
    "multi-hit gradient": "gradient('multi-hit', [0.5, 2.0], [3.0, 1.5])",
    "multi-hit inverse": "percentile(PercentileQuery('multi-hit', (3.0, 1.5), 0.1))",  # no closed form: Brent
    "logit-cdf evaluate": "evaluate('logit-cdf', [-1.0, 0.0, 2.0], [-0.5, 1.2])",
    "logit-cdf gradient": "gradient('logit-cdf', [-1.0, 2.0], [-0.5, 1.2])",
    "logit-cdf inverse": "get_model('logit-cdf').inverse(0.1, (-0.5, 1.2))",
    "probit-cdf evaluate": "evaluate('probit-cdf', [-1.0, 0.0, 2.0], [-0.5, 1.2])",
    "probit-cdf inverse": "get_model('probit-cdf').inverse(0.1, (-0.5, 1.2))",
    "vsd_upper_limit": (
        "vsd_upper_limit(PercentileQuery('one-hit', (1.0,), 0.1),"
        " FitResult.from_dict({'theta_hat': [1.0], 'info': [[400.0]]}), 0.975).vsd"
    ),
    "ks_test": "ks_test([0.1, 0.4, 0.7, 1.3, 2.2], ('one-hit', [1.0])).p_value",
}


@pytest.mark.parametrize("site", sorted(FIRST_USE))
def test_first_scipy_special_use_in_a_fresh_process(site):
    expr = FIRST_USE[site]
    script = (
        FIRST_USE_IMPORTS
        + "import json, sys\n"
        + "before = 'scipy.special' in sys.modules\n"
        + f"value = np.asarray({expr}, dtype=float).tolist()\n"
        + "print(json.dumps([before, value, 'scipy.special' in sys.modules]))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    scope = {}
    exec(FIRST_USE_IMPORTS, scope)
    in_process = np.asarray(eval(expr, scope), dtype=float).tolist()
    assert json.loads(proc.stdout) == [False, in_process, True]


# -- the CLI contract ---------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_cli_contract(proc):
    """What every CLI call promises: exit 0, 2 or 3, at most one stderr line (no
    warning ahead of the error), and JSON stdout without NaN or Infinity."""
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert proc.stderr.count("\n") <= 1, proc.stderr
    if proc.stdout.startswith("{"):
        json.loads(proc.stdout, parse_constant=_reject_constant)


# two one-way margins of 1e200 per cell: consistent, with witness cells of 5e199
HUGE_MARGINS = {
    "attributes": [{"name": "a", "domain": ["1", "2"]}, {"name": "b", "domain": ["1", "2"]}],
    "variable": {"name": "c", "type": "nonneg-real"},
    "tables": [
        {"scheme": [name], "cells": [{"coords": [code], "value": 1e200} for code in ("1", "2")]}
        for name in ("a", "b")
    ],
}

# the files a row may name in its argv, by key: a string as it is, anything else as JSON
CONTRACT_FILES = {
    "INPUT": HUGE_MARGINS,
    "OVERFLOWING_RESPONSES": "u,y\n1,1e308\n2,1e308\n3,1e308\n",
    # the fitted rate underflows to 0, and the information divides by its square
    "FAR_SURVIVAL_TIMES": "time,event\n0.1,1\n0.1,1\n1e300,1\n",
    # the slope's information 1e-320 inverts to inf, and g' C g forms inf * 0
    "NAN_VARIANCE_FIT": {"model": "logit-cdf", "theta_hat": [1e-320, 1.0], "info": [[1.0, 0.0], [0.0, 1e-320]]},
    # L_p = -2e300, where dF/dx underflows: the percentile gradient overflows
    "FAR_PERCENTILE_FIT": {"model": "logit-cdf", "theta_hat": [1e300, 0.5], "info": [[1.0, 0.0], [0.0, 1.0]]},
}

# argv -> the exit code it must give, and the start of its one stderr line where that
# is not the code's own ("error:" for 2, "failure:" for 3, none for 0)
CONTRACT_CASES = {
    "simulate-bd-infinite-horizon": (
        ("simulate-bd", "--birth", "1", "--death", "0", "--replicates", "2", "--t-end", "inf", "--seed", "3"), 2,
    ),
    "fisher-infinite-sigma2": (("fisher", "--model", "one-hit", "--theta", "1", "--at", "1,2", "--sigma2", "inf"), 2),
    "fisher-subnormal-sigma2": (
        ("fisher", "--model", "one-hit", "--theta", "1", "--at", "1,2", "--sigma2", "1e-320"), 2,
    ),
    "tables-huge-margins": (("tables", "--input", "INPUT"), 0),
    # gradients that form inf * 0 or divide by zero: an error, with no RuntimeWarning ahead of it
    "fisher-weibull-cdf-inf-times-zero": (
        ("fisher", "--model", "weibull-cdf", "--theta", "1e300,50", "--at", "1e-300,1"), 2,
    ),
    "fisher-logistic-inf-times-zero": (
        ("fisher", "--model", "logistic", "--theta=1e308,1e8,5e-324", "--at=3,5e-324,0"), 2,
    ),
    "fisher-mm-divide-by-zero": (("fisher", "--model", "mm", "--theta=1,5e-324", "--at=1e308,1e308,5e-324"), 2),
    "curves-nan-value": (("curves", "--model", "gompertz", "--theta=-1e300,0,1e300", "--grid", "0:1:3"), 2),
    "curves-clipped-before-a-bad-theta": (
        ("curves", "--model", "hill-decreasing", "--theta=inf,2,-inf", "--grid=-1:0.5:2"), 2,
    ),
    "curves-three-models-clipped": (
        ("curves", "--model", "exp-time-power,exp-time-power-repar,janoschek", "--grid=-1:1:3"), 0, "warning:",
    ),
    "curves-svg-values-past-the-plot-scale": (
        ("curves", "--model=tanh3", "--theta=1e300,1e-320,1e300", "--grid=-1e300:1:3", "--format=svg"), 2,
    ),
    "fit-residual-sum-overflows": (("fit", "--model=mm", "--input", "OVERFLOWING_RESPONSES", "--theta=1,1"), 2),
    "fit-weibull-rate-underflows": (("fit", "--model=weibull-cdf", "--input", "FAR_SURVIVAL_TIMES"), 2),
    "lp-nan-inside-the-bracket": (("lp", "--model=multi-hit", "--theta=1e308,1e308", "--p=1e-320", "--risk=extra"), 3),
    "lp-fit-nan-variance": (("lp", "--model=logit-cdf", "--p=0.01", "--fit", "NAN_VARIANCE_FIT"), 2),
    "lp-fit-percentile-gradient-overflow": (("lp", "--model=logit-cdf", "--p=0.5", "--fit", "FAR_PERCENTILE_FIT"), 2),
    "simulate-bd-subnormal-death-rate": (
        ("simulate-bd", "--birth", "0", "--death", "1e-320", "--i0", "1", "--t-end", "1", "--seed", "3",
         "--replicates", "5", "--threshold", "3"), 0,
    ),
    "simulate-bd-overflowing-rates": (("simulate-bd", "--birth", "1e308", "--death", "1e300", "--i0", "3"), 2),
    "simulate-bd-hazard-past-the-float-range": (
        ("simulate-bd", "--birth=1", "--death=1e308", "--t-end=1", "--seed=3", "--replicates=3", "--bins=5"), 2,
    ),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_cli_keeps_its_contract(tmp_path, case):
    argv, code, *lead = CONTRACT_CASES[case]
    for name, obj in CONTRACT_FILES.items():
        (tmp_path / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
    proc = run_python("-m", "bioassay", *(str(tmp_path / a) if a in CONTRACT_FILES else a for a in argv))
    assert_cli_contract(proc)
    assert proc.returncode == code, proc.stderr
    lead = lead[0] if lead else {0: "", 2: "error:", 3: "failure:"}[code]
    assert proc.stderr.startswith(lead) if lead else proc.stderr == ""


# the values a sweep draws: zero and units, two subnormals, the edge of the float range, inf and nan
SWEEP_VALUES = ("0", "1", "-1", "5e-324", "1e-320", "1e300", "-1e300", "1e308", "inf", "-inf", "nan")


def sweep_command(rng, workdir):
    """A random curves, lp, fisher, eff, simulate-bd or fit command; every value goes
    as --flag=value, so a leading minus sign is never read as a flag.  ``lp --fit`` and
    ``fit`` first write their random fit report or data file into the directory ``workdir``."""
    def values(k, sep=","):
        return sep.join(rng.choice(SWEEP_VALUES) for _ in range(k))

    kind = rng.choice(("curves", "lp", "fisher", "eff", "simulate-bd", "fit"))
    if kind == "eff":
        return ["eff", f"--rho12={values(1)}", f"--rhoy21={values(1)}"]
    if kind == "simulate-bd":
        # small studies and thresholds: a clone stops within a few dozen steps
        argv = ["simulate-bd", f"--birth={values(1)}", f"--death={values(1)}", f"--t-end={values(1)}",
                f"--i0={rng.choice((1, 2, 5))}", "--seed=3", f"--replicates={rng.randint(1, 20)}"]
        if rng.random() < 0.5:
            argv.append(f"--threshold={rng.randint(1, 20)}")
        if rng.random() < 0.3:
            argv.append(f"--bins={rng.randint(1, 5)}")
        return argv
    m = ba.REGISTRY[rng.choice(sorted(ba.REGISTRY))]
    theta = f"--theta={values(m.arity or rng.randint(1, 4))}"
    grid = f"--grid={values(2, ':')}:{rng.randint(2, 5)}"
    if kind == "curves":
        if rng.random() < 0.2:  # a comparison, on each model's default parameters
            return ["curves", f"--model={m.id},{rng.choice(sorted(ba.REGISTRY))}", grid]
        return ["curves", f"--model={m.id}", theta, grid, f"--format={rng.choice(('csv', 'csv', 'svg'))}"]
    if kind == "lp":
        risk = [f"--risk={rng.choice(('total', 'extra'))}"] if rng.random() < 0.3 else []
        argv = ["lp", f"--model={m.id}", f"--p={rng.choice(SWEEP_VALUES + ('0.1',))}", *risk]
        if rng.random() < 0.7:
            return [*argv, theta]
        p = m.arity or rng.randint(1, 4)
        info = np.diag([float(rng.choice(SWEEP_VALUES)) for _ in range(p)]).tolist()
        report = workdir / "fit.json"
        theta_hat = [float(v) for v in values(p).split(",")]
        report.write_text(json.dumps({"model": m.id, "theta_hat": theta_hat, "info": info}))
        return [*argv, f"--fit={report}"]
    if kind == "fit":
        fmt, header, row = rng.choice((
            ("regression", "u,y", lambda: values(2)),
            ("survival", "time,event", lambda: f"{values(1)},{rng.randint(0, 1)}"),
            ("quantal", "dose,n,events", lambda: f"{values(1)},10,{rng.choice((0, 1, 5, 10))}"),
        ))
        data = workdir / "data.csv"
        data.write_text("\n".join([header, *(row() for _ in range(rng.randint(1, 8)))]) + "\n")
        argv = ["fit", f"--model={m.id}", f"--input={data}", f"--data-format={fmt}"]
        return argv if fmt == "survival" else [*argv, theta]
    design = ",".join(values(m.input_dim, ":") for _ in range(rng.randint(1, 4)))
    if m.input_dim == 1 and rng.random() < 0.3:
        return ["fisher", f"--model={m.id}", theta, grid]
    return ["fisher", f"--model={m.id}", theta, f"--at={design}", f"--sigma2={rng.choice(('1', *SWEEP_VALUES))}"]


def test_cli_sweep_keeps_its_contract(capsys, tmp_path):
    # in-process under the suite's warnings-as-errors: a numpy RuntimeWarning fails the test
    rng = random.Random(26)
    for _ in range(12000):
        argv = sweep_command(rng, tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert_cli_contract(types.SimpleNamespace(returncode=code, stdout=out, stderr=err))
        # a nan cell is never an answer; an inf cell is an overflowed value, which waits for
        # ROADMAP item 2 (finite values or a DomainError over each model's whole domain)
        assert not re.search(r"\bnan\b", out, re.I), argv
