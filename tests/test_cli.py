"""Command-line surface: schemas, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

import bioassay as ba
from bioassay.cli import CURVE_GALLERY, main


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


def test_lp_fit_report_without_theta_hat_exit_2(tmp_path, capsys):
    fit_path = tmp_path / "bad.json"
    fit_path.write_text(json.dumps({"model": "one-hit", "info": [[1.0]]}))
    code, out, err = run_cli(
        capsys, "lp", "--model", "one-hit", "--theta", "1", "--p", "0.1", "--fit", str(fit_path)
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "theta_hat" in err


def test_lp_unattainable_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "lp", "--model", "multistage", "--theta", "0.2", "--p", "0.9", "--risk", "total"
    )
    assert code == 3
    assert "supremum" in err


def test_eff_command(capsys):
    code, out, _ = run_cli(capsys, "eff", "--rho12", "0", "--rhoy21", "0")
    assert code == 0
    report = json.loads(out)
    assert report["eff"] == 1.0
    assert report["class"] == "unity"


def test_fisher_command_row_major(capsys):
    code, out, _ = run_cli(
        capsys, "fisher", "--model", "exp-time-power", "--theta", "2,3", "--at", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["info"] == [[1.0, 0.0], [0.0, 0.0]]


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


def test_tables_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "tables", "--input", str(path))
    assert code == 2


# -- simulate-bd -------------------------------------------------------------------------

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


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "bioassay", "eff", "--rho12", "0", "--rhoy21", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["eff"] == 1.0
