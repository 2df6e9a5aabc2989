"""cli-batch: one in-process ``cli.main([...])`` call per operation.

The calls cycle through a fixed script over input files generated at
set-up: per data variant, ``fit`` on a 500-row ``u,y`` CSV and on a
2000-row ``time,event`` CSV, ``lp --fit`` on that fit report, ``fisher
--grid 0.1:3:500``, ``eff``, ``tables`` and ``simulate-bd`` as a
trajectory and as ``--replicates --bins``; once per batch, all twelve
CURVE_GALLERY configurations as CSV plus one as SVG.  stdout is captured.

This is the only part that measures argparse, CSV parsing, ``%.17g``
formatting and JSON, which is the CLI layer.  Curve stdout must match the
stored digests byte for byte; seeded ``simulate-bd`` output is checked
statistically, because an exact extinction sampler may change its bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from bioassay.cli import CURVE_GALLERY, main
from bioassay.models import gradient

import polyptych
import replicate_studies

VARIANTS = 8
REG_ROWS, SURV_ROWS = 500, 2000
LP_P = 0.01
FISHER_GRID = (0.1, 3.0, 500)
FISHER_MODELS = (("one-hit", (1.0,)), ("weibull-cdf", (1.0, 1.5)), ("probit-cdf", (-1.0, 1.5)), ("multistage", (0.05, 0.3, 0.2)))
SVG_CONFIG = ("janoschek", "bertalanffy")
TRAJ = dict(birth=1.0, death=1.0, i0=20, t_end=3.0)
PURE_DEATH_REPS, PURE_DEATH_BINS = 1000, 8
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gallery.sha256.json")


@dataclass(frozen=True)
class Op:
    command: str  # subcommand, the span name suffix
    argv: tuple
    expect: dict  # what the check needs: truths, paths, digests


def _fmt(x):
    return "%.17g" % x


def _write_csv(path, header, cols):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def generate(seed: int, workdir: str) -> list[Op]:
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    ops = []
    rngs = np.random.default_rng(seed).spawn(VARIANTS)
    for k, rng in enumerate(rngs):
        path = lambda name: os.path.join(workdir, f"{name}{k}")  # noqa: E731
        rate = float(rng.uniform(0.8, 1.25))
        u = np.linspace(0.1, 3.0, REG_ROWS)
        y = -np.expm1(-rate * u) + 0.05 * rng.standard_normal(REG_ROWS)
        _write_csv(path("reg") + ".csv", "u,y", (u.tolist(), y.tolist()))
        ops.append(Op("fit", ("fit", "--model", "one-hit", "--input", path("reg") + ".csv", "--data-format",
                              "regression", "--theta", "0.5", "--out", path("fit") + ".json"),
                      {"rate": rate, "u": u, "y": y, "report": path("fit") + ".json"}))

        w_rate, w_shape = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.7, 2.5))
        life = (-np.log(rng.random(SURV_ROWS))) ** (1.0 / w_shape) / w_rate
        cens = rng.exponential(3.0 / w_rate, SURV_ROWS)
        times, events = np.minimum(life, cens), (life <= cens).astype(int)
        _write_csv(path("surv") + ".csv", "time,event", (times.tolist(), events.tolist()))
        ops.append(Op("fit", ("fit", "--model", "weibull-cdf", "--input", path("surv") + ".csv"),
                      {"times": np.asarray([float(_fmt(v)) for v in times]), "flags": events}))

        ops.append(Op("lp", ("lp", "--model", "one-hit", "--theta", _fmt(rate), "--p", str(LP_P), "--fit",
                             path("fit") + ".json"), {"report": path("fit") + ".json"}))

        model, base = FISHER_MODELS[k % len(FISHER_MODELS)]
        theta = [float(v) * float(rng.uniform(0.8, 1.25)) for v in base]
        ops.append(Op("fisher", ("fisher", "--model", model, "--theta=" + ",".join(_fmt(v) for v in theta),
                                 "--grid", "%g:%g:%d" % FISHER_GRID), {"model": model, "theta": theta}))

        rho12, rhoy = (float(v) for v in np.round(rng.uniform(-0.9, 0.9, 2), 6))
        ops.append(Op("eff", ("eff", f"--rho12={rho12!r}", f"--rhoy21={rhoy!r}"), {"rho12": rho12, "rhoy": rhoy}))

        obj, _counts = polyptych._three_way(rng, 3, consistent=k % 2 == 0)
        with open(path("poly") + ".json", "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        ops.append(Op("tables", ("tables", "--input", path("poly") + ".json"), {"obj": obj}))

        bd_seed = str(int(rng.integers(2**31)))
        ops.append(Op("simulate-bd", ("simulate-bd", "--birth", _fmt(TRAJ["birth"]), "--death", _fmt(TRAJ["death"]),
                                      "--i0", str(TRAJ["i0"]), "--t-end", _fmt(TRAJ["t_end"]), "--seed", bd_seed), {}))
        ops.append(Op("simulate-bd", ("simulate-bd", "--birth", "0", "--death", "1", "--t-end", "50", "--replicates",
                                      str(PURE_DEATH_REPS), "--bins", str(PURE_DEATH_BINS), "--seed", bd_seed),
                      {"hazard": True}))
    for config in CURVE_GALLERY:
        ops.append(Op("curves", ("curves", "--model", ",".join(config)), {"sha256": digests[",".join(config)]}))
    svg_key = ",".join(SVG_CONFIG) + " svg"
    ops.append(Op("curves", ("curves", "--model", ",".join(SVG_CONFIG), "--format", "svg"), {"sha256": digests[svg_key]}))
    return ops


def run_op(op: Op, t):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = t.call(f"cli.main.{op.command}", main, list(op.argv))
    return code, out.getvalue(), err.getvalue()


def digest(op: Op, out):
    code, stdout, stderr = out
    if op.command == "fit" and "--out" in op.argv:
        with open(op.expect["report"], encoding="utf-8") as fh:
            stdout = fh.read()
    return code, hashlib.sha256(stdout.encode()).hexdigest(), stderr


# -- checks --------------------------------------------------------------------------


def check(op: Op, out):
    code, stdout, stderr = out
    if code != 0:
        raise AssertionError(f"{' '.join(op.argv)}: exit {code}: {stderr.strip()}")
    check_command = {
        "fit": _check_fit,
        "lp": _check_lp,
        "fisher": _check_fisher,
        "eff": _check_eff,
        "tables": _check_tables,
        "simulate-bd": _check_bd,
        "curves": _check_curves,
    }[op.command]
    check_command(op, stdout)
    return None


def _check_fit(op: Op, stdout: str):
    e = op.expect
    if "report" in e:
        with open(e["report"], encoding="utf-8") as fh:
            rep = json.load(fh)
        ref = optimize.least_squares(lambda th: e["y"] + np.expm1(-th[0] * e["u"]), [0.5], xtol=1e-15, ftol=1e-15, gtol=1e-15)
        se = math.sqrt(1.0 / rep["info"][0][0])
        if not (rep["converged"] and abs(rep["theta_hat"][0] - ref.x[0]) <= 1e-6 * ref.x[0]):
            raise AssertionError(f"fit one-hit {rep['theta_hat']} vs scipy {ref.x}")
        if not abs(rep["theta_hat"][0] - e["rate"]) <= 6.0 * se:
            raise AssertionError(f"fit one-hit {rep['theta_hat']} not within 6 SE of {e['rate']}")
        return
    rep = json.loads(stdout)
    ref_theta, ref_ll, loglik = replicate_studies._ref_weibull(e["times"], e["flags"])
    if not (rep["converged"] and np.allclose(rep["theta_hat"], ref_theta, rtol=1e-3)):
        raise AssertionError(f"fit weibull {rep['theta_hat']} vs reference {ref_theta}")
    if not loglik(np.log(rep["theta_hat"])) >= ref_ll - 1e-7 * abs(ref_ll):
        raise AssertionError("fit weibull below the reference optimum")


def _check_lp(op: Op, stdout: str):
    res = json.loads(stdout)
    with open(op.expect["report"], encoding="utf-8") as fh:
        rate = json.load(fh)["theta_hat"][0]
    want = -math.log1p(-LP_P) / rate
    if not abs(res["Lp"] - want) <= 1e-12 * want:
        raise AssertionError(f"lp {res['Lp']} vs closed form {want}")
    if not (0.0 <= res["vsd"] < res["Lp"] and res["vsd_method"] == "delta"):
        raise AssertionError(f"lp: bad VSD {res['vsd']}")


def _check_fisher(op: Op, stdout: str):
    res = json.loads(stdout)
    design = np.asarray(res["design"], dtype=float)
    if not np.array_equal(design, np.linspace(*FISHER_GRID[:2], FISHER_GRID[2])):
        raise AssertionError("fisher design differs from the requested grid")
    jac = np.atleast_2d(gradient(op.expect["model"], design, op.expect["theta"]))
    want = jac.T @ jac
    got = np.asarray(res["info"])
    if not np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)):
        raise AssertionError(f"fisher {op.expect['model']}: info differs from J^T J")


def _check_eff(op: Op, stdout: str):
    res = json.loads(stdout)
    r12, ry = op.expect["rho12"], op.expect["rhoy"]
    want = (1.0 - r12**2) / (1.0 - ry**2)
    label = "unity" if abs(r12) == abs(ry) else ("below" if want < 1.0 else "above")
    if not (abs(res["eff"] - want) <= 1e-12 * want and res["class"] == label):
        raise AssertionError(f"eff {res} vs {want} {label}")


def _check_tables(op: Op, stdout: str):
    res = json.loads(stdout)
    polyptych.check(polyptych.Op("small", "three-way", 3, op.expect["obj"], None), (res["consistent"], None))


def _check_curves(op: Op, stdout: str):
    got = hashlib.sha256(stdout.encode()).hexdigest()
    if got != op.expect["sha256"]:
        raise AssertionError(f"curves {' '.join(op.argv[1:])}: stdout digest {got[:12]} differs from the stored one")


def _check_bd(op: Op, stdout: str):
    lines = stdout.strip().split("\n")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if op.expect.get("hazard"):
        if lines[0] != "t_mid,hazard":
            raise AssertionError(f"simulate-bd: header {lines[0]}")
        # pure death from one cell: Exp(1) extinction times.  The estimator
        # divides events in a bin of width w by those at risk at its start,
        # so its mean is (1 - e^-w) / w with a binomial spread.
        mids, rates = rows[:, 0], rows[:, 1]
        w = mids[1] - mids[0]
        q = -math.expm1(-w)
        for mid, rate in zip(mids, rates):
            at_risk = PURE_DEATH_REPS * math.exp(-(mid - w / 2))
            if at_risk >= 50 and not abs(rate * w - q) <= 5.0 * math.sqrt(q * (1 - q) / at_risk):
                raise AssertionError(f"simulate-bd: hazard {rate} at t={mid} vs {q / w}")
        return
    if lines[0] != "t,population":
        raise AssertionError(f"simulate-bd: header {lines[0]}")
    t, pop = rows[:, 0], rows[:, 1]
    if not (t[0] == 0.0 and pop[0] == TRAJ["i0"] and np.all(np.diff(t) > 0) and t[-1] <= TRAJ["t_end"]):
        raise AssertionError("simulate-bd: trajectory times or start wrong")
    if not (np.all(np.abs(np.diff(pop)) == 1) and np.all(pop[:-1] > 0) and pop[-1] >= 0):
        raise AssertionError("simulate-bd: population steps are not +-1")
    # a critical process keeps its mean; its variance grows as 2 b t i0
    sd = math.sqrt(2.0 * TRAJ["birth"] * TRAJ["t_end"] * TRAJ["i0"])
    if not abs(pop[-1] - TRAJ["i0"]) <= 6.0 * sd:
        raise AssertionError(f"simulate-bd: final population {pop[-1]}")


def op_counts(op: Op, out) -> dict:
    return {f"cli.exit.{out[0]}": 1}
