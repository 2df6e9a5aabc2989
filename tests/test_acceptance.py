"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here, not calibrated elsewhere.
"""

import functools
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import bioassay as ba
from bioassay.birthdeath import BirthDeathSpec, simulate_bd, simulate_replicates
from bioassay.cli import CURVE_GALLERY, main as cli_main
from bioassay.covariates import CorrelationPair, efficiency, omission_experiment
from bioassay.fisher import WeibullSample, per_obs_info
from bioassay.fitting import RegressionDataset, fit_least_squares, weibull_mle, weibull_score, weibull_theta_star
from bioassay.lowdose import PercentileQuery, percentile, vsd_upper_limit
from bioassay.models import get_model

from conftest import all_models, fd_gradient, integer_table_exists, rel_err, sample_point
from fisher_reference import (
    MONOMOLECULAR,
    power_law_info,
    saturating_exp_info,
    weibull_recon_tabulated_gradient,
    weibull_recon_tabulated_info,
)


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number:2d} PASS  {description}  [{elapsed:.1f}s]")

        return wrapper

    return deco


def _rel_close(got, want, tol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = np.maximum(np.abs(got), np.abs(want))
    ok = np.abs(got - want) <= tol * denom
    ok |= (got == 0) & (want == 0)
    return bool(np.all(ok))


@criterion(1, "analytic gradients match finite differences (27 models x 100 points, <=1e-6)")
def test_criterion_1_gradient_conformance():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    models = all_models()
    assert len(models) == 27
    for model in models:
        for _ in range(100):
            u, theta = sample_point(model, rng)
            a = ba.gradient(model, u, theta)
            f = fd_gradient(model, u, theta)
            assert np.max(rel_err(a, f)) <= 1e-6, model.id
    assert time.perf_counter() - start < 10.0


@criterion(2, "tabulated information matrices match outer products (1e-10, 50 points)")
def test_criterion_2_printed_fim_conformance():
    rng = np.random.default_rng(102)
    power_law = get_model("exp-time-power")
    recon = get_model("weibull-reconstructed")
    for _ in range(50):
        sigma2 = 0.5 + rng.random()

        u, theta = sample_point(power_law, rng)
        assert _rel_close(
            power_law_info(u, theta, sigma2),
            per_obs_info(power_law, u, theta, sigma2).entries,
            1e-10,
        )

        u, theta = sample_point(MONOMOLECULAR, rng)
        assert _rel_close(
            saturating_exp_info(u, theta, sigma2),
            per_obs_info(MONOMOLECULAR, u, theta, sigma2).entries,
            1e-10,
        )

        u, theta = sample_point(recon, rng)
        g = weibull_recon_tabulated_gradient(u, theta)
        table = weibull_recon_tabulated_info(u, theta, sigma2)
        assert _rel_close(table, np.outer(g, g) / sigma2, 1e-10)
        # all ten distinct closed-form entries are exercised
        assert table.shape == (4, 4)


@criterion(3, "per-observation information is symmetric PSD with rank <= 1")
def test_criterion_3_rank_psd():
    rng = np.random.default_rng(103)
    for model in all_models():
        for _ in range(50):
            u, theta = sample_point(model, rng)
            m = per_obs_info(model, u, theta).entries
            assert np.array_equal(m, m.T), model.id
            eig = np.linalg.eigvalsh(m)
            trace = np.trace(m)
            assert eig[0] >= -1e-10 * max(1.0, trace), model.id
            if m.shape[0] > 1:
                assert eig[-2] <= 1e-10 * max(trace, 1e-300), model.id


@criterion(4, "level-parameter block of the information is bitwise-independent of theta0")
def test_criterion_4_additive_shift():
    rng = np.random.default_rng(104)
    for model_id in ("tanh", "tanh4"):
        model = get_model(model_id)
        for _ in range(25):
            u, theta = sample_point(model, rng)
            blocks = []
            for theta0 in (-5.0, 0.0, 7.0):
                th = theta.copy()
                th[0] = theta0
                blocks.append(per_obs_info(model, u, th).entries[1:, 1:])
            assert np.array_equal(blocks[0], blocks[1]) and np.array_equal(blocks[0], blocks[2])


@criterion(5, "Weibull MLE: closed-form rate zeroes the score; joint fit recovers truth")
def test_criterion_5_weibull_mle():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(200):
        n = int(rng.integers(2, 80))
        s = 0.2 + 3.0 * rng.random()
        times = rng.weibull(max(s, 0.3), n) + 0.01
        flags = (rng.random(n) < 0.75).astype(int)
        if flags.sum() == 0:
            flags[int(rng.integers(0, n))] = 1
        sample = WeibullSample(times, flags)
        star = weibull_theta_star(sample, s)
        assert abs(weibull_score(sample, star, s)[0]) < 1e-10

    truth = np.array([1.0, 1.0])
    hits = 0
    for rep in range(100):
        rep_rng = np.random.default_rng((105, rep))
        sample = WeibullSample.all_events(rep_rng.weibull(truth[1], 2000) / truth[0])
        fit = weibull_mle(sample)
        assert fit.converged
        se = fit.standard_errors()
        if np.all(np.abs(fit.theta_hat - truth) < 3 * se):
            hits += 1
    assert hits >= 95, f"only {hits}/100 replicates within 3 SEs"
    assert time.perf_counter() - start < 30.0


@criterion(6, "low-dose round trip and closed-form/bisection agreement at 1e-10")
def test_criterion_6_low_dose_round_trip():
    cases = [
        ("one-hit", (1.2,)),
        ("multi-hit", (2.0, 1.1)),
        ("weibull-cdf", (0.9, 1.6)),
        ("multistage", (0.0, 0.8, 0.5)),
    ]
    for model, theta in cases:
        for p in (0.001, 0.01, 0.05, 0.1, 0.5):
            q = PercentileQuery(model, theta, p, risk_type="total")
            lp = percentile(q)
            assert abs(ba.evaluate(model, lp, theta) - p) <= 1e-10, (model, p)
            root = replace(get_model(model), inverse=None)  # the bracketed root on the same curve
            lp_bisect = percentile(PercentileQuery(root, theta, p, risk_type="total"))
            assert abs(lp - lp_bisect) <= 1e-10 * max(1.0, lp), (model, p)


@criterion(7, "VSD parametric-bootstrap coverage at 0.975 lies in [0.955, 0.995]")
def test_criterion_7_vsd_coverage():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    truth = 1.0
    p = 0.1
    true_lp = percentile(PercentileQuery("one-hit", (truth,), p, risk_type="total"))
    xs = np.linspace(0.1, 3.0, 500)
    mean = np.asarray(ba.evaluate("one-hit", xs, [truth]))
    covered = 0
    reps = 1000
    for _ in range(reps):
        y = mean + 0.05 * rng.standard_normal(xs.size)
        fit = fit_least_squares("one-hit", RegressionDataset(xs, y), [0.5])
        res = vsd_upper_limit(
            PercentileQuery("one-hit", (truth,), p, risk_type="total"), fit, confidence=0.975
        )
        covered += res.vsd <= true_lp
    coverage = covered / reps
    assert 0.955 <= coverage <= 0.995, f"coverage {coverage}"
    assert time.perf_counter() - start < 60.0


@pytest.mark.slow
@criterion(8, "efficiency formula matches the Gaussian-linear Monte Carlo within 5%")
def test_criterion_8_efficiency_formula():
    rng = np.random.default_rng(108)
    levels = (0.0, 0.3, -0.3, 0.6, -0.6)
    n, reps, chunk = 5000, 10_000, 250
    for rho12 in levels:
        for r in levels:
            want = efficiency(CorrelationPair(rho12, r))
            if rho12 == 0.0:
                assert want >= 1.0
            beta2 = r / math.sqrt((1.0 - r**2) * (1.0 - rho12**2))
            b1_full = []
            b1_restr = []
            for _ in range(reps // chunk):
                z1 = rng.standard_normal((chunk, n))
                z2 = rng.standard_normal((chunk, n))
                x1 = z1
                x2 = rho12 * z1 + math.sqrt(1.0 - rho12**2) * z2
                y = x1 + beta2 * x2 + rng.standard_normal((chunk, n))
                x1 = x1 - x1.mean(axis=1, keepdims=True)
                x2 = x2 - x2.mean(axis=1, keepdims=True)
                y = y - y.mean(axis=1, keepdims=True)
                s11 = np.einsum("ij,ij->i", x1, x1)
                s12 = np.einsum("ij,ij->i", x1, x2)
                s22 = np.einsum("ij,ij->i", x2, x2)
                b1 = np.einsum("ij,ij->i", x1, y)
                b2 = np.einsum("ij,ij->i", x2, y)
                det = s11 * s22 - s12 * s12
                b1_full.append((b1 * s22 - b2 * s12) / det)
                b1_restr.append(b1 / s11)
            ratio = np.var(np.concatenate(b1_restr), ddof=1) / np.var(np.concatenate(b1_full), ddof=1)
            assert abs(ratio - want) / want < 0.05, (rho12, r, ratio, want)


@criterion(9, "covariate omission attenuates the exposure estimate; no bias when beta1 = 0")
def test_criterion_9_attenuation():
    reps = 500
    diffs = np.empty(reps)
    for rep in range(reps):
        res = omission_experiment(5000, (0.0, 1.0, 1.0), rho12=0.0, seed=9000 + rep)
        diffs[rep] = abs(res.beta1_restricted) - abs(res.beta1_full)
    se = diffs.std(ddof=1) / math.sqrt(reps)
    assert diffs.mean() < -3 * se, f"attenuation margin {diffs.mean() / se:.2f} SEs"

    restr = np.empty(reps)
    for rep in range(reps):
        res = omission_experiment(5000, (0.0, 0.0, 1.0), rho12=0.0, seed=19000 + rep)
        restr[rep] = res.beta1_restricted
    se0 = restr.std(ddof=1) / math.sqrt(reps)
    assert abs(restr.mean()) < 3 * se0, f"beta1* mean {restr.mean():.4g} vs SE {se0:.4g}"


@criterion(10, "LP consistency agrees with exhaustive integer enumeration on small diptychs")
def test_criterion_10_polyptych_oracle():
    from bioassay.tables import CategoryAttribute, Polyptych, SummaryTable, SummaryVariable, check_consistency

    start = time.perf_counter()
    counts = SummaryVariable("count", "nonneg-integer")

    def vectors(parts, total_cap):
        out = []
        for total in range(total_cap + 1):
            for combo in itertools.product(range(total + 1), repeat=parts - 1):
                if sum(combo) <= total:
                    out.append(combo + (total - sum(combo),))
        return sorted(set(out))

    for size in (2, 3):
        row = CategoryAttribute("row", tuple(f"r{i}" for i in range(size)))
        col = CategoryAttribute("col", tuple(f"c{i}" for i in range(size)))
        vecs = vectors(size, 12)
        checked = 0
        for rows_v in vecs:
            for cols_v in vecs:
                t_rows = SummaryTable(
                    scheme=(row,), variable=counts,
                    cells={(c,): v for c, v in zip(row.domain, rows_v)},
                )
                t_cols = SummaryTable(
                    scheme=(col,), variable=counts,
                    cells={(c,): v for c, v in zip(col.domain, cols_v)},
                )
                verdict = check_consistency(Polyptych(tables=(t_rows, t_cols)))
                oracle = integer_table_exists(rows_v, cols_v)
                assert verdict.consistent == oracle, (rows_v, cols_v)
                checked += 1
        assert checked == len(vecs) ** 2
    assert time.perf_counter() - start < 60.0


@criterion(11, "birth-death extinction statistics match closed forms; runs are byte-exact")
def test_criterion_11_birth_death():
    spec = BirthDeathSpec(b=1.0, d=1.0, i0=1, t_end=1.0, seed=111)
    reps = simulate_replicates(spec, 10_000)
    freq = np.mean([r.outcome == "extinct" for r in reps])
    se = math.sqrt(0.5 * 0.5 / 10_000)
    assert abs(freq - 0.5) < 3 * se, f"extinction frequency {freq}"

    pure_death = BirthDeathSpec(b=0.0, d=1.0, i0=1, t_end=200.0, seed=112)
    times = np.array([r.time for r in simulate_replicates(pure_death, 10_000)])
    mc_se = times.std(ddof=1) / math.sqrt(times.size)
    assert abs(times.mean() - 1.0) < 3 * mc_se

    probe = BirthDeathSpec(b=1.3, d=0.9, i0=2, t_end=4.0, seed=113)
    a, b = simulate_bd(probe), simulate_bd(probe)
    assert a.times.tobytes() == b.times.tobytes()
    assert a.populations.tobytes() == b.populations.tobytes()


@criterion(12, "unit-parameter curve gallery: expected shapes and byte-stable CSV")
def test_criterion_12_curve_gallery(tmp_path, capsys):
    assert len(CURVE_GALLERY) == 12

    increasing = {
        "gompertz", "janoschek", "bertalanffy", "tanh", "tanh3", "tanh4",
        "exp-time-power", "exp-time-power-repar",
    }
    decreasing = {"logistic", "gen-logistic-i", "gen-logistic-ii"}
    sigmoid_mid = {"tanh": 1.0, "tanh3": 0.5, "tanh4": 1.0}

    for config in CURVE_GALLERY:
        outputs = []
        for _ in range(2):
            code = cli_main(["curves", "--model", ",".join(config)])
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out)
        assert outputs[0] == outputs[1], f"unstable output for {config}"

        lines = outputs[0].strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "u" and list(config) == header[1:]
        grid = np.array([float(row.split(",")[0]) for row in lines[1:]])
        assert len(grid) == 500
        for k, model_id in enumerate(config, start=1):
            vals = np.array([float(row.split(",")[k]) for row in lines[1:]])
            finite = np.isfinite(vals)
            v = vals[finite]
            g = grid[finite]
            assert v.size > 100, model_id
            if model_id == "weibull-reconstructed":
                # upper and lower levels coincide at unit parameters
                assert np.max(np.abs(v - 1.0)) < 1e-12
            elif model_id in increasing:
                assert np.all(np.diff(v) >= -1e-12), model_id
                assert v[-1] > v[0], model_id
            elif model_id in decreasing:
                assert np.all(np.diff(v) <= 1e-12), model_id
                assert v[-1] < v[0], model_id
            if model_id in sigmoid_mid:
                at_one = v[np.argmin(np.abs(g - 1.0))]
                assert abs(at_one - sigmoid_mid[model_id]) < 0.02, model_id
