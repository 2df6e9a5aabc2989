"""Fitting procedures: Weibull MLE, Gauss-Newton, logit, KS test."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, least_squares, minimize_scalar

import bioassay as ba
from bioassay import fitting
from bioassay.birthdeath import BirthDeathSpec, simulate_replicates
from bioassay.exceptions import DomainError, SeparationError
from bioassay.fisher import WeibullSample, weibull_observed_info
from bioassay.fitting import (
    BinaryDataset,
    FitResult,
    RegressionDataset,
    fit_least_squares,
    fit_logit,
    ks_test,
    relative_risk,
    weibull_log_likelihood,
    weibull_mle,
    weibull_score,
    weibull_theta_star,
)


def _weibull_times(rng, theta, s, n):
    # inverse transform: F(t) = 1 - exp(-(theta t)^s)
    return rng.weibull(s, n) / theta


# -- closed-form rate profile -------------------------------------------------

def test_theta_star_simple_cases():
    assert weibull_theta_star(WeibullSample.all_events([1.0, 1.0]), 1.0) == pytest.approx(1.0)
    assert weibull_theta_star(WeibullSample.all_events([1.0] * 4), 2.0) == pytest.approx(1.0)


def test_theta_star_zeroes_the_score(rng):
    for _ in range(200):
        n = int(rng.integers(2, 60))
        s = 0.2 + 3.0 * rng.random()
        times = rng.weibull(max(s, 0.3), n) + 0.01
        flags = (rng.random(n) < 0.7).astype(int)
        if flags.sum() == 0:
            flags[rng.integers(0, n)] = 1
        sample = WeibullSample(times, flags)
        star = weibull_theta_star(sample, s)
        assert abs(weibull_score(sample, star, s)[0]) < 1e-10


def test_weibull_score_matches_fd(rng):
    for _ in range(30):
        n = int(rng.integers(3, 40))
        times = rng.weibull(1.5, n) + 0.05
        flags = (rng.random(n) < 0.8).astype(int)
        if flags.sum() == 0:
            flags[0] = 1
        sample = WeibullSample(times, flags)
        theta = 0.3 + 2.0 * rng.random()
        s = 0.4 + 2.0 * rng.random()
        score = weibull_score(sample, theta, s)

        def l(th, sh):
            return weibull_log_likelihood(sample, th, sh)

        ht, hs = 1e-5 * theta, 1e-5 * s
        fd = np.array([(l(theta + ht, s) - l(theta - ht, s)) / (2 * ht), (l(theta, s + hs) - l(theta, s - hs)) / (2 * hs)])
        assert np.max(np.abs(score - fd) / np.maximum(1.0, np.abs(score))) < 1e-6


def test_theta_star_matches_numeric_maximizer(rng):
    for _ in range(10):
        times = rng.weibull(1.7, 30) + 0.05
        sample = WeibullSample.all_events(times)
        s = 1.7
        res = minimize_scalar(
            lambda th: -weibull_log_likelihood(sample, th, s),
            bounds=(1e-6, 50.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert weibull_theta_star(sample, s) == pytest.approx(res.x, abs=1e-8)


def test_theta_star_rejects_no_events():
    sample = WeibullSample([1.0, 2.0], [0, 0])
    with pytest.raises(DomainError, match="no events"):
        weibull_theta_star(sample, 1.0)


# -- full Weibull MLE -----------------------------------------------------------

def test_weibull_mle_recovers_truth_within_3_se():
    rng = np.random.default_rng(42)
    truth = (1.0, 1.0)
    sample = WeibullSample.all_events(_weibull_times(rng, *truth, 2000))
    fit = weibull_mle(sample)
    assert fit.converged
    se = fit.standard_errors()
    assert abs(fit.theta_hat[0] - truth[0]) < 3 * se[0]
    assert abs(fit.theta_hat[1] - truth[1]) < 3 * se[1]
    assert np.max(np.abs(weibull_score(sample, *fit.theta_hat))) < 1e-8


def test_weibull_mle_needs_two_events():
    sample = WeibullSample([1.0, 2.0, 3.0], [1, 0, 0])
    with pytest.raises(DomainError, match="two events"):
        weibull_mle(sample)


def test_weibull_profile_beats_random_probes(rng):
    times = _weibull_times(rng, 0.8, 1.4, 200)
    sample = WeibullSample.all_events(times)
    fit = weibull_mle(sample)
    best = weibull_log_likelihood(sample, *fit.theta_hat)
    for _ in range(100):
        s = 0.05 + (50.0 - 0.05) * rng.random()
        ll = weibull_log_likelihood(sample, weibull_theta_star(sample, s), s)
        assert ll <= best + 1e-9


def test_weibull_mle_identical_times_hits_boundary():
    sample = WeibullSample.all_events([2.0] * 10)
    fit = weibull_mle(sample)
    assert not fit.converged
    assert "boundary" in fit.message


def _censored_weibull_samples(seed, count):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        n = int(rng.integers(10, 200))
        theta, s = rng.uniform(0.2, 5.0), rng.uniform(0.3, 5.0)
        times = _weibull_times(rng, theta, s, n)
        censor = rng.exponential(rng.uniform(0.5, 5.0) / theta, n)
        flags = (times <= censor).astype(int)
        flags[:2] = 1
        samples.append(WeibullSample(np.minimum(times, censor), flags))
    return samples


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6, 1e9])
def test_weibull_mle_is_free_of_the_time_unit(c):
    # unless the fit is free of the unit, t^s overflows at c = 1e9 and an absolute
    # score test fails at c >= 1e7
    for sample in _censored_weibull_samples(17, 100):
        ref = weibull_mle(sample)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = weibull_mle(WeibullSample(c * sample.times, sample.event_flags))
        assert ref.converged and fit.converged, fit.message
        np.testing.assert_allclose(fit.theta_hat, [ref.theta_hat[0] / c, ref.theta_hat[1]], rtol=1e-12)
        # the fit's report agrees with the likelihood functions at its estimate
        for at, f in ((sample, ref), (WeibullSample(c * sample.times, sample.event_flags), fit)):
            assert f.objective == pytest.approx(weibull_log_likelihood(at, *f.theta_hat), rel=1e-12)
            np.testing.assert_allclose(f.info.entries, -weibull_observed_info(at, *f.theta_hat), rtol=1e-10)


def test_weibull_functions_finite_at_a_large_unit_fit():
    # at s = 36.5 and times near 1e9, t^s and theta^s overflow on their own
    times = np.random.default_rng(0).weibull(35, 200) * 1e9
    sample = WeibullSample.all_events(times)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = weibull_mle(sample)
        theta, s = fit.theta_hat
        assert fit.converged and s == pytest.approx(36.47, abs=0.01)
        c = math.exp(np.log(times).mean())  # unit-free values on times / c
        scaled = WeibullSample.all_events(times / c)
        jac = np.array([theta, 1.0])  # theta dl/dtheta and dl/ds are unit-free
        score = weibull_score(sample, theta, s) * jac
        info = weibull_observed_info(sample, theta, s) * np.outer(jac, jac)
        ll = weibull_log_likelihood(sample, theta, s)
        star = weibull_theta_star(sample, s)
        ref_jac = np.array([theta * c, 1.0])
        ref_score = weibull_score(scaled, theta * c, s) * ref_jac
        ref_info = weibull_observed_info(scaled, theta * c, s) * np.outer(ref_jac, ref_jac)
        ref_ll = weibull_log_likelihood(scaled, theta * c, s)
        ref_star = weibull_theta_star(scaled, s)
    for v in (score, info, ll, star):
        assert np.all(np.isfinite(v))
    # the score vanishes at the fit; its terms are of order d
    np.testing.assert_allclose(score, ref_score, rtol=0, atol=1e-10 * sample.d)
    np.testing.assert_allclose(info, ref_info, rtol=1e-10)
    assert ll + sample.d * math.log(c) == pytest.approx(ref_ll, rel=1e-10)
    assert star * c == pytest.approx(ref_star, rel=1e-10)


def _replicate_study_samples():
    # the three seeded studies of the benchmark, analysed as it does
    samples = []
    for (b, d, i0, t_end), n, threshold in [
        ((1.0, 1.0, 1, 20.0), 200, None),
        ((0.5, 1.0, 2, 5.0), 200, None),
        ((1.5, 1.0, 1, 40.0), 120, 100),
    ]:
        for seed in range(5):
            reps = simulate_replicates(BirthDeathSpec(b, d, i0, t_end, seed=seed), n, threshold=threshold)
            event = "onset" if threshold else "extinct"
            flags = [int(r.outcome == event) for r in reps]
            samples.append(WeibullSample([r.time for r in reps], flags))
    return samples


def _profile_score_root(sample):
    """Oracle: Brent's root of the profile score, written out on the times
    over their geometric mean, to near machine precision."""
    x = np.log(sample.times) - np.log(sample.times).mean()
    event_mean = x[sample.event_flags == 1].sum() / sample.d

    def g(s):
        w = np.exp(s * x - (s * x).max())
        return 1.0 / s + event_mean - (w @ x) / w.sum()

    return brentq(g, 0.05, 50.0, xtol=1e-300, rtol=4 * np.finfo(float).eps)


def test_weibull_mle_newton_matches_brentq_oracle():
    large_unit = WeibullSample.all_events(np.random.default_rng(0).weibull(35, 200) * 1e9)
    samples = _censored_weibull_samples(17, 100) + [large_unit] + _replicate_study_samples()
    for sample in samples:
        fit = weibull_mle(sample)
        assert fit.converged, fit.message
        assert fit.iterations <= 12
        assert fit.theta_hat[1] == pytest.approx(_profile_score_root(sample), rel=1e-12, abs=0)


def test_weibull_mle_reports_the_step_cap(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_WEIBULL_ITER", 2)
    fit = weibull_mle(_censored_weibull_samples(17, 1)[0])
    assert not fit.converged and fit.iterations == 4
    assert "not converged in 2 steps" in fit.message


# -- Gauss-Newton least squares ---------------------------------------------------

def test_noiseless_logistic_recovery():
    truth = np.array([2.0, 1.5, -1.0])
    xs = np.linspace(-2.0, 4.0, 40)
    y = np.asarray(ba.evaluate("logistic", xs, truth))
    fit = fit_least_squares("logistic", RegressionDataset(xs, y), [1.0, 1.0, -0.5])
    assert fit.converged
    assert np.max(np.abs(fit.theta_hat - truth)) < 1e-6
    assert fit.objective < 1e-12


def test_noiseless_mm_recovery():
    xs = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    y = np.asarray(ba.evaluate("mm", xs, [2.0, 1.0]))
    fit = fit_least_squares("mm", RegressionDataset(xs, y), [1.0, 2.0])
    assert np.max(np.abs(fit.theta_hat - [2.0, 1.0])) < 1e-6


def test_noisy_gompertz_replicates_within_5_se():
    rng = np.random.default_rng(11)
    truth = np.array([1.0, 0.8, 0.4])
    xs = np.linspace(0.0, 3.0, 60)
    mean = np.asarray(ba.evaluate("gompertz", xs, truth))
    for _ in range(100):
        y = mean + 0.01 * rng.standard_normal(xs.size)
        fit = fit_least_squares("gompertz", RegressionDataset(xs, y), [1.2, 0.6, 0.5])
        se = fit.standard_errors()
        assert np.all(np.abs(fit.theta_hat - truth) < 5 * se)


def test_least_squares_never_increases_sse():
    rng = np.random.default_rng(3)
    xs = np.linspace(0.2, 6.0, 30)
    y = np.asarray(ba.evaluate("mm", xs, [2.0, 1.0])) + 0.05 * rng.standard_normal(30)
    data = RegressionDataset(xs, y)
    start = np.array([0.5, 3.0])
    r0 = y - np.asarray(ba.evaluate("mm", xs, start))
    fit = fit_least_squares("mm", data, start)
    assert fit.objective <= float(r0 @ r0)


def test_least_squares_damping_handles_singular_normal_equations():
    # identical parallel components duplicate Jacobian columns exactly
    rng = np.random.default_rng(13)
    xs = np.linspace(0.2, 8.0, 40)
    y = np.asarray(ba.evaluate("mm-parallel", xs, [1.0, 1.0, 1.0, 1.0]))
    y = y + 0.01 * rng.standard_normal(40)
    fit = fit_least_squares("mm-parallel", RegressionDataset(xs, y), [1.1, 0.9, 0.9, 1.1])
    pred = np.asarray(ba.evaluate("mm-parallel", xs, fit.theta_hat))
    assert float(np.mean((pred - y) ** 2)) < 4e-4  # fits the ridge despite singularity


def test_least_squares_damping_ladder_recovers_from_a_zero_asymptote():
    # a zero asymptote zeroes the shape and rate columns of the Jacobian: the undamped
    # normal equations are singular, and only the Levenberg ladder finds a first step
    xs = np.linspace(0.1, 3.0, 25)
    y = np.asarray(ba.evaluate("logistic", xs, [2.0, 1.0, -1.5])) + 0.01 * np.random.default_rng(3).standard_normal(25)
    fit = fit_least_squares("logistic", RegressionDataset(xs, y), [0.0, 1.0, -1.0])
    assert fit.converged and fit.iterations == 6
    assert [v.hex() for v in fit.theta_hat.tolist()] == [
        "0x1.008b3070b93a1p+1", "0x1.011b992267c27p+0", "-0x1.7ba598a43c1f6p+0",
    ]
    assert fit.objective.hex() == "0x1.a8f2e4aa48594p-9"


def test_least_squares_halves_steps_at_a_parameter_bound():
    # the unconstrained optimum has a negative intercept; Gauss-Newton steps
    # leave the domain (coefficients >= 0) and must be halved back into it
    xs = np.linspace(0.0, 3.0, 20)
    y = np.asarray(ba.evaluate("multistage", xs, [0.0, 0.3, 0.2])) - 0.01
    start = np.array([0.05, 0.3, 0.2])
    r0 = y - np.asarray(ba.evaluate("multistage", xs, start))
    fit = fit_least_squares("multistage", RegressionDataset(xs, y), start)
    assert fit.converged
    assert np.all(fit.theta_hat >= 0.0) and fit.theta_hat[0] < 1e-6
    assert fit.objective < float(r0 @ r0)


def _sse_and_score(model, xs, y, theta):
    r = y - np.asarray(ba.evaluate(model, xs, theta))
    return float(r @ r), np.atleast_2d(ba.gradient(model, xs, theta)).T @ r


def _trf_sse(model, xs, y, start, lows):
    ref = least_squares(
        lambda th: y - np.asarray(ba.evaluate(model, xs, th)), start,
        bounds=(lows, np.inf), method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15,
    )
    return _sse_and_score(model, xs, y, ref.x)[0]


def _assert_bound_kkt(fit, model, xs, y, lows):
    """Projected gradient about 0; every binding slot on its bound, pushed outward."""
    sse, score = _sse_and_score(model, xs, y, fit.theta_hat)  # score = J^T r, minus half the SSE gradient
    assert fit.objective == sse
    free = [i for i in range(score.size) if i not in fit.active_bounds]
    assert np.all(np.abs(score[free]) <= 1e-5)
    for i in fit.active_bounds:
        assert fit.theta_hat[i] == lows[i] and score[i] < 0.0
    assert np.all(fit.theta_hat >= lows)


def test_least_squares_reaches_the_optimum_on_a_bound():
    # the case of test_least_squares_halves_steps_at_a_parameter_bound: the
    # intercept wants to go negative, and projected steps hold it at 0
    xs = np.linspace(0.0, 3.0, 20)
    y = np.asarray(ba.evaluate("multistage", xs, [0.0, 0.3, 0.2])) - 0.01
    start = np.array([0.05, 0.3, 0.2])
    fit = fit_least_squares("multistage", RegressionDataset(xs, y), start)
    assert fit.converged
    assert fit.active_bounds == (0,)
    assert fit.theta_hat[0] == 0.0
    ref = _trf_sse("multistage", xs, y, start, 0.0)
    assert abs(fit.objective - ref) <= 1e-9 * ref
    _assert_bound_kkt(fit, "multistage", xs, y, np.zeros(3))
    back = FitResult.from_dict(fit.to_dict())
    assert back.active_bounds == (0,)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stages=st.integers(2, 3), offset=st.floats(0.0, 0.05))
def test_multistage_bound_fit_matches_trf_and_kkt(seed, stages, offset):
    rng = np.random.default_rng(seed)
    truth = np.where(rng.random(stages) < 0.4, 0.0, rng.uniform(0.0, 0.5, stages))
    xs = np.linspace(0.0, 3.0, int(rng.integers(10, 40)))
    y = np.asarray(ba.evaluate("multistage", xs, truth)) - offset + 0.01 * rng.standard_normal(xs.size)
    start = truth + rng.uniform(0.01, 0.3, stages)
    fit = fit_least_squares("multistage", RegressionDataset(xs, y), start)
    assert fit.converged
    assert fit.objective <= _trf_sse("multistage", xs, y, start, 0.0) * (1.0 + 1e-9)
    _assert_bound_kkt(fit, "multistage", xs, y, np.zeros(stages))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(0.0, 0.3))
def test_leaf_response_bound_fit_matches_trf_and_kkt(seed, offset):
    # respiration >= 0 is the one closed bound; a positive offset pushes it there
    rng = np.random.default_rng(seed)
    truth = np.array([rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), rng.uniform(0.0, 0.2)])
    xs = np.linspace(0.0, 5.0, int(rng.integers(10, 40)))
    y = np.asarray(ba.evaluate("leaf-response", xs, truth)) + offset + 0.01 * rng.standard_normal(xs.size)
    start = truth * rng.uniform(0.8, 1.25, 3) + [0.0, 0.0, 0.05]
    fit = fit_least_squares("leaf-response", RegressionDataset(xs, y), start)
    assert fit.converged
    lows = np.array([0.0, 0.0, 0.0])
    assert fit.objective <= _trf_sse("leaf-response", xs, y, start, lows) * (1.0 + 1e-9)
    _assert_bound_kkt(fit, "leaf-response", xs, y, lows)
    assert set(fit.active_bounds) <= {2}


# model, truth, start, dose range, noise seed; then theta_hat, SSE (as float.hex) and
# iterations, recorded before bound projection: a fit that never reaches a bound
# takes the same steps
INTERIOR_FITS = [
    (("logit-cdf", (-2.0, 1.5), (-1.8, 1.3), (0.0, 3.0), 21),
     (("-0x1.043d772bad0ebp+1", "0x1.88bcdc8e92df4p+0"), "0x1.86586df4b1782p-7", 5)),
    (("probit-cdf", (-1.5, 1.0), (-1.3, 1.1), (0.0, 3.0), 22),
     (("-0x1.7c7532f36970dp+0", "0x1.fc352a9839423p-1"), "0x1.9631f11e2c078p-7", 5)),
    (("weibull-cdf", (1.0, 1.5), (0.9, 1.7), (0.1, 3.0), 23),
     (("0x1.feb0f6c33e73bp-1", "0x1.864671b9117ebp+0"), "0x1.f50889f94c830p-8", 6)),
    (("mm", (2.0, 1.0), (1.5, 1.5), (0.2, 6.0), 24),
     (("0x1.ffa5d795a4053p+0", "0x1.002eb1cec3356p+0"), "0x1.1123567c52599p-7", 6)),
]


@pytest.mark.parametrize("case, pinned", INTERIOR_FITS, ids=[c[0][0] for c in INTERIOR_FITS])
def test_interior_fits_take_pinned_steps(case, pinned):
    model, truth, start, (a, b), seed = case
    xs = np.linspace(a, b, 25)
    y = np.asarray(ba.evaluate(model, xs, truth)) + 0.02 * np.random.default_rng(seed).standard_normal(xs.size)
    fit = fit_least_squares(model, RegressionDataset(xs, y), start)
    theta_hex, sse_hex, iterations = pinned
    assert fit.converged and fit.active_bounds == ()
    assert [v.hex() for v in fit.theta_hat.tolist()] == list(theta_hex)
    assert (fit.objective.hex(), fit.iterations) == (sse_hex, iterations)


# the same record for a fit with a frozen slot (multi-hit's hit count) and one that
# ends on a closed bound (leaf-response's respiration, theta[2] >= 0, pushed there by
# the offset); the case adds the point count, the offset and the noise scale
FROZEN_AND_BOUND_FITS = [
    (("multi-hit", (3.0, 1.5), (3.0, 1.2), (0.2, 4.0), 60, 0.0, 0.02, 31),
     (("0x1.8000000000000p+1", "0x1.7cc2321cc372ap+0"), "0x1.19572b73b93fap-6", 5, ())),
    (("leaf-response", (1.5, 1.0, 0.05), (1.4, 1.1, 0.1), (0.0, 5.0), 25, 0.2, 0.01, 32),
     (("0x1.31fd69e780cecp+1", "0x1.1e06106738b57p+0", "0x0.0p+0"), "0x1.00a959a81c99dp-5", 7, (2,))),
]


@pytest.mark.parametrize("case, pinned", FROZEN_AND_BOUND_FITS, ids=[c[0][0] for c in FROZEN_AND_BOUND_FITS])
def test_frozen_and_bound_fits_take_pinned_steps(case, pinned):
    model, truth, start, (a, b), n, offset, sigma, seed = case
    xs = np.linspace(a, b, n)
    y = np.asarray(ba.evaluate(model, xs, truth)) + offset + sigma * np.random.default_rng(seed).standard_normal(n)
    fit = fit_least_squares(model, RegressionDataset(xs, y), start)
    theta_hex, sse_hex, iterations, active = pinned
    assert fit.converged and fit.active_bounds == active
    assert [v.hex() for v in fit.theta_hat.tolist()] == list(theta_hex)
    assert (fit.objective.hex(), fit.iterations) == (sse_hex, iterations)


def test_least_squares_whose_residual_sum_overflows_is_a_domain_error():
    # residuals near -1e308: their squares leave the float range at every candidate
    data = RegressionDataset([1.0, 2.0, 3.0], [1e308] * 3)
    with pytest.raises(DomainError, match=r"mm: the residual sum of squares is not finite at theta=\[1.0, 1.0\]"):
        fit_least_squares("mm", data, [1.0, 1.0])


def test_weibull_fit_whose_rate_underflows_is_a_domain_error():
    # the rate e^log_theta / c underflows to 0, and the information divides by its square
    with pytest.raises(DomainError, match="information matrix must be finite"):
        weibull_mle(WeibullSample([0.1, 0.1, 1e300], [1, 1, 1]))


def test_least_squares_requires_enough_points():
    with pytest.raises(DomainError, match="at least 2"):
        fit_least_squares("mm", RegressionDataset([1.0], [0.5]), [1.0, 1.0])


def test_multi_hit_standard_errors_hold_the_hit_count_at_zero():
    # the frozen hit count has a zero information row; lambda's error is well defined
    rng = np.random.default_rng(12)
    xs = np.linspace(0.2, 4.0, 500)
    y = np.asarray(ba.evaluate("multi-hit", xs, [3.0, 1.5])) + 0.05 * rng.standard_normal(xs.size)
    fit = fit_least_squares("multi-hit", RegressionDataset(xs, y), [3.0, 1.3])
    assert fit.converged and fit.info.entries[0].tolist() == [0.0, 0.0]
    se = fit.standard_errors()
    assert se[0] == 0.0
    assert se[1] == pytest.approx(math.sqrt(1.0 / fit.info.entries[1, 1]), rel=1e-14)
    # a report read back names the model, so its errors agree
    assert np.array_equal(FitResult.from_dict(fit.to_dict()).standard_errors(), se)


def test_least_squares_s2_absent_at_saturation():
    xs = np.array([1.0, 2.0])
    y = np.asarray(ba.evaluate("mm", xs, [2.0, 1.0]))
    fit = fit_least_squares("mm", RegressionDataset(xs, y), [1.5, 0.8])
    assert fit.s2 is None
    assert fit.info is None


# -- logistic regression ------------------------------------------------------------

def _logit_sim(rng, n, beta, rho12=0.0):
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    x1 = z1
    x2 = rho12 * z1 + math.sqrt(1.0 - rho12**2) * z2
    eta = beta[0] + beta[1] * x1 + beta[2] * x2
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return BinaryDataset(np.column_stack([x1, x2]), y)


def _omit_x2(data):
    return BinaryDataset(data.X[:, :1], data.y)


def test_logit_null_effect_within_3_se():
    rng = np.random.default_rng(5)
    data = _logit_sim(rng, 4000, (0.0, 0.0, 0.7))
    fit = fit_logit(_omit_x2(data))
    assert fit.converged
    se = fit.standard_errors()
    assert abs(fit.theta_hat[1]) < 3 * se[1]


def test_logit_nested_agreement_when_x2_irrelevant():
    rng = np.random.default_rng(6)
    data = _logit_sim(rng, 4000, (0.2, 0.8, 0.0))
    full = fit_logit(data)
    restricted = fit_logit(_omit_x2(data))
    se = full.standard_errors()
    assert abs(full.theta_hat[1] - restricted.theta_hat[1]) < 3 * se[1]


def test_logit_separation_detected():
    data = BinaryDataset(np.array([[-1.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(SeparationError):
        fit_logit(data)


def test_logit_constant_x2_unidentifiable():
    rng = np.random.default_rng(7)
    data = BinaryDataset(
        np.column_stack([rng.standard_normal(100), np.full(100, 2.0)]),
        (rng.random(100) < 0.5).astype(float),
    )
    with pytest.raises(DomainError, match="rank deficient"):
        fit_logit(data)


@pytest.mark.parametrize("scale, rejected", [(1e7, False), (1e9, True)])
def test_logit_rank_check_sits_at_condition_number_4e7(scale, rejected):
    # x2 = scale * w makes the design's condition number about `scale`.  The
    # rank of X^T X rejects past (3 eps)^(-1/2) = 3.9e7; an SVD of X would
    # accept both designs (up to 1 / (n eps) = 9e11).
    rng = np.random.default_rng(3)
    x1, w = rng.standard_normal((2, 5000))
    y = (rng.random(5000) < 1.0 / (1.0 + np.exp(0.3 - 0.7 * x1 - 0.5 * w))).astype(float)
    data = BinaryDataset(np.column_stack([x1, scale * w]), y)
    design = np.column_stack([np.ones(5000), data.X])
    assert np.linalg.matrix_rank(design) == 3
    assert np.linalg.cond(design) == pytest.approx(scale, rel=0.1)
    if rejected:
        with pytest.raises(DomainError, match="rank deficient"):
            fit_logit(data)
    else:
        assert fit_logit(data).theta_hat[2] * scale == pytest.approx(0.5, abs=0.1)


def test_logit_both_classes_required():
    data = BinaryDataset(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError, match="classes"):
        fit_logit(data)


@pytest.mark.parametrize("column", [0, 1], ids=["x1", "x2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_binary_dataset_rejects_non_finite_covariates(column, bad):
    # unchecked, a NaN reached fit_logit's rank check as numpy's "SVD did not
    # converge" and an inf was reported as a rank-deficient design
    X = np.array([[-1.0, 0.2], [0.5, 0.1], [1.0, -0.3], [0.0, 0.4]])
    X[1, column] = bad
    with pytest.raises(DomainError, match=f"column {column} of X must be finite"):
        BinaryDataset(X, np.array([0.0, 1.0, 1.0, 0.0]))


@pytest.mark.parametrize("X", [np.zeros(4), np.zeros((3, 2)), np.zeros((4, 1, 1))], ids=["1-D", "3 rows", "3-D"])
def test_binary_dataset_rejects_design_of_wrong_shape(X):
    with pytest.raises(DomainError, match=r"\(n, k\) design"):
        BinaryDataset(X, np.array([0.0, 1.0, 1.0, 0.0]))


def test_logit_fits_k_covariates():
    # three covariates, one of them pure noise: the design matrix takes any k
    rng = np.random.default_rng(9)
    X = rng.standard_normal((6000, 3))
    y = (rng.random(6000) < 1.0 / (1.0 + np.exp(-(0.2 + X @ [0.8, -0.5, 0.0])))).astype(float)
    fit = fit_logit(BinaryDataset(X, y))
    assert fit.converged and fit.theta_hat.shape == (4,)
    se = fit.standard_errors()
    assert np.all(np.abs(fit.theta_hat - [0.2, 0.8, -0.5, 0.0]) < 4 * se)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_regression_dataset_rejects_non_finite_responses(bad):
    with pytest.raises(DomainError, match="responses must be finite"):
        RegressionDataset([1.0, 2.0, 3.0], [0.5, bad, 0.7])


@pytest.mark.parametrize("seed", range(12))
def test_logit_converges_at_large_n(seed):
    # near the optimum a Newton step gains about 1e-16, below the ~1e-11 rounding of
    # a summed log-likelihood at n = 50 000; comparing two such sums stalled fits here
    data = _logit_sim(np.random.default_rng(seed), 50_000, (-0.3, 0.7, 0.9), rho12=0.5)
    for design in (data, _omit_x2(data)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_logit(design)
        assert fit.converged and fit.iterations <= 8, (fit.iterations, fit.message)
        eta = np.column_stack([np.ones(data.n), design.X]) @ fit.theta_hat
        want = np.sum(data.y * eta - np.logaddexp(0.0, eta))
        assert fit.objective == pytest.approx(want, rel=1e-12)


def test_relative_risk():
    assert relative_risk(0.0) == 1.0
    assert relative_risk(math.log(2.0)) == pytest.approx(2.0, rel=1e-15)
    assert relative_risk(-1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    with pytest.raises(DomainError):
        relative_risk(float("inf"))


# -- Kolmogorov-Smirnov ----------------------------------------------------------

def test_ks_single_point_at_median():
    res = ks_test([math.log(2.0)], ("one-hit", [1.0]))  # F = 0.5 there
    assert res.statistic == pytest.approx(0.5, rel=1e-12)
    assert not res.asymptotic_valid


def test_ks_midpoint_quantiles():
    n = 40
    ps = (np.arange(1, n + 1) - 0.5) / n
    xs = -np.log1p(-ps)  # one-hit quantiles at theta = 1
    res = ks_test(xs, ("one-hit", [1.0]))
    assert res.statistic == pytest.approx(0.5 / n, abs=1e-12)
    assert res.asymptotic_valid
    assert res.p_value > 0.999


def test_ks_power_against_wrong_rate():
    rng = np.random.default_rng(8)
    rejections = 0
    for _ in range(100):
        xs = rng.random(50)  # uniform on [0, 1]
        res = ks_test(xs, ("one-hit", [1.0]))
        rejections += res.p_value < 0.05
    assert rejections >= 95


def test_ks_rejects_empty():
    with pytest.raises(DomainError):
        ks_test([], ("one-hit", [1.0]))


def test_ks_rejects_nan_cdf_values():
    with pytest.raises(DomainError):
        ks_test([0.1, 0.2, 0.3], lambda x: float("nan"))


def test_ks_rejects_nan_from_a_vectorized_cdf():
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        ks_test([0.1, 0.2, 0.3], lambda x: np.full(x.shape, np.nan))


def test_ks_rejects_a_cdf_without_one_value_per_point():
    # a scalar would broadcast against every order statistic
    with pytest.raises(DomainError, match="one value per point"):
        ks_test([0.1, 0.2, 0.3], lambda x: 0.5)


def test_ks_vectorized_callable_matches_model_form():
    xs = np.random.default_rng(3).exponential(1.0 / 1.2, 200)
    calls = []

    def cdf(x):
        calls.append(np.shape(x))
        return -np.expm1(-x)

    assert ks_test(xs, cdf) == ks_test(xs, ("one-hit", [1.0]))
    assert calls == [xs.shape]  # one call, on the whole sorted sample


def test_ks_exact_quantiles_have_p_value_one():
    # sqrt(n) D = 0.01: the truncated alternating series gave 0.867 here
    n = 2500
    xs = -np.log1p(-(np.arange(1, n + 1) - 0.5) / n)
    assert ks_test(xs, ("one-hit", [1.0])).p_value == 1.0


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_ks_p_value_matches_scipy_asymptotic(n):
    xs = np.random.default_rng(n).exponential(1.0 / 1.2, n)
    res = ks_test(xs, ("one-hit", [1.0]))
    ref = stats.kstest(xs, stats.expon.cdf, method="asymp")
    assert res.statistic == pytest.approx(ref.statistic, abs=1e-12)
    assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)


# -- fit reports -----------------------------------------------------------------

def _weibull_fit():
    times = _weibull_times(np.random.default_rng(2), 1.0, 1.4, 200)
    return weibull_mle(WeibullSample(times, np.ones(times.size, dtype=int)))


def _gn_fit():
    xs = np.linspace(0.2, 5.0, 30)
    y = ba.evaluate("mm", xs, [2.0, 1.0]) + 0.01 * np.random.default_rng(4).standard_normal(30)
    return fit_least_squares("mm", RegressionDataset(xs, y), [1.0, 1.0])


def _logit_fit():
    rng = np.random.default_rng(6)
    x1 = rng.standard_normal(300)
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(-(0.3 + 0.8 * x1)))).astype(float)
    return fit_logit(BinaryDataset(x1[:, None], y))


@pytest.mark.parametrize("make_fit", [_gn_fit, _weibull_fit, _logit_fit], ids=["gn", "weibull", "logit"])
def test_fit_report_round_trip(make_fit):
    fit = make_fit()
    back = FitResult.from_dict(fit.to_dict())
    assert np.array_equal(back.theta_hat, fit.theta_hat)
    assert back.objective == fit.objective
    assert back.s2 == fit.s2
    assert np.array_equal(back.info.entries, fit.info.entries)
    assert (back.converged, back.iterations, back.model) == (fit.converged, fit.iterations, fit.model)
    assert (back.objective_kind, back.message) == (fit.objective_kind, fit.message)
    assert back.active_bounds == fit.active_bounds


def test_fit_report_without_active_bounds_reads_as_none_binding():
    report = _gn_fit().to_dict()
    del report["active_bounds"]
    assert FitResult.from_dict(report).active_bounds == ()
    with pytest.raises(DomainError, match="malformed"):
        FitResult.from_dict({**report, "active_bounds": 3})
