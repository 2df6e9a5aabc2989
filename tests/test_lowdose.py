"""Percentile inversion and delta-method safe-dose bounds."""

import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

import bioassay as ba
from bioassay.exceptions import DomainError, UnattainableRiskError
from bioassay.fitting import FitResult, RegressionDataset, fit_least_squares
from bioassay.lowdose import PercentileQuery, percentile, percentile_gradient, resolve_query, vsd_upper_limit


def test_one_hit_exact_inversion():
    q = PercentileQuery("one-hit", (1.0,), 1.0 - math.exp(-1.0), risk_type="total")
    assert percentile(q) == pytest.approx(1.0, rel=1e-12)


def test_multistage_unit_point():
    q = PercentileQuery("multistage", (0.0, 1.0, 1.0), 1.0 - math.exp(-2.0), risk_type="total")
    assert percentile(q) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize(
    "model, theta, p, exact",
    [
        ("one-hit", (1.5,), 0.1, -math.log(0.9) / 1.5),
        ("weibull-cdf", (1.0, 2.0), 0.5, math.sqrt(math.log(2.0))),
        ("logit-cdf", (-1.0, 2.0), 0.1, (math.log(0.1 / 0.9) + 1.0) / 2.0),
        ("probit-cdf", (-1.0, 2.0), 0.1, (NormalDist().inv_cdf(0.1) + 1.0) / 2.0),
        # F(0) below the target: the bracket search doubles upward
        ("logit-cdf", (-3.0, 2.0), 0.1, (math.log(0.1 / 0.9) + 3.0) / 2.0),
        ("probit-cdf", (-2.0, 1.5), 0.1, (NormalDist().inv_cdf(0.1) + 2.0) / 1.5),
    ],
    ids=["one-hit", "weibull-cdf", "logit-cdf", "probit-cdf", "logit-cdf-upward", "probit-cdf-upward"],
)
def test_closed_form_and_bisection_agree(model, theta, p, exact):
    m = ba.get_model(model)
    assert m.inverse is not None
    closed = percentile(PercentileQuery(m, theta, p, risk_type="total"))
    assert closed == pytest.approx(exact, rel=1e-12)
    # the same curve without its closed form is solved by the bracketed root
    root = percentile(PercentileQuery(replace(m, inverse=None), theta, p, risk_type="total"))
    assert abs(closed - root) < 1e-10


def test_round_trip_total_risk(rng):
    cases = [
        ("one-hit", (1.3,)),
        ("multi-hit", (2.0, 0.9)),
        ("weibull-cdf", (0.8, 1.7)),
        ("multistage", (0.0, 0.7, 0.4)),
        ("logit-cdf", (-1.0, 1.2)),
        ("probit-cdf", (-0.5, 0.9)),
    ]
    for model, theta in cases:
        for p in (0.001, 0.01, 0.05, 0.1, 0.5):
            q = PercentileQuery(model, theta, p, risk_type="total")
            lp = percentile(q)
            assert abs(ba.evaluate(model, lp, theta) - p) < 1e-10, (model, p)


def test_percentile_strictly_increasing_in_p():
    for model, theta in [("one-hit", (1.0,)), ("multistage", (0.0, 1.0, 0.5))]:
        ps = np.linspace(0.01, 0.9, 25)
        ls = [percentile(PercentileQuery(model, theta, p, risk_type="total")) for p in ps]
        assert np.all(np.diff(ls) > 0)


def test_extra_risk_handles_background():
    theta = (0.5, 1.0)  # multistage with background F(0) = 1 - e^-0.5
    f0 = ba.evaluate("multistage", 0.0, theta)
    assert f0 > 0
    p = 0.1
    q = PercentileQuery("multistage", theta, p)
    assert q.risk_type is None  # default resolution happens at call time
    lp = percentile(q)
    f = ba.evaluate("multistage", lp, theta)
    assert (f - f0) / (1.0 - f0) == pytest.approx(p, abs=1e-10)


def test_extra_risk_rejects_a_background_of_one():
    # F(0) = 1 - e^-40 rounds to 1: no dose adds risk on the extra scale
    q = PercentileQuery("multistage", (40.0, 1.0), 0.01)
    with pytest.raises(DomainError, match="background response is already 1"):
        resolve_query(q)


def test_total_risk_below_background_rejected():
    with pytest.raises(DomainError, match="background"):
        percentile(PercentileQuery("multistage", (0.5, 1.0), 0.05, risk_type="total"))


def test_unattainable_supremum_reported():
    # constant curve: F = 1 - e^-0.2 everywhere, sup < 0.9
    with pytest.raises(UnattainableRiskError) as exc:
        percentile(PercentileQuery("multistage", (0.2,), 0.9, risk_type="total"))
    assert exc.value.supremum == pytest.approx(1.0 - math.exp(-0.2), rel=1e-12)


def test_unattainable_infimum_reported_after_60_doublings():
    # F(x) = expit(1e-300 x) stays at 0.5 down to dose -2^60
    m = replace(ba.get_model("logit-cdf"), inverse=None)  # the root, not the closed form
    q = PercentileQuery(m, (0.0, 1e-300), 0.1, risk_type="total")
    with pytest.raises(UnattainableRiskError, match=r"infimum 0.5 \(at dose -1.15\d*e\+18\)") as exc:
        percentile(q)
    assert exc.value.supremum == 0.5


def test_a_nan_probe_inside_the_bracket_is_unattainable():
    # F(1) = 0, so Brent's bracket is (0, 1); F is nan at its first probe 0.5
    with pytest.raises(UnattainableRiskError, match="F is nan at dose 0.5"):
        percentile(PercentileQuery("multi-hit", (1e308, 1e308), 1e-320, risk_type="extra"))


def test_a_percentile_gradient_that_overflows_is_a_domain_error():
    # L_p = -2e300, where dF/dx underflows: -grad F / F' leaves the float range
    q = PercentileQuery("logit-cdf", (1e300, 0.5), 0.5)
    with pytest.raises(DomainError, match="percentile gradient of logit-cdf is not finite at L_p = -2e\\+300"):
        percentile_gradient(q)


def test_vsd_with_a_variance_that_is_not_finite_is_a_domain_error():
    # the slope's information 1e-320 inverts to inf, and g' C g forms inf * 0
    fit = FitResult.from_dict({"model": "logit-cdf", "theta_hat": [1e-320, 1.0], "info": [[1.0, 0.0], [0.0, 1e-320]]})
    with pytest.raises(DomainError, match=r"variance of the percentile is not finite \(nan\)"):
        vsd_upper_limit(PercentileQuery("logit-cdf", (1e-320, 1.0), 0.01), fit, 0.975)


def test_one_hit_low_dose_linearization():
    theta = 1.7
    for p in (1e-4, 1e-6, 1e-8):
        lp = percentile(PercentileQuery("one-hit", (theta,), p, risk_type="total"))
        assert lp / p == pytest.approx(1.0 / theta, rel=1e-3)


def test_percentile_gradient_matches_fd():
    q = PercentileQuery("weibull-cdf", (0.8, 1.7), 0.05, risk_type="total")
    g = percentile_gradient(q)
    theta = np.array([0.8, 1.7])
    fd = np.empty(2)
    for i in range(2):
        h = 1e-6
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += h
        lo[i] -= h
        fd[i] = (
            percentile(PercentileQuery("weibull-cdf", tuple(hi), 0.05, risk_type="total"))
            - percentile(PercentileQuery("weibull-cdf", tuple(lo), 0.05, risk_type="total"))
        ) / (2 * h)
    assert np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd))) < 1e-5


def test_percentile_gradient_extra_risk_matches_fd():
    theta = np.array([0.3, 0.8, 0.4])
    q = PercentileQuery("multistage", tuple(theta), 0.05, risk_type="extra")
    g = percentile_gradient(q)
    fd = np.empty(3)
    for i in range(3):
        h = 1e-6
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += h
        lo[i] -= h
        fd[i] = (
            percentile(PercentileQuery("multistage", tuple(hi), 0.05, risk_type="extra"))
            - percentile(PercentileQuery("multistage", tuple(lo), 0.05, risk_type="extra"))
        ) / (2 * h)
    assert np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd))) < 1e-5


def test_percentile_gradient_extra_risk_at_zero_background():
    # F(0) = 0 at theta0 = 0, but dF(0)/dtheta0 = 1: the background term still applies,
    # and the extra-risk percentile of multistage does not depend on theta0 at all
    theta = np.array([0.0, 0.3, 0.2])
    q = PercentileQuery("multistage", tuple(theta), 0.01, risk_type="extra")
    g = percentile_gradient(q)
    fd = np.empty(3)
    for i in range(3):
        h = 1e-6  # one-sided: theta0 >= 0
        hi = theta.copy()
        hi[i] += h
        fd[i] = (percentile(PercentileQuery("multistage", tuple(hi), 0.01, risk_type="extra")) - percentile(q)) / h
    assert np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd))) < 1e-5
    near = percentile_gradient(PercentileQuery("multistage", (1e-12, 0.3, 0.2), 0.01, risk_type="extra"))
    np.testing.assert_allclose(g, near, rtol=1e-9, atol=1e-15)


def test_percentile_gradient_extra_equals_total_without_background():
    # F(0) = 0 makes the extra-risk scale coincide with total risk
    total = percentile_gradient(PercentileQuery("weibull-cdf", (0.8, 1.7), 0.05, risk_type="total"))
    extra = percentile_gradient(PercentileQuery("weibull-cdf", (0.8, 1.7), 0.05, risk_type="extra"))
    assert np.allclose(total, extra, rtol=1e-12)


def _one_hit_fit(rng, theta=1.0, n=500, sigma=0.05):
    xs = np.linspace(0.1, 3.0, n)
    y = np.asarray(ba.evaluate("one-hit", xs, [theta])) + sigma * rng.standard_normal(n)
    return fit_least_squares("one-hit", RegressionDataset(xs, y), [0.5])


def test_vsd_median_confidence_equals_lp(rng):
    fit = _one_hit_fit(rng)
    q = PercentileQuery("one-hit", (1.0,), 0.1, risk_type="total")
    res = vsd_upper_limit(q, fit, confidence=0.5)
    assert res.vsd == pytest.approx(res.lp, rel=1e-14)


def test_vsd_tight_information_recovers_lp(rng):
    from bioassay.fisher import InfoMatrix

    fit = _one_hit_fit(rng)
    tight = InfoMatrix(fit.info.entries * 1e6)
    boosted = type(fit)(**{**fit.__dict__, "info": tight})
    q = PercentileQuery("one-hit", (1.0,), 0.1, risk_type="total")
    res = vsd_upper_limit(q, boosted, confidence=0.975)
    assert abs(res.vsd - res.lp) < 1e-3


def test_vsd_below_lp_and_metadata(rng):
    fit = _one_hit_fit(rng)
    q = PercentileQuery("one-hit", (1.0,), 0.1, risk_type="total")
    res = vsd_upper_limit(q, fit, confidence=0.975)
    assert res.vsd < res.lp
    assert res.method == "delta"
    assert not res.clamped


def test_vsd_clamped_at_zero_dose():
    # L_p = -ln(0.99) ~ 0.01005 with se = L_p / theta * sqrt(1e4) ~ 1.005: the interval
    # crosses dose 0, and the bound is clamped there and flagged
    from bioassay.fisher import InfoMatrix

    fit = FitResult(np.array([1.0]), 0.0, 1.0, InfoMatrix(np.array([[1e-4]])), True, 1, model="one-hit")
    res = vsd_upper_limit(PercentileQuery("one-hit", (1.0,), 0.01), fit, 0.975)
    assert res.lp == pytest.approx(-math.log1p(-0.01), rel=1e-12)
    assert res.se == pytest.approx(100.0 * res.lp, rel=1e-6)
    assert (res.vsd, res.clamped) == (0.0, True)


def test_vsd_multi_hit_skips_frozen_hit_count(rng):
    # the integer hit count leaves a zero row and column in the information
    xs = np.linspace(0.2, 4.0, 500)
    y = np.asarray(ba.evaluate("multi-hit", xs, [3.0, 1.5])) + 0.05 * rng.standard_normal(xs.size)
    fit = fit_least_squares("multi-hit", RegressionDataset(xs, y), [3.0, 1.3])
    assert fit.info.entries[0].tolist() == [0.0, 0.0]
    res = vsd_upper_limit(PercentileQuery("multi-hit", (3.0, 1.5), 0.01), fit, confidence=0.975)
    lam_se = math.sqrt(1.0 / fit.info.entries[1, 1])
    assert math.isfinite(res.se) and res.se > 0
    # L_p = c / lambda at a fixed hit count, so its SE is L_p * se(lambda) / lambda
    assert res.se == pytest.approx(res.lp * lam_se / fit.theta_hat[1], rel=1e-5)
    assert 0.0 < res.vsd < res.lp


def test_vsd_rejects_mismatched_information(rng):
    from bioassay.fisher import InfoMatrix

    fit = _one_hit_fit(rng)
    wrong = type(fit)(**{**fit.__dict__, "info": InfoMatrix(np.eye(2))})
    q = PercentileQuery("one-hit", (1.0,), 0.1)
    with pytest.raises(DomainError, match="2x2 but one-hit has 1 parameters"):
        vsd_upper_limit(q, wrong, confidence=0.975)


def test_vsd_takes_its_curve_from_the_fit():
    theta_hat = [1.0, 1.5]
    info = ba.fisher.total_info("weibull-cdf", np.linspace(0.2, 3.0, 20), theta_hat, 1e-4)
    fit = FitResult(np.array(theta_hat), 0.0, 1e-4, info, True, 5, model="weibull-cdf")
    # a Weibull estimate read as a logit curve of the same arity
    with pytest.raises(DomainError, match="the fit is of weibull-cdf, not of logit-cdf"):
        vsd_upper_limit(PercentileQuery("logit-cdf", (-2.0, 1.5), 0.01), fit, 0.975)
    # a fit that names no model is taken as one of the query's
    q = PercentileQuery("weibull-cdf", (2.0, 1.0), 0.01)
    assert vsd_upper_limit(q, replace(fit, model=None), 0.975) == vsd_upper_limit(q, fit, 0.975)


def test_vsd_confidence_domain(rng):
    fit = _one_hit_fit(rng)
    q = PercentileQuery("one-hit", (1.0,), 0.1, risk_type="total")
    with pytest.raises(DomainError):
        vsd_upper_limit(q, fit, confidence=0.4)
    with pytest.raises(DomainError):
        vsd_upper_limit(q, fit, confidence=1.0)


def test_query_validation():
    with pytest.raises(DomainError):
        PercentileQuery("one-hit", (1.0,), 0.0)
    with pytest.raises(DomainError):
        PercentileQuery("one-hit", (1.0,), 0.5, risk_type="weird")
    with pytest.raises(DomainError, match="dose-response"):
        percentile(PercentileQuery("gompertz", (1.0, 1.0, 1.0), 0.5))


# L_p, VSD, se (as float.hex) and risk scale of vsd_upper_limit at p = 0.01, then the
# percentile gradient, for fits on a closed-form curve and on a bisected one with a frozen slot
PINNED_BOUNDS = [
    (("weibull-cdf", (1.0, 1.5), (0.9, 1.7), (0.1, 3.0), 30, 33),
     (("0x1.697f813fe1665p-5", "0x1.3504bc349590dp-5", "0x1.ac699acd530efp-9", "total"),
      ("-0x1.6984af1ce9f2ep-5", "0x1.7ea8a1fb5121bp-4"))),
    (("multi-hit", (3.0, 1.5), (3.0, 1.2), (0.2, 4.0), 60, 31),
     (("0x1.2c352627f8fe4p-2", "0x1.2980980a3bf56p-2", "0x1.6159d809ea58fp-10", "total"),
      ("-0x0.0p+0", "-0x1.93af34e54e8a0p-3"))),
]


@pytest.mark.parametrize("case, pinned", PINNED_BOUNDS, ids=[c[0][0] for c in PINNED_BOUNDS])
def test_vsd_and_percentile_gradient_are_pinned(case, pinned):
    model, truth, start, (a, b), n, seed = case
    xs = np.linspace(a, b, n)
    y = np.asarray(ba.evaluate(model, xs, truth)) + 0.02 * np.random.default_rng(seed).standard_normal(n)
    fit = fit_least_squares(model, RegressionDataset(xs, y), start)
    q = PercentileQuery(model, tuple(fit.theta_hat), 0.01)
    res = vsd_upper_limit(q, fit, 0.975)
    assert (res.lp.hex(), res.vsd.hex(), res.se.hex(), res.risk_type) == pinned[0]
    assert tuple(v.hex() for v in percentile_gradient(q).tolist()) == pinned[1]
