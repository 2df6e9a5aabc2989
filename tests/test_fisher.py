"""Information matrices: outer products, closed-form conformance, Weibull Hessian."""

import math

import numpy as np
import pytest

import bioassay as ba
from bioassay.exceptions import DomainError
from bioassay.fisher import (
    InfoMatrix,
    WeibullSample,
    per_obs_info,
    total_info,
    weibull_observed_info,
)
from bioassay.fitting import RegressionDataset, fit_least_squares, weibull_log_likelihood
from bioassay.models import get_model

from conftest import all_models, fd_gradient, sample_input, sample_point, sample_theta
from fisher_reference import (
    MONOMOLECULAR,
    power_law_info,
    saturating_exp_info,
    weibull_recon_tabulated_gradient,
    weibull_recon_tabulated_info,
)


def test_per_obs_info_power_law_at_unit_input():
    m = per_obs_info("exp-time-power", 1.0, [2.0, 3.0], sigma2=1.0)
    assert np.allclose(m.entries, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_per_obs_info_weibull_recon_second_diagonal():
    m = per_obs_info("weibull-reconstructed", 1.0, [1.0, 0.0, 1.0, 1.0])
    assert m.entries[1, 1] == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_per_obs_info_matches_fd_outer_product(rng):
    for model in all_models():
        for _ in range(5):
            u, theta = sample_point(model, rng)
            g = fd_gradient(model, u, theta)
            got = per_obs_info(model, u, theta, sigma2=1.3).entries
            want = np.outer(g, g) / 1.3
            scale = max(1.0, np.abs(want).max())
            assert np.max(np.abs(got - want)) / scale < 1e-5, model.id


def test_total_info_additivity():
    one = per_obs_info("exp-time-power", 2.0, [1.5, 0.5])
    tot = total_info("exp-time-power", [2.0], [1.5, 0.5])
    assert np.array_equal(one.entries, tot.entries)
    doubled = total_info("exp-time-power", [2.0, 2.0], [1.5, 0.5])
    assert np.allclose(doubled.entries, 2.0 * one.entries, rtol=0, atol=0)


def test_total_info_full_rank_on_distinct_points():
    tot = total_info("exp-time-power", [0.5, 2.0, 3.0], [1.5, 0.5])
    assert np.linalg.matrix_rank(tot.entries) == 2


def test_total_info_rejects_empty_design():
    with pytest.raises(DomainError, match="at least one point"):
        total_info("exp-time-power", [], [1.5, 0.5])


def test_total_info_equals_sum_of_per_obs_info(rng):
    # the stacked J^T J against the per-point outer products, every model
    for model in all_models():
        for _ in range(5):
            theta = sample_theta(model, rng)
            design = np.array([sample_input(model, rng) for _ in range(12)])
            got = total_info(model, design, theta, sigma2=0.7).entries
            want = sum(per_obs_info(model, u, theta, sigma2=0.7).entries for u in design)
            scale = max(1e-300, np.abs(want).max())
            assert np.max(np.abs(got - want)) / scale <= 1e-12, model.id


def test_total_info_out_of_domain_point_message():
    theta = [1.0, 1.5]
    with pytest.raises(DomainError) as single:
        per_obs_info("weibull-cdf", -0.5, theta)
    with pytest.raises(DomainError) as design:
        total_info("weibull-cdf", [0.5, 1.0, -0.5, 2.0], theta)
    assert str(design.value) == str(single.value) == "weibull-cdf: input must be >= 0.0"


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_total_info_non_finite_gradient_names_first_point():
    # (theta x)^s overflows: 0 * inf in the shape derivative
    theta = [1.0, 2.0]
    with pytest.raises(DomainError) as single:
        per_obs_info("weibull-cdf", 1e200, theta)
    with pytest.raises(DomainError) as design:
        total_info("weibull-cdf", [0.5, 1e200, 2.0, 1e300], theta)
    assert str(design.value) == str(single.value)
    assert str(design.value) == "weibull-cdf: gradient is not finite at u=1e+200, theta=[1.0, 2.0]"


def test_total_info_rejects_unstacked_design():
    with pytest.raises(DomainError, match="design must have shape"):
        total_info("mm-two-substrate", [1.0, 2.0], [2.0, 1.0, 1.0, 1.0])


def test_per_obs_rank_one_psd(rng):
    for model in all_models():
        for _ in range(50):
            u, theta = sample_point(model, rng)
            m = per_obs_info(model, u, theta).entries
            assert np.array_equal(m, m.T), model.id
            eig = np.linalg.eigvalsh(m)
            assert eig[0] >= -1e-10 * max(1.0, eig[-1]), model.id
            trace = np.trace(m)
            if m.shape[0] > 1 and trace > 0:
                assert eig[-2] <= 1e-10 * trace, model.id


# -- closed-form conformance -------------------------------------------------

def test_power_law_closed_form_matches_outer_product(rng):
    model = get_model("exp-time-power")
    for _ in range(50):
        u, theta = sample_point(model, rng)
        sigma2 = 0.5 + rng.random()
        want = per_obs_info(model, u, theta, sigma2).entries
        got = power_law_info(u, theta, sigma2)
        scale = np.maximum(1e-300, np.abs(want))
        mask = want != 0
        assert np.max(np.abs(got[mask] - want[mask]) / scale[mask]) < 1e-10


def test_saturating_exp_closed_form_matches_outer_product(rng):
    for _ in range(50):
        u, theta = sample_point(MONOMOLECULAR, rng)
        sigma2 = 0.5 + rng.random()
        want = per_obs_info(MONOMOLECULAR, u, theta, sigma2).entries
        got = saturating_exp_info(u, theta, sigma2)
        scale = np.maximum(1e-300, np.abs(want))
        mask = want != 0
        assert np.max(np.abs(got[mask] - want[mask]) / scale[mask]) < 1e-10


def test_weibull_recon_table_matches_tabulated_outer_product(rng):
    model = get_model("weibull-reconstructed")
    for _ in range(50):
        u, theta = sample_point(model, rng)
        sigma2 = 0.5 + rng.random()
        g = weibull_recon_tabulated_gradient(u, theta)
        want = np.outer(g, g) / sigma2
        got = weibull_recon_tabulated_info(u, theta, sigma2)
        denom = np.maximum(1e-300, np.abs(want))
        rel = np.abs(got - want) / denom
        assert np.max(rel[want != 0]) < 1e-10
        if np.any(want == 0):
            assert np.max(np.abs(got[want == 0])) < 1e-300


def test_tabulated_weibull_gradient_second_component():
    # the tabulated form carries the opposite sign from the calculus gradient
    g_tab = weibull_recon_tabulated_gradient(1.0, [1.0, 0.0, 1.0, 1.0])
    assert g_tab[1] == pytest.approx(-math.exp(-1.0), rel=1e-12)
    g_true = ba.gradient("weibull-reconstructed", 1.0, [1.0, 0.0, 1.0, 1.0])
    assert g_true[1] == pytest.approx(+math.exp(-1.0), rel=1e-12)


def test_additive_level_block_independent_of_theta0(rng):
    for model_id in ("tanh", "tanh4"):
        for _ in range(20):
            u, theta = sample_point(get_model(model_id), rng)
            blocks = []
            for theta0 in (-5.0, 0.0, 7.0):
                th = theta.copy()
                th[0] = theta0
                blocks.append(per_obs_info(model_id, u, th).entries[1:, 1:])
            assert np.array_equal(blocks[0], blocks[1])
            assert np.array_equal(blocks[0], blocks[2])


# -- Weibull observed information -------------------------------------------

def test_weibull_hessian_simple_values():
    sample = WeibullSample.all_events([1.0])
    h = weibull_observed_info(sample, 1.0, 1.0)
    assert h[0, 0] == pytest.approx(-1.0, rel=1e-14)
    assert h[1, 1] == pytest.approx(-1.0, rel=1e-14)


def test_weibull_hessian_matches_fd(rng):
    for _ in range(30):
        n = int(rng.integers(3, 40))
        times = rng.weibull(1.5, n) + 0.05
        flags = (rng.random(n) < 0.8).astype(int)
        if flags.sum() == 0:
            flags[0] = 1
        sample = WeibullSample(times, flags)
        theta = 0.3 + 2.0 * rng.random()
        s = 0.4 + 2.0 * rng.random()
        h = weibull_observed_info(sample, theta, s)

        def l(th, sh):
            return weibull_log_likelihood(sample, th, sh)

        ht, hs = 1e-4 * max(1.0, theta), 1e-4 * max(1.0, s)
        fd = np.empty((2, 2))
        fd[0, 0] = (l(theta + ht, s) - 2 * l(theta, s) + l(theta - ht, s)) / ht**2
        fd[1, 1] = (l(theta, s + hs) - 2 * l(theta, s) + l(theta, s - hs)) / hs**2
        fd[0, 1] = fd[1, 0] = (
            l(theta + ht, s + hs) - l(theta + ht, s - hs) - l(theta - ht, s + hs) + l(theta - ht, s - hs)
        ) / (4 * ht * hs)
        scale = np.maximum(1.0, np.abs(h))
        assert np.max(np.abs(h - fd) / scale) < 1e-5


@pytest.mark.parametrize("flags", [[0.5, 1, 1.9], [1, math.nan, 1]])
def test_weibull_sample_rejects_flags_other_than_0_or_1(flags):
    # cast to int first, 0.5 and 1.9 passed as 0 and 1, and NaN raised numpy's ValueError
    with pytest.raises(DomainError, match="event_flags"):
        WeibullSample([1.0, 2.0, 3.0], flags)


def test_weibull_observed_info_rejects_bad_params():
    sample = WeibullSample.all_events([1.0, 2.0])
    with pytest.raises(DomainError):
        weibull_observed_info(sample, 0.0, 1.0)


# -- info at the estimate ------------------------------------------------------

def test_info_at_estimate_equals_total_info():
    # the information at a fit plugs s^2 in for sigma^2: J^T J / s^2 at theta_hat
    design, theta_hat = np.array([0.5, 1.0, 2.0]), [2.0, 1.0]
    jac = np.array([ba.gradient("mm", u, theta_hat) for u in design])
    b = total_info("mm", design, theta_hat, sigma2=0.25)
    assert np.allclose(b.entries, jac.T @ jac / 0.25, rtol=1e-14)


def test_info_scales_inversely_with_s2():
    a = total_info("mm", [0.5, 1.0], [2.0, 1.0], sigma2=1.0)
    b = total_info("mm", [0.5, 1.0], [2.0, 1.0], sigma2=4.0)
    assert np.allclose(b.entries, a.entries / 4.0, rtol=1e-14)
    with pytest.raises(DomainError, match="sigma2 must be > 0"):
        total_info("mm", [0.5], [2.0, 1.0], sigma2=0.0)


@pytest.mark.parametrize("sigma2", [math.inf, math.nan, -1.0])
def test_total_info_needs_a_finite_positive_variance(sigma2):
    with pytest.raises(DomainError, match="sigma2 must be > 0 and finite"):
        total_info("one-hit", [1.0, 2.0], [1.0], sigma2=sigma2)


@pytest.mark.filterwarnings("error")
def test_total_info_overflow_is_the_matrix_domain_error():
    # J^T J / 1e-320 leaves the float range: no RuntimeWarning, only InfoMatrix's error
    with pytest.raises(DomainError, match="information matrix must be finite"):
        total_info("one-hit", [1.0, 2.0], [1.0], sigma2=1e-320)


def test_inverse_info_tracks_monte_carlo_variance():
    """Inverse-information diagonal approximates the sampling variance of
    repeated Gauss-Newton fits (500 noisy replicates)."""
    rng = np.random.default_rng(7)
    design = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0] * 5)
    truth = np.array([2.0, 1.0])
    sigma = 0.03
    mean = np.asarray(ba.evaluate("mm", design, truth))
    fits = []
    cov_diags = []
    for _ in range(500):
        y = mean + sigma * rng.standard_normal(design.size)
        res = fit_least_squares("mm", RegressionDataset(design, y), [1.5, 0.8])
        fits.append(res.theta_hat)
        cov_diags.append(np.diag(res.info.covariance()))
    emp_var = np.var(np.array(fits), axis=0, ddof=1)
    mean_cov = np.mean(np.array(cov_diags), axis=0)
    assert np.all(np.abs(mean_cov - emp_var) / emp_var < 0.2)


def test_info_matrix_validation():
    with pytest.raises(DomainError, match="symmetric"):
        InfoMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    singular = InfoMatrix(np.zeros((2, 2)))
    with pytest.raises(DomainError, match="singular"):
        singular.covariance()


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_info_matrix_symmetry_tolerance_edge(scale):
    # the tolerance is 1e-12 times the largest entry (at least 1)
    atol = 1e-12 * scale
    InfoMatrix(np.array([[scale, 0.9 * atol], [0.0, 1.0]]))
    with pytest.raises(DomainError, match="symmetric"):
        InfoMatrix(np.array([[scale, 1.1 * atol], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_info_matrix_rejects_non_finite_entries(bad, where):
    entries = np.eye(2)
    entries[where] = entries[where[::-1]] = bad
    with pytest.raises(DomainError, match="finite and symmetric"):
        InfoMatrix(entries)
