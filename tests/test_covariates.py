"""Efficiency formula, classification, and the omission experiment."""

import math

import numpy as np
import pytest

from bioassay import covariates
from bioassay.covariates import CorrelationPair, classify, efficiency, omission_experiment
from bioassay.exceptions import DomainError
from bioassay.fitting import fit_logit


def test_efficiency_pinned_values():
    assert efficiency(CorrelationPair(0.0, 0.0)) == 1.0
    assert efficiency(CorrelationPair(0.3, 0.3)) == pytest.approx(1.0, rel=1e-15)
    assert efficiency(CorrelationPair(-0.3, 0.3)) == pytest.approx(1.0, rel=1e-15)
    assert efficiency(CorrelationPair(0.0, 0.6)) == pytest.approx(1.5625, rel=1e-15)


def test_classification_branches():
    assert classify(CorrelationPair(0.3, -0.3)) == "unity"
    assert classify(CorrelationPair(0.5, 0.1)) == "below"
    assert classify(CorrelationPair(0.1, 0.5)) == "above"


def test_classification_agrees_with_efficiency_sign():
    # dyadic grid: values and their squares are exactly representable,
    # so ties are exact and the efficiency comparison is noise-free
    grid = np.arange(-60, 61, 3) / 64.0
    for r12 in grid:
        for ry in grid:
            pair = CorrelationPair(float(r12), float(ry))
            eff = efficiency(pair)
            label = classify(pair)
            if label == "unity":
                assert eff == pytest.approx(1.0, abs=1e-12)
            elif label == "below":
                assert eff < 1.0
            else:
                assert eff > 1.0


def test_efficiency_even_in_each_argument():
    pair = CorrelationPair(0.4, 0.7)
    for r12 in (0.4, -0.4):
        for ry in (0.7, -0.7):
            assert efficiency(CorrelationPair(r12, ry)) == pytest.approx(
                efficiency(pair), rel=1e-15
            )


def test_randomized_design_never_hurts():
    for ry in np.linspace(-0.9, 0.9, 19):
        assert efficiency(CorrelationPair(0.0, float(ry))) >= 1.0


def test_degenerate_correlation_rejected():
    with pytest.raises(DomainError):
        CorrelationPair(1.0, 0.0)
    with pytest.raises(DomainError):
        CorrelationPair(0.0, -1.0)


def test_gaussian_linear_variance_ratio_matches_formula():
    """Monte-Carlo oracle in the Gaussian linear model: the empirical
    variance ratio var(beta1_restricted)/var(beta1_full) over replicates
    matches the closed-form efficiency."""
    rng = np.random.default_rng(123)
    rho12, rho_y21 = 0.0, 0.6
    # beta2 chosen so the partial correlation of y with x2 given x1 is rho_y21
    beta2 = rho_y21 / math.sqrt((1.0 - rho_y21**2) * (1.0 - rho12**2))
    n, reps = 2000, 4000
    b1_full = np.empty(reps)
    b1_restr = np.empty(reps)
    for r in range(reps):
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        x1 = z1
        x2 = rho12 * z1 + math.sqrt(1.0 - rho12**2) * z2
        y = 1.0 * x1 + beta2 * x2 + rng.standard_normal(n)
        xm1, xm2, ym = x1 - x1.mean(), x2 - x2.mean(), y - y.mean()
        a = np.array([[xm1 @ xm1, xm1 @ xm2], [xm1 @ xm2, xm2 @ xm2]])
        b = np.array([xm1 @ ym, xm2 @ ym])
        b1_full[r] = np.linalg.solve(a, b)[0]
        b1_restr[r] = (xm1 @ ym) / (xm1 @ xm1)
    ratio = np.var(b1_restr, ddof=1) / np.var(b1_full, ddof=1)
    want = efficiency(CorrelationPair(rho12, rho_y21))
    assert abs(ratio - want) / want < 0.05


def test_omission_experiment_deterministic():
    a = omission_experiment(500, (0.0, 1.0, 1.0), rho12=0.0, seed=99)
    b = omission_experiment(500, (0.0, 1.0, 1.0), rho12=0.0, seed=99)
    assert a == b


# (beta1_full, beta1_restricted, var_ratio, se_full, se_restricted), fit_logit iterations
# (full, restricted); recorded before fit_logit carried eta through its line search
PINNED_OMISSION = {
    1: ((0.6439415436717507, 0.9486814179099863, 0.8516518465735747, 0.0397443031244372, 0.036678024196736346), [6, 6]),
    2: ((0.7191975572934654, 1.03010254551069, 0.8575718734171404, 0.040696995704293026, 0.03768752474517144), [6, 6]),
    3: ((0.7443594836823973, 1.0677928055157089, 0.8487067941936038, 0.04146344469549531, 0.038198316159078705), [6, 6]),
}


@pytest.mark.parametrize("seed", sorted(PINNED_OMISSION))
def test_omission_experiment_pinned_results(seed, monkeypatch):
    iterations = []

    def counting_fit_logit(data, include_x2=False):
        fit = fit_logit(data, include_x2=include_x2)
        iterations.append(fit.iterations)
        return fit

    monkeypatch.setattr(covariates, "fit_logit", counting_fit_logit)
    res = omission_experiment(5000, (-0.3, 0.7, 0.9), 0.5, seed)
    want, want_iterations = PINNED_OMISSION[seed]
    got = (res.beta1_full, res.beta1_restricted, res.var_ratio, res.se_full, res.se_restricted)
    assert got == pytest.approx(want, rel=1e-12)
    assert res.resampled == 0
    assert iterations == want_iterations


def test_omission_experiment_null_covariate_agrees():
    res = omission_experiment(5000, (0.1, 0.7, 0.0), rho12=0.0, seed=17)
    assert abs(res.beta1_full - res.beta1_restricted) < 3 * res.se_full


def test_omission_experiment_validates_inputs():
    with pytest.raises(DomainError, match="at least 50"):
        omission_experiment(10, (0.0, 1.0, 1.0), rho12=0.0, seed=1)
    with pytest.raises(DomainError, match="rho12"):
        omission_experiment(100, (0.0, 1.0, 1.0), rho12=1.0, seed=1)


def test_omission_experiment_counts_separated_redraws():
    # a rare-outcome design at n = 50 yields single-class draws that get
    # resampled under incremented sub-seeds
    res = omission_experiment(50, (-6.0, 0.2, 0.2), rho12=0.0, seed=0)
    assert res.resampled > 0
    assert np.isfinite(res.beta1_full)


def test_omission_experiment_attenuation_direction():
    # with a real independent covariate the omitted fit shrinks toward zero
    diffs = []
    for seed in range(30):
        res = omission_experiment(3000, (0.0, 1.0, 1.0), rho12=0.0, seed=seed)
        diffs.append(abs(res.beta1_restricted) - abs(res.beta1_full))
    assert np.mean(diffs) < 0
