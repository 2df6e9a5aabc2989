"""Censored Weibull maximum likelihood with the closed-form rate profile.

At fixed shape the rate maximizer is explicit, so the two-parameter fit
reduces to one root: the shape where the strictly decreasing profile
score crosses zero, found by Newton steps on its closed-form derivative,
kept inside a shrinking bracket.
"""

import numpy as np

from bioassay.fisher import WeibullSample
from bioassay.fitting import weibull_mle, weibull_score, weibull_theta_star

rng = np.random.default_rng(2026)
truth_rate, truth_shape = 0.8, 1.6

# event times from the target distribution, with administrative censoring at t = 2
raw = rng.weibull(truth_shape, 800) / truth_rate
censored = raw > 2.0
times = np.where(censored, 2.0, raw)
sample = WeibullSample(times, (~censored).astype(int))
print(f"n = {sample.n}, events = {sample.d}, censored = {sample.n - sample.d}")

# -- closed-form rate at a fixed shape ------------------------------------------
for s in (1.0, 1.6, 2.2):
    star = weibull_theta_star(sample, s)
    score = weibull_score(sample, star, s)
    print(f"  shape {s:.1f}: rate* = {star:.4f}, rate-score residual = {score[0]:.2e}")

# -- full fit ---------------------------------------------------------------------
fit = weibull_mle(sample)
se = fit.standard_errors()
print(f"\nconverged: {fit.converged} after {fit.iterations} profile-score evaluations")
print(f"rate  = {fit.theta_hat[0]:.4f} (SE {se[0]:.4f}, truth {truth_rate})")
print(f"shape = {fit.theta_hat[1]:.4f} (SE {se[1]:.4f}, truth {truth_shape})")
print(f"log-likelihood = {fit.objective:.3f}")
print(f"score at optimum: {weibull_score(sample, *fit.theta_hat)}")
