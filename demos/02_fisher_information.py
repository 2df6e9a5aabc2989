"""Fisher information for mean-response models.

One observation contributes the outer product of the parameter gradient
scaled by 1/sigma^2 (rank one, positive semidefinite); designs add up.
The level parameter of an additively shifted sigmoid contributes a
constant row, so the rest of the matrix ignores it entirely.
"""

import numpy as np

from bioassay.fisher import WeibullSample, per_obs_info, total_info, weibull_observed_info

# -- single observation: rank-one outer product --------------------------------
info = per_obs_info("exp-time-power", 1.0, [2.0, 3.0], sigma2=1.0)
print("power-law information at u = 1 (ln u = 0 kills the power column):")
print(info.entries)
print("eigenvalues:", np.linalg.eigvalsh(info.entries))

# -- designs accumulate additively ------------------------------------------------
design = [0.5, 1.0, 2.0, 4.0]
tot = total_info("mm", design, [2.0, 1.0], sigma2=0.05**2)
print(f"\ntotal information for an MM fit over {design}:")
print(tot.entries)
print("asymptotic standard errors:", tot.standard_errors())

# -- the level parameter separates out ----------------------------------------------
print("\nshifted-sigmoid block independence (rows/cols beyond the level):")
for level in (-5.0, 0.0, 7.0):
    block = per_obs_info("tanh", 0.7, [level, 1.2, 0.9, 0.1]).entries[1:, 1:]
    print(f"  level {level:+.0f}: block[0] = {block[0]}")

# -- censored-Weibull curvature ---------------------------------------------------------
sample = WeibullSample.all_events([0.4, 0.9, 1.3, 2.1, 0.7])
hessian = weibull_observed_info(sample, theta=1.0, s=1.2)
observed = -hessian
print("\ncensored-Weibull log-likelihood Hessian at (1, 1.2):")
print(hessian)
print("observed information (negated, PSD near the optimum):")
print(observed)
