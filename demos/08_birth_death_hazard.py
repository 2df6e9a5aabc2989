"""Linear birth-death clones: exact simulation and hazard estimation.

Extinction studies sample Kendall's closed-form law of the extinction
time, and the jump chain, run to a cell count no clone reaches,
reproduces the same extinction probability; onset times of a growing
clone feed the binned hazard estimator, and the power-law hazard fit
recovers its rate scale from simulated data.
"""

import math

import numpy as np

from bioassay.birthdeath import (
    BirthDeathSpec,
    ad_hazard_fit,
    empirical_hazard,
    simulate_bd,
    simulate_replicates,
)

# -- a single trajectory -----------------------------------------------------
spec = BirthDeathSpec(b=1.0, d=0.8, i0=3, t_end=4.0, seed=5)
traj = simulate_bd(spec)
print(f"trajectory: {len(traj.times) - 1} events, final population {traj.final_population}, "
      f"extinct={traj.extinct}")
step = max(1, len(traj.times) // 8)
for t, n in list(zip(traj.times, traj.populations))[::step]:
    print(f"  t={t:7.4f}  n={n}")

# -- extinction frequency vs the closed form ------------------------------------
def extinction_probability(b, d, t):
    if b == d:
        return b * t / (1.0 + b * t)
    e = math.exp((b - d) * t)
    return d * (e - 1.0) / (b * e - d)

def extinct_share(reps):
    return np.mean([r.outcome == "extinct" for r in reps])

# an extinction study samples Kendall's law; an onset study whose threshold no clone
# reaches runs the jump chain to the same stops, so it checks the chain against the law
print("\nextinction frequencies over 5000 replicates:")
for b, d, t in [(1.0, 1.0, 1.0), (0.5, 1.5, 10.0), (1.5, 0.5, 3.0)]:
    spec = BirthDeathSpec(b=b, d=d, i0=1, t_end=t, seed=31)
    sampled = extinct_share(simulate_replicates(spec, 5000))
    chain = extinct_share(simulate_replicates(spec, 5000, threshold=10**18))
    print(f"  b={b}, d={d}, t={t}: Kendall sampler {sampled:.4f}, jump chain {chain:.4f}, "
          f"closed form {extinction_probability(b, d, t):.4f}")

# -- onset times and their hazard ------------------------------------------------
onset_spec = BirthDeathSpec(b=1.5, d=0.5, i0=1, t_end=100.0, seed=77)
reps = simulate_replicates(onset_spec, 3000, threshold=50)
onsets = np.array([r.time for r in reps if r.outcome == "onset"])
print(f"\nclone reaching 50 cells: {onsets.size}/3000 replicates, median onset {np.median(onsets):.3f}")
mids, rates = empirical_hazard(onsets, bins=6, t_range=(0.0, float(np.quantile(onsets, 0.9))))
for t, h in zip(mids, rates):
    print(f"  t={t:6.3f}  hazard={h:.4f}")

# -- power-law hazard rate recovery --------------------------------------------------
rng = np.random.default_rng(99)
k, c = 3, 2.0
times = (k * rng.exponential(1.0, 5000) / c) ** (1.0 / k)
c_hat = ad_hazard_fit(times, k=k)
print(f"\npower-law hazard fit (k={k}): c_hat = {c_hat:.4f}, truth {c}, "
      f"SE ~ {c / math.sqrt(times.size):.4f}")
