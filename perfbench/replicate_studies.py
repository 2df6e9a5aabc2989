"""replicate-studies: one seeded simulation study per operation.

Three kinds, in a fixed rotation so that seeds change only the streams:

- extinction (critical and subcritical): ``simulate_replicates`` with no
  threshold, then ``empirical_hazard``, ``weibull_mle`` on the censored
  extinction times and ``ks_test`` against the fitted Weibull;
- onset (supercritical): ``simulate_replicates`` with a population
  threshold, the same analysis of the onset times plus ``ad_hazard_fit``;
- omission: ``omission_experiment`` at n = 5000, two ``fit_logit`` calls.

The per-event Python loop of the simulator dominates; the Weibull fit and
the omission experiment exercise ``fitting`` with no model layer below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, stats

from bioassay.birthdeath import BirthDeathSpec, ad_hazard_fit, empirical_hazard, simulate_replicates
from bioassay.covariates import omission_experiment
from bioassay.fisher import WeibullSample
from bioassay.fitting import ks_test, weibull_mle

ROTATIONS = 30
BINS = 8
AD_STAGES = 2
# kind -> (b, d, i0, t_end, replicates, threshold)
STUDIES = {
    "critical": (1.0, 1.0, 1, 20.0, 200, None),
    "subcritical": (0.5, 1.0, 2, 5.0, 200, None),
    "onset": (1.5, 1.0, 1, 40.0, 120, 100),
}
OMISSION_N, OMISSION_BETA, OMISSION_RHO = 5000, (-0.3, 0.7, 0.9), 0.5
POOLED_SE, OP_SE = 4.0, 6.0  # pooled over the batch; per study, a looser sanity bound


@dataclass(frozen=True)
class Op:
    kind: str  # "critical" | "subcritical" | "onset" | "omission"
    seed: int


def generate(seed: int, workdir: str) -> list[Op]:
    kinds = ("critical", "subcritical", "onset", "omission")
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=ROTATIONS * len(kinds))
    return [Op(kind, int(s)) for kind, s in zip(kinds * ROTATIONS, seeds)]


def run_op(op: Op, t):
    if op.kind == "omission":
        return t.call(
            "covariates.omission_experiment",
            omission_experiment,
            OMISSION_N,
            OMISSION_BETA,
            OMISSION_RHO,
            op.seed,
        )
    b, d, i0, t_end, n, threshold = STUDIES[op.kind]
    spec = BirthDeathSpec(b=b, d=d, i0=i0, t_end=t_end, seed=op.seed)
    layer = "onset" if threshold else "extinction"
    reps = t.call(f"birthdeath.simulate_replicates.{layer}", simulate_replicates, spec, n, threshold=threshold)
    event = "onset" if threshold else "extinct"
    times = np.array([r.time for r in reps])
    flags = np.array([r.outcome == event for r in reps], dtype=int)
    events = times[flags == 1]
    out = {"reps": reps, "times": times, "flags": flags}
    out["hazard"] = t.call("birthdeath.empirical_hazard", empirical_hazard, events, BINS)
    out["fit"] = t.call("fitting.weibull_mle", weibull_mle, WeibullSample(times, flags))
    out["ks"] = t.call("fitting.ks_test", ks_test, events, ("weibull-cdf", tuple(out["fit"].theta_hat)))
    if threshold:
        out["ad_rate"] = t.call("birthdeath.ad_hazard_fit", ad_hazard_fit, events, AD_STAGES)
    return out


def digest(op: Op, out):
    if op.kind == "omission":
        return repr(out)
    fit, ks = out["fit"], out["ks"]
    return (
        out["times"].tobytes(),
        out["flags"].tobytes(),
        out["hazard"][1].tobytes(),
        fit.theta_hat.tobytes(),
        ks.statistic,
        ks.p_value,
        out.get("ad_rate"),
    )


# -- references ------------------------------------------------------------------------


def event_probability(kind: str) -> float:
    """Kendall's P0(t)^i0 for extinction; gambler's ruin for reaching the threshold."""
    b, d, i0, t_end, _n, threshold = STUDIES[kind]
    if threshold is not None:
        r = d / b  # reached long before t_end at these rates
        return (1.0 - r**i0) / (1.0 - r**threshold)
    if b == d:
        p0 = b * t_end / (1.0 + b * t_end)
    else:
        e = math.exp((b - d) * t_end)
        p0 = d * (e - 1.0) / (b * e - d)
    return p0**i0


def _ref_hazard(events, bins):
    lo, hi = 0.0, float(events.max())
    edges = np.linspace(lo, hi, bins + 1)
    width = edges[1] - edges[0]
    mids, rates = [], []
    for j in range(bins):
        at_risk = np.count_nonzero(events >= edges[j])
        if at_risk:
            upper = events <= edges[j + 1] if j == bins - 1 else events < edges[j + 1]
            mids.append(0.5 * (edges[j] + edges[j + 1]))
            rates.append(np.count_nonzero((events >= edges[j]) & upper) / (at_risk * width))
    return np.asarray(mids), np.asarray(rates)


def _ref_weibull(times, flags):
    """Censored Weibull MLE by Nelder-Mead on (log rate, log shape)."""
    ev = flags == 1
    log_ev = np.log(times[ev]).sum()
    d = ev.sum()

    def nll(z):
        theta, s = np.exp(z)
        return -(d * (math.log(s) + s * math.log(theta)) + (s - 1.0) * log_ev - np.sum((theta * times) ** s))

    res = optimize.minimize(nll, [-math.log(times.mean()), 0.0], method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
    return np.exp(res.x), -res.fun, lambda z: -nll(z)


def check(op: Op, out):
    if op.kind == "omission":
        b1 = OMISSION_BETA[1]
        if not (out.se_full > 0 and out.se_restricted > 0 and out.var_ratio > 0):
            raise AssertionError(f"omission: degenerate result {out}")
        if not abs(out.beta1_full - b1) <= OP_SE * out.se_full:
            raise AssertionError(f"omission: beta1 {out.beta1_full} not within {OP_SE} SE of {b1}")
        return None
    reps, times, flags = out["reps"], out["times"], out["flags"]
    b, d, i0, t_end, n, threshold = STUDIES[op.kind]
    if len(reps) != n or [r.index for r in reps] != list(range(n)):
        raise AssertionError("replicate indices out of order")
    if np.any(times <= 0) or np.any(times > t_end):
        raise AssertionError("event or censoring time outside (0, t_end]")
    share, p = flags.mean(), event_probability(op.kind)
    if not abs(share - p) <= OP_SE * math.sqrt(p * (1.0 - p) / n):
        raise AssertionError(f"{op.kind}: event share {share} vs {p}")
    events = times[flags == 1]
    mids, rates = out["hazard"]
    ref_mids, ref_rates = _ref_hazard(events, BINS)
    if not (np.allclose(mids, ref_mids, rtol=1e-12, atol=0) and np.allclose(rates, ref_rates, rtol=1e-12, atol=0)):
        raise AssertionError(f"{op.kind}: empirical hazard differs from the reference binning")
    fit = out["fit"]
    ref_theta, ref_ll, loglik = _ref_weibull(times, flags)
    if not fit.converged:
        raise AssertionError(f"{op.kind}: weibull_mle did not converge: {fit.message}")
    if not loglik(np.log(fit.theta_hat)) >= ref_ll - 1e-7 * max(1.0, abs(ref_ll)):
        raise AssertionError(f"{op.kind}: weibull_mle {fit.theta_hat} below the reference optimum {ref_theta}")
    if not np.allclose(fit.theta_hat, ref_theta, rtol=1e-3):
        raise AssertionError(f"{op.kind}: weibull_mle {fit.theta_hat} vs reference {ref_theta}")
    theta_hat, s_hat = fit.theta_hat
    ref_d = stats.kstest(events, stats.weibull_min(s_hat, scale=1.0 / theta_hat).cdf).statistic
    if not abs(out["ks"].statistic - ref_d) <= 1e-12 or not 0.0 <= out["ks"].p_value <= 1.0:
        raise AssertionError(f"{op.kind}: KS statistic {out['ks'].statistic} vs scipy {ref_d}")
    if threshold:
        want = events.size * AD_STAGES / np.sum(events**AD_STAGES)
        if not abs(out["ad_rate"] - want) <= 1e-12 * want:
            raise AssertionError(f"onset: ad_hazard_fit {out['ad_rate']} vs {want}")
    return None


def op_counts(op: Op, out) -> dict:
    if op.kind == "omission":
        return {"covariates.omission_experiment.resampled": out.resampled}
    counts = {f"birthdeath.outcome.{o}": 0 for o in ("extinct", "onset", "censored", "truncated")}
    for r in out["reps"]:
        counts[f"birthdeath.outcome.{r.outcome}"] += 1
    counts["birthdeath.simulate_replicates.replicates"] = len(out["reps"])
    counts["fitting.weibull_mle.iterations_mean"] = out["fit"].iterations
    counts[f"{op.kind}.events"] = int(out["flags"].sum())
    return counts


def check_batch(ops, counts) -> dict:
    """Pooled event share of each study kind within POOLED_SE standard errors."""
    failures = {}
    for kind, (_b, _d, _i0, _t, n, _thr) in STUDIES.items():
        idx = [i for i, op in enumerate(ops) if op.kind == kind]
        total = n * len(idx)
        share = sum(counts[i].get(f"{kind}.events", 0) for i in idx) / total
        p = event_probability(kind)
        se = math.sqrt(p * (1.0 - p) / total)
        if not abs(share - p) <= POOLED_SE * se:
            for i in idx:
                failures[i] = f"{kind}: pooled event share {share:.4f} vs {p:.4f} ({(share - p) / se:+.1f} SE)"
    return failures
