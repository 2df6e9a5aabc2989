"""dose-response: simulate one assay per operation and analyse it.

One operation fits the curve by Gauss-Newton, extrapolates the low-dose
percentile, evaluates the risk there, bounds it by the VSD, assembles the
information of a follow-up design at the estimate, and evaluates curve and
gradient on a 10^4-point plotting grid.

The batch is stratified so that two seeds differ only in parameter draws
and noise, never in mix: each of the six models appears REPS times on each
of the two designs.  One-hit, weibull-cdf, logit-cdf and probit-cdf invert
in closed form; multistage and multi-hit go through bisection.

Known defect, counted and not hidden: ``vsd_upper_limit`` on a multi-hit
fit raises ``DomainError: information matrix is singular`` because the
frozen integer ``hits`` slot leaves a zero row and column in the
information.  Those operations finish the remaining calls and are
reported as known-defect failures; a fix shows as a lower fail_share.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special, stats

from bioassay.exceptions import DomainError
from bioassay.fisher import total_info
from bioassay.fitting import RegressionDataset, fit_least_squares
from bioassay.lowdose import PercentileQuery, percentile, vsd_upper_limit
from bioassay.models import evaluate, gradient

MODELS = ("one-hit", "multi-hit", "weibull-cdf", "multistage", "logit-cdf", "probit-cdf")
CLOSED_FORM = {"one-hit", "weibull-cdf", "logit-cdf", "probit-cdf"}
DOSE_SCALE = {"one-hit", "multi-hit", "weibull-cdf", "multistage"}  # domain x >= 0
REPS = 8  # per (model, design) cell of the batch
SMALL_DOSES, ANIMALS = 20, 50  # quantal assay: 20 doses, 50 animals each
LARGE_DOSES, LARGE_SIGMA = 500, 0.05  # the 500-dose design with Gaussian noise
FOLLOW_UP_DOSES = 100
GRID_POINTS = 10_000
P, CONFIDENCE = 0.01, 0.975
MAHALANOBIS_MAX = 40.0  # chi-square with <= 3 dof: false alarm below 1e-7
KNOWN_DEFECT = "information matrix is singular"

# truth per model; each operation scales every free slot by U(0.8, 1.25)
BASE_THETA = {
    "one-hit": (1.0,),
    "multi-hit": (3.0, 1.5),
    "weibull-cdf": (1.0, 1.5),
    "multistage": (0.02, 0.3, 0.2),
    "logit-cdf": (-2.0, 1.5),
    "probit-cdf": (-1.5, 1.0),
}


@dataclass(frozen=True)
class Op:
    model: str
    design: str  # "small" | "large"
    theta: np.ndarray  # truth
    theta0: np.ndarray  # starting values handed to the fit
    x: np.ndarray
    y: np.ndarray
    var: np.ndarray  # per-dose noise variance the data were drawn with
    follow_up: np.ndarray
    grid: np.ndarray


# -- independent references (scipy, not bioassay) ---------------------------------


def ref_cdf(model: str, x, th):
    x = np.asarray(x, dtype=float)
    if model == "one-hit":
        return special.gammainc(1.0, th[0] * x)
    if model == "multi-hit":
        return special.gammainc(th[0], th[1] * x)
    if model == "weibull-cdf":
        return stats.weibull_min.cdf(x, th[1], scale=1.0 / th[0])
    if model == "multistage":
        return -np.expm1(-np.polyval(np.asarray(th)[::-1], x))
    if model == "logit-cdf":
        return stats.logistic.cdf(th[0] + th[1] * x)
    if model == "probit-cdf":
        return special.ndtr(th[0] + th[1] * x)
    raise ValueError(model)


def ref_inverse(model: str, th, q: float) -> float:
    lo, hi = (0.0, 1.0) if model in DOSE_SCALE else (-1.0, 1.0)
    while ref_cdf(model, hi, th) < q:
        hi *= 2.0
    while ref_cdf(model, lo, th) > q:
        lo *= 2.0
    return optimize.brentq(lambda v: ref_cdf(model, v, th) - q, lo, hi, xtol=1e-14, rtol=1e-15)


def ref_jacobian(model: str, x, th, frozen=()):
    """Central differences of the reference CDF; frozen slots give 0."""
    th = np.asarray(th, dtype=float)
    cols = []
    for j in range(th.size):
        if j in frozen:
            cols.append(np.zeros(np.shape(x)))
            continue
        h = 1e-6 * max(1.0, abs(th[j]))
        up, dn = th.copy(), th.copy()
        up[j] += h
        dn[j] -= h
        cols.append((ref_cdf(model, x, up) - ref_cdf(model, x, dn)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _frozen(model: str):
    return (0,) if model == "multi-hit" else ()


# -- inputs ----------------------------------------------------------------------------


def generate(seed: int, workdir: str) -> list[Op]:
    ops = []
    rngs = np.random.default_rng(seed).spawn(len(MODELS) * 2 * REPS)
    cells = [(m, d) for _ in range(REPS) for m in MODELS for d in ("small", "large")]
    for (model, design), rng in zip(cells, rngs):
        free = np.array([j not in _frozen(model) for j in range(len(BASE_THETA[model]))])
        base = np.asarray(BASE_THETA[model], dtype=float)
        theta = np.where(free, base * rng.uniform(0.8, 1.25, base.size), base)
        lo = ref_inverse(model, theta, 0.03)
        hi = ref_inverse(model, theta, 0.97)
        if design == "small":
            x = np.linspace(lo, hi, SMALL_DOSES)
            f = ref_cdf(model, x, theta)
            y = rng.binomial(ANIMALS, f) / ANIMALS
            var = f * (1.0 - f) / ANIMALS
        else:
            x = np.linspace(lo, hi, LARGE_DOSES)
            f = ref_cdf(model, x, theta)
            y = f + LARGE_SIGMA * rng.standard_normal(x.size)
            var = np.full(x.size, LARGE_SIGMA**2)
        # an analyst's starting guess: within about 10% of the truth, same
        # sign, and exact in the frozen integer slot
        theta0 = np.where(free, theta * np.maximum(1.0 + 0.1 * rng.standard_normal(theta.size), 0.2), theta)
        ops.append(
            Op(
                model=model,
                design=design,
                theta=theta,
                theta0=theta0,
                x=x,
                y=y,
                var=var,
                follow_up=np.linspace(lo, hi, FOLLOW_UP_DOSES),
                grid=np.linspace(lo, hi, GRID_POINTS),
            )
        )
    return ops


# -- the operation -------------------------------------------------------------------------


def run_op(op: Op, t):
    fit = t.call("fitting.fit_least_squares", fit_least_squares, op.model, RegressionDataset(op.x, op.y), op.theta0)
    th = fit.theta_hat
    query = PercentileQuery(op.model, tuple(th), P)
    kind = "closed" if op.model in CLOSED_FORM else "bisect"
    lp = t.call(f"lowdose.percentile.{kind}", percentile, query)
    risk = t.call("models.evaluate.point", evaluate, op.model, lp, th)
    try:
        vsd, vsd_error = t.call("lowdose.vsd_upper_limit", vsd_upper_limit, query, fit, CONFIDENCE), None
    except DomainError as exc:
        vsd, vsd_error = None, str(exc)
    info = t.call("fisher.total_info", total_info, op.model, op.follow_up, th, fit.s2)
    grid_f = t.call("models.evaluate.grid", evaluate, op.model, op.grid, th)
    grid_g = t.call("models.gradient.grid", gradient, op.model, op.grid, th)
    return {
        "fit": fit,
        "lp": lp,
        "risk": risk,
        "vsd": vsd,
        "vsd_error": vsd_error,
        "info": info,
        "grid_f": grid_f,
        "grid_g": grid_g,
    }


def digest(op: Op, out) -> str:
    h = hashlib.sha256()
    for arr in (out["fit"].theta_hat, out["info"].entries, out["grid_f"], out["grid_g"]):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    vsd = out["vsd"]
    h.update(repr((out["lp"], out["risk"], out["vsd_error"], None if vsd is None else (vsd.vsd, vsd.se))).encode())
    return h.hexdigest()


# -- output checks ------------------------------------------------------------------------------


def check(op: Op, out):
    """Raise on a wrong output; return the message of a known defect, else None."""
    fit = out["fit"]
    th = fit.theta_hat
    frozen = _frozen(op.model)
    if not fit.converged:
        raise AssertionError(f"{op.model}/{op.design}: fit did not converge: {fit.message}")
    for j in frozen:
        if th[j] != op.theta[j]:
            raise AssertionError(f"frozen slot {j} moved: {th[j]} != {op.theta[j]}")
    # theta_hat within a sandwich-covariance Mahalanobis radius of the truth
    active = [j for j in range(th.size) if j not in frozen]
    jac = ref_jacobian(op.model, op.x, op.theta)[:, active]
    bread = np.linalg.inv(jac.T @ jac)
    cov = bread @ (jac.T @ (jac * op.var[:, None])) @ bread
    delta = (th - op.theta)[active]
    d2 = float(delta @ np.linalg.solve(cov, delta))
    if not d2 <= MAHALANOBIS_MAX:
        raise AssertionError(f"{op.model}/{op.design}: theta_hat {th} far from truth {op.theta} (d2={d2:.1f})")

    # round trip |F(L_p) - target| against the scipy curve, on the default risk scale
    f0 = float(ref_cdf(op.model, 0.0, th)) if op.model in DOSE_SCALE else 0.0
    target = f0 + P * (1.0 - f0) if f0 > 0.0 else P
    lp = out["lp"]
    f_lp = float(ref_cdf(op.model, lp, th))
    if not abs(f_lp - target) <= 1e-10:
        raise AssertionError(f"{op.model}: |F(L_p) - target| = {abs(f_lp - target):.2e}")
    if not abs(out["risk"] - f_lp) <= 1e-12:
        raise AssertionError(f"{op.model}: evaluate(L_p) = {out['risk']} but reference {f_lp}")

    known = None
    if out["vsd_error"] is not None:
        if op.model == "multi-hit" and out["vsd_error"] == KNOWN_DEFECT:
            known = f"multi-hit vsd_upper_limit: DomainError: {KNOWN_DEFECT}"
        else:
            raise AssertionError(f"{op.model}: vsd_upper_limit raised DomainError: {out['vsd_error']}")
    else:
        v = out["vsd"]
        z = float(special.ndtri(CONFIDENCE))
        if not (v.lp == lp and math.isfinite(v.se) and v.se > 0):
            raise AssertionError(f"{op.model}: bad VSD result {v}")
        if not abs(v.vsd - max(0.0, lp - z * v.se)) <= 1e-12 * max(1.0, abs(lp)):
            raise AssertionError(f"{op.model}: vsd {v.vsd} != max(0, L_p - z*se)")

    # follow-up information against a benchmark-side J^T J / s^2
    jac = np.atleast_2d(gradient(op.model, op.follow_up, th))
    want = jac.T @ jac / fit.s2
    got = out["info"].entries
    if not np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)):
        raise AssertionError(f"{op.model}: total_info differs from J^T J / s2")

    # plotting grid: values against scipy, gradient against central differences
    ref = ref_cdf(op.model, op.grid, th)
    err = float(np.max(np.abs(out["grid_f"] - ref)))
    if not err <= 1e-10:
        raise AssertionError(f"{op.model}: grid evaluate off by {err:.2e}")
    idx = np.linspace(0, GRID_POINTS - 1, 25).astype(int)
    g_ref = ref_jacobian(op.model, op.grid[idx], th, frozen)
    g = np.asarray(out["grid_g"])[idx]
    if not np.all(np.abs(g - g_ref) <= 1e-6 * np.maximum(1.0, np.abs(g_ref))):
        raise AssertionError(f"{op.model}: grid gradient disagrees with central differences")
    for j in frozen:
        if np.any(np.asarray(out["grid_g"])[:, j] != 0.0):
            raise AssertionError(f"{op.model}: frozen slot {j} has a nonzero gradient")
    return known


def op_counts(op: Op, out) -> dict:
    """Per-operation counts; names ending in _mean or _share are averaged."""
    fit = out["fit"]
    return {
        "fitting.fit_least_squares.iterations_mean": fit.iterations,
        "fitting.fit_least_squares.converged_share": float(fit.converged),
    }
