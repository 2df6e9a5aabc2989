"""Model fitting and goodness of fit.

Provides the censored two-parameter Weibull maximum-likelihood fit (with
the closed-form rate profile), Gauss-Newton least squares with
Levenberg damping for the mean-response registry, Newton logistic
regression for binary covariate models, and the Kolmogorov-Smirnov
one-sample test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .exceptions import DomainError, SeparationError
from .fisher import InfoMatrix, WeibullSample, info_at_estimate, weibull_observed_info
from .models import evaluate
from .models.base import ModelDef

__all__ = [
    "RegressionDataset",
    "BinaryDataset",
    "FitResult",
    "KSResult",
    "weibull_log_likelihood",
    "weibull_score",
    "weibull_theta_star",
    "weibull_mle",
    "fit_least_squares",
    "fit_logit",
    "relative_risk",
    "ks_test",
]

SCORE_TOL = 1e-8
SSE_REL_TOL = 1e-10


@dataclass(frozen=True)
class RegressionDataset:
    """(input, response) pairs for least-squares fitting."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or y.size == 0:
            raise DomainError("responses must be a nonempty 1-D sequence")
        if u.shape[0] != y.shape[0]:
            raise DomainError("inputs and responses must have equal length")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class BinaryDataset:
    """Binary outcomes with one exposure and an optional covariate."""

    x1: np.ndarray
    y: np.ndarray
    x2: np.ndarray | None = None

    def __post_init__(self):
        x1 = np.asarray(self.x1, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x1.shape != y.shape or y.ndim != 1 or y.size == 0:
            raise DomainError("x1 and y must be nonempty 1-D sequences of equal length")
        if not np.all((y == 0) | (y == 1)):
            raise DomainError("y must be 0/1")
        if self.x2 is not None:
            x2 = np.asarray(self.x2, dtype=float)
            if x2.shape != y.shape:
                raise DomainError("x2 must match y in length (present for all rows or none)")
            object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.size


@dataclass
class FitResult:
    """Output of a fitting procedure."""

    theta_hat: np.ndarray
    objective: float  # SSE for least squares, log-likelihood otherwise
    s2: float | None
    info: InfoMatrix | None
    converged: bool
    iterations: int
    model: str | None = None
    objective_kind: str = "sse"
    message: str = ""

    def standard_errors(self) -> np.ndarray:
        if self.info is None:
            raise DomainError("no information matrix available for standard errors")
        return self.info.standard_errors()

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "theta_hat": [float(v) for v in self.theta_hat],
            "objective": float(self.objective),
            "objective_kind": self.objective_kind,
            "s2": None if self.s2 is None else float(self.s2),
            "info": None if self.info is None else [[float(v) for v in row] for row in self.info.entries],
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "message": self.message,
        }


# -- censored Weibull -----------------------------------------------------

def weibull_log_likelihood(sample: WeibullSample, theta: float, s: float) -> float:
    """Censored log-likelihood: events contribute the density, all
    observations the survival exponent -(theta t)^s."""
    if not theta > 0 or not s > 0:
        raise DomainError("theta and s must both be > 0")
    t = sample.times
    ev = sample.event_flags == 1
    with np.errstate(over="ignore"):
        return float(
            np.sum(np.log(s) + s * np.log(theta) + (s - 1.0) * np.log(t[ev]))
            - theta**s * np.sum(t**s)
        )


def weibull_score(sample: WeibullSample, theta: float, s: float) -> np.ndarray:
    """Score vector (dl/dtheta, dl/ds) of the censored log-likelihood."""
    if not theta > 0 or not s > 0:
        raise DomainError("theta and s must both be > 0")
    t = sample.times
    d = sample.d
    with np.errstate(over="ignore"):
        ts = t**s
        sum_ts = ts.sum()
        u_theta = s * d / theta - s * theta ** (s - 1.0) * sum_ts
        ev = sample.event_flags == 1
        u_s = (
            d / s
            + d * math.log(theta)
            + np.log(t[ev]).sum()
            - theta**s * (ts * np.log(theta * t)).sum()
        )
    return np.array([u_theta, u_s])


def weibull_theta_star(sample: WeibullSample, s: float) -> float:
    """Closed-form rate MLE at fixed shape: theta* = (d / sum t_i^s)^(1/s)."""
    if not s > 0:
        raise DomainError(f"shape s must be > 0, got {s}")
    d = sample.d
    if d < 1:
        raise DomainError("no events observed: the rate MLE is at the boundary")
    return float((d / np.sum(sample.times**s)) ** (1.0 / s))


def _golden_max(f, lo, hi, tol=1e-7, max_iter=200):
    """Golden-section maximizer on [lo, hi]; returns (x, iterations)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d_ = a + invphi * (b - a)
    fc, fd = f(c), f(d_)
    it = 0
    while b - a > tol and it < max_iter:
        if fc > fd:
            b, d_, fd = d_, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + invphi * (b - a)
            fd = f(d_)
        it += 1
    return 0.5 * (a + b), it


def weibull_mle(
    sample: WeibullSample,
    s_bounds: tuple[float, float] = (0.05, 50.0),
    max_iter: int = 200,
) -> FitResult:
    """Two-parameter Weibull MLE by profiling the rate out of the shape.

    For each shape the rate maximizer is closed-form; the profile
    log-likelihood is maximized by golden section over ``s_bounds`` and
    polished with Newton steps on the full score.  Convergence requires
    both score components below 1e-8.  A shape estimate pinned at the
    profile boundary is reported as non-converged.
    """
    if sample.d < 2:
        raise DomainError("need at least two events to estimate (theta, s)")
    lo, hi = s_bounds

    def profile(s):
        return weibull_log_likelihood(sample, weibull_theta_star(sample, s), s)

    s_hat, golden_iters = _golden_max(profile, lo, hi)
    theta_hat = weibull_theta_star(sample, s_hat)

    # Newton polish on the joint score
    x = np.array([theta_hat, s_hat])
    iters = golden_iters
    converged = False
    for _ in range(max_iter):
        iters += 1
        score = weibull_score(sample, x[0], x[1])
        if np.max(np.abs(score)) < SCORE_TOL:
            converged = True
            break
        h = weibull_observed_info(sample, x[0], x[1])
        try:
            step = np.linalg.solve(h, -score)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        ll_old = weibull_log_likelihood(sample, x[0], x[1])
        # Newton directions are ascent directions here; tolerate rounding
        # noise in ll so the quadratic endgame is not rejected over 1 ulp
        ll_floor = ll_old - 1e-12 * max(1.0, abs(ll_old))
        accepted = False
        for _ in range(40):
            cand = x + scale * step
            if cand[0] > 0 and lo <= cand[1] <= hi:
                ll_new = weibull_log_likelihood(sample, *cand)
                if np.isfinite(ll_new) and ll_new >= ll_floor:
                    accepted = True
                    break
            scale *= 0.5
        if not accepted:
            break
        x = cand

    theta_hat, s_hat = float(x[0]), float(x[1])
    message = ""
    boundary = s_hat <= lo * (1 + 1e-6) or s_hat >= hi * (1 - 1e-6)
    if boundary:
        converged = False
        message = f"shape estimate pinned at profile boundary [{lo}, {hi}]"
    elif not converged:
        message = "score tolerance not reached within the iteration budget"

    info = InfoMatrix(weibull_observed_info(sample, theta_hat, s_hat, negate=True), 1.0)
    return FitResult(
        theta_hat=np.array([theta_hat, s_hat]),
        objective=weibull_log_likelihood(sample, theta_hat, s_hat),
        s2=None,
        info=info,
        converged=converged,
        iterations=iters,
        model="weibull-cdf",
        objective_kind="loglik",
        message=message,
    )


# -- Gauss-Newton least squares ---------------------------------------------

def fit_least_squares(
    model: ModelDef | str,
    data: RegressionDataset,
    theta0,
    max_iter: int = 500,
) -> FitResult:
    """Gauss-Newton nonlinear least squares with step halving.

    Accepted steps never increase the SSE.  Singular normal equations
    fall back to Levenberg damping (lambda from 1e-3, tenfold on
    failure); persistent singularity yields a non-converged report.
    Integer-constrained parameter slots are held fixed.
    """
    from .models import get_model

    m = model if isinstance(model, ModelDef) else get_model(model)
    theta = m.check_theta(theta0)
    p = len(theta)
    if data.n < p:
        raise DomainError(f"need at least {p} observations to fit {m.id}, got {data.n}")
    active = [i for i in range(p) if i not in m.frozen_slots]
    # inputs are validated once here; the iterations call fn/grad directly
    u = m.check_input(data.u)
    m.check_input(u, for_gradient=True)

    def residuals(th):
        with np.errstate(over="ignore", under="ignore"):
            return data.y - np.asarray(m.fn(u, th), dtype=float)

    r = residuals(theta)
    sse = float(r @ r)
    converged = False
    message = ""
    iters = 0
    for _ in range(max_iter):
        iters += 1
        jac = np.atleast_2d(m.finite_grad(u, theta))
        ja = jac[:, active]
        g = ja.T @ r
        if np.linalg.norm(2.0 * jac.T @ r) < SCORE_TOL:
            converged = True
            break
        jtj = ja.T @ ja

        def step_candidates():
            # plain Gauss-Newton first, then the Levenberg damping ladder
            # (also engages when an ill-conditioned solve yields a bad step)
            try:
                yield np.linalg.solve(jtj, g)
            except np.linalg.LinAlgError:
                pass
            lam = 1e-3
            for _ in range(12):
                try:
                    yield np.linalg.solve(jtj + lam * np.eye(len(active)), g)
                except np.linalg.LinAlgError:
                    pass
                lam *= 10.0

        improved = False
        for step_a in step_candidates():
            if not np.all(np.isfinite(step_a)):
                continue
            step = np.zeros(p)
            step[active] = step_a
            scale = 1.0
            for _ in range(25):
                cand = theta + scale * step
                try:
                    m.check_theta(cand)
                except DomainError:
                    scale *= 0.5
                    continue
                r_new = residuals(cand)
                sse_new = float(r_new @ r_new)
                if np.isfinite(sse_new) and sse_new <= sse:
                    improved = True
                    break
                scale *= 0.5
            if improved:
                break
        if not improved:
            message = "no descent step found: normal equations persistently singular or stalled"
            break
        rel_drop = (sse - sse_new) / max(sse, 1e-300)
        theta, r, sse = cand, r_new, sse_new
        if rel_drop < SSE_REL_TOL:
            converged = True
            break

    s2 = sse / (data.n - p) if data.n > p else None
    info = None
    if s2 is not None and s2 > 0:
        info = info_at_estimate(m, data.u, theta, s2)
    return FitResult(
        theta_hat=theta,
        objective=sse,
        s2=s2,
        info=info,
        converged=converged,
        iterations=iters,
        model=m.id,
        objective_kind="sse",
        message=message,
    )


# -- logistic regression ------------------------------------------------------

def _logit_loglik(X, y, beta):
    eta = X @ beta
    # log(p) and log(1-p) in a numerically safe form
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def fit_logit(data: BinaryDataset, include_x2: bool = False, max_iter: int = 100) -> FitResult:
    """Newton maximum likelihood for the logistic regression of y on x1
    (and optionally x2).

    Raises :class:`SeparationError` when the estimates diverge past
    |beta| = 30 with rising likelihood, and rejects rank-deficient
    designs (e.g. a constant covariate) as unidentifiable.
    """
    y = data.y
    if y.min() == y.max():
        raise DomainError("both outcome classes must be present")
    cols = [np.ones(data.n), data.x1]
    if include_x2:
        if data.x2 is None:
            raise DomainError("include_x2 requested but the dataset has no x2 column")
        cols.append(data.x2)
    X = np.column_stack(cols)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise DomainError("design matrix is rank deficient (constant or collinear covariate)")

    beta = np.zeros(X.shape[1])
    ll = _logit_loglik(X, y, beta)
    converged = False
    iters = 0
    for _ in range(max_iter):
        iters += 1
        p = expit(X @ beta)
        score = X.T @ (y - p)
        if np.linalg.norm(score) < SCORE_TOL:
            if np.all(np.abs(y - p) < 1e-6):
                raise SeparationError(
                    "fitted probabilities saturate at the outcomes: the classes are separable"
                )
            converged = True
            break
        w = p * (1.0 - p)
        hess = X.T @ (X * w[:, None])
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError:
            raise SeparationError("information matrix singular: classes are quasi-separable")
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            ll_new = _logit_loglik(X, y, cand)
            if ll_new >= ll - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        ll_prev, ll = ll, _logit_loglik(X, y, beta)
        if np.max(np.abs(beta)) > 30.0 and ll >= ll_prev:
            raise SeparationError(
                "estimates diverging with rising likelihood: complete or quasi-complete separation"
            )

    p = expit(X @ beta)
    w = p * (1.0 - p)
    info = InfoMatrix(X.T @ (X * w[:, None]), 1.0)
    return FitResult(
        theta_hat=beta,
        objective=ll,
        s2=None,
        info=info,
        converged=converged,
        iterations=iters,
        model="logit",
        objective_kind="loglik",
        message="" if converged else "score tolerance not reached",
    )


def relative_risk(beta1: float) -> float:
    """exp(beta1): multiplicative risk per unit of the exposure covariate."""
    if not np.isfinite(beta1):
        raise DomainError(f"beta1 must be finite, got {beta1}")
    return float(np.exp(beta1))


# -- Kolmogorov-Smirnov -------------------------------------------------------

@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    asymptotic_valid: bool  # the series approximation is quoted for n >= 35


def _kolmogorov_sf(lam: float, terms: int = 100) -> float:
    """Asymptotic Kolmogorov survival function, truncated series."""
    if lam <= 0:
        return 1.0
    total = 0.0
    for j in range(1, terms + 1):
        total += (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
    return min(1.0, max(0.0, 2.0 * total))


def ks_test(sample, cdf) -> KSResult:
    """One-sample Kolmogorov-Smirnov test against a fully specified CDF.

    ``cdf`` is a callable x -> F(x) or a (model, theta) pair.  The
    statistic is the exact supremum over the order statistics; the
    p-value uses the asymptotic Kolmogorov series with 100 terms.
    """
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    if n == 0:
        raise DomainError("sample must be nonempty")
    if callable(cdf):
        f = np.asarray([cdf(x) for x in xs], dtype=float)
    else:
        model, theta = cdf
        f = np.asarray(evaluate(model, xs, theta), dtype=float)
    if np.any(f < 0) or np.any(f > 1):
        raise DomainError("cdf values must lie in [0, 1]")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    p = _kolmogorov_sf(math.sqrt(n) * d)
    return KSResult(statistic=d, p_value=p, asymptotic_valid=n >= 35)
