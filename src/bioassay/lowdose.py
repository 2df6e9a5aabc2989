"""Low-dose percentile extrapolation and conservative safe-dose bounds.

The percentile of a dose-response curve is the dose at which the
response probability reaches a target ``p``, on either the total-risk
scale F(L) = p or the extra-risk scale (F(L) - F(0)) / (1 - F(0)) = p.
Closed-form inversions come from the model itself
(:attr:`ModelDef.inverse`); curves without one are solved for the root
of F(L) = target by Brent's method, to |F - target| <= 1e-12, on a
bracket found by doubling away from dose 0 toward the crossing (below 0
only on curves defined on the whole real line).  A response that is not
finite stops the search, and a percentile that is not finite is a
:class:`DomainError`.

The safe-dose bound is a delta-method lower confidence limit for the
estimated percentile: the gradient of L_p with respect to the model
parameters comes from implicit differentiation of the defining
equation.  The construction is this module's own choice and is labeled
``method = "delta"`` in its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, UnattainableRiskError
from .fitting import FitResult
from .models import get_model
from .models.base import ModelDef

__all__ = [
    "PercentileQuery",
    "VsdResult",
    "percentile",
    "percentile_gradient",
    "resolve_query",
    "vsd_upper_limit",
]

_ROOT_F_TOL = 1e-12


@dataclass(frozen=True)
class PercentileQuery:
    """A percentile request: model, parameters, target probability, risk scale.

    ``risk_type`` None picks the default scale (see :func:`resolve_query`).
    The low-dose regime of interest is p <= 0.1, but any p in (0, 1) is
    accepted.
    """

    model: str | ModelDef
    theta: tuple
    p: float
    risk_type: str | None = None

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"p must lie in (0, 1), got {self.p}")
        if self.risk_type not in (None, "total", "extra"):
            raise DomainError(f"risk_type must be 'total' or 'extra', got {self.risk_type!r}")


def resolve_query(query: PercentileQuery):
    """Validate a query and return ``(model, theta, risk_type, target)``.

    This is the one place the default risk scale is decided: extra risk
    when the curve has a background response F(0) > 0, total risk
    otherwise.  ``target`` is the response level F(L) must reach.
    """
    m = get_model(query.model)
    if m.family != "dose-response-cdf":
        raise DomainError(f"percentiles are defined for dose-response curves, not {m.id}")
    theta = m.check_theta(query.theta)
    # theta is checked and dose 0 lies in every dose-scale domain: fn needs no second check
    with np.errstate(over="ignore", under="ignore"):
        f0 = float(m.fn(0.0, theta)) if m.input_low is not None else 0.0
    risk = query.risk_type
    if risk is None:
        risk = "extra" if f0 > 0.0 else "total"
    if risk == "extra":
        if f0 >= 1.0:
            raise DomainError("extra risk undefined: the background response is already 1")
        target = f0 + query.p * (1.0 - f0)
    else:
        target = query.p
        if m.input_low is not None and f0 > target:
            raise DomainError(
                f"total-risk target {target} lies below the background response F(0)={f0}; "
                "use extra risk"
            )
    return m, theta, risk, target


def _root(m: ModelDef, theta: np.ndarray, target: float) -> float:
    from scipy.optimize import brentq  # deferred: scipy.optimize is slow to import

    # every probe is a finite dose inside the domain resolve_query checked
    def f(x):
        return float(m.fn(x, theta))

    f0 = f(0.0)
    if f0 == target:
        return 0.0
    # double away from dose 0 toward the crossing: downward only on tolerance-scale
    # curves, which extend to the whole real line
    down = m.input_low is None and f0 > target
    x = -1.0 if down else 1.0
    for _ in range(60):
        fx = f(x)
        if not math.isfinite(fx):
            raise UnattainableRiskError(f"target {target} not reached: F is {fx} at dose {x}", fx)
        if (fx < target) if down else (fx > target):
            break
        x *= 2.0
    else:
        bound = "lies below the attainable response infimum" if down else "exceeds the attainable response supremum"
        raise UnattainableRiskError(f"target {target} {bound} {f(x)} (at dose {x})", f(x))
    lo, hi = (x, x / 2.0 if x < -1.0 else 0.0) if down else (0.0, x)
    # a tolerance relative to the dose alone: low-dose percentiles span many decades
    x = brentq(lambda x: f(x) - target, lo, hi, xtol=np.finfo(float).tiny, disp=False)
    if abs(f(x) - target) > _ROOT_F_TOL:
        raise DomainError(f"root search stalled: |F - target| = {abs(f(x) - target):.2e}")
    return x


def percentile(query: PercentileQuery, method: str = "auto") -> float:
    """Dose at which the curve reaches the target probability.

    ``method`` selects the inversion path: "closed" (closed form where
    one exists), "bisect" (the bracketed numeric root, whatever the
    model), or "auto" (closed form preferred).
    """
    m, theta, _risk, target = resolve_query(query)
    return _solve(m, theta, target, method)


@np.errstate(all="ignore")  # a non-finite percentile is an error below, not a warning
def _solve(m: ModelDef, theta: np.ndarray, target: float, method: str) -> float:
    if method not in ("auto", "closed", "bisect"):
        raise DomainError(f"unknown method {method!r}")
    if method == "closed" and m.inverse is None:
        raise DomainError(f"no closed-form percentile for {m.id}")
    lp = _root(m, theta, target) if method == "bisect" or m.inverse is None else float(m.inverse(target, theta))
    if not math.isfinite(lp):
        raise DomainError(f"the percentile of {m.id} at theta {tuple(theta.tolist())} is not finite ({lp})")
    return lp


@np.errstate(over="ignore", under="ignore")
def _dose_slope(m: ModelDef, theta: np.ndarray, x: float) -> float:
    """dF/dx by central differences (h respects the dose domain)."""
    h = 1e-6 * max(1.0, abs(x))
    lo_bound = m.input_low if m.input_low is not None else -math.inf
    a = max(x - h, lo_bound)
    b = x + h
    fa = float(m.fn(a, theta))
    fb = float(m.fn(b, theta))
    return (fb - fa) / (b - a)


def percentile_gradient(query: PercentileQuery) -> np.ndarray:
    """Gradient of the percentile with respect to the model parameters.

    Implicit differentiation of the defining equation: on the total-risk
    scale dL/dtheta_j = -F_theta_j(L) / F'(L); the extra-risk scale adds
    the background terms -(1-p) F_theta_j(0).
    """
    m, theta, risk, target = resolve_query(query)
    return _lp_gradient(m, theta, risk, query.p, _solve(m, theta, target, "auto"))


def _lp_gradient(m: ModelDef, theta: np.ndarray, risk: str, p: float, lp: float) -> np.ndarray:
    g_l = m.finite_grad(lp, theta)
    slope = _dose_slope(m, theta, lp)
    if slope <= 0:
        raise DomainError("dose-response slope vanishes at the percentile")
    if risk == "extra" and m.input_low is not None:
        # background correction: grad F(0) need not vanish where F(0) does
        g_l = g_l - (1.0 - p) * m.finite_grad(0.0, theta)
    return -g_l / slope


@dataclass(frozen=True)
class VsdResult:
    """Delta-method lower confidence bound for an estimated percentile."""

    lp: float
    vsd: float
    se: float
    confidence: float
    risk_type: str
    clamped: bool
    method: str = "delta"


def vsd_upper_limit(query: PercentileQuery, fit: FitResult, confidence: float) -> VsdResult:
    """Conservative dose bound: L_p minus a normal quantile of its SE.

    The percentile and its gradient are evaluated at the fitted
    parameters ``fit.theta_hat`` (the query's theta is superseded by the
    estimate); the variance comes from the inverse information in
    ``fit.info``.  The lower dose bound is the conservative direction
    and is clamped at zero (flagged) if the interval crosses it.
    """
    from scipy.special import ndtri  # deferred: scipy.special is slow to import

    if not 0.5 <= confidence < 1.0:
        raise DomainError(f"confidence must lie in [0.5, 1), got {confidence}")
    if fit.info is None:
        raise DomainError("fit carries no information matrix")
    at_fit = PercentileQuery(
        model=query.model, theta=tuple(fit.theta_hat), p=query.p, risk_type=query.risk_type
    )
    m, theta, risk, target = resolve_query(at_fit)
    if fit.info.p != theta.size:
        raise DomainError(
            f"information matrix is {fit.info.p}x{fit.info.p} but {m.id} has {theta.size} parameters"
        )
    lp = _solve(m, theta, target, "auto")
    free, info = fit.info.free_block(m.frozen_slots)
    g = _lp_gradient(m, theta, risk, query.p, lp)[free]
    var = float(g @ info.covariance() @ g)
    if var < 0:
        raise DomainError("information matrix is not positive definite")
    se = math.sqrt(var)
    z = float(ndtri(confidence))
    vsd = lp - z * se
    clamped = vsd < 0.0
    if clamped:
        vsd = 0.0
    return VsdResult(lp=lp, vsd=vsd, se=se, confidence=confidence, risk_type=risk, clamped=clamped)
