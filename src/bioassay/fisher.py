"""Fisher information for mean-response models.

The information of a design is J^T J / sigma^2, where row i of the
Jacobian J is the analytic parameter gradient at design point i.  Inputs
and parameters are validated once per call, and J comes from a single
gradient evaluation over the stacked design (shape (n,), or (n, 2) for
two-input models).  A single observation is the n = 1 case: the rank-one
outer product grad f . grad f^T / sigma^2.  For the censored Weibull fit
the module also provides the closed-form second-derivative matrix of the
log-likelihood.

The test suite's ``tests/fisher_reference.py`` holds hand-tabulated
closed forms that cross-check the outer-product computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .models import get_model
from .models.base import ModelDef

__all__ = [
    "InfoMatrix",
    "WeibullSample",
    "per_obs_info",
    "total_info",
    "weibull_observed_info",
]


@dataclass(frozen=True)
class InfoMatrix:
    """A symmetric information matrix together with its variance scale."""

    entries: np.ndarray
    sigma2: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DomainError(f"information matrix must be square, got {entries.shape}")
        scale = np.abs(entries).max()  # NaN or inf unless every entry is finite
        if not (scale < np.inf and np.abs(entries - entries.T).max() <= 1e-12 * max(1.0, scale)):
            raise DomainError("information matrix must be finite and symmetric")
        if not self.sigma2 > 0:
            raise DomainError(f"sigma2 must be > 0, got {self.sigma2}")
        object.__setattr__(self, "entries", entries)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    def covariance(self) -> np.ndarray:
        """Inverse of the information matrix (asymptotic covariance)."""
        try:
            return np.linalg.inv(self.entries)
        except np.linalg.LinAlgError:
            raise DomainError("information matrix is singular") from None

    def standard_errors(self) -> np.ndarray:
        """Square roots of the covariance diagonal."""
        diag = np.diag(self.covariance())
        if np.any(diag < 0):
            raise DomainError("information matrix is not positive definite")
        return np.sqrt(diag)

    def __array__(self, dtype=None):
        return np.asarray(self.entries, dtype=dtype)


def per_obs_info(model: ModelDef | str, u, theta, sigma2: float = 1.0) -> InfoMatrix:
    """Single-observation information: outer product of the gradient / sigma2.

    Rank <= 1 and positive semidefinite by construction.
    """
    m = model if isinstance(model, ModelDef) else get_model(model)
    if np.ndim(u) != m.input_dim - 1:
        raise DomainError("per-observation information takes a single design point")
    return total_info(m, [u], theta, sigma2)


def total_info(model: ModelDef | str, design, theta, sigma2: float = 1.0) -> InfoMatrix:
    """Additive information over a design: J^T J / sigma2.

    ``design`` stacks the input points: shape (n,), or (n, 2) for
    two-input models.
    """
    m = model if isinstance(model, ModelDef) else get_model(model)
    design = np.asarray(design, dtype=float)
    if design.size == 0:
        raise DomainError("design must contain at least one point")
    if not sigma2 > 0:
        raise DomainError(f"sigma2 must be > 0, got {sigma2}")
    theta = m.check_theta(theta)
    if design.ndim != m.input_dim:
        want = "(n,)" if m.input_dim == 1 else "(n, 2)"
        raise DomainError(f"{m.id}: design must have shape {want}, got {design.shape}")
    jac = m.finite_grad(m.check_input(design, for_gradient=True), theta)
    return InfoMatrix(jac.T @ jac / sigma2, sigma2)


@dataclass(frozen=True)
class WeibullSample:
    """Event/censoring times for the two-parameter Weibull fit.

    ``times`` must be strictly positive; ``event_flags`` marks observed
    events with 1 and right-censored observations with 0.
    """

    times: np.ndarray
    event_flags: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        flags = np.asarray(self.event_flags, dtype=int)
        if times.ndim != 1 or times.size == 0:
            raise DomainError("times must be a nonempty 1-D sequence")
        if np.any(times <= 0) or not np.all(np.isfinite(times)):
            raise DomainError("all times must be finite and strictly positive")
        if flags.shape != times.shape:
            raise DomainError("event_flags must match times in length")
        if not np.all((flags == 0) | (flags == 1)):
            raise DomainError("event_flags must be 0 (censored) or 1 (event)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "event_flags", flags)

    @classmethod
    def all_events(cls, times) -> "WeibullSample":
        times = np.asarray(times, dtype=float)
        return cls(times, np.ones(times.shape, dtype=int))

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def d(self) -> int:
        """Number of observed events."""
        return int(self.event_flags.sum())


def _weibull_powers(sample: WeibullSample, theta: float, s: float):
    """The terms (theta t)^s of the Weibull likelihood without overflow.

    Returns (log k, w, log t) with (theta t)^s = k w, where the weights
    w = (t / max t)^s lie in (0, 1] and k = (theta max t)^s, so that k
    overflows only when the largest term itself does.  Near a fit k is of
    order one in any time unit, while t^s alone overflows at t = 1e9 and
    s > 34.
    """
    log_t = np.log(sample.times)
    z = s * log_t
    z_max = z.max()
    return s * math.log(theta) + z_max, np.exp(z - z_max), log_t


def weibull_observed_info(sample: WeibullSample, theta: float, s: float, negate: bool = False) -> np.ndarray:
    """Second derivatives of the censored-Weibull log-likelihood at (theta, s).

    Returns the Hessian [[l_tt, l_ts], [l_ts, l_ss]] (negative definite
    near the maximum).  Pass ``negate=True`` for the conventional
    positive-semidefinite observed information used for standard errors.
    """
    if not theta > 0 or not s > 0:
        raise DomainError("theta and s must both be > 0")
    if sample.n == 0:
        raise DomainError("sample must be nonempty")
    d = sample.d
    log_k, w, log_t = _weibull_powers(sample, theta, s)
    log_tt = math.log(theta) + log_t
    k = np.exp(log_k)
    sum_ts = k * w.sum()
    ts_log_tt = k * (w * log_tt)
    itt = -s * (d + (s - 1.0) * sum_ts) / theta**2
    its = (d - sum_ts - s * ts_log_tt.sum()) / theta
    iss = -d / s**2 - (ts_log_tt * log_tt).sum()
    h = np.array([[itt, its], [its, iss]])
    return -h if negate else h
