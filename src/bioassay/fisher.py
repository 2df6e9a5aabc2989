"""Fisher information for mean-response models.

The information of a design is J^T J / sigma^2, where row i of the
Jacobian J is the analytic parameter gradient at design point i.  Inputs
and parameters are validated once per call, and J comes from a single
gradient evaluation over the stacked design (shape (n,), or (n, 2) for
two-input models).  A single observation is the n = 1 case: the rank-one
outer product grad f . grad f^T / sigma^2.  For the censored Weibull fit
the module holds the one pass of weighted sums behind every Weibull
quantity, and its closed-form log-likelihood Hessian.

The test suite's ``tests/fisher_reference.py`` holds hand-tabulated
closed forms that cross-check the outer-product computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .models.base import ModelDef, get_model

__all__ = [
    "InfoMatrix",
    "WeibullSample",
    "per_obs_info",
    "total_info",
    "weibull_observed_info",
]


@dataclass(frozen=True)
class InfoMatrix:
    """A finite symmetric information matrix (a least-squares one is already
    divided by the variance estimate, which a fit reports as ``FitResult.s2``)."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DomainError(f"information matrix must be square, got {entries.shape}")
        scale = np.abs(entries).max()  # NaN or inf unless every entry is finite
        if not (scale < np.inf and np.abs(entries - entries.T).max() <= 1e-12 * max(1.0, scale)):
            raise DomainError("information matrix must be finite and symmetric")
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

    def free_block(self, frozen) -> tuple[list[int], InfoMatrix]:
        """The slots not in ``frozen`` and the information of those alone: a frozen
        slot (an integer such as a hit count) has a zero gradient, so a zero row."""
        free = [i for i in range(self.p) if i not in frozen]
        if not frozen:
            return free, self
        return free, InfoMatrix(self.entries[np.ix_(free, free)])


def per_obs_info(model: ModelDef | str, u, theta, sigma2: float = 1.0) -> InfoMatrix:
    """Single-observation information: outer product of the gradient / sigma2.

    Rank <= 1 and positive semidefinite by construction.
    """
    m = get_model(model)
    if np.ndim(u) != m.input_dim - 1:
        raise DomainError("per-observation information takes a single design point")
    return total_info(m, [u], theta, sigma2)


@np.errstate(all="ignore")
def total_info(model: ModelDef | str, design, theta, sigma2: float = 1.0) -> InfoMatrix:
    """Additive information over a design: J^T J / sigma2.

    ``design`` stacks the input points: shape (n,), or (n, 2) for
    two-input models.
    """
    m = get_model(model)
    design = np.asarray(design, dtype=float)
    if design.size == 0:
        raise DomainError("design must contain at least one point")
    if not 0 < sigma2 < np.inf:
        raise DomainError(f"sigma2 must be > 0 and finite, got {sigma2}")
    theta = m.check_theta(theta)
    if design.ndim != m.input_dim:
        want = "(n,)" if m.input_dim == 1 else "(n, 2)"
        raise DomainError(f"{m.id}: design must have shape {want}, got {design.shape}")
    jac = m.finite_grad(m.check_input(design), theta)
    return InfoMatrix(jac.T @ jac / sigma2)


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
        flags = np.asarray(self.event_flags)
        if times.ndim != 1 or times.size == 0:
            raise DomainError("times must be a nonempty 1-D sequence")
        if np.any(times <= 0) or not np.all(np.isfinite(times)):
            raise DomainError("all times must be finite and strictly positive")
        if flags.shape != times.shape:
            raise DomainError("event_flags must match times in length")
        if not np.all((flags == 0) | (flags == 1)):
            raise DomainError("event_flags must be 0 (censored) or 1 (event)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "event_flags", flags.astype(int))

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


def _weibull_sums(log_t: np.ndarray, log_theta: float, s: float):
    """The weighted sums of the censored-Weibull likelihood at (theta, s),
    from the log-times: (log k, S0, S1, S2), S_j = sum w (log theta t)^j,
    where (theta t)^s = k w.  The weights w = (t / max t)^s lie in (0, 1]
    and k = (theta max t)^s overflows only when the largest term itself
    does: near a fit k is of order one in any time unit, while t^s alone
    overflows at t = 1e9 and s > 34.
    """
    z = s * log_t
    z_max = z.max()
    w = np.exp(z - z_max)
    log_tt = log_theta + log_t
    return s * log_theta + z_max, w.sum(), w @ log_tt, (w * log_tt) @ log_tt


def _weibull_terms(d: int, event_log_sum: float, s: float, log_theta: float, log_pivot: float, sums):
    """Log-likelihood, score (theta l_t, l_s) and Hessian [[theta^2 l_tt,
    theta l_ts], [theta l_ts, l_ss]] of the censored Weibull at (theta, s),
    free of the time unit, from the event count d, the events' log-time sum
    and the ``sums`` of :func:`_weibull_sums` at (pivot, s), shifted to theta
    by log theta t = delta + log pivot t."""
    log_k, s0, s1, s2 = sums
    delta = log_theta - log_pivot
    k = np.exp(log_k + s * delta)  # t_j = sum (theta t)^s (log theta t)^j below
    t0, t1, t2 = k * s0, k * (s1 + delta * s0), k * (s2 + delta * (2.0 * s1 + delta * s0))
    h_ts = d - t0 - s * t1
    hess = np.array([[-s * (d + (s - 1.0) * t0), h_ts], [h_ts, -d / s**2 - t2]])
    score = np.array([s * (d - t0), d / s + d * log_theta + event_log_sum - t1])
    return d * (math.log(s) + s * log_theta) + (s - 1.0) * event_log_sum - t0, score, hess


def _weibull_sample_terms(sample: WeibullSample, theta: float, s: float):
    """:func:`_weibull_terms` of a sample, from one pass of weighted sums at theta."""
    if not theta > 0 or not s > 0:
        raise DomainError("theta and s must both be > 0")
    log_t, log_theta = np.log(sample.times), math.log(theta)
    event_log_sum = log_t[sample.event_flags == 1].sum()
    return _weibull_terms(sample.d, event_log_sum, s, log_theta, log_theta, _weibull_sums(log_t, log_theta, s))


def weibull_observed_info(sample: WeibullSample, theta: float, s: float) -> np.ndarray:
    """Second derivatives of the censored-Weibull log-likelihood at (theta, s).

    Returns the Hessian [[l_tt, l_ts], [l_ts, l_ss]] (negative definite
    near the maximum); the observed information is its negative.
    """
    return _weibull_sample_terms(sample, theta, s)[2] / np.outer([theta, 1.0], [theta, 1.0])
