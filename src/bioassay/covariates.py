"""Relative efficiency of omitting a covariate, and its consequences.

For an exposure x1 and a covariate x2 the efficiency of the adjusted
exposure estimate relative to the unadjusted one is
(1 - rho12^2) / (1 - rhoY2_1^2), where rho12 correlates the two
regressors and rhoY2_1 is the partial correlation of the outcome with
the covariate given the exposure.  Randomized designs (rho12 = 0) make
the ratio at least 1: adjusting never hurts.

The omission experiment pairs the formula with a seeded logistic
simulation: from one draw of (x1, x2, y) it fits the full design
[x1, x2] and the covariate-omitting design [x1].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, SeparationError
from .fitting import BinaryDataset, fit_logit

__all__ = ["CorrelationPair", "OmissionResult", "efficiency", "classify", "omission_experiment"]

MAX_RESAMPLE = 20  # separated draws one omission experiment replaces before it gives up


@dataclass(frozen=True)
class CorrelationPair:
    """Correlation inputs to the efficiency formula, both strictly inside (-1, 1)."""

    rho12: float
    rhoY2_1: float

    def __post_init__(self):
        for name in ("rho12", "rhoY2_1"):
            v = getattr(self, name)
            if not -1.0 < v < 1.0:
                raise DomainError(f"{name} must lie strictly inside (-1, 1), got {v}")


def efficiency(pair: CorrelationPair) -> float:
    """Variance ratio var(unadjusted) / var(adjusted) for the exposure estimate."""
    return (1.0 - pair.rho12**2) / (1.0 - pair.rhoY2_1**2)


def classify(pair: CorrelationPair) -> str:
    """'unity', 'below', or 'above' according to the efficiency relative to 1.

    Branches compare absolute correlations, which makes the three cases
    exhaustive and consistent with the sign of efficiency - 1.
    """
    a, b = abs(pair.rho12), abs(pair.rhoY2_1)
    if a == b:
        return "unity"
    return "below" if a > b else "above"


@dataclass(frozen=True)
class OmissionResult:
    """One seeded run of the covariate-omission experiment."""

    beta1_full: float
    beta1_restricted: float
    var_ratio: float  # estimated var(restricted beta1) / var(full beta1)
    se_full: float
    se_restricted: float
    resampled: int  # replicates redrawn due to separation


def omission_experiment(
    n: int,
    beta: tuple[float, float, float],
    rho12: float,
    seed: int,
) -> OmissionResult:
    """Simulate the logistic model and fit it with and without the covariate.

    Gaussian regressors with correlation ``rho12``, binary outcomes from
    the logistic mean, deterministic for a fixed seed.  A draw that
    separates is replaced using an incremented sub-seed and counted.
    ``n`` must be an integer of at least 50, ``beta`` three finite
    numbers (intercept, exposure, covariate) and ``seed`` an integer
    >= 0; each is checked before anything is drawn.
    """
    if not (isinstance(n, numbers.Integral) and n >= 50):
        raise DomainError(f"n must be an integer of at least 50, got {n!r}")
    if not -1.0 < rho12 < 1.0:
        raise DomainError(f"rho12 must lie strictly inside (-1, 1), got {rho12}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    try:
        b0, b1, b2 = (float(v) for v in beta)
    except (TypeError, ValueError):
        raise DomainError(f"beta must be three numbers (intercept, exposure, covariate), got {beta!r}") from None
    if not all(math.isfinite(v) for v in (b0, b1, b2)):
        raise DomainError(f"beta must be finite, got {beta!r}")
    resampled = 0
    for attempt in range(MAX_RESAMPLE + 1):
        rng = np.random.default_rng((int(seed), attempt))
        x1, z2 = rng.standard_normal(n), rng.standard_normal(n)
        x2 = rho12 * x1 + math.sqrt(1.0 - rho12**2) * z2
        eta = b0 + b1 * x1 + b2 * x2
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        if y.min() == y.max():
            resampled += 1
            continue
        X = np.array([x1, x2]).T  # [x1, x2], column-major: each column one contiguous draw
        try:
            full = fit_logit(BinaryDataset(X, y))
            restricted = fit_logit(BinaryDataset(X[:, :1], y))
        except SeparationError:
            resampled += 1
            continue
        var_full = float(full.info.covariance()[1, 1])
        var_restr = float(restricted.info.covariance()[1, 1])
        return OmissionResult(
            beta1_full=float(full.theta_hat[1]),
            beta1_restricted=float(restricted.theta_hat[1]),
            var_ratio=var_restr / var_full,
            se_full=math.sqrt(var_full),
            se_restricted=math.sqrt(var_restr),
            resampled=resampled,
        )
    raise SeparationError(f"all {MAX_RESAMPLE + 1} replicate draws separated")
