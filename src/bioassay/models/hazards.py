"""Hazard functions: stage-model power law and proportional hazards.

Hazards are plain functions of time, kept outside the gradient /
information-matrix machinery (which applies to mean-response models
only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..exceptions import DomainError

__all__ = ["HazardSpec", "hazard_ad", "hazard_cox"]


@dataclass(frozen=True)
class HazardSpec:
    """Parameters for the hazard functions.

    The power-law hazard uses ``c`` (rate scale > 0), ``k`` (integer
    stage count >= 1) and ``t0`` (tumour-growth lag >= 0).  The
    proportional-hazards form uses ``baseline`` (t -> positive rate) and
    ``beta`` (coefficients).
    """

    c: float | None = None
    k: int | None = None
    t0: float = 0.0
    baseline: Callable[[float], float] | None = None
    beta: Sequence[float] | None = None

    def __post_init__(self):
        if self.c is not None and not self.c > 0:
            raise DomainError(f"hazard scale c must be > 0, got {self.c}")
        if self.k is not None and (self.k != int(self.k) or self.k < 1):
            raise DomainError(f"stage count k must be an integer >= 1, got {self.k}")
        if self.t0 < 0:
            raise DomainError(f"growth lag t0 must be >= 0, got {self.t0}")


def hazard_ad(t: float, spec: HazardSpec) -> float:
    """Power-law stage hazard c * (t - t0)**(k - 1), defined for t > t0."""
    if spec.c is None or spec.k is None:
        raise DomainError("power-law hazard needs c and k")
    if t <= spec.t0:
        raise DomainError(f"hazard undefined before growth lag: t={t} <= t0={spec.t0}")
    return spec.c * (t - spec.t0) ** (spec.k - 1)


def hazard_cox(t: float, w, spec: HazardSpec) -> float:
    """Proportional hazard baseline(t) * exp(beta . w).

    The risk score is the standard exponential form, so hazard ratios
    between covariate profiles do not depend on t.
    """
    if spec.baseline is None or spec.beta is None:
        raise DomainError("proportional hazard needs a baseline function and coefficients")
    if w is None:
        raise DomainError("no covariate vector supplied")
    beta = np.asarray(spec.beta, dtype=float)
    w = np.asarray(w, dtype=float)
    if beta.shape != w.shape:
        raise DomainError(f"covariate/coefficient shape mismatch: {w.shape} vs {beta.shape}")
    lam0 = spec.baseline(t)
    if not lam0 > 0:
        raise DomainError(f"baseline hazard must be positive at t={t}, got {lam0}")
    return lam0 * float(np.exp(beta @ w))
