"""Hazard functions: stage-model power law and proportional hazards.

Hazards are plain functions of time, kept outside the gradient /
information-matrix machinery (which applies to mean-response models
only), and each takes its own parameters.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..exceptions import DomainError

__all__ = ["hazard_ad", "hazard_cox"]


def hazard_ad(t: float, c: float, k: int, t0: float = 0.0) -> float:
    """Power-law stage hazard c * (t - t0)**(k - 1), defined for t > t0: rate
    scale c > 0, integer stage count k >= 1, tumour-growth lag t0 >= 0."""
    if not c > 0:
        raise DomainError(f"hazard scale c must be > 0, got {c}")
    if k != int(k) or k < 1:
        raise DomainError(f"stage count k must be an integer >= 1, got {k}")
    if t0 < 0:
        raise DomainError(f"growth lag t0 must be >= 0, got {t0}")
    if t <= t0:
        raise DomainError(f"hazard undefined before growth lag: t={t} <= t0={t0}")
    return c * (t - t0) ** (k - 1)


def hazard_cox(t: float, w, baseline: Callable[[float], float], beta: Sequence[float]) -> float:
    """Proportional hazard baseline(t) * exp(beta . w).

    The risk score is the standard exponential form, so hazard ratios
    between covariate profiles do not depend on t.
    """
    beta = np.asarray(beta, dtype=float)
    w = np.asarray(w, dtype=float)
    if beta.shape != w.shape:
        raise DomainError(f"covariate/coefficient shape mismatch: {w.shape} vs {beta.shape}")
    lam0 = baseline(t)
    if not lam0 > 0:
        raise DomainError(f"baseline hazard must be positive at t={t}, got {lam0}")
    return lam0 * float(np.exp(beta @ w))
