"""Hazard functions: stage-model power law and proportional hazards.

Hazards are plain functions of time, kept outside the gradient /
information-matrix machinery (which applies to mean-response models
only), and each takes its own parameters.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..exceptions import DomainError

__all__ = ["hazard_ad", "hazard_cox"]


def check_stage_model(k, t0) -> None:
    """The stage rule of the hazard and its rate fit: integer k >= 1, finite t0 >= 0."""
    if not math.isfinite(k) or k != int(k) or k < 1:
        raise DomainError(f"stage count k must be an integer >= 1, got {k}")
    if not 0 <= t0 < math.inf:
        raise DomainError(f"growth lag t0 must be finite and >= 0, got {t0}")


def hazard_ad(t: float, c: float, k: int, t0: float = 0.0) -> float:
    """Power-law stage hazard c * (t - t0)**(k - 1) at finite t > t0, rate scale c > 0 finite,
    k and t0 as :func:`check_stage_model` admits; DomainError where it leaves the float range."""
    if not 0 < c < math.inf:
        raise DomainError(f"hazard scale c must be finite and > 0, got {c}")
    check_stage_model(k, t0)
    if not t0 < t < math.inf:
        raise DomainError(f"hazard is defined at finite t past the growth lag t0={t0}, got t={t}")
    try:
        h = float(c) * math.pow(t - t0, k - 1)
        if 0.0 < h < math.inf:
            return h
    except OverflowError:
        pass
    raise DomainError(f"c*(t - t0)^(k-1) leaves the float range at t = {t}, k = {k}")


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
