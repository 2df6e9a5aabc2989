"""Model registry: growth curves, dose-response CDFs, and kinetics.

Models are addressed by stable string ids (:func:`list_models`), looked up by
:func:`get_model` in the read-only mapping ``REGISTRY`` and evaluated through
:func:`evaluate` / :func:`gradient`; all operations are pure functions.
"""

from .base import _MODELS, REGISTRY, ModelDef, ParamSpec, as_theta, evaluate, get_model, gradient
from .doseresponse import DOSE_RESPONSE_MODELS
from .growth import GROWTH_MODELS
from .hazards import hazard_ad, hazard_cox
from .kinetics import (
    KINETICS_MODELS,
    KineticConstants,
    mm_parallel_summary,
    mm_slope_at_origin,
    mm_velocity_curvature,
    mm_velocity_slope,
    steady_state_complex,
)

_MODELS.update((m.id, m) for m in (*GROWTH_MODELS, *DOSE_RESPONSE_MODELS, *KINETICS_MODELS))


def list_models() -> list[str]:
    """All registered model identifiers, in registration order."""
    return list(REGISTRY)


__all__ = [
    "REGISTRY",
    "ModelDef",
    "ParamSpec",
    "KineticConstants",
    "as_theta",
    "evaluate",
    "gradient",
    "get_model",
    "list_models",
    "hazard_ad",
    "hazard_cox",
    "mm_parallel_summary",
    "mm_slope_at_origin",
    "mm_velocity_curvature",
    "mm_velocity_slope",
    "steady_state_complex",
]
