"""Model registry: growth curves, dose-response CDFs, and kinetics.

Models are addressed by stable string identifiers (see ``REGISTRY.ids()``)
and evaluated through :func:`evaluate` / :func:`gradient`.  The registry
is immutable after import; all operations are pure functions.
"""

from .base import ModelDef, ParamSpec, Registry, as_theta, evaluate, gradient
from .doseresponse import DOSE_RESPONSE_MODELS
from .growth import GROWTH_MODELS
from .hazards import HazardSpec, hazard_ad, hazard_cox
from .kinetics import (
    KINETICS_MODELS,
    KineticConstants,
    mm_parallel_summary,
    mm_slope_at_origin,
    mm_velocity_curvature,
    mm_velocity_slope,
    steady_state_complex,
)

REGISTRY = Registry()
for _m in (*GROWTH_MODELS, *DOSE_RESPONSE_MODELS, *KINETICS_MODELS):
    REGISTRY.add(_m)
REGISTRY.seal()


def get_model(model_id: str) -> ModelDef:
    """Look up a registry entry by its string identifier."""
    return REGISTRY.get(model_id)


def list_models() -> list[str]:
    """All registered model identifiers, in registration order."""
    return REGISTRY.ids()


__all__ = [
    "REGISTRY",
    "ModelDef",
    "ParamSpec",
    "Registry",
    "HazardSpec",
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
