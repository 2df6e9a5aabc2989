"""Enzyme-kinetics response curves and steady-state algebra.

Covers the rectangular-hyperbola (Michaelis-Menten) family and its
extensions: two substrates, sigmoidal threshold responses with a
cooperativity exponent, the Morgan-Mercer-Flodin form, two transport
processes in parallel or in series, and the saturating photosynthesis /
leaf-response curves.

Also provides the steady-state enzyme-substrate complex concentration
and slope/curvature helpers for the basic hyperbola.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import DomainError
from .base import ModelDef, ParamSpec

__all__ = [
    "KINETICS_MODELS",
    "KineticConstants",
    "steady_state_complex",
    "mm_slope_at_origin",
    "mm_velocity_slope",
    "mm_velocity_curvature",
    "mm_parallel_summary",
]


@dataclass(frozen=True)
class KineticConstants:
    """Rate constants and the derived saturation parameters.

    ``vmax`` and ``km`` are always present.  The elementary rate
    constants are optional: :meth:`from_rates` derives ``vmax = k3 * e0``
    and ``km = (k2 + k3) / k1``; constants built directly from
    ``(vmax, km)`` carry no rate information and cannot be used for the
    steady-state complex concentration.
    """

    vmax: float
    km: float
    k1: float | None = None
    k2: float | None = None
    k3: float | None = None
    e0: float | None = None

    def __post_init__(self):
        for name in ("vmax", "km", "k1", "k2", "k3", "e0"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise DomainError(f"kinetic constant '{name}' must be finite and > 0, got {value}")

    @classmethod
    def from_rates(cls, k1: float, k2: float, k3: float, e0: float):
        if not all(0 < v < math.inf for v in (k1, k2, k3, e0)):
            raise DomainError("rate constants and total enzyme must all be finite and > 0")
        return cls(vmax=k3 * e0, km=(k2 + k3) / k1, k1=k1, k2=k2, k3=k3, e0=e0)

    @property
    def has_rates(self) -> bool:
        return None not in (self.k1, self.k2, self.k3, self.e0)


def steady_state_complex(constants: KineticConstants, s: float) -> float:
    """Steady-state bound-enzyme concentration at substrate level ``s``.

    [ES] = k1 * s * E0 / (k1 * s + k2 + k3); lies in [0, E0], and
    k3 * [ES] equals the saturation-curve velocity at ``s``.  Formed as
    E0 times the bound fraction k1 s / (k1 s + k2 + k3) in [0, 1], written
    as 1 / (1 + (k2 + k3) / (k1 s)) where k1 s dominates, so that a huge
    k1 s gives E0 and a tiny one keeps its subnormal digits.
    """
    if not constants.has_rates:
        raise DomainError("steady-state complex needs the elementary rate constants")
    if not 0 <= s < math.inf:
        raise DomainError(f"substrate concentration must be finite and >= 0, got {s}")
    ks, off = constants.k1 * s, constants.k2 + constants.k3
    bound = ks / (ks + off) if ks <= off else 1.0 / (1.0 + off / ks)
    return constants.e0 * bound


def mm_slope_at_origin(constants: KineticConstants) -> float:
    """Initial slope of the saturation curve: vmax / km."""
    return constants.vmax / constants.km


def mm_velocity_slope(constants: KineticConstants, x: float) -> float:
    """dv/dx = vmax * km / (km + x)^2 at substrate level x >= 0.

    Formed as (vmax / (km + x)) * (km / (km + x)), two bounded factors,
    so that no power of km + x overflows.
    """
    if not 0 <= x < math.inf:
        raise DomainError(f"substrate concentration must be finite and >= 0, got {x}")
    den = constants.km + x
    return constants.vmax / den * (constants.km / den)


def mm_velocity_curvature(constants: KineticConstants, x: float) -> float:
    """d2v/dx2 = -2 * vmax * km / (km + x)^3 at substrate level x >= 0.

    Formed from the bounded factors of :func:`mm_velocity_slope`.
    """
    return -2.0 * mm_velocity_slope(constants, x) / (constants.km + x)


def mm_parallel_summary(v1: float, k1: float, v2: float, k2: float) -> tuple[float, float]:
    """Initial slope and saturation asymptote of two hyperbolas in parallel.

    Returns (v1/k1 + v2/k2, v1 + v2).
    """
    if not all(0 < v < math.inf for v in (v1, k1, v2, k2)):
        raise DomainError("parallel-process constants must all be finite and > 0")
    return v1 / k1 + v2 / k2, v1 + v2


# -- model functions -----------------------------------------------------

def _mm(s, th):
    return th[0] * s / (th[1] + s)

def _mm_grad_columns(s, th):
    den = th[1] + s
    return s / den, -th[0] * s / den**2

def _mm_grad(s, th):
    return np.stack(_mm_grad_columns(s, th), axis=-1)


def _mm_two_substrate(u, th):
    x1, x2 = u[..., 0], u[..., 1]
    k, c1, c2, c3 = th
    return k * x1 * x2 / (1.0 + c1 * x1 + c2 * x2 + c3 * x1 * x2)

def _mm_two_substrate_grad(u, th):
    x1, x2 = u[..., 0], u[..., 1]
    k, c1, c2, c3 = th
    num = k * x1 * x2
    den = 1.0 + c1 * x1 + c2 * x2 + c3 * x1 * x2
    return np.stack(
        [
            x1 * x2 / den,
            -num * x1 / den**2,
            -num * x2 / den**2,
            -num * x1 * x2 / den**2,
        ],
        axis=-1,
    )


def _sigmoid_parts(r, up):
    """sigma(t), sigma(-t) and sigma'(t) of the logistic 1/(1 + e^-t), from
    r = e^-|t| in [0, 1] and up = (t >= 0); r = 0 gives the limits 1, 0, 0."""
    a = 1.0 / (1.0 + r)
    b = r * a
    return np.where(up, a, b), np.where(up, b, a), a * b


@np.errstate(all="ignore")
def _hill(x, th):
    # v x^n / (kc^n + x^n) divided through by x^n, which stays finite where
    # x^n and kc^n overflow together; at x = 0, (kc/x)^n = inf gives 0
    v, kc, n = th
    return v / (1.0 + (kc / x) ** n)

def _hill_grad(x, th):
    # v sigma(t), t = n ln(x/kc): e^-|t| = (min/max)^n, finite where x^n overflows
    v, kc, n = th
    up, _down, slope = _sigmoid_parts((np.minimum(x, kc) / np.maximum(x, kc)) ** n, x >= kc)
    # slope * ln x -> 0 at x = 0; 5e-324 is the least positive double
    return np.stack(
        [
            up,
            -v * n * slope / kc,
            v * slope * (np.log(np.maximum(x, 5e-324)) - np.log(kc)),
        ],
        axis=-1,
    )


def _hill_decreasing(x, th):
    v, kc, n = th
    r = (x / kc) ** n
    return v / (1.0 + r)

def _hill_decreasing_grad(x, th):
    v, kc, n = th
    _up, down, slope = _sigmoid_parts((np.minimum(x, kc) / np.maximum(x, kc)) ** n, x >= kc)
    return np.stack(
        [
            down,
            v * n * slope / kc,
            -v * slope * np.log(np.maximum(x / kc, 5e-324)),
        ],
        axis=-1,
    )


def _mmf(x, th):
    # (theta0 w + theta2 theta3) / (w + theta3) with w = x^theta1, written so
    # that w = inf gives theta0
    return th[0] - (th[0] - th[2]) * th[3] / (x ** th[1] + th[3])

def _mmf_grad(x, th):
    # w / (w + theta3) = sigma(t) with e^t = w / theta3, finite where w = inf
    w = x ** th[1]
    up, down, slope = _sigmoid_parts(np.minimum(w, th[3]) / np.maximum(w, th[3]), w >= th[3])
    return np.stack(
        [
            up,
            slope * np.log(x) * (th[0] - th[2]),
            down,
            slope * (th[2] - th[0]) / th[3],
        ],
        axis=-1,
    )


def _mm_parallel(s, th):
    return _mm(s, th[:2]) + _mm(s, th[2:])

def _mm_parallel_grad(s, th):
    # one stack of the four columns: concatenating two (n, 2) blocks doubles the cost
    return np.stack([*_mm_grad_columns(s, th[:2]), *_mm_grad_columns(s, th[2:])], axis=-1)


def _mm_series(u, th):
    s, i = u[..., 0], u[..., 1]
    e0, k1, k2, k3, k4 = th
    return e0 * (k1 * k3 * s - k2 * k4 * i) / (k2 + k3 + k1 * s + k4 * i)

def _mm_series_grad(u, th):
    s, i = u[..., 0], u[..., 1]
    e0, k1, k2, k3, k4 = th
    num = k1 * k3 * s - k2 * k4 * i
    den = k2 + k3 + k1 * s + k4 * i
    return np.stack(
        [
            num / den,
            e0 * (k3 * s * den - num * s) / den**2,
            e0 * (-k4 * i * den - num) / den**2,
            e0 * (k1 * s * den - num) / den**2,
            e0 * (-k2 * i * den - num * i) / den**2,
        ],
        axis=-1,
    )


def _photo_pmax(c, th):
    p0, eta = th
    return p0 * eta * c / (p0 + eta * c)

def _photo_pmax_grad(c, th):
    p0, eta = th
    den = p0 + eta * c
    return np.stack([(eta * c) ** 2 / den**2, p0**2 * c / den**2], axis=-1)


def _leaf_response(it, th):
    a, pmax, rd = th
    return a * it * pmax / (a * it + pmax) - rd

def _leaf_response_grad(it, th):
    a, pmax, rd = th
    den = a * it + pmax
    ones = np.ones_like(np.asarray(it, dtype=float))
    return np.stack(
        [it * pmax**2 / den**2, (a * it) ** 2 / den**2, -ones], axis=-1
    )


def _p(name):
    return ParamSpec(name, low=0.0)


KINETICS_MODELS = [
    ModelDef(
        id="mm",
        family="kinetics",
        fn=_mm,
        grad=_mm_grad,
        params=(_p("vmax"), _p("km")),
        input_low=0.0,
        doc="rectangular hyperbola vmax * s / (km + s)",
    ),
    ModelDef(
        id="mm-two-substrate",
        family="kinetics",
        fn=_mm_two_substrate,
        grad=_mm_two_substrate_grad,
        params=(_p("k"), ParamSpec("c1", low=0.0, strict=False),
                ParamSpec("c2", low=0.0, strict=False),
                ParamSpec("c3", low=0.0, strict=False)),
        input_dim=2,
        input_low=0.0,
        doc="k*x1*x2 / (1 + c1*x1 + c2*x2 + c3*x1*x2)",
    ),
    ModelDef(
        id="hill",
        family="kinetics",
        fn=_hill,
        grad=_hill_grad,
        params=(_p("vmax"), _p("half-max"), _p("exponent")),
        input_low=0.0,
        doc="sigmoidal response v * x^n / (kc^n + x^n)",
    ),
    ModelDef(
        id="hill-decreasing",
        family="kinetics",
        fn=_hill_decreasing,
        grad=_hill_decreasing_grad,
        params=(_p("vmax"), _p("half-max"), _p("exponent")),
        input_low=0.0,
        doc="complementary sigmoid v / (1 + (x/kc)^n)",
    ),
    ModelDef(
        id="mmf",
        family="kinetics",
        fn=_mmf,
        grad=_mmf_grad,
        params=(ParamSpec("upper"), _p("power"), ParamSpec("lower"), _p("scale")),
        input_low=0.0,
        input_low_strict=True,
        doc="Morgan-Mercer-Flodin form (theta0*x^theta1 + theta2*theta3)/(x^theta1 + theta3)",
    ),
    ModelDef(
        id="mm-parallel",
        family="kinetics",
        fn=_mm_parallel,
        grad=_mm_parallel_grad,
        params=(_p("v1"), _p("k1"), _p("v2"), _p("k2")),
        input_low=0.0,
        doc="sum of two independent hyperbolas",
    ),
    ModelDef(
        id="mm-series",
        family="kinetics",
        fn=_mm_series,
        grad=_mm_series_grad,
        params=(_p("e0"), _p("k1"), _p("k2"), _p("k3"), _p("k4")),
        input_dim=2,
        input_low=0.0,
        doc="chained transport e0*(k1*k3*s - k2*k4*i)/(k2 + k3 + k1*s + k4*i)",
    ),
    ModelDef(
        id="photo-pmax",
        family="kinetics",
        fn=_photo_pmax,
        grad=_photo_pmax_grad,
        params=(_p("p0"), _p("efficiency")),
        input_low=0.0,
        doc="saturating photosynthetic response p0*eta*c / (p0 + eta*c)",
    ),
    ModelDef(
        id="leaf-response",
        family="kinetics",
        fn=_leaf_response,
        grad=_leaf_response_grad,
        params=(_p("efficiency"), _p("pmax"), ParamSpec("respiration", low=0.0, strict=False)),
        input_low=0.0,
        doc="light-flux response a*I*pmax/(a*I + pmax) - rd",
    ),
]
