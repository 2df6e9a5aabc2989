"""Enzyme-kinetics response curves.

Covers the rectangular-hyperbola (Michaelis-Menten) family and its
extensions: two substrates, sigmoidal threshold responses with a
cooperativity exponent, the Morgan-Mercer-Flodin form, two transport
processes in parallel or in series, and the saturating photosynthesis /
leaf-response curves.
"""

from __future__ import annotations

import numpy as np

from .base import ModelDef, ParamSpec

__all__ = ["KINETICS_MODELS"]


# -- model functions -----------------------------------------------------

def _mm(s, th):
    return th[0] * s / (th[1] + s)

def _mm_grad(s, th):
    den = th[1] + s
    return s / den, -th[0] * s / den**2


def _mm_two_substrate(u, th):
    x1, x2 = u[..., 0], u[..., 1]
    k, c1, c2, c3 = th
    return k * x1 * x2 / (1.0 + c1 * x1 + c2 * x2 + c3 * x1 * x2)

def _mm_two_substrate_grad(u, th):
    x1, x2 = u[..., 0], u[..., 1]
    k, c1, c2, c3 = th
    num = k * x1 * x2
    den = 1.0 + c1 * x1 + c2 * x2 + c3 * x1 * x2
    return x1 * x2 / den, -num * x1 / den**2, -num * x2 / den**2, -num * x1 * x2 / den**2


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
    return up, -v * n * slope / kc, v * slope * (np.log(np.maximum(x, 5e-324)) - np.log(kc))


def _hill_decreasing(x, th):
    v, kc, n = th
    r = (x / kc) ** n
    return v / (1.0 + r)

def _hill_decreasing_grad(x, th):
    v, kc, n = th
    _up, down, slope = _sigmoid_parts((np.minimum(x, kc) / np.maximum(x, kc)) ** n, x >= kc)
    return down, v * n * slope / kc, -v * slope * np.log(np.maximum(x / kc, 5e-324))


def _mmf(x, th):
    # (theta0 w + theta2 theta3) / (w + theta3) with w = x^theta1, written so
    # that w = inf gives theta0
    return th[0] - (th[0] - th[2]) * th[3] / (x ** th[1] + th[3])

def _mmf_grad(x, th):
    # w / (w + theta3) = sigma(t) with e^t = w / theta3, finite where w = inf
    w = x ** th[1]
    up, down, slope = _sigmoid_parts(np.minimum(w, th[3]) / np.maximum(w, th[3]), w >= th[3])
    return up, slope * np.log(x) * (th[0] - th[2]), down, slope * (th[2] - th[0]) / th[3]


def _mm_parallel(s, th):
    return _mm(s, th[:2]) + _mm(s, th[2:])

def _mm_parallel_grad(s, th):
    return _mm_grad(s, th[:2]) + _mm_grad(s, th[2:])  # the two column pairs, one after the other


def _mm_series(u, th):
    s, i = u[..., 0], u[..., 1]
    e0, k1, k2, k3, k4 = th
    return e0 * (k1 * k3 * s - k2 * k4 * i) / (k2 + k3 + k1 * s + k4 * i)

def _mm_series_grad(u, th):
    s, i = u[..., 0], u[..., 1]
    e0, k1, k2, k3, k4 = th
    num = k1 * k3 * s - k2 * k4 * i
    den = k2 + k3 + k1 * s + k4 * i
    return (
        num / den,
        e0 * (k3 * s * den - num * s) / den**2,
        e0 * (-k4 * i * den - num) / den**2,
        e0 * (k1 * s * den - num) / den**2,
        e0 * (-k2 * i * den - num * i) / den**2,
    )


def _photo_pmax(c, th):
    p0, eta = th
    return p0 * eta * c / (p0 + eta * c)

def _photo_pmax_grad(c, th):
    p0, eta = th
    den = p0 + eta * c
    return (eta * c) ** 2 / den**2, p0**2 * c / den**2


def _leaf_response(it, th):
    a, pmax, rd = th
    return a * it * pmax / (a * it + pmax) - rd

def _leaf_response_grad(it, th):
    a, pmax, rd = th
    den = a * it + pmax
    return it * pmax**2 / den**2, (a * it) ** 2 / den**2, -1.0


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
