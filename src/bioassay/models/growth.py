"""Growth-curve models: sigmoids, time-power laws, and their gradients.

All gradients here are the calculus derivatives of the stated mean
functions and are validated against central finite differences in the
test suite.  Values may overflow to IEEE inf at extreme inputs (e.g. the
double exponential for large ``u``); the effective domain is where the
result is finite.

The saturating exponential theta0 - theta1 * exp(-theta2 * u) is not a
registry entry: the test suite defines it beside its closed-form
information matrix, as an oracle for the outer-product computation.
"""

from __future__ import annotations

import numpy as np

from .base import ModelDef, ParamSpec

__all__ = ["GROWTH_MODELS"]


# -- double exponential -----------------------------------------------

def _gompertz(u, th):
    return th[0] * np.exp(th[1] * np.exp(th[2] * u))


def _gompertz_grad(u, th):
    inner = np.exp(th[2] * u)
    f = th[0] * np.exp(th[1] * inner)
    return np.stack([f / th[0], f * inner, f * th[1] * u * inner], axis=-1)


# -- offset exponential of a power ------------------------------------

def _janoschek(u, th):
    return th[0] + th[1] * np.exp(th[2] * u ** th[3])

def _janoschek_grad(u, th):
    w = u ** th[3]
    e = np.exp(th[2] * w)
    one = np.ones_like(np.asarray(u, dtype=float))
    return np.stack([one, e, th[1] * w * e, th[1] * th[2] * w * np.log(u) * e], axis=-1)


# -- three-parameter logistic ------------------------------------------

def _logistic(u, th):
    return th[0] / (1.0 + th[1] * np.exp(th[2] * u))

def _logistic_grad(u, th):
    e = np.exp(th[2] * u)
    den = 1.0 + th[1] * e
    return np.stack(
        [1.0 / den, -th[0] * e / den**2, -th[0] * th[1] * u * e / den**2], axis=-1
    )


# -- cubed exponential (von Bertalanffy form) ---------------------------

def _bertalanffy(u, th):
    return (th[0] + th[1] * np.exp(th[2] * u)) ** 3

def _bertalanffy_grad(u, th):
    e = np.exp(th[2] * u)
    g2 = 3.0 * (th[0] + th[1] * e) ** 2
    return np.stack([g2, g2 * e, g2 * th[1] * u * e], axis=-1)


# -- shifted/scaled tanh and arctan sigmoids ----------------------------

def _tanh4p(u, th):
    return th[0] + th[1] * np.tanh(th[2] * (u - th[3]))

def _tanh4p_grad(u, th):
    z = th[2] * (u - th[3])
    t = np.tanh(z)
    sech2 = 1.0 - t**2
    one = np.ones_like(t)
    return np.stack([one, t, th[1] * (u - th[3]) * sech2, -th[1] * th[2] * sech2], axis=-1)


def _atan3p(u, th):
    # despite the family name this sigmoid uses arctan, as tabulated
    return 0.5 * th[0] * (1.0 + (2.0 / np.pi) * np.arctan(th[1] * (u - th[2])))

def _atan3p_grad(u, th):
    z = th[1] * (u - th[2])
    den = 1.0 + z**2
    return np.stack(
        [
            0.5 * (1.0 + (2.0 / np.pi) * np.arctan(z)),
            (th[0] / np.pi) * (u - th[2]) / den,
            -(th[0] / np.pi) * th[1] / den,
        ],
        axis=-1,
    )


def _atan4p(u, th):
    return th[0] + (2.0 / np.pi) * th[1] * np.arctan(th[2] * (u - th[3]))

def _atan4p_grad(u, th):
    z = th[2] * (u - th[3])
    den = 1.0 + z**2
    one = np.ones_like(z)
    return np.stack(
        [
            one,
            (2.0 / np.pi) * np.arctan(z),
            (2.0 / np.pi) * th[1] * (u - th[3]) / den,
            -(2.0 / np.pi) * th[1] * th[2] / den,
        ],
        axis=-1,
    )


# -- time-power laws (u > 0) --------------------------------------------

def _exp_time_power(u, th):
    return th[0] * u ** th[1]

def _exp_time_power_grad(u, th):
    w = u ** th[1]
    return np.stack([w, th[0] * w * np.log(u)], axis=-1)


def _exp_time_power_repar(u, th):
    # theta0 - theta1 * exp(-theta2 * ln u) == theta0 - theta1 * u**-theta2
    return th[0] - th[1] * u ** (-th[2])

def _exp_time_power_repar_grad(u, th):
    w = u ** (-th[2])
    one = np.ones_like(w)
    return np.stack([one, -w, th[1] * np.log(u) * w], axis=-1)


# -- reconstructed Weibull response -------------------------------------

def _weibull_recon(u, th):
    return th[0] - (th[0] - th[1]) * np.exp(-((th[2] * u) ** th[3]))

def _weibull_recon_grad(u, th):
    z = th[2] * u
    e = np.exp(-(z ** th[3]))
    return np.stack(
        [
            1.0 - e,
            e,
            (th[0] - th[1]) * th[3] * u ** th[3] * th[2] ** (th[3] - 1.0) * e,
            (th[0] - th[1]) * (z ** th[3]) * np.log(np.maximum(z, 5e-324)) * e,  # 0 at z = 0
        ],
        axis=-1,
    )


# -- generalized logistic, cubic-polynomial exponent ---------------------

def _gen_logistic_i(u, th):
    a = th[1] + th[2] * u + th[3] * u**2 + th[4] * u**3
    return th[0] / (1.0 + np.exp(a))

def _gen_logistic_i_grad(u, th):
    a = th[1] + th[2] * u + th[3] * u**2 + th[4] * u**3
    e = np.exp(a)
    den2 = (1.0 + e) ** 2
    base = -th[0] * e / den2
    return np.stack([1.0 / (1.0 + e), base, base * u, base * u**2, base * u**3], axis=-1)


# -- generalized logistic, power-transform exponent ----------------------

def _gen_logistic_ii(u, th):
    a = th[1] + th[2] * (u ** th[3] - 1.0) / th[3]
    return th[0] / (1.0 + np.exp(a))

def _gen_logistic_ii_grad(u, th):
    w = u ** th[3]
    g = (w - 1.0) / th[3]
    a = th[1] + th[2] * g
    e = np.exp(a)
    den2 = (1.0 + e) ** 2
    base = -th[0] * e / den2
    # d/dtheta3 of (u**theta3 - 1)/theta3
    dg = (th[3] * w * np.log(u) - (w - 1.0)) / th[3] ** 2
    return np.stack([1.0 / (1.0 + e), base, base * g, base * th[2] * dg], axis=-1)


GROWTH_MODELS = [
    ModelDef(
        id="gompertz",
        family="growth",
        fn=_gompertz,
        grad=_gompertz_grad,
        params=(ParamSpec("scale"), ParamSpec("shape"), ParamSpec("rate")),
        doc="double exponential: theta0 * exp(theta1 * exp(theta2 * u))",
    ),
    ModelDef(
        id="janoschek",
        family="growth",
        fn=_janoschek,
        grad=_janoschek_grad,
        params=(ParamSpec("offset"), ParamSpec("scale"), ParamSpec("rate"), ParamSpec("power")),
        input_low=0.0,
        input_low_strict=True,
        doc="theta0 + theta1 * exp(theta2 * u**theta3)",
    ),
    ModelDef(
        id="logistic",
        family="growth",
        fn=_logistic,
        grad=_logistic_grad,
        params=(ParamSpec("asymptote"), ParamSpec("shape", low=0.0), ParamSpec("rate")),
        doc="theta0 / (1 + theta1 * exp(theta2 * u)); shape > 0 keeps the denominator positive",
    ),
    ModelDef(
        id="bertalanffy",
        family="growth",
        fn=_bertalanffy,
        grad=_bertalanffy_grad,
        params=(ParamSpec("offset"), ParamSpec("scale"), ParamSpec("rate")),
        doc="(theta0 + theta1 * exp(theta2 * u))**3",
    ),
    ModelDef(
        id="tanh",
        family="growth",
        fn=_tanh4p,
        grad=_tanh4p_grad,
        params=(ParamSpec("level"), ParamSpec("amplitude"), ParamSpec("steepness"), ParamSpec("center")),
        doc="theta0 + theta1 * tanh(theta2 * (u - theta3))",
    ),
    ModelDef(
        id="tanh3",
        family="growth",
        fn=_atan3p,
        grad=_atan3p_grad,
        params=(ParamSpec("asymptote"), ParamSpec("steepness"), ParamSpec("center")),
        doc="(theta0/2) * (1 + (2/pi) * arctan(theta1 * (u - theta2)))",
    ),
    ModelDef(
        id="tanh4",
        family="growth",
        fn=_atan4p,
        grad=_atan4p_grad,
        params=(ParamSpec("level"), ParamSpec("amplitude"), ParamSpec("steepness"), ParamSpec("center")),
        doc="theta0 + (2/pi) * theta1 * arctan(theta2 * (u - theta3))",
    ),
    ModelDef(
        id="exp-time-power",
        family="growth",
        fn=_exp_time_power,
        grad=_exp_time_power_grad,
        params=(ParamSpec("scale"), ParamSpec("power")),
        input_low=0.0,
        input_low_strict=True,
        doc="theta0 * u**theta1",
    ),
    ModelDef(
        id="exp-time-power-repar",
        family="growth",
        fn=_exp_time_power_repar,
        grad=_exp_time_power_repar_grad,
        params=(ParamSpec("level"), ParamSpec("scale"), ParamSpec("rate")),
        input_low=0.0,
        input_low_strict=True,
        doc="theta0 - theta1 * exp(-theta2 * ln u)",
    ),
    ModelDef(
        id="weibull-reconstructed",
        family="growth",
        fn=_weibull_recon,
        grad=_weibull_recon_grad,
        params=(
            ParamSpec("upper"),
            ParamSpec("lower"),
            ParamSpec("rate", low=0.0),
            ParamSpec("shape", low=0.0),
        ),
        input_low=0.0,
        doc="theta0 - (theta0 - theta1) * exp(-(theta2 * u)**theta3)",
    ),
    ModelDef(
        id="gen-logistic-i",
        family="growth",
        fn=_gen_logistic_i,
        grad=_gen_logistic_i_grad,
        params=(
            ParamSpec("asymptote"),
            ParamSpec("c0"),
            ParamSpec("c1"),
            ParamSpec("c2"),
            ParamSpec("c3"),
        ),
        doc="theta0 / (1 + exp(theta1 + theta2*u + theta3*u^2 + theta4*u^3))",
    ),
    ModelDef(
        id="gen-logistic-ii",
        family="growth",
        fn=_gen_logistic_ii,
        grad=_gen_logistic_ii_grad,
        params=(
            ParamSpec("asymptote"),
            ParamSpec("intercept"),
            ParamSpec("slope"),
            ParamSpec("power", low=0.0),  # positive avoids the power-transform singularity at 0
        ),
        input_low=0.0,
        input_low_strict=True,
        doc="theta0 / (1 + exp(theta1 + theta2 * (u**theta3 - 1)/theta3))",
    ),
]
