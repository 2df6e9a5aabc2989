"""Quantal dose-response curves: cumulative distribution functions of dose.

Each entry maps dose ``x >= 0`` (tolerance-scale models accept the whole
real line) to a response probability in [0, 1], nondecreasing in dose.
Curves with a closed-form percentile carry it as ``inverse(target, theta)``.

The hit-count family is the regularized lower incomplete gamma function
P(k, lambda * x), evaluated by :func:`scipy.special.gammainc`.

The kernels reach scipy.special through the module global ``special``,
which imports it on first use: importing it about doubles the package's
import time, and most processes that import the package evaluate no curve
that needs it.
"""

from __future__ import annotations

import math

import numpy as np

from .base import ModelDef, ParamSpec

__all__ = ["DOSE_RESPONSE_MODELS"]


class _DeferredSpecial:
    """Stand-in for :mod:`scipy.special` until a kernel first needs it.

    The first attribute lookup imports the module and rebinds the global
    ``special`` to it, so later kernel calls pay one module-attribute
    lookup and never come back here.
    """

    def __getattr__(self, name):
        global special
        import scipy.special

        special = scipy.special
        return getattr(special, name)


special = _DeferredSpecial()


# -- single-event exponential -------------------------------------------

def _one_hit(x, th):
    return -np.expm1(-th[0] * x)

def _one_hit_grad(x, th):
    return np.stack([x * np.exp(-th[0] * x)], axis=-1)

def _one_hit_inverse(target, th):
    return -math.log1p(-target) / th[0]


# -- k identical events: gamma-count curve --------------------------------

def _multi_hit(x, th):
    k, lam = th
    return special.gammainc(k, lam * x)

def _multi_hit_grad(x, th):
    k, lam = th
    z = lam * x
    # x z^(k-1) e^-z / Gamma(k) in log space: Gamma(k) overflows past k = 171,
    # and xlogy keeps z = 0 with k = 1 exact
    dp_dlam = x * np.exp(special.xlogy(k - 1.0, z) - z - special.gammaln(k))
    # the hit count is structurally integer: no continuous derivative
    return np.stack([np.zeros_like(dp_dlam), dp_dlam], axis=-1)


# -- Weibull dose curve ----------------------------------------------------

def _weibull_cdf(x, th):
    theta, s = th
    return -np.expm1(-((theta * x) ** s))

def _weibull_cdf_grad(x, th):
    theta, s = th
    z = theta * x
    zs = z**s
    e = np.exp(-zs)
    # z^s ln z -> 0 at z = 0; the floor 5e-324, the least positive double, leaves z > 0 as is
    return np.stack([s * theta ** (s - 1.0) * x**s * e, zs * np.log(np.maximum(z, 5e-324)) * e], axis=-1)

def _weibull_cdf_inverse(target, th):
    return (-math.log1p(-target)) ** (1.0 / th[1]) / th[0]


# -- polynomial-exponent stage curve --------------------------------------

def _multistage(x, th):
    return -np.expm1(-np.polynomial.polynomial.polyval(x, th))

def _multistage_grad(x, th):
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.polynomial.polynomial.polyval(x, th))
    # column j is x^j e, one C-ordered column at a time: broadcasting x against the
    # stage powers would loop over the few stages innermost, several times slower
    out = np.empty(x.shape + (len(th),))
    for j in range(len(th)):
        out[..., j] = e * x**j
    return out


# -- tolerance-distribution curves ----------------------------------------

def _logit_cdf(x, th):
    return special.expit(th[0] + th[1] * x)

def _logit_cdf_grad(x, th):
    p = special.expit(th[0] + th[1] * x)
    w = p * (1.0 - p)
    return np.stack([w, w * x], axis=-1)

def _logit_cdf_inverse(target, th):
    return (special.logit(target) - th[0]) / th[1]


def _probit_cdf(x, th):
    return special.ndtr(th[0] + th[1] * x)

def _probit_cdf_grad(x, th):
    z = th[0] + th[1] * x
    phi = np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
    return np.stack([phi, phi * x], axis=-1)

def _probit_cdf_inverse(target, th):
    return (special.ndtri(target) - th[0]) / th[1]


DOSE_RESPONSE_MODELS = [
    ModelDef(
        id="one-hit",
        family="dose-response-cdf",
        fn=_one_hit,
        grad=_one_hit_grad,
        params=(ParamSpec("rate", low=0.0),),
        input_low=0.0,
        inverse=_one_hit_inverse,
        doc="1 - exp(-theta * x)",
    ),
    ModelDef(
        id="multi-hit",
        family="dose-response-cdf",
        fn=_multi_hit,
        grad=_multi_hit_grad,
        params=(
            ParamSpec("hits", low=1.0, strict=False, integer=True),
            ParamSpec("dose-scale", low=0.0),
        ),
        input_low=0.0,
        doc="regularized lower incomplete gamma P(k, lambda * x)",
    ),
    ModelDef(
        id="weibull-cdf",
        family="dose-response-cdf",
        fn=_weibull_cdf,
        grad=_weibull_cdf_grad,
        params=(ParamSpec("rate", low=0.0), ParamSpec("shape", low=0.0)),
        input_low=0.0,
        inverse=_weibull_cdf_inverse,
        doc="1 - exp(-(theta * x)**s)",
    ),
    ModelDef(
        id="multistage",
        family="dose-response-cdf",
        fn=_multistage,
        grad=_multistage_grad,
        params=None,
        variadic_param=ParamSpec("stage-coefficient", low=0.0, strict=False),
        input_low=0.0,
        doc="1 - exp(-(theta0 + theta1*x + ... + thetak*x^k))",
    ),
    ModelDef(
        id="logit-cdf",
        family="dose-response-cdf",
        fn=_logit_cdf,
        grad=_logit_cdf_grad,
        params=(ParamSpec("location"), ParamSpec("slope", low=0.0)),
        inverse=_logit_cdf_inverse,
        doc="logistic tolerance curve 1 / (1 + exp(-(theta0 + theta1*x)))",
    ),
    ModelDef(
        id="probit-cdf",
        family="dose-response-cdf",
        fn=_probit_cdf,
        grad=_probit_cdf_grad,
        params=(ParamSpec("location"), ParamSpec("slope", low=0.0)),
        inverse=_probit_cdf_inverse,
        doc="standard normal tolerance curve Phi(theta0 + theta1*x)",
    ),
]
