"""Quantal dose-response curves: cumulative distribution functions of dose.

Each entry maps dose ``x >= 0`` (tolerance-scale models accept the whole
real line) to a response probability in [0, 1], nondecreasing in dose.

The hit-count family is the regularized lower incomplete gamma function
P(k, lambda * x), evaluated by :func:`scipy.special.gammainc`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, gammainc, gammaln, ndtr, xlogy

from .base import ModelDef, ParamSpec

__all__ = ["DOSE_RESPONSE_MODELS"]


# -- single-event exponential -------------------------------------------

def _one_hit(x, th):
    return -np.expm1(-th[0] * x)

def _one_hit_grad(x, th):
    return np.stack([x * np.exp(-th[0] * x)], axis=-1)


# -- k identical events: gamma-count curve --------------------------------

def _multi_hit(x, th):
    k, lam = th
    return gammainc(k, lam * x)

def _multi_hit_grad(x, th):
    k, lam = th
    z = lam * x
    # x z^(k-1) e^-z / Gamma(k) in log space: Gamma(k) overflows past k = 171,
    # and xlogy keeps z = 0 with k = 1 exact
    dp_dlam = x * np.exp(xlogy(k - 1.0, z) - z - gammaln(k))
    # the hit count is structurally integer: no continuous derivative
    return np.stack([np.zeros_like(dp_dlam), dp_dlam], axis=-1)


# -- Weibull dose curve ----------------------------------------------------

def _weibull_cdf(x, th):
    theta, s = th
    return -np.expm1(-((theta * x) ** s))

def _weibull_cdf_grad(x, th):
    theta, s = th
    z = theta * x
    e = np.exp(-(z**s))
    return np.stack(
        [s * theta ** (s - 1.0) * x**s * e, (z**s) * np.log(z) * e], axis=-1
    )


# -- polynomial-exponent stage curve --------------------------------------

def _multistage(x, th):
    return -np.expm1(-np.polynomial.polynomial.polyval(x, th))

def _multistage_grad(x, th):
    x = np.asarray(x, dtype=float)
    powers = x[..., None] ** np.arange(len(th))
    e = np.exp(-np.polynomial.polynomial.polyval(x, th))
    return e[..., None] * powers


# -- tolerance-distribution curves ----------------------------------------

def _logit_cdf(x, th):
    return expit(th[0] + th[1] * x)

def _logit_cdf_grad(x, th):
    p = expit(th[0] + th[1] * x)
    w = p * (1.0 - p)
    return np.stack([w, w * x], axis=-1)


def _probit_cdf(x, th):
    return ndtr(th[0] + th[1] * x)

def _probit_cdf_grad(x, th):
    z = th[0] + th[1] * x
    phi = np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
    return np.stack([phi, phi * x], axis=-1)


def _usampler(lo, hi):
    def sample(rng, theta):
        return lo + (hi - lo) * rng.random()

    return sample


def _theta_one_hit(rng):
    return np.array([0.2 + 2.3 * rng.random()])


def _theta_multi_hit(rng):
    return np.array([float(rng.integers(1, 6)), 0.3 + 2.0 * rng.random()])


def _theta_weibull(rng):
    return np.array([0.3 + 2.0 * rng.random(), 0.4 + 2.0 * rng.random()])


def _theta_multistage(rng):
    # three stages by default; variadic models accept any length >= 1
    return 0.05 + rng.random(3) * np.array([0.5, 1.5, 1.0])


def _theta_tolerance(rng):
    return np.array([-2.0 + 3.0 * rng.random(), 0.3 + 2.0 * rng.random()])


DOSE_RESPONSE_MODELS = [
    ModelDef(
        id="one-hit",
        family="dose-response-cdf",
        fn=_one_hit,
        grad=_one_hit_grad,
        params=(ParamSpec("rate", low=0.0),),
        input_low=0.0,
        theta_sampler=_theta_one_hit,
        input_sampler=_usampler(0.0, 4.0),
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
        theta_sampler=_theta_multi_hit,
        input_sampler=_usampler(0.0, 6.0),
        doc="regularized lower incomplete gamma P(k, lambda * x)",
    ),
    ModelDef(
        id="weibull-cdf",
        family="dose-response-cdf",
        fn=_weibull_cdf,
        grad=_weibull_cdf_grad,
        params=(ParamSpec("rate", low=0.0), ParamSpec("shape", low=0.0)),
        input_low=0.0,
        grad_input_low_strict=True,  # ln(theta*x) in the shape derivative
        theta_sampler=_theta_weibull,
        input_sampler=_usampler(0.1, 4.0),
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
        theta_sampler=_theta_multistage,
        input_sampler=_usampler(0.0, 3.0),
        doc="1 - exp(-(theta0 + theta1*x + ... + thetak*x^k))",
    ),
    ModelDef(
        id="logit-cdf",
        family="dose-response-cdf",
        fn=_logit_cdf,
        grad=_logit_cdf_grad,
        params=(ParamSpec("location"), ParamSpec("slope", low=0.0)),
        theta_sampler=_theta_tolerance,
        input_sampler=_usampler(-3.0, 3.0),
        doc="logistic tolerance curve 1 / (1 + exp(-(theta0 + theta1*x)))",
    ),
    ModelDef(
        id="probit-cdf",
        family="dose-response-cdf",
        fn=_probit_cdf,
        grad=_probit_cdf_grad,
        params=(ParamSpec("location"), ParamSpec("slope", low=0.0)),
        theta_sampler=_theta_tolerance,
        input_sampler=_usampler(-3.0, 3.0),
        doc="standard normal tolerance curve Phi(theta0 + theta1*x)",
    ),
]
