"""Hand-tabulated closed-form information matrices.

These are independently typed entry-by-entry formulas used by the test
suite to cross-check the outer-product computation in
:mod:`bioassay.fisher`.  :data:`MONOMOLECULAR`, the saturating-exponential
curve behind :func:`saturating_exp_info`, is defined here as a
:class:`~bioassay.models.ModelDef` outside the registry, so that the same
computation can be run on it.

Note on the reconstructed-Weibull table: the tabulated partial
derivatives below are kept exactly as derived for this table, and they
differ from the calculus gradient of the mean function in two places
(the sign of the second component, and a missing shape factor in the
third).  The table and the tabulated partials are mutually consistent,
and the conformance tests validate exactly that; the registry's
:func:`bioassay.models.gradient` carries the calculus gradient.
"""

from __future__ import annotations

import numpy as np

from bioassay.models.base import ModelDef, ParamSpec, as_theta

__all__ = [
    "MONOMOLECULAR",
    "power_law_info",
    "saturating_exp_info",
    "weibull_recon_tabulated_gradient",
    "weibull_recon_tabulated_info",
]


def power_law_info(u: float, theta, sigma2: float = 1.0) -> np.ndarray:
    """Closed-form single-observation information for f = theta0 * u**theta1."""
    th = as_theta(theta)
    lu = np.log(u)
    return (u ** (2.0 * th[1]) / sigma2) * np.array(
        [[1.0, th[0] * lu], [th[0] * lu, th[0] ** 2 * lu**2]]
    )


def saturating_exp_info(u: float, theta, sigma2: float = 1.0) -> np.ndarray:
    """Closed-form information for f = theta0 - theta1 * exp(-theta2 * u).

    All exponentials carry the negative rate, which makes the matrix the
    exact outer product of the gradient (1, -e^{-theta2 u}, theta1 u e^{-theta2 u}).
    """
    th = as_theta(theta)
    e = np.exp(-th[2] * u)
    e2 = np.exp(-2.0 * th[2] * u)
    t1u = th[1] * u
    return (1.0 / sigma2) * np.array(
        [
            [1.0, -e, t1u * e],
            [-e, e2, -t1u * e2],
            [t1u * e, -t1u * e2, t1u**2 * e2],
        ]
    )


def _monomolecular(u, th):
    return th[0] - th[1] * np.exp(-th[2] * u)


def _monomolecular_grad(u, th):
    e = np.exp(-th[2] * u)
    return 1.0, -e, th[1] * u * e


# Saturating-exponential variant of the reparametrized time-power model
# (exponent in u rather than ln u).
MONOMOLECULAR = ModelDef(
    id="monomolecular",
    family="growth",
    fn=_monomolecular,
    grad=_monomolecular_grad,
    params=(ParamSpec("level"), ParamSpec("scale"), ParamSpec("rate")),
    doc="theta0 - theta1 * exp(-theta2 * u)",
)


def weibull_recon_tabulated_gradient(u: float, theta) -> np.ndarray:
    """Tabulated partials for f = theta0 - (theta0-theta1) exp(-(theta2 u)**theta3).

    See the module docstring: the second and third components deviate
    from the calculus gradient; they are the forms the tabulated
    information entries were built from.
    """
    th = as_theta(theta)
    z = th[2] * u
    e = np.exp(-(z ** th[3]))
    return np.array(
        [
            1.0 - e,
            -e,
            (th[0] - th[1]) * e * u ** th[3] * th[2] ** (th[3] - 1.0),
            (th[0] - th[1]) * e * (z ** th[3]) * np.log(z),
        ]
    )


def weibull_recon_tabulated_info(u: float, theta, sigma2: float = 1.0) -> np.ndarray:
    """All ten distinct tabulated information entries for the model above."""
    th = as_theta(theta)
    z = th[2] * u
    zs = z ** th[3]
    e = np.exp(-zs)
    lz = np.log(z)
    dd = th[0] - th[1]

    i11 = (1.0 - e) ** 2
    i22 = np.exp(-2.0 * zs)
    i33 = (dd / th[2] * e * zs) ** 2
    i44 = dd**2 * lz**2 * np.exp(-2.0 * zs) * z ** (2.0 * th[3])
    i12 = -(1.0 - e) * e
    i13 = (1.0 - e) * dd / th[2] * e * zs
    i14 = (1.0 - e) * dd * lz * e * zs
    i23 = -e * dd / th[2] * e * zs
    i24 = -e * dd * lz * e * zs
    i34 = dd**2 / th[2] * lz * np.exp(-2.0 * zs) * z ** (2.0 * th[3])

    return (1.0 / sigma2) * np.array(
        [
            [i11, i12, i13, i14],
            [i12, i22, i23, i24],
            [i13, i23, i33, i34],
            [i14, i24, i34, i44],
        ]
    )
