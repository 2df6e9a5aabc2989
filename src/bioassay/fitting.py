"""Model fitting and goodness of fit.

Provides the censored two-parameter Weibull maximum-likelihood fit (the
closed-form rate profile, its shape score solved as a bracketed root by
safeguarded Newton steps; every Weibull quantity is a closed form over one
pass of the likelihood's weighted sums, ``fisher._weibull_sums``), Gauss-Newton
least squares with Levenberg damping for the mean-response registry,
Newton logistic regression of binary outcomes on an (n, k) covariate
design, and the Kolmogorov-Smirnov one-sample test.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, SeparationError
from .fisher import InfoMatrix, WeibullSample, _weibull_sample_terms, _weibull_sums, _weibull_terms
from .models import REGISTRY, evaluate, get_model
from .models.base import ModelDef, ParamSpec, as_theta

__all__ = [
    "RegressionDataset",
    "BinaryDataset",
    "FitResult",
    "KSResult",
    "weibull_log_likelihood",
    "weibull_score",
    "weibull_theta_star",
    "weibull_mle",
    "fit_least_squares",
    "fit_logit",
    "relative_risk",
    "ks_test",
]

SCORE_TOL = 1e-8
SSE_REL_TOL = 1e-10
MAX_GN_ITER = 500  # Gauss-Newton iterations of one least-squares fit
MAX_LOGIT_ITER = 100  # Newton iterations of one logistic fit
MAX_WEIBULL_ITER = 100  # Newton or bisection steps on the profile score of one Weibull fit
WEIBULL_SHAPE_BOUNDS = (0.05, 50.0)  # bracket of the Weibull profile-score root
_HALVINGS = tuple(0.5**k for k in range(25))  # Gauss-Newton step scales 1, 1/2, ..., 2^-24
# plain Gauss-Newton first, then Levenberg damping 1e-3, 1e-2, ..., 1e8 (tenfold on failure)
_DAMPING = (0.0, *itertools.accumulate(itertools.repeat(10.0, 11), operator.mul, initial=1e-3))
_LOGIT_SCALES = 0.5 ** np.arange(41)  # Newton logit step scales 1, 1/2, ..., 2^-40


@dataclass(frozen=True)
class RegressionDataset:
    """(input, response) pairs for least-squares fitting."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or y.size == 0:
            raise DomainError("responses must be a nonempty 1-D sequence")
        if u.shape[0] != y.shape[0]:
            raise DomainError("inputs and responses must have equal length")
        if not np.all(np.isfinite(y)):
            raise DomainError("responses must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class BinaryDataset:
    """Binary outcomes ``y`` and their (n, k) covariate design ``X``.

    X holds one column per covariate (the exposure first, by convention)
    and no intercept column; the fit adds the intercept.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or y.size == 0 or X.ndim != 2 or X.shape[0] != y.size:
            raise DomainError(f"need a nonempty 1-D y and an (n, k) design X with n = len(y), got {X.shape}")
        if not np.isfinite(X).all():  # one flat pass; the column reduction only names the culprit
            raise DomainError(f"column {int(np.argmin(np.isfinite(X).all(axis=0)))} of X must be finite")
        if not np.all((y == 0) | (y == 1)):
            raise DomainError("y must be 0/1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.size


@dataclass
class FitResult:
    """Output of a fitting procedure."""

    theta_hat: np.ndarray
    objective: float  # SSE for least squares, log-likelihood otherwise
    s2: float | None
    info: InfoMatrix | None
    converged: bool
    iterations: int
    model: str | None = None
    objective_kind: str = "sse"
    message: str = ""
    active_bounds: tuple[int, ...] = ()  # slots held on a closed bound at the estimate

    def standard_errors(self) -> np.ndarray:
        """Asymptotic standard errors of ``theta_hat``: 0 for a frozen slot of a
        registry model (an integer such as multi-hit's hit count), which the
        fit holds at its start value, and from the free slots' block otherwise."""
        if self.info is None:
            raise DomainError("no information matrix available for standard errors")
        frozen = get_model(self.model).frozen_slots if self.model in REGISTRY else ()
        free, info = self.info.free_block(frozen)
        se = np.zeros(self.info.p)
        se[free] = info.standard_errors()
        return se

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "theta_hat": [float(v) for v in self.theta_hat],
            "objective": float(self.objective),
            "objective_kind": self.objective_kind,
            "s2": None if self.s2 is None else float(self.s2),
            "info": None if self.info is None else [[float(v) for v in row] for row in self.info.entries],
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "message": self.message,
            "active_bounds": [int(i) for i in self.active_bounds],
        }

    @classmethod
    def from_dict(cls, report) -> FitResult:
        """Inverse of :meth:`to_dict`; raises :class:`DomainError` on a malformed report.

        Only ``theta_hat`` is required.  The information matrix is read
        as reported: a least-squares one is already divided by ``s2``.
        """
        if not isinstance(report, dict) or "theta_hat" not in report:
            raise DomainError("fit report lacks 'theta_hat'")
        try:
            s2 = None if report.get("s2") is None else float(report["s2"])
            info = report.get("info")
            return cls(
                theta_hat=as_theta(report["theta_hat"]),
                objective=float(report.get("objective", math.nan)),
                s2=s2,
                info=None if info is None else InfoMatrix(info),
                converged=bool(report.get("converged", True)),
                iterations=int(report.get("iterations", 0)),
                model=report.get("model"),
                objective_kind=report.get("objective_kind", "sse"),
                message=report.get("message", ""),
                active_bounds=tuple(int(i) for i in report.get("active_bounds", ())),
            )
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed fit report: {exc}") from None


# -- censored Weibull -----------------------------------------------------

@np.errstate(over="ignore")
def weibull_log_likelihood(sample: WeibullSample, theta: float, s: float) -> float:
    """Censored log-likelihood: events contribute the density, all
    observations the survival exponent -(theta t)^s."""
    return float(_weibull_sample_terms(sample, theta, s)[0])


@np.errstate(over="ignore")
def weibull_score(sample: WeibullSample, theta: float, s: float) -> np.ndarray:
    """Score vector (dl/dtheta, dl/ds) of the censored log-likelihood."""
    return _weibull_sample_terms(sample, theta, s)[1] / [theta, 1.0]


def weibull_theta_star(sample: WeibullSample, s: float) -> float:
    """Closed-form rate MLE at fixed shape: theta* = (d / sum t_i^s)^(1/s),
    with log sum t_i^s taken as a log-sum-exp so that t^s never overflows."""
    if not s > 0:
        raise DomainError(f"shape s must be > 0, got {s}")
    d = sample.d
    if d < 1:
        raise DomainError("no events observed: the rate MLE is at the boundary")
    log_k, s0, _, _ = _weibull_sums(np.log(sample.times), 0.0, s)
    return math.exp((math.log(d) - log_k - math.log(s0)) / s)


def weibull_mle(sample: WeibullSample) -> FitResult:
    """Two-parameter Weibull MLE by profiling the rate out of the shape.

    At fixed shape s the rate maximizer theta*(s) is closed-form, and the
    shape score there, divided by the event count d, is the strictly
    decreasing profile score
    g(s) = 1/s + mean(event log t) - S1/S0,  g'(s) = -(1/s^2 + S2/S0 - (S1/S0)^2),
    with S_j = sum t^s (log t)^j.  Its root in ``WEIBULL_SHAPE_BOUNDS`` is
    found on the times divided by their geometric mean c (the MLE does not
    depend on the time unit) by Newton steps from s = 1, each kept inside a
    bracket that the sign of g shrinks and replaced by bisection when it
    would leave it.  The search stops after a Newton step of at most 1e-8 s,
    whose error is then of order 1e-16 s, and past ``MAX_WEIBULL_ITER``
    steps reports a non-converged fit.  One pass of weighted sums at the
    root gives the rate, log-likelihood, score and information, mapped back
    to the data's unit.  Convergence requires the unit-free score
    (theta dl/dtheta, dl/ds) below 1e-8.  When g does not change sign over
    ``WEIBULL_SHAPE_BOUNDS`` the shape is pinned at the bound and reported
    as non-converged.  ``iterations`` counts profile-score evaluations.
    """
    if sample.d < 2:
        raise DomainError("need at least two events to estimate (theta, s)")
    lo, hi = WEIBULL_SHAPE_BOUNDS
    d = sample.d
    log_t = np.log(sample.times)
    log_c = log_t.mean()  # c, the geometric mean of the times
    x = log_t - log_c
    event_x = x[sample.event_flags == 1].sum()

    def score(s):
        """g(s) and g'(s)."""
        _, s0, s1, s2 = _weibull_sums(x, 0.0, s)
        m1 = s1 / s0
        return 1.0 / s + event_x / d - m1, -(1.0 / s**2 + s2 / s0 - m1 * m1)

    g_lo, g_hi = score(lo)[0], score(hi)[0]
    iters = 2
    message = ""
    if g_lo <= 0.0 or g_hi >= 0.0:
        s_hat = lo if g_lo <= 0.0 else hi
        message = f"shape estimate pinned at profile boundary [{lo}, {hi}]"
    else:
        a, b, s_hat = lo, hi, 1.0
        for _ in range(MAX_WEIBULL_ITER):
            g, dg = score(s_hat)
            iters += 1
            if g > 0.0:
                a = s_hat
            else:
                b = s_hat
            step = -g / dg
            # s_hat is an end of [a, b] now, so <= keeps a step that rounds to nothing
            if not a <= s_hat + step <= b:
                s_hat = 0.5 * (a + b)
                continue
            s_hat += step
            if abs(step) <= 1e-8 * s_hat:
                break
        else:
            message = f"shape estimate not converged in {MAX_WEIBULL_ITER} steps on the profile score"
    # one pass at the root, at the pivot theta = e^-m for m the weighted mean of x,
    # which the root equates with 1/s_hat + mean(event x): the sums shift from there
    # to the rate theta* without the cancellation of a shift from theta = 1
    log_pivot = -(1.0 / s_hat + event_x / d)
    sums = _weibull_sums(x, log_pivot, s_hat)
    log_theta = log_pivot + (math.log(d) - sums[0] - math.log(sums[1])) / s_hat
    loglik, unit_free, hess = _weibull_terms(d, event_x, s_hat, log_theta, log_pivot, sums)
    if not message and not np.max(np.abs(unit_free)) < SCORE_TOL:
        message = "score tolerance not reached at the profile-score root"
    # back to the data's time unit: theta = e^log_theta / c, l = loglik - d log c
    theta_hat = math.exp(log_theta) / math.exp(log_c)
    info = InfoMatrix(-hess / np.outer([theta_hat, 1.0], [theta_hat, 1.0]))
    return FitResult(
        theta_hat=np.array([theta_hat, s_hat]),
        objective=loglik - d * log_c,
        s2=None,
        info=info,
        converged=not message,
        iterations=iters,
        model="weibull-cdf",
        objective_kind="loglik",
        message=message,
    )


# -- Gauss-Newton least squares ---------------------------------------------

def fit_least_squares(
    model: ModelDef | str,
    data: RegressionDataset,
    theta0,
) -> FitResult:
    """Projected Gauss-Newton nonlinear least squares with step halving.

    A slot is binding when it sits on its floor, the closed (non-strict)
    lower bound of its domain, and the descent direction J^T r points below
    it; frozen integer slots always bind.  Each iteration solves the normal
    equations on the other slots; a singular or unusable solve falls back to
    Levenberg damping (lambda from 1e-3, tenfold on failure).  The step is
    halved until the SSE does not increase, each candidate, formed one at a
    time, raised to the floor and tested by ``check_theta``'s rule,
    :meth:`ParamSpec.admits` (Bertsekas 1982), so a fit on a bound lands
    there instead of crawling toward it.  The fit converges when the norm
    of the projected gradient (binding slots zeroed) falls below
    ``SCORE_TOL`` or the relative SSE drop below ``SSE_REL_TOL``;
    persistent singularity yields a non-converged report.  ``active_bounds``
    lists the binding slots at the estimate.  The iterates depend on the
    bits of the C-ordered (n, p) Jacobian of ``grad``.
    """
    m = get_model(model)
    theta = m.check_theta(theta0)
    p = len(theta)
    if data.n < p:
        raise DomainError(f"need at least {p} observations to fit {m.id}, got {data.n}")
    frozen = np.zeros(p, dtype=bool)
    frozen[list(m.frozen_slots)] = True
    free = np.flatnonzero(~frozen)
    floor = m.closed_floor(p)
    specs = m.param_specs(p)
    # inputs are validated once here; the iterations call fn/grad directly
    u = m.check_input(data.u)

    def residuals(th):
        return data.y - np.asarray(m.fn(u, th), dtype=float)

    def jacobian(th):
        jac = np.asarray(m.grad(u, th), dtype=float)
        if not np.isfinite(jac).all():
            return m.finite_grad(u, th)  # raises, naming the first bad point
        return jac

    def binding(th, grad):
        return (th == floor) & (grad < 0.0)

    converged = False
    message = ""
    iters = 0
    with np.errstate(over="ignore", under="ignore"):
        r = residuals(theta)
        sse = float(r @ r)
        jac = jacobian(theta)
        for _ in range(MAX_GN_ITER):
            iters += 1
            grad = jac.T @ r  # minus half the SSE gradient
            if floor is not None:
                bind = frozen | binding(theta, grad)
                grad[bind] = 0.0
                free = np.flatnonzero(~bind)
            if 2.0 * math.sqrt(grad @ grad) < SCORE_TOL:  # the bits of np.linalg.norm(2 grad)
                converged = True
                break
            ja = jac[:, free]
            g = ja.T @ r
            jtj = ja.T @ ja
            step = np.zeros(p)
            improved = False
            # the damping ladder also engages when an ill-conditioned solve yields a bad step
            for lam in _DAMPING:
                try:
                    step_a = np.linalg.solve(jtj + lam * np.eye(len(free)) if lam else jtj, g)
                except np.linalg.LinAlgError:
                    continue
                if not np.isfinite(step_a).all():
                    continue
                step[free] = step_a
                # step halving; candidates outside the domain are skipped
                for h in _HALVINGS:
                    cand = theta + h * step
                    if floor is not None:
                        cand = np.maximum(cand, floor)
                    if not all(map(ParamSpec.admits, specs, cand.tolist())):
                        continue
                    r_new = residuals(cand)
                    sse_new = float(r_new @ r_new)
                    if math.isfinite(sse_new) and sse_new <= sse:
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                message = "no descent step found: normal equations persistently singular or stalled"
                break
            rel_drop = (sse - sse_new) / max(sse, 1e-300)
            theta, r, sse = cand, r_new, sse_new
            jac = jacobian(theta)
            if rel_drop < SSE_REL_TOL:
                converged = True
                break

    s2 = sse / (data.n - p) if data.n > p else None
    info = None
    if s2 is not None and s2 > 0:
        info = InfoMatrix(jac.T @ jac / s2)
    active_bounds = () if floor is None else tuple(int(i) for i in np.flatnonzero(binding(theta, jac.T @ r)))
    return FitResult(
        theta_hat=theta,
        objective=sse,
        s2=s2,
        info=info,
        converged=converged,
        iterations=iters,
        model=m.id,
        objective_kind="sse",
        message=message,
        active_bounds=active_bounds,
    )


# -- logistic regression ------------------------------------------------------

def _softplus(eta, out, e, tmp):
    """log(1 + e^eta) elementwise into ``out``, by the formula of
    ``np.logaddexp(0, eta)``, max(eta, 0) + log1p(e^-|eta|); the e^-|eta| it
    is formed from is left in ``e``.  ``tmp`` is scratch."""
    np.exp(np.copysign(eta, -1.0, out=e), out=e)  # e^-|eta|
    np.maximum(eta, 0.0, out=out)
    out += np.log1p(e, out=tmp)


def _residual_and_weights(y, eta, e, resid, w, tmp):
    """Residuals y - p of the fitted probabilities p = 1 / (1 + e^-eta) into
    ``resid`` and their variances p (1 - p) into ``w``, from e = e^-|eta|.
    No exponential can overflow, and the variance e / (1 + e)^2 stays
    positive where 1 - p rounds to 0.  e r (r = 1 / (1 + e)) is formed once:
    it is p where eta < 0 and the variance is e r r.  ``tmp`` is scratch."""
    r = np.divide(1.0, np.add(e, 1.0, out=tmp), out=tmp)
    er = np.multiply(e, r, out=resid)
    np.multiply(er, r, out=w)
    np.subtract(y, np.where(eta >= 0.0, r, er), out=resid)


def fit_logit(data: BinaryDataset) -> FitResult:
    """Newton maximum likelihood for the logistic regression of y on an
    intercept and the columns of X; ``theta_hat`` is (intercept, X's
    coefficients in column order).

    Each Newton step halves its length (at most 40 times) until the
    log-likelihood falls by no more than 1e-12.  Every candidate computes
    its linear predictor eta = X beta once; the accepted one carries eta
    and its softplus log(1 + e^eta) into the next step's residuals y - p
    and weights and into the final information matrix.  The line
    search compares the term-by-term change
    sum(y (eta_new - eta) - (softplus_new - softplus)), whose rounding
    stays near the size of the change itself; the difference of two
    summed log-likelihoods carries rounding that grows with n and stalls
    large fits near the optimum.  The fit starts from beta = 0, where
    every fitted probability is 1/2, its variance 1/4 and the softplus
    log 2, so the start takes no softplus or logistic pass.  Candidates
    are written into preallocated length-n buffers, and an accepted one
    swaps places with the current step's, so no candidate allocates a
    length-n array.

    Raises :class:`SeparationError` when the estimates diverge past
    |beta| = 30 with rising likelihood, and rejects rank-deficient
    designs (e.g. a constant covariate) as unidentifiable.  The rank is that
    of the p x p Hessian at beta = 0 (p = k + 1 coefficients), X^T X / 4, whose
    singular values are the squares of those of the design [1, X]; at numpy's
    rank tolerance it rejects a design whose condition number exceeds about
    (p eps)^(-1/2), 4e7 for p = 3.  An SVD of the design would accept condition
    numbers up to about 1 / (n eps), 1e12 at n = 5000, but there X^T W X
    has a condition number past 1e15 and the Newton solve on it carries
    no reliable digit.
    """
    y = data.y
    if y.min() == y.max():
        raise DomainError("both outcome classes must be present")
    XT = np.array([np.ones(data.n), *data.X.T])  # the design transposed, C order: one row per coefficient
    hess = (XT * 0.25) @ XT.T  # X^T X / 4 at beta = 0: the Gram matrix's rank is the design's
    if np.linalg.matrix_rank(hess, hermitian=True) < XT.shape[0]:
        raise DomainError("design matrix is rank deficient (constant or collinear covariate)")
    beta = np.zeros(XT.shape[0])
    eta = np.zeros(data.n)
    sp = np.full(data.n, np.log1p(1.0))
    resid = y - 0.5
    eta_new, sp_new, e, w, tmp, diff = (np.empty(data.n) for _ in range(6))
    XTw = np.empty_like(XT)
    converged = False
    iters = 0
    for _ in range(MAX_LOGIT_ITER):
        iters += 1
        score = XT @ resid
        if np.linalg.norm(score) < SCORE_TOL:
            if np.all(np.abs(resid) < 1e-6):
                raise SeparationError(
                    "fitted probabilities saturate at the outcomes: the classes are separable"
                )
            converged = True
            break
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError:
            raise SeparationError("information matrix singular: classes are quasi-separable")
        # step halving; when no scale passes, the smallest, 2^-40, is taken anyway
        for scale in _LOGIT_SCALES:
            cand = beta + scale * step
            np.matmul(cand, XT, out=eta_new)
            _softplus(eta_new, sp_new, e, tmp)
            np.subtract(eta_new, eta, out=diff)
            diff *= y
            diff -= np.subtract(sp_new, sp, out=tmp)
            gain = float(diff.sum())
            if gain >= -1e-12:
                break
        beta = cand
        eta, eta_new = eta_new, eta
        sp, sp_new = sp_new, sp
        if np.abs(beta).max() > 30.0 and gain >= 0.0:
            raise SeparationError(
                "estimates diverging with rising likelihood: complete or quasi-complete separation"
            )
        _residual_and_weights(y, eta, e, resid, w, tmp)
        hess = np.multiply(XT, w, out=XTw) @ XT.T

    info = InfoMatrix(hess)
    return FitResult(
        theta_hat=beta,
        objective=float(np.sum(y * eta - sp)),
        s2=None,
        info=info,
        converged=converged,
        iterations=iters,
        model="logit",
        objective_kind="loglik",
        message="" if converged else "score tolerance not reached",
    )


def relative_risk(beta1: float) -> float:
    """exp(beta1): multiplicative risk per unit of the exposure covariate."""
    if not np.isfinite(beta1):
        raise DomainError(f"beta1 must be finite, got {beta1}")
    return float(np.exp(beta1))


# -- Kolmogorov-Smirnov -------------------------------------------------------

@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    asymptotic_valid: bool  # the limit law is quoted for n >= 35


def ks_test(sample, cdf) -> KSResult:
    """One-sample Kolmogorov-Smirnov test against a fully specified CDF.

    ``cdf`` is a vectorized callable or a (model, theta) pair.  A callable
    is called once, on the sorted sample, and must return one value per
    point (an array of the sample's shape), else :class:`DomainError` is
    raised; wrap a scalar-only function in ``np.vectorize``.  The
    statistic is the exact supremum over the order statistics; the p-value
    is the limiting Kolmogorov law P(K > sqrt(n) D), from
    :func:`scipy.special.kolmogorov`.
    """
    from scipy.special import kolmogorov  # deferred: scipy.special is slow to import

    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    if n == 0:
        raise DomainError("sample must be nonempty")
    if callable(cdf):
        f = np.asarray(cdf(xs), dtype=float)
        if f.shape != xs.shape:
            raise DomainError(f"cdf must return one value per point: shape {f.shape}, sample shape {xs.shape}")
    else:
        model, theta = cdf
        f = np.asarray(evaluate(model, xs, theta), dtype=float)
    if not np.all((f >= 0) & (f <= 1)):
        raise DomainError("cdf values must lie in [0, 1]")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    p = float(kolmogorov(math.sqrt(n) * d))
    return KSResult(statistic=d, p_value=p, asymptotic_valid=n >= 35)
