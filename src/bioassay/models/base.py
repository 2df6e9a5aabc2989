"""Model registry core: definitions, domain checks, and evaluation.

A :class:`ModelDef` bundles a mean-response function with its analytic
parameter gradient and domain metadata.  Parameter vectors are plain
1-D float arrays; models declare per-parameter bounds (and integrality,
for hit-count style parameters) through :class:`ParamSpec` entries.

Evaluation is vectorized over the input ``u``: scalars give scalars,
arrays give arrays of the same leading shape.  Two-input models
(``input_dim == 2``) take ``u`` as a pair or an ``(n, 2)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exceptions import DomainError, UnknownModelError

__all__ = [
    "ParamSpec",
    "ModelDef",
    "Registry",
    "as_theta",
]


def as_theta(theta) -> np.ndarray:
    """Coerce a parameter sequence to a 1-D float array."""
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.ndim != 1:
        raise DomainError(f"parameter vector must be 1-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ParamSpec:
    """Domain constraints for one parameter slot.

    ``low``/``high`` of None mean unbounded; ``strict`` applies to both
    finite bounds.  ``integer`` marks structurally integer parameters
    (e.g. a hit count): such slots are excluded from differentiation and
    the analytic gradient reports 0 there.
    """

    name: str
    low: float | None = None
    high: float | None = None
    strict: bool = True
    integer: bool = False

    def admits(self, values) -> np.ndarray:
        """Elementwise: which values :meth:`check` accepts, without raising."""
        ok = np.isfinite(values)
        if self.integer:
            ok &= values == np.trunc(values)
        if self.low is not None:
            ok &= (values > self.low) if self.strict else (values >= self.low)
        if self.high is not None:
            ok &= (values < self.high) if self.strict else (values <= self.high)
        return ok

    def check(self, value: float, index: int, model_id: str) -> None:
        if not np.isfinite(value):
            raise DomainError(f"{model_id}: parameter '{self.name}' (theta[{index}]) must be finite")
        if self.integer and value != int(value):
            raise DomainError(
                f"{model_id}: parameter '{self.name}' (theta[{index}]) must be an integer, got {value}"
            )
        if self.low is not None:
            if value < self.low or (self.strict and value == self.low):
                op = ">" if self.strict else ">="
                raise DomainError(
                    f"{model_id}: parameter '{self.name}' (theta[{index}]) must be {op} {self.low}, got {value}"
                )
        if self.high is not None:
            if value > self.high or (self.strict and value == self.high):
                op = "<" if self.strict else "<="
                raise DomainError(
                    f"{model_id}: parameter '{self.name}' (theta[{index}]) must be {op} {self.high}, got {value}"
                )


@dataclass(frozen=True)
class ModelDef:
    """One registry entry: mean function, analytic gradient, and domains.

    ``fn(u, theta)`` and ``grad(u, theta)`` receive pre-validated
    arguments.  ``grad`` returns shape ``(arity,)`` for a scalar input and
    ``(n, arity)`` for an array of inputs.  ``params`` is None for
    variadic models (polynomial-exponent families), in which case
    ``variadic_param`` describes every slot.  ``inverse(target, theta)``,
    where set, is the closed-form dose at which ``fn`` reaches ``target``.
    The fields hold only what the package computes with; the parameter
    boxes and input intervals the test suite draws from live with the
    tests.
    """

    id: str
    family: str  # growth | dose-response-cdf | kinetics
    fn: Callable
    grad: Callable
    params: tuple[ParamSpec, ...] | None
    variadic_param: ParamSpec | None = None
    input_dim: int = 1
    input_low: float | None = None
    input_low_strict: bool = False
    grad_input_low_strict: bool = False  # gradient needs u strictly above input_low
    inverse: Callable | None = None
    doc: str = ""

    @property
    def arity(self) -> int | None:
        """Declared parameter count; None for variadic models."""
        return None if self.params is None else len(self.params)

    @property
    def frozen_slots(self) -> tuple[int, ...]:
        """Indices of integer-constrained parameters (not differentiable)."""
        if self.params is None:
            return ()
        return tuple(i for i, p in enumerate(self.params) if p.integer)

    # -- validation ---------------------------------------------------

    def check_theta(self, theta) -> np.ndarray:
        theta = as_theta(theta)
        if self.params is not None:
            if len(theta) != len(self.params):
                raise DomainError(
                    f"{self.id}: expected {len(self.params)} parameters, got {len(theta)}"
                )
            for i, (spec, value) in enumerate(zip(self.params, theta)):
                spec.check(value, i, self.id)
        else:
            if len(theta) < 1:
                raise DomainError(f"{self.id}: at least one parameter required")
            for i, value in enumerate(theta):
                self.variadic_param.check(value, i, self.id)
        return theta

    def admits(self, thetas: np.ndarray) -> np.ndarray:
        """Which rows of ``thetas`` (k x p, p a valid parameter count)
        :meth:`check_theta` accepts; the cheap test for a batch of line-search
        candidates, most of which may lie outside the domain."""
        if self.params is None:
            return np.all(self.variadic_param.admits(thetas), axis=-1)
        ok = self.params[0].admits(thetas[..., 0])
        for i, spec in enumerate(self.params[1:], start=1):
            ok &= spec.admits(thetas[..., i])
        return ok

    def check_input(self, u, for_gradient: bool = False):
        u = np.asarray(u, dtype=float)
        if self.input_dim == 2:
            if u.shape[-1:] != (2,):
                raise DomainError(f"{self.id}: input must be a pair (x1, x2), got shape {u.shape}")
        elif u.ndim > 1:
            raise DomainError(f"{self.id}: input must be scalar or 1-D, got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise DomainError(f"{self.id}: input must be finite")
        low = self.input_low
        if low is not None:
            strict = self.input_low_strict or (for_gradient and self.grad_input_low_strict)
            bad = (u <= low) if strict else (u < low)
            if np.any(bad):
                op = ">" if strict else ">="
                what = "gradient input" if for_gradient else "input"
                raise DomainError(f"{self.id}: {what} must be {op} {low}")
        return u

    # -- evaluation ---------------------------------------------------

    def finite_grad(self, u, theta) -> np.ndarray:
        """``grad`` at arguments already validated by the checks above.

        Raises :class:`DomainError` naming the first input point whose
        gradient is not finite.
        """
        with np.errstate(over="ignore", under="ignore"):
            g = np.asarray(self.grad(u, theta), dtype=float)
        if not np.all(np.isfinite(g)):
            point = np.asarray(u)
            if g.ndim > 1:
                point = point[np.argmax(~np.all(np.isfinite(g), axis=-1))]
            raise DomainError(
                f"{self.id}: gradient is not finite at u={point.tolist()}, theta={theta.tolist()}"
            )
        return g

    def __call__(self, u, theta):
        return evaluate(self, u, theta)


class Registry:
    """Immutable-after-construction mapping of model id to ModelDef."""

    def __init__(self):
        self._models: dict[str, ModelDef] = {}
        self._sealed = False

    def add(self, model: ModelDef) -> ModelDef:
        if self._sealed:
            raise RuntimeError("registry is sealed")
        if model.id in self._models:
            raise ValueError(f"duplicate model id: {model.id}")
        self._models[model.id] = model
        return model

    def seal(self) -> None:
        self._sealed = True

    def get(self, model_id: str) -> ModelDef:
        try:
            return self._models[model_id]
        except KeyError:
            known = ", ".join(sorted(self._models))
            raise UnknownModelError(f"unknown model '{model_id}'; known models: {known}") from None

    def ids(self) -> list[str]:
        return list(self._models)

    def __iter__(self):
        return iter(self._models.values())

    def __len__(self):
        return len(self._models)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._models


def _resolve(model) -> ModelDef:
    if isinstance(model, ModelDef):
        return model
    from . import REGISTRY  # late import: registry built from submodules

    return REGISTRY.get(model)


def evaluate(model, u, theta):
    """Evaluate a model's mean response at input(s) ``u``.

    Scalar ``u`` returns a float; array ``u`` returns an array.  Inputs
    and parameters are validated against the model's declared domain and
    a :class:`DomainError` names the offending quantity.
    """
    m = _resolve(model)
    theta = m.check_theta(theta)
    u_arr = m.check_input(u)
    with np.errstate(over="ignore", under="ignore"):
        out = m.fn(u_arr, theta)
    if np.ndim(out) == 0 or (m.input_dim == 2 and u_arr.ndim == 1):
        return float(out)
    return np.asarray(out, dtype=float)


def gradient(model, u, theta):
    """Analytic gradient of the mean response with respect to theta.

    Returns shape ``(arity,)`` for a scalar input, ``(n, arity)`` for an
    array of inputs.  Integer-constrained slots (see
    :attr:`ModelDef.frozen_slots`) are reported as 0: they are not
    subject to continuous perturbation.
    """
    m = _resolve(model)
    theta = m.check_theta(theta)
    return m.finite_grad(m.check_input(u, for_gradient=True), theta)
