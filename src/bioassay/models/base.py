"""Model registry core: definitions, domain checks, and evaluation.

A :class:`ModelDef` bundles a mean-response function with its analytic
parameter gradient and domain metadata.  Parameter vectors are plain
1-D float arrays; models declare per-parameter lower bounds (and
integrality, for hit-count style parameters) through :class:`ParamSpec` entries.
The domain rules live here alone: callers ask the :class:`ModelDef` which
inputs and parameters it admits, and value and gradient share one domain.

Evaluation is vectorized over the input ``u``: scalars give scalars,
arrays give arrays of the same leading shape.  Two-input models
(``input_dim == 2``) take ``u`` as a pair or an ``(n, 2)`` array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np

from ..exceptions import DomainError, UnknownModelError

__all__ = [
    "ParamSpec",
    "ModelDef",
    "REGISTRY",
    "as_theta",
    "get_model",
]


def as_theta(theta) -> np.ndarray:
    """Coerce a parameter sequence to a 1-D float array."""
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.ndim != 1:
        raise DomainError(f"parameter vector must be 1-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ParamSpec:
    """Domain of one parameter slot, a lower bound: v > ``low`` (v >= ``low``
    unless ``strict``), any real where ``low`` is None; no slot has an upper
    bound.  ``integer`` marks structurally integer parameters (e.g. a hit
    count): such slots are excluded from differentiation and the analytic
    gradient reports 0 there.
    """

    name: str
    low: float | None = None
    strict: bool = True
    integer: bool = False

    @functools.cached_property
    def interval(self) -> tuple[float, float]:
        """The open interval (lo, inf) of exactly the values the bound admits: a closed
        bound b enters as the float next to it, outside (v >= b just when v >
        nextafter(b, -inf)), a missing one as -inf; the open ends keep out inf and nan."""
        lo = -math.inf if self.low is None else self.low if self.strict else math.nextafter(self.low, -math.inf)
        return lo, math.inf

    def admits(self, value: float) -> bool:
        """Whether :meth:`check` accepts ``value``: the one admission rule, for
        :meth:`ModelDef.check_theta` and the least-squares fit alike."""
        lo, hi = self.interval
        return lo < value < hi and (not self.integer or value.is_integer())

    def check(self, value: float, index: int, model_id: str) -> None:
        """Raise DomainError, naming the slot and the rule, where
        :meth:`admits` rejects ``value``."""
        if self.admits(value):
            return
        slot = f"{model_id}: parameter '{self.name}' (theta[{index}])"
        if not np.isfinite(value):
            raise DomainError(f"{slot} must be finite")
        if self.integer and value != int(value):
            raise DomainError(f"{slot} must be an integer, got {value}")
        raise DomainError(f"{slot} must be {'>' if self.strict else '>='} {self.low}, got {value}")


@dataclass(frozen=True)
class ModelDef:
    """One registry entry: mean function, analytic gradient, and domains.

    ``fn(u, theta)`` and ``grad(u, theta)`` receive pre-validated
    arguments, and both are defined on the one input domain of
    :meth:`admits_input`: where a power of u multiplying ln u vanishes at
    u = 0, ``grad`` floors the log's argument and so returns the limit.
    ``grad`` returns shape ``(arity,)`` for a scalar input and a C-ordered ``(n, arity)``
    array for n inputs: least-squares iterates depend on its bits.  ``params`` is None for
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
    inverse: Callable | None = None
    doc: str = ""

    @property
    def arity(self) -> int | None:
        """Declared parameter count; None for variadic models."""
        return None if self.params is None else len(self.params)

    @property
    def frozen_slots(self) -> tuple[int, ...]:
        """Indices of integer-constrained parameters (not differentiable)."""
        return tuple(i for i, spec in enumerate(self.params or ()) if spec.integer)

    # -- validation ---------------------------------------------------

    def param_specs(self, p: int) -> tuple[ParamSpec, ...]:
        """The spec of each of ``p`` parameter slots (``variadic_param`` for every
        slot of a variadic model); DomainError if the model takes no p parameters."""
        if self.arity is None:
            if p < 1:
                raise DomainError(f"{self.id}: at least one parameter required")
            return (self.variadic_param,) * p
        if p != self.arity:
            raise DomainError(f"{self.id}: expected {self.arity} parameters, got {p}")
        return self.params

    def check_theta(self, theta) -> np.ndarray:
        theta = as_theta(theta)
        for i, (spec, value) in enumerate(zip(self.param_specs(len(theta)), theta)):
            spec.check(value, i, self.id)
        return theta

    def closed_floor(self, p: int):
        """The closed lower bounds of the ``p`` parameter slots, -inf where a slot has
        none; None when no slot has one.  Raising a vector to them honours every
        bound but the strict ones, left to :meth:`ParamSpec.admits`, and integer slots."""
        floor = np.full(p, -np.inf)
        for i, spec in enumerate(self.param_specs(p)):
            if not (spec.strict or spec.integer or spec.low is None):
                floor[i] = spec.low
        if np.isinf(floor).all():
            return None
        return floor

    def admits_input(self, u: np.ndarray) -> np.ndarray:
        """Elementwise: which input values lie in the model's input domain
        (finite, and above ``input_low`` where the model has one)."""
        ok = np.isfinite(u)
        if self.input_low is not None:
            ok &= (u > self.input_low) if self.input_low_strict else (u >= self.input_low)
        return ok

    def check_input(self, u):
        """``u`` as a float array, checked for shape and by :meth:`admits_input`."""
        u = np.asarray(u, dtype=float)
        if self.input_dim == 2:
            if u.shape[-1:] != (2,):
                raise DomainError(f"{self.id}: input must be a pair (x1, x2), got shape {u.shape}")
        elif u.ndim > 1:
            raise DomainError(f"{self.id}: input must be scalar or 1-D, got shape {u.shape}")
        if not np.all(self.admits_input(u)):
            if not np.all(np.isfinite(u)):
                raise DomainError(f"{self.id}: input must be finite")
            raise DomainError(f"{self.id}: input must be {'>' if self.input_low_strict else '>='} {self.input_low}")
        return u

    # -- evaluation ---------------------------------------------------

    def _bad_point(self, what: str, u, theta, bad) -> DomainError:
        """DomainError: ``what`` at the first input point where the per-point mask ``bad`` is set."""
        point = np.asarray(u)[np.argmax(bad)] if bad.ndim else np.asarray(u)
        return DomainError(f"{self.id}: {what} at u={point.tolist()}, theta={theta.tolist()}")

    @np.errstate(all="ignore")
    def finite_grad(self, u, theta) -> np.ndarray:
        """``grad`` at arguments already validated by the checks above.

        Raises :class:`DomainError` naming the first input point whose
        gradient is not finite.
        """
        g = np.asarray(self.grad(u, theta), dtype=float)
        if not np.all(np.isfinite(g)):
            raise self._bad_point("gradient is not finite", u, theta, ~np.all(np.isfinite(g), axis=-1))
        return g


_MODELS: dict[str, ModelDef] = {}  # filled once by the package, from its submodules
REGISTRY = MappingProxyType(_MODELS)  # read-only view: model id -> ModelDef


def get_model(model: ModelDef | str) -> ModelDef:
    """The registry entry of a model id; a :class:`ModelDef` is returned as is."""
    m = model if isinstance(model, ModelDef) else _MODELS.get(model)
    if m is None:
        raise UnknownModelError(f"unknown model '{model}'; known models: {', '.join(sorted(_MODELS))}")
    return m


@np.errstate(all="ignore")
def evaluate(model, u, theta):
    """Evaluate a model's mean response at input(s) ``u``.

    Scalar ``u`` returns a float; array ``u`` returns an array.  Inputs
    and parameters are validated against the model's declared domain and
    a :class:`DomainError` names the offending quantity, or the first
    input point whose value is NaN (an overflow to +-inf passes).
    """
    m = get_model(model)
    theta = m.check_theta(theta)
    u_arr = m.check_input(u)
    out = np.asarray(m.fn(u_arr, theta), dtype=float)
    if np.isnan(out).any():
        raise m._bad_point("value is NaN", u_arr, theta, np.isnan(out))
    if out.ndim == 0 or (m.input_dim == 2 and u_arr.ndim == 1):
        return float(out)
    return out


def gradient(model, u, theta):
    """Analytic gradient of the mean response with respect to theta.

    Returns shape ``(arity,)`` for a scalar input, ``(n, arity)`` for an
    array of inputs.  Integer-constrained slots (see
    :attr:`ModelDef.frozen_slots`) are reported as 0: they are not
    subject to continuous perturbation.
    """
    m = get_model(model)
    theta = m.check_theta(theta)
    return m.finite_grad(m.check_input(u), theta)
