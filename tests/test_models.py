"""Registry models: values, analytic gradients, domains, reductions."""

import ast
import hashlib
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from scipy import integrate

import bioassay as ba
from bioassay.exceptions import DomainError
from bioassay.models import get_model
from bioassay.models.base import ParamSpec

from conftest import (
    SAMPLE_BOXES,
    all_models,
    fd_gradient,
    rel_err,
    sample_input,
    sample_point,
    sample_theta,
)
from fisher_reference import MONOMOLECULAR

E_INV = math.exp(-1.0)


# -- evaluate: pinned values --------------------------------------------

REGISTRY_IDS = {
    "gompertz", "janoschek", "logistic", "bertalanffy", "tanh", "tanh3", "tanh4",
    "exp-time-power", "exp-time-power-repar", "weibull-reconstructed",
    "gen-logistic-i", "gen-logistic-ii",
    "one-hit", "multi-hit", "weibull-cdf", "multistage", "logit-cdf", "probit-cdf",
    "mm", "mm-two-substrate", "hill", "hill-decreasing", "mmf",
    "mm-parallel", "mm-series", "photo-pmax", "leaf-response",
}


def test_registry_id_contract():
    assert set(ba.list_models()) == REGISTRY_IDS
    assert len(ba.list_models()) == 27


def test_registry_immutable_after_import():
    from bioassay.models import REGISTRY

    with pytest.raises(TypeError):
        REGISTRY["x"] = get_model("mm")
    assert "x" not in REGISTRY and len(REGISTRY) == 27


def test_one_hit_at_zero():
    assert ba.evaluate("one-hit", 0.0, [1.0]) == 0.0


def test_mm_half_maximal_velocity():
    # at s = km the velocity is vmax / 2
    assert ba.evaluate("mm", 1.0, [2.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


# float.hex of the mm-parallel value and gradient, recorded before the model was
# written as two mm terms: the sum of two hyperbolas must keep its bits
MM_PARALLEL_THETA = [2.5, 0.3, 1.7, 40.0]
MM_PARALLEL_PINS = [
    (0.01, "0x1.4c101d3327936p-4",
     ("0x1.0842108421084p-5", "-0x1.0a63a12a5b1afp-2", "0x1.0614174a4911ep-12", "-0x1.645670289a1eep-17")),
    (1.0, "0x1.f6ec1d96244f8p+0",
     ("0x1.89d89d89d89d8p-1", "-0x1.7ab2bedd28e63p+0", "0x1.8f9c18f9c18fap-6", "-0x1.091b61bd6b2e9p-10")),
    (123.4, "0x1.e38e4dd30551cp+1",
     ("0x1.fec21f0af7eddp-1", "-0x1.4a52155163b47p-6", "0x1.82a9d4c2458fdp-1", "-0x1.0175c842b00a8p-7")),
    (1e6, "0x1.0ccbac73f865cp+2",
     ("0x1.fffff5ef0538ap-1", "-0x1.4f8b4b5c83d1cp-19", "0x1.fffac1e05c131p-1", "-0x1.c84dc3e1ba59ep-20")),
]


def test_mm_parallel_value_and_gradient_are_pinned():
    for u, value, grad in MM_PARALLEL_PINS:
        assert ba.evaluate("mm-parallel", u, MM_PARALLEL_THETA).hex() == value
        assert tuple(float(g).hex() for g in ba.gradient("mm-parallel", u, MM_PARALLEL_THETA)) == grad
    us = [u for u, _, _ in MM_PARALLEL_PINS]
    values = ba.evaluate("mm-parallel", us, MM_PARALLEL_THETA)
    assert [float(v).hex() for v in values] == [v for _, v, _ in MM_PARALLEL_PINS]
    grads = ba.gradient("mm-parallel", us, MM_PARALLEL_THETA)
    assert grads.shape == (len(us), 4) and grads.flags.c_contiguous
    assert [tuple(float(g).hex() for g in row) for row in grads] == [g for _, _, g in MM_PARALLEL_PINS]


def test_gompertz_at_zero():
    assert ba.evaluate("gompertz", 0.0, [1.0, 1.0, 1.0]) == pytest.approx(math.e, rel=1e-12)


def test_multistage_unit_point():
    # exponent -(x + x^2) = -2 at x = 1
    assert ba.evaluate("multistage", 1.0, [0.0, 1.0, 1.0]) == pytest.approx(
        1.0 - math.exp(-2.0), rel=1e-12
    )


def test_multi_hit_two_hits_quadrature():
    # independent oracle: numeric quadrature of the gamma-count integrand
    oracle, err = integrate.quad(lambda u: u * math.exp(-u), 0.0, 1.0)
    assert err < 1e-12
    got = ba.evaluate("multi-hit", 1.0, [2.0, 1.0])
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(0.2642411176571153, abs=1e-12)


def test_logistic_at_zero():
    assert ba.evaluate("logistic", 0.0, [1.0, 1.0, 1.0]) == pytest.approx(0.5, rel=1e-15)


# -- gradient: pinned values --------------------------------------------

def test_exp_time_power_gradient_at_one():
    g = ba.gradient("exp-time-power", 1.0, [2.0, 3.0])
    assert g == pytest.approx([1.0, 0.0], abs=1e-15)


def test_weibull_recon_gradient_components():
    # calculus gradient of theta0 - (theta0 - theta1) * exp(-(theta2*u)**theta3)
    g = ba.gradient("weibull-reconstructed", 1.0, [1.0, 0.0, 1.0, 1.0])
    assert g[0] == pytest.approx(1.0 - E_INV, rel=1e-12)
    assert g[1] == pytest.approx(E_INV, rel=1e-12)  # enters through -(theta0 - theta1)
    assert g[3] == pytest.approx(0.0, abs=1e-15)  # ln(theta2*u) = 0 here


def test_gradients_match_finite_differences(rng):
    """Analytic gradients agree with central differences at random points.

    Componentwise error |analytic - fd| / max(1, |analytic|, |fd|) stays
    below 1e-6 (the pure relative error is undefined at exact zeros such
    as ln u = 0 crossings).
    """
    for model in all_models():
        worst = 0.0
        for _ in range(100):
            u, theta = sample_point(model, rng)
            a = ba.gradient(model, u, theta)
            f = fd_gradient(model, u, theta)
            worst = max(worst, float(np.max(rel_err(a, f))))
        assert worst <= 1e-6, f"{model.id}: worst fd mismatch {worst:.3e}"


def test_gradient_at_the_closed_lower_input_bound(rng):
    """The gradient is defined wherever the value is: at a closed lower input
    bound (each coordinate of a pair in turn, then both) it is finite and
    agrees with central differences of the value."""
    for model in all_models():
        if model.input_low is None or model.input_low_strict:
            continue
        low = model.input_low
        for _ in range(20):
            theta = sample_theta(model, rng)
            if model.input_dim == 2:
                x1, x2 = sample_input(model, rng)
                points = [(low, x2), (x1, low), (low, low)]
            else:
                points = [low]
            for u in points:
                a = ba.gradient(model, u, theta)
                assert np.isfinite(a).all(), (model.id, u, theta)
                assert np.max(rel_err(a, fd_gradient(model, u, theta))) <= 1e-6, (model.id, u, theta)


# sha256 of the first 25 sample_point draws of every registry model, in
# registry order, then of MONOMOLECULAR, all from one default_rng(612)
SAMPLE_DRAWS_SHA256 = "a06516a6e4eed0ea7013312e9cefeb77c98f3174c263bb0ab306950a06853b5c"


def test_sample_draws_are_pinned():
    assert set(SAMPLE_BOXES) == set(ba.list_models()) | {MONOMOLECULAR.id}
    h = hashlib.sha256()
    rng = np.random.default_rng(612)
    for model in [*all_models(), MONOMOLECULAR]:
        h.update(model.id.encode())
        for _ in range(25):
            u, theta = sample_point(model, rng)
            h.update(np.asarray(u, dtype=float).tobytes())
            h.update(np.asarray(theta, dtype=float).tobytes())
    assert h.hexdigest() == SAMPLE_DRAWS_SHA256


def test_monomolecular_gradient_matches_fd(rng):
    for _ in range(100):
        u, theta = sample_point(MONOMOLECULAR, rng)
        a = ba.models.gradient(MONOMOLECULAR, u, theta)
        f = fd_gradient(MONOMOLECULAR, u, theta)
        assert np.max(rel_err(a, f)) <= 1e-6


def test_multi_hit_integer_slot_not_differentiated():
    g = ba.gradient("multi-hit", 2.0, [3.0, 1.5])
    assert g[0] == 0.0
    assert g[1] > 0


# -- dose-response CDF family properties ---------------------------------

def test_cdf_family_monotone_bounded(rng):
    grid = np.linspace(0.0, 20.0, 1000)
    tolerance_grid = np.linspace(-15.0, 15.0, 1000)
    for model in all_models():
        if model.family != "dose-response-cdf":
            continue
        xs = tolerance_grid if model.input_low is None else grid
        for _ in range(50):
            theta = sample_theta(model, rng)
            vals = ba.evaluate(model, xs, theta)
            assert np.all(vals >= 0.0), model.id
            assert np.all(vals <= 1.0 + 1e-12), model.id
            assert np.all(np.diff(vals) >= -1e-12), model.id


def test_multi_hit_one_hit_reduction(rng):
    xs = np.linspace(0.0, 8.0, 200)
    for _ in range(20):
        lam = 0.2 + 2.0 * rng.random()
        a = ba.evaluate("multi-hit", xs, [1.0, lam])
        b = ba.evaluate("one-hit", xs, [lam])
        assert np.max(np.abs(a - b)) < 1e-12


def test_hill_reduces_to_mm(rng):
    xs = np.linspace(0.0, 10.0, 200)
    for _ in range(20):
        vmax = 0.3 + 2.0 * rng.random()
        km = 0.3 + 2.0 * rng.random()
        a = ba.evaluate("hill", xs, [vmax, km, 1.0])
        b = ba.evaluate("mm", xs, [vmax, km])
        assert np.max(np.abs(a - b)) < 1e-12


def test_hill_forms_are_complementary(rng):
    xs = np.linspace(0.05, 10.0, 100)
    for _ in range(20):
        v = 0.3 + 2.0 * rng.random()
        kc = 0.3 + 2.0 * rng.random()
        n = 0.5 + 2.5 * rng.random()
        up = ba.evaluate("hill", xs, [v, kc, n]) / v
        down = ba.evaluate("hill-decreasing", xs, [v, kc, n]) / v
        assert np.max(np.abs(up + down - 1.0)) < 1e-12


def test_hill_and_mmf_finite_where_the_powers_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # (kc/x)^n underflows and x^n overflows: the value is v, not inf/inf
        assert ba.evaluate("hill", 446.9, [8.2e-5, 1.5e-6, 25474]) == 8.2e-5
        assert ba.evaluate("mmf", 19724, [7.39, 1787, 1.48e-7, 2.53e-8]) == 7.39
        assert ba.evaluate("hill", 0.0, [2.0, 1.0, 1.5]) == 0.0
        vals = ba.evaluate("hill", np.array([0.0, 1.0]), [2.0, 1.0, 1.5])
        # the gradients take the same limits: 1 in the weight of the upper level, 0 elsewhere
        assert ba.gradient("hill", 446.9, [8.2e-5, 1.5e-6, 25474]).tolist() == [1.0, 0.0, 0.0]
        assert ba.gradient("hill-decreasing", 446.9, [8.2e-5, 1.5e-6, 25474]).tolist() == [0.0, 0.0, 0.0]
        assert ba.gradient("mmf", 19724, [7.39, 1787, 1.48e-7, 2.53e-8]).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert vals.tolist() == [0.0, 1.0]


def test_mm_passes_through_origin():
    assert ba.evaluate("mm", 0.0, [2.0, 1.0]) == 0.0


def test_two_substrate_hyperbola_section():
    # c1 = c2 = 0, c3 = 1/a, k = a*b collapses to a single hyperbola in x1*x2
    a, b = 2.0, 1.5
    theta = [a * b, 0.0, 0.0, 1.0 / a]
    x2 = 1.3
    xs = np.linspace(0.1, 8.0, 50)
    vals = ba.evaluate("mm-two-substrate", np.column_stack([xs, np.full_like(xs, x2)]), theta)
    w = xs * x2
    expected = (a**2 * b) * w / (a + w)
    assert np.max(np.abs(vals - expected)) < 1e-12
    assert np.all(np.diff(vals) > 0)
    # monotone in the second substrate as well
    v1 = ba.evaluate("mm-two-substrate", [1.0, 0.5], theta)
    v2 = ba.evaluate("mm-two-substrate", [1.0, 1.5], theta)
    assert v2 > v1


# -- multi-hit curve ------------------------------------------------------

def poisson_tail(k: int, z: float) -> float:
    """P(k, z) = 1 - e^-z sum_{j<k} z^j / j!: at least k Poisson(z) events."""
    term = math.exp(-z)
    terms = [term]
    for j in range(1, k):
        term *= z / j
        terms.append(term)
    return 1.0 - math.fsum(terms)


def test_multi_hit_against_poisson_sum(rng):
    for _ in range(500):
        k = int(rng.integers(1, 12))
        lam = 0.5 + 0.5 * rng.random()
        x = 20.0 * rng.random()
        got = ba.evaluate("multi-hit", x, [k, lam])
        assert abs(got - poisson_tail(k, lam * x)) < 1e-12, (k, lam, x)


def test_multi_hit_large_arguments_against_poisson_sum(rng):
    for _ in range(1000):
        k = int(rng.integers(1, 80))
        lam = 0.5 + 0.5 * rng.random()
        x = 200.0 * rng.random()
        got = ba.evaluate("multi-hit", x, [k, lam])
        assert abs(got - poisson_tail(k, lam * x)) < 1e-12, (k, lam, x)


# -- domain validation -----------------------------------------------------

def test_wrong_arity_rejected():
    with pytest.raises(DomainError, match="expected 3 parameters"):
        ba.evaluate("gompertz", 1.0, [1.0, 1.0])


def test_non_integer_hits_rejected():
    with pytest.raises(DomainError, match="hits"):
        ba.evaluate("multi-hit", 1.0, [2.5, 1.0])


def test_negative_dose_rejected():
    with pytest.raises(DomainError, match="input"):
        ba.evaluate("one-hit", -0.5, [1.0])


def test_time_power_needs_positive_input():
    with pytest.raises(DomainError):
        ba.evaluate("exp-time-power", 0.0, [1.0, 1.0])


def test_gradient_at_zero_dose_is_the_limit():
    # z^s ln z -> 0: the ln factors of the shape and exponent derivatives vanish
    assert ba.gradient("weibull-cdf", 0.0, [1.0, 1.5]).tolist() == [0.0, 0.0]
    assert ba.gradient("weibull-reconstructed", 0.0, [1.0, 0.0, 1.0, 1.0]).tolist() == [0.0, 1.0, 0.0, 0.0]
    assert ba.gradient("hill", 0.0, [2.0, 1.0, 1.5]).tolist() == [0.0, 0.0, 0.0]
    assert ba.gradient("hill-decreasing", 0.0, [2.0, 1.0, 1.5]).tolist() == [1.0, 0.0, 0.0]


def test_nonpositive_rate_named():
    with pytest.raises(DomainError, match="rate"):
        ba.evaluate("one-hit", 1.0, [0.0])


def test_admits_agrees_with_check_theta(rng):
    probes = (0.0, -0.0, 1e-300, -1e-300, -1.0, 2.5, 3.0, 1.0, 50.0, np.inf, -np.inf, np.nan)
    for m in all_models():
        _u, theta = sample_point(m, rng)
        theta = np.asarray(theta, dtype=float)
        rows = [theta]
        for i in range(len(theta)):
            for v in probes + tuple(np.nextafter(theta[i], (-np.inf, np.inf))):
                row = theta.copy()
                row[i] = v
                rows.append(row)
        expected = []
        for row in rows:
            try:
                m.check_theta(row)
                expected.append(True)
            except DomainError:
                expected.append(False)
        # the fit's admission rule: ParamSpec.admits slot by slot
        admitted = [all(map(ParamSpec.admits, m.param_specs(len(row)), row.tolist())) for row in rows]
        assert admitted == expected, m.id


def test_parameter_domains_are_lower_bounds():
    # no slot has an upper bound: ParamSpec takes none, and a fit's floor holds
    # each closed lower bound, -inf where a slot has none or only a strict one
    with pytest.raises(TypeError):
        ParamSpec("rate", low=0.0, high=1.0)
    assert ParamSpec("c", low=0.0, strict=False).interval == (-5e-324, math.inf)
    assert ParamSpec("rate", low=0.0).interval == (0.0, math.inf)
    assert get_model("multistage").closed_floor(3).tolist() == [0.0, 0.0, 0.0]
    assert get_model("leaf-response").closed_floor(3).tolist() == [-math.inf, -math.inf, 0.0]
    assert get_model("logistic").closed_floor(3) is None  # its one bound is strict
    assert get_model("multi-hit").closed_floor(2) is None  # its closed bound is an integer slot's
    with pytest.raises(DomainError, match=r"'stage-coefficient' \(theta\[1\]\) must be >= 0.0, got -1.0"):
        ba.evaluate("multistage", 1.0, [0.0, -1.0])
    with pytest.raises(DomainError, match=r"'rate' \(theta\[0\]\) must be > 0.0, got 0.0"):
        ba.evaluate("one-hit", 1.0, [0.0])


def test_unknown_model():
    from bioassay.exceptions import UnknownModelError

    with pytest.raises(UnknownModelError):
        get_model("nope")


def test_vectorized_evaluate_shapes():
    xs = np.linspace(0.0, 3.0, 7)
    vals = ba.evaluate("one-hit", xs, [1.0])
    assert vals.shape == (7,)
    g = ba.gradient("mm", xs[1:], [2.0, 1.0])
    assert g.shape == (6, 2)


@pytest.mark.parametrize("stages", range(1, 7))
def test_multistage_gradient_within_2_ulp(stages):
    # column j is x^j e with e = exp(-polynomial), column 0.  Past 2 ULP the rounding
    # of the polynomial itself, which exp amplifies, would dominate; so the reference
    # takes e's exponent, and then e itself, from the double computation and forms
    # the exponential, powers and products in extended precision
    x = np.linspace(0.0, 3.0, 10_000)
    theta = np.random.default_rng(stages).uniform(0.05, 1.0, stages)
    g = ba.gradient("multistage", x, theta)
    ld = np.longdouble
    e = np.exp(-np.polynomial.polynomial.polyval(x, theta).astype(ld))
    ref = np.column_stack([e, g[:, :1].astype(ld) * x.astype(ld)[:, None] ** np.arange(1, stages)])
    ulps = np.abs(g - ref) / np.spacing(np.abs(g))
    assert float(np.max(ulps[:, 0])) <= 1.0
    assert float(np.max(ulps)) <= 2.0


def test_raw_gradients_are_c_contiguous_rows(rng):
    # the fit's Jacobian layout, which finite_grad alone builds from grad's columns: one
    # C-ordered row per input point (an (n, 2) array for two-input models), one column per slot
    for model in all_models():
        theta = sample_theta(model, rng)
        u = np.array([sample_input(model, rng) for _ in range(7)])
        g = model.finite_grad(u, theta)
        assert g.shape == (7, theta.size) and g.flags.c_contiguous, model.id
        assert model.finite_grad(u[0], theta).shape == (theta.size,), model.id


def test_evaluate_names_the_first_nan_point():
    # exp(1e300 u) overflows for u > 0, and 0 * inf is nan; at u = 0 the value is -1e300
    theta = [-1e300, 0.0, 1e300]
    message = r"gompertz: value is NaN at u=0.5, theta=\[-1e\+300, 0.0, 1e\+300\]"
    with pytest.raises(DomainError, match=message):
        ba.evaluate("gompertz", [0.0, 0.5, 1.0], theta)
    with pytest.raises(DomainError, match=message):
        ba.evaluate("gompertz", 0.5, theta)
    assert ba.evaluate("gompertz", 0.0, theta) == -1e300


def test_the_jacobian_is_built_in_one_place():
    # grad returns one column per slot and ModelDef.finite_grad alone lays them out: no model
    # stacks its own Jacobian, and nothing else calls grad
    package = pathlib.Path(ba.__file__).parent
    sources = {path.relative_to(package).as_posix(): path.read_text(encoding="utf-8")
               for path in sorted(package.rglob("*.py"))}
    assert [name for name, text in sources.items() if name.startswith("models/") and "np.stack(" in text] == []

    def grad_calls(tree):
        return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "grad"]

    everywhere = [call for text in sources.values() for call in grad_calls(ast.parse(text))]
    assert len(everywhere) == 1
    (call,) = everywhere
    base = ast.parse(sources["models/base.py"])
    (finite_grad,) = [n for n in ast.walk(base) if isinstance(n, ast.FunctionDef) and n.name == "finite_grad"]
    assert [(n.lineno, n.col_offset) for n in grad_calls(finite_grad)] == [(call.lineno, call.col_offset)]


def test_every_errstate_in_the_package_ignores_all():
    # one floating-point rule: a kernel runs with numpy's floating-point warnings off, and the
    # finiteness check after it turns a bad result into a DomainError; no site keeps its own flags
    package = pathlib.Path(ba.__file__).parent
    flags = [
        (path.name, args)
        for path in sorted(package.rglob("*.py"))
        for args in re.findall(r"errstate\((.*?)\)", path.read_text(encoding="utf-8"), re.S)
    ]
    assert flags
    assert [site for site in flags if site[1] != 'all="ignore"'] == []
