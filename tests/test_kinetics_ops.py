"""Steady-state algebra, slope/curvature helpers, and hazard functions."""

import math

import pytest

import bioassay as ba
from bioassay.exceptions import DomainError
from bioassay.models import (
    KineticConstants,
    hazard_ad,
    hazard_cox,
    mm_parallel_summary,
    mm_slope_at_origin,
    mm_velocity_curvature,
    mm_velocity_slope,
    steady_state_complex,
)


def test_steady_state_complex_simple():
    kc = KineticConstants.from_rates(k1=1.0, k2=1.0, k3=1.0, e0=1.0)
    assert steady_state_complex(kc, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert steady_state_complex(kc, 0.0) == 0.0


def test_steady_state_velocity_equals_mm_curve():
    kc = KineticConstants.from_rates(k1=2.0, k2=1.0, k3=1.0, e0=3.0)
    assert kc.vmax == pytest.approx(3.0)
    assert kc.km == pytest.approx(1.0)
    v = kc.k3 * steady_state_complex(kc, 5.0)
    assert v == pytest.approx(ba.evaluate("mm", 5.0, [kc.vmax, kc.km]), rel=1e-14)
    assert v == pytest.approx(2.5, rel=1e-14)


def test_steady_state_bounded_by_e0():
    kc = KineticConstants.from_rates(k1=5.0, k2=0.5, k3=0.5, e0=2.0)
    for s in (0.0, 0.1, 1.0, 100.0, 1e6):
        es = steady_state_complex(kc, s)
        assert 0.0 <= es <= kc.e0


def test_steady_state_rejects_negative_substrate():
    kc = KineticConstants.from_rates(k1=1.0, k2=1.0, k3=1.0, e0=1.0)
    with pytest.raises(DomainError):
        steady_state_complex(kc, -1.0)


def test_constants_must_be_positive():
    with pytest.raises(DomainError):
        KineticConstants(vmax=0.0, km=1.0)
    with pytest.raises(DomainError):
        KineticConstants.from_rates(k1=1.0, k2=-1.0, k3=1.0, e0=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="'vmax' must be finite"):
            KineticConstants(vmax=bad, km=1.0)
        # an infinite k1 would give km = 0: the rates themselves are refused
        with pytest.raises(DomainError, match="rate constants and total enzyme must all be finite"):
            KineticConstants.from_rates(k1=bad, k2=1.0, k3=1.0, e0=1.0)


@pytest.mark.parametrize("s", [math.nan, math.inf], ids=["nan", "inf"])
def test_substrate_helpers_reject_a_non_finite_level(s):
    kc = KineticConstants.from_rates(k1=1.0, k2=1.0, k3=1.0, e0=1.0)
    for helper in (steady_state_complex, mm_velocity_slope, mm_velocity_curvature):
        with pytest.raises(DomainError, match="substrate concentration must be finite"):
            helper(kc, s)


def test_slope_at_origin():
    assert mm_slope_at_origin(KineticConstants(vmax=2.0, km=1.0)) == 2.0
    assert mm_slope_at_origin(KineticConstants(vmax=1.0, km=4.0)) == 0.25


def test_velocity_slope_matches_finite_difference():
    kc = KineticConstants(vmax=2.0, km=1.0)
    assert mm_velocity_slope(kc, 1.0) == pytest.approx(0.5, rel=1e-15)
    h = 1e-6
    fd = (ba.evaluate("mm", 1.0 + h, [2.0, 1.0]) - ba.evaluate("mm", 1.0 - h, [2.0, 1.0])) / (2 * h)
    assert mm_velocity_slope(kc, 1.0) == pytest.approx(fd, rel=1e-8)


def test_velocity_curvature_matches_finite_difference():
    kc = KineticConstants(vmax=2.0, km=1.5)
    x = 0.7
    h = 1e-4
    f = lambda t: ba.evaluate("mm", t, [2.0, 1.5])
    fd2 = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    assert mm_velocity_curvature(kc, x) == pytest.approx(fd2, rel=1e-6)
    assert mm_velocity_curvature(kc, x) < 0


@pytest.mark.parametrize("x", [1e110, 1e200, 1e308])
def test_velocity_slope_and_curvature_vanish_at_huge_substrate_levels(x):
    # the true values, about 1/x^2 and -2/x^3, are 1e-220 or less
    kc = KineticConstants(vmax=1.0, km=1.0)
    assert 0.0 <= mm_velocity_slope(kc, x) <= 1e-220
    assert -1e-300 <= mm_velocity_curvature(kc, x) <= 0.0
    # the bounded factors agree with the textbook forms where those are finite
    assert mm_velocity_slope(kc, 1e100) == pytest.approx(1e-200, rel=1e-14)
    assert mm_velocity_curvature(kc, 1e100) == pytest.approx(-2e-300, rel=1e-14)


@pytest.mark.parametrize("s", [1e300, 1e308])
def test_steady_state_complex_saturates_at_e0(s):
    kc = KineticConstants.from_rates(k1=10.0, k2=1.0, k3=1.0, e0=1.0)
    assert steady_state_complex(kc, s) == pytest.approx(kc.e0, rel=1e-15)
    # at the smallest subnormal s the complex, k1 s / (k2 + k3) = 5 x 2^-1074, is still exact
    assert steady_state_complex(kc, 5e-324) == 5 * 5e-324


def test_parallel_summary_values():
    assert mm_parallel_summary(1.0, 1.0, 1.0, 1.0) == (2.0, 2.0)
    assert mm_parallel_summary(2.0, 1.0, 1.0, 2.0) == (2.5, 3.0)
    with pytest.raises(DomainError):
        mm_parallel_summary(1.0, 0.0, 1.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="parallel-process constants must all be finite"):
            mm_parallel_summary(1.0, bad, 1.0, 1.0)


def test_parallel_registry_entry_matches_summary():
    v1, k1, v2, k2 = 2.0, 1.0, 1.0, 2.0
    slope, asymptote = mm_parallel_summary(v1, k1, v2, k2)
    assert abs(ba.evaluate("mm-parallel", 1e6, [v1, k1, v2, k2]) - asymptote) < 1e-4
    h = 1e-7
    fd_slope = ba.evaluate("mm-parallel", h, [v1, k1, v2, k2]) / h
    assert fd_slope == pytest.approx(slope, rel=1e-5)


# -- hazards ---------------------------------------------------------------

def test_power_hazard_constant_when_single_stage():
    for t in (0.1, 1.0, 7.3):
        assert hazard_ad(t, c=5.0, k=1) == 5.0


def test_power_hazard_values():
    assert hazard_ad(2.0, c=2.0, k=3, t0=0.0) == pytest.approx(8.0)
    assert hazard_ad(3.0, c=1.0, k=4, t0=1.0) == pytest.approx(8.0)


def test_power_hazard_increasing_for_multiple_stages():
    ts = [0.6, 1.0, 2.0, 5.0]
    vals = [hazard_ad(t, c=1.0, k=3, t0=0.5) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_power_hazard_rejects_times_before_lag():
    with pytest.raises(DomainError, match="growth lag"):
        hazard_ad(1.0, c=1.0, k=2, t0=1.0)


@pytest.mark.parametrize(
    "params, match",
    [
        ((0.0, 2, 0.0), "scale c"),
        ((1.0, 1.5, 0.0), "stage count"),
        ((1.0, 0, 0.0), "stage count"),
        ((1.0, 2, -1.0), "lag t0"),
        ((math.inf, 2, 0.0), "scale c"),
        ((1.0, math.nan, 0.0), "stage count"),
        ((1.0, math.inf, 0.0), "stage count"),
        ((1.0, 2, math.nan), "lag t0"),
        ((1.0, 2, math.inf), "lag t0"),
    ],
)
def test_power_hazard_rejects_parameters_outside_their_domain(params, match):
    with pytest.raises(DomainError, match=match):
        hazard_ad(5.0, *params)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_power_hazard_rejects_a_non_finite_time(t):
    with pytest.raises(DomainError, match="finite t"):
        hazard_ad(t, c=1.0, k=2)


@pytest.mark.parametrize(
    "t, c, k",
    [(1e200, 1.0, 3), (2.0, 1e308, 3), (1e-200, 1.0, 3)],
    ids=["power-overflows", "product-overflows", "underflows"],
)
def test_power_hazard_outside_the_float_range(t, c, k):
    with pytest.raises(DomainError, match="leaves the float range"):
        hazard_ad(t, c=c, k=k)


def test_proportional_hazard_neutral_cases():
    assert hazard_cox(1.0, [1.5, -2.0], lambda t: 3.0, [0.0, 0.0]) == pytest.approx(3.0)
    assert hazard_cox(1.0, [0.0, 0.0], lambda t: 3.0, [0.7, -0.4]) == pytest.approx(3.0)


def test_proportional_hazard_exponential_risk():
    assert hazard_cox(5.0, [1.0], lambda t: 1.0, [math.log(2.0)]) == pytest.approx(2.0, rel=1e-14)


def test_proportional_hazard_ratio_time_free():
    baseline, beta = (lambda t: 0.3 + t**2), [0.8, -0.2]
    w1, w2 = [1.0, 0.5], [0.2, 1.0]
    r = [hazard_cox(t, w1, baseline, beta) / hazard_cox(t, w2, baseline, beta) for t in (0.5, 1.0, 4.0)]
    assert max(r) - min(r) < 1e-14


def test_proportional_hazard_dimension_mismatch():
    with pytest.raises(DomainError, match="mismatch"):
        hazard_cox(1.0, [1.0], lambda t: 1.0, [1.0, 2.0])
