"""The parallel-hyperbola entry's limits, and hazard functions."""

import math

import pytest

import bioassay as ba
from bioassay.exceptions import DomainError
from bioassay.models import hazard_ad, hazard_cox


def test_parallel_registry_entry_matches_summary():
    # two hyperbolas in parallel: slope v1/k1 + v2/k2 at the origin, asymptote v1 + v2
    v1, k1, v2, k2 = 2.0, 1.0, 1.0, 2.0
    slope, asymptote = v1 / k1 + v2 / k2, v1 + v2
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
