"""Birth-death simulation: exactness properties, oracles, hazard estimation."""

import hashlib
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from bioassay import birthdeath
from bioassay.birthdeath import (
    BirthDeathSpec,
    ad_hazard_fit,
    empirical_hazard,
    simulate_bd,
    simulate_replicates,
)
from bioassay.exceptions import DomainError, NotConvergedError


def extinction_probability(b, d, t, i0=1):
    """Closed-form linear birth-death extinction probability (test oracle)."""
    if b == d:
        p1 = b * t / (1.0 + b * t)
    else:
        e = math.exp((b - d) * t)
        p1 = d * (e - 1.0) / (b * e - d)
    return p1**i0


# Extinction studies (no threshold) invert Kendall's law; the jump chain still runs every onset
# study and ``simulate_bd``.  An onset threshold no clone reaches runs the chain with the stops
# of an extinction study (extinct, censored or truncated past MAX_POPULATION), so each check of
# the law below is made on both samplers.
UNREACHABLE = 10**18
SAMPLERS = {"kendall": None, "jump-chain": UNREACHABLE}


def test_trajectory_steps_and_monotone_times():
    traj = simulate_bd(BirthDeathSpec(b=1.0, d=1.0, i0=3, t_end=5.0, seed=1))
    assert traj.populations[0] == 3
    assert np.all(np.isin(np.diff(traj.populations), [-1, 1]))
    assert np.all(np.diff(traj.times) > 0)


def test_extinction_is_absorbing():
    traj = simulate_bd(BirthDeathSpec(b=0.2, d=2.0, i0=2, t_end=100.0, seed=7))
    assert traj.extinct
    assert traj.populations[-1] == 0
    assert np.all(traj.populations[:-1] > 0)


def test_same_seed_same_trajectory():
    spec = BirthDeathSpec(b=1.0, d=0.7, i0=2, t_end=3.0, seed=123)
    a = simulate_bd(spec)
    b = simulate_bd(spec)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.populations, b.populations)
    assert a.extinct == b.extinct


def test_pure_death_single_cell_mean_extinction_time():
    spec = BirthDeathSpec(b=0.0, d=1.0, i0=1, t_end=100.0, seed=5)
    for sampler, threshold in SAMPLERS.items():
        reps = simulate_replicates(spec, 10_000, threshold=threshold)
        assert all(r.outcome == "extinct" for r in reps), sampler
        times = np.array([r.time for r in reps])
        se = times.std(ddof=1) / math.sqrt(times.size)
        assert abs(times.mean() - 1.0) < 3 * se, sampler


def test_critical_extinction_frequency():
    spec = BirthDeathSpec(b=1.0, d=1.0, i0=1, t_end=1.0, seed=11)
    want = extinction_probability(1.0, 1.0, 1.0)
    for sampler, threshold in SAMPLERS.items():
        reps = simulate_replicates(spec, 10_000, threshold=threshold)
        freq = np.mean([r.outcome == "extinct" for r in reps])
        se = math.sqrt(want * (1.0 - want) / len(reps))
        assert abs(freq - want) < 3 * se, sampler


def test_subcritical_extinction_approaches_one():
    b, d = 0.5, 1.5
    spec = BirthDeathSpec(b=b, d=d, i0=1, t_end=50.0 / (d - b), seed=13)
    for sampler, threshold in SAMPLERS.items():
        reps = simulate_replicates(spec, 1000, threshold=threshold)
        assert np.mean([r.outcome == "extinct" for r in reps]) >= 0.99, sampler


def test_supercritical_extinction_frequency_matches_oracle():
    b, d, t = 1.5, 0.5, 3.0
    spec = BirthDeathSpec(b=b, d=d, i0=1, t_end=t, seed=17)
    want = extinction_probability(b, d, t)
    for sampler, threshold in SAMPLERS.items():
        reps = simulate_replicates(spec, 4000, threshold=threshold)
        freq = np.mean([r.outcome == "extinct" for r in reps])
        se = math.sqrt(want * (1.0 - want) / len(reps))
        assert abs(freq - want) < 3.5 * se, sampler


def test_truncation_guard(monkeypatch):
    monkeypatch.setattr(birthdeath, "MAX_POPULATION", 200)
    spec = BirthDeathSpec(b=5.0, d=0.0, i0=10, t_end=1e9, seed=3)
    traj = simulate_bd(spec)
    assert traj.truncated
    assert traj.populations[-1] > 200


def test_onset_threshold_replicates():
    spec = BirthDeathSpec(b=2.0, d=0.0, i0=1, t_end=50.0, seed=19)
    reps = simulate_replicates(spec, 200, threshold=10)
    assert all(r.outcome == "onset" for r in reps)
    assert all(r.time > 0 for r in reps)


@pytest.mark.parametrize("i0", [5, 7])
def test_onset_study_starting_at_its_threshold_stops_at_time_0(i0):
    reps = simulate_replicates(BirthDeathSpec(b=1.0, d=1.0, i0=i0, t_end=1.0, seed=5), 4, threshold=5)
    assert [(r.index, r.outcome, r.time) for r in reps] == [(i, "onset", 0.0) for i in range(4)]


@pytest.mark.parametrize("threshold", [0, -3])
def test_onset_threshold_below_1_is_rejected(threshold):
    with pytest.raises(DomainError, match="threshold must be >= 1"):
        simulate_replicates(BirthDeathSpec(b=1.0, d=1.0), 3, threshold=threshold)


def test_replicates_deterministic():
    spec = BirthDeathSpec(b=1.0, d=1.0, i0=1, t_end=1.0, seed=23)
    for threshold in SAMPLERS.values():
        assert simulate_replicates(spec, 50, threshold=threshold) == simulate_replicates(spec, 50, threshold=threshold)


# sha256 of [(index, outcome, time.hex())] of one seeded study: the onset study recorded
# when the records were frozen dataclasses built one by one, the extinction studies when
# they came to be drawn from Kendall's law.  The jump-chain studies are the same studies run
# by the chain to an unreachable threshold; their digests are those the extinction studies
# had while the chain ran them.
PINNED_STUDIES = {
    "critical": ((1.0, 1.0, 1, 20.0), 200, None, "f81cdfd8a18e3d8aaec506f0ad7adddf152d1d60a634f0855abb2839c3fca164"),
    "subcritical": ((0.5, 1.0, 2, 5.0), 200, None, "0931904f23058b237e73a1a7e96fb604764e55f6ba90866ea8913f16fbbfabda"),
    "onset": ((1.5, 1.0, 1, 40.0), 120, 100, "155cf472e11c5a72fad7d137f2e3471ffd89b6a5dc7e84e9c9a1d53b91f2c55a"),
    "pure-death": ((0.0, 1.0, 5, 3.0), 300, None, "84fe17da9d9f0ddb2d9f55af58c06131418dde04128577ee943f3ec626d354ba"),
    "critical-jump-chain": (
        (1.0, 1.0, 1, 20.0), 200, UNREACHABLE, "efd34d7af7b9457a7dfe0e2bb80067a49b1be204071ec2f10e57f96700b7a3d1"
    ),
    "subcritical-jump-chain": (
        (0.5, 1.0, 2, 5.0), 200, UNREACHABLE, "8db8a76da1438e2298bc37b51b9cad79ea53d0d6b77c6753fd92be716a4365f5"
    ),
    "pure-death-jump-chain": (
        (0.0, 1.0, 5, 3.0), 300, UNREACHABLE, "3b083e2d112f978416c1c6ce5c31676d0ab6e4804e969db79513bec10729afd8"
    ),
}


@pytest.mark.parametrize("kind", PINNED_STUDIES)
def test_seeded_studies_are_pinned(kind):
    (b, d, i0, t_end), n, threshold, digest = PINNED_STUDIES[kind]
    reps = simulate_replicates(BirthDeathSpec(b, d, i0, t_end, seed=2024), n, threshold=threshold)
    records = repr([(r.index, r.outcome, r.time.hex()) for r in reps])
    assert hashlib.sha256(records.encode()).hexdigest() == digest
    assert repr(reps[0]).startswith("Replicate(index=0, outcome=")


# the same digest of onset studies whose first jump-chain block is narrower than the usual
# 16 steps: 5000 clones get 13 columns, 70,000 clones (past the 2^16 cells of a block) one
PINNED_NARROW_STUDIES = {
    "5000-clones": ((1.5, 1.0, 1, 3.0), 5000, 20, "4976fb074e4da2187056dad0deb3c51d9652be67aede996a08847f603d8e20a3"),
    "70000-clones": ((1.0, 1.0, 1, 0.5), 70_000, 3, "003dc006378df5e097192e3d88048614cc411505ef81d2a226d17319a8d96be9"),
}


@pytest.mark.parametrize("kind", PINNED_NARROW_STUDIES)
def test_narrow_first_block_studies_are_pinned(kind):
    (b, d, i0, t_end), n, threshold, digest = PINNED_NARROW_STUDIES[kind]
    reps = simulate_replicates(BirthDeathSpec(b, d, i0, t_end, seed=2024), n, threshold=threshold)
    records = repr([(r.index, r.outcome, r.time.hex()) for r in reps])
    assert hashlib.sha256(records.encode()).hexdigest() == digest


def test_seeded_trajectory_is_pinned():
    traj = simulate_bd(BirthDeathSpec(1.2, 1.0, 3, 10.0, seed=2024))
    digest = hashlib.sha256(traj.times.tobytes() + traj.populations.tobytes()).hexdigest()
    assert (traj.times.size, digest) == (418, "5bba50b64d1bb77c89be59b13208a24537e00e824d317202449d1c2a8602764e")


KENDALL_CASES = {
    "critical": (1.0, 1.0, 1, 2.0),
    "subcritical": (0.5, 1.0, 2, 3.0),
    "supercritical": (1.5, 0.5, 1, 3.0),
    "i0=3": (1.3, 0.9, 3, 4.0),
}


@pytest.mark.parametrize(
    "b, d, i0, t_end, threshold",
    [
        pytest.param(*case, threshold, id=name if sampler == "kendall" else f"{name}-{sampler}")
        for sampler, threshold in SAMPLERS.items()
        for name, case in KENDALL_CASES.items()
    ],
)
def test_extinction_times_follow_kendall_law(b, d, i0, t_end, threshold):
    """Extinct replicates: share P0(t_end)^i0, times distributed as P0(t)^i0 / P0(t_end)^i0."""
    n = 20_000
    reps = simulate_replicates(BirthDeathSpec(b=b, d=d, i0=i0, t_end=t_end, seed=41), n, threshold=threshold)
    times = np.array([r.time for r in reps if r.outcome == "extinct"])
    assert all(r.outcome in ("extinct", "censored") for r in reps)
    want = extinction_probability(b, d, t_end, i0)
    assert abs(times.size / n - want) < 3.5 * math.sqrt(want * (1.0 - want) / n)
    cdf = np.vectorize(lambda t: extinction_probability(b, d, t, i0) / want)
    assert stats.kstest(times, cdf).pvalue > 1e-3


# -- extinction studies: Kendall's law inverted, one uniform per clone --------------

def kendall_draws(seed, n, i0):
    """v = U^(1/i0) and w = 1 - v of each clone, from the study's uniforms U = 1 - random()."""
    a = np.log1p(-np.random.default_rng(seed).random(n)) / i0
    return np.exp(a), -np.expm1(a)


def extinction_times(b, d, i0, n, seed=71):
    """Every clone's time at a horizon past all finite ones: inf for a clone that never dies out."""
    reps = simulate_replicates(BirthDeathSpec(b=b, d=d, i0=i0, t_end=1e300, seed=seed), n)
    return np.array([r.time if r.outcome == "extinct" else math.inf for r in reps])


@pytest.mark.parametrize("b, d, i0", [(1.0, 1.0, 1), (0.5, 1.0, 2), (1.5, 1.0, 3), (0.0, 2.0, 4)])
def test_a_clone_does_not_depend_on_the_study_size(b, d, i0):
    spec = BirthDeathSpec(b=b, d=d, i0=i0, t_end=2.0, seed=73)
    big = simulate_replicates(spec, 500)
    for n in (1, 7, 499):
        assert simulate_replicates(spec, n) == big[:n]


@pytest.mark.parametrize("rel", [1e-9, -1e-9], ids=["above", "below"])
def test_near_critical_times_match_the_critical_form(rel):
    # at b = d (1 + rel) the times differ from v / (d w) by a factor 1 + rel v / (2 w) + ...,
    # under 1e-8 where d T <= 10; a form that cancels at b = d would be off by 1e-16 / rel
    d, i0, n = 1.3, 3, 2000
    v, w = kendall_draws(71, n, i0)
    critical = v / (d * w)
    early = d * critical <= 10.0
    assert early.sum() > n // 2
    times = extinction_times(d * (1.0 + rel), d, i0, n)
    np.testing.assert_allclose(times[early], critical[early], rtol=1e-8, atol=0)


def test_pure_death_times_are_exponential_order_statistics():
    # from i0 cells, T is the largest of i0 Exp(d) lifetimes: U = (1 - e^{-dT})^i0
    d, i0, n = 0.7, 5, 2000
    _v, w = kendall_draws(71, n, i0)
    np.testing.assert_allclose(extinction_times(0.0, d, i0, n), -np.log(w) / d, rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "b, d", [(1.0, 1.0), (0.5, 1.0), (1.5, 1.0), (0.0, 1.0), (3.0, 0.1), (1.0, 1.0 + 1e-6)],
    ids=["critical", "subcritical", "supercritical", "pure-death", "b>>d", "near-critical"],
)
@pytest.mark.parametrize("i0", [1, 3, 100])
def test_kendall_law_gives_the_uniform_back(b, d, i0):
    n, seed = 2000, 79
    times = extinction_times(b, d, i0, n, seed)
    u = 1.0 - np.random.default_rng(seed).random(n)
    ext = np.isfinite(times)
    t = times[ext]
    if b == d:
        q = b * t / (1.0 + b * t)
    else:
        e = np.expm1((b - d) * t)
        q = d * e / (b * e + (b - d))
    np.testing.assert_allclose(q**i0, u[ext], rtol=1e-12, atol=0)
    # a clone that never dies out drew a uniform past the ultimate extinction probability
    if b <= d:
        assert ext.all()
    else:
        assert np.all(u[~ext] >= (d / b) ** i0)


@pytest.mark.parametrize(
    "b, d, i0",
    [(1.0, 1.0, 2**62), (0.5, 1.0, 2**62), (2.0, 1.0, 2**62), (0.0, 1.0, 2**62), (1.0, 0.0, 1), (1.0, 0.0, 2**62),
     (1e300, 1e-300, 1), (1e-300, 1.0, 5), (1.0, 1e-300, 3), (1e300, 1e300, 7)],
)
def test_extinction_studies_stay_finite_at_extreme_rates(b, d, i0):
    t_end = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = simulate_replicates(BirthDeathSpec(b=b, d=d, i0=i0, t_end=t_end, seed=83), 500)
    times = np.array([r.time for r in reps])
    assert np.all(np.isfinite(times)) and np.all(times <= t_end)
    assert {r.outcome for r in reps} <= {"extinct", "censored"}
    assert all(r.time == t_end for r in reps if r.outcome == "censored")
    if d == 0:
        assert {r.outcome for r in reps} == {"censored"}


def test_extinction_study_needs_no_step_budget(monkeypatch):
    # a supercritical study from 20 cells far past the budget's reach is O(n) draws
    monkeypatch.setattr(birthdeath, "MAX_REPLICATE_STEPS", 10)
    monkeypatch.setattr(birthdeath, "MAX_POPULATION", 10)
    reps = simulate_replicates(BirthDeathSpec(b=2.0, d=1.0, i0=20, t_end=100.0, seed=3), 1000)
    assert {r.outcome for r in reps} == {"censored"}  # extinction has probability 2^-20 per clone


@pytest.mark.parametrize("b, d, i0, threshold", [(1.5, 1.0, 2, 20), (1.2, 1.0, 1, 5)])
def test_onset_share_matches_gamblers_ruin(b, d, i0, threshold):
    n = 20_000
    reps = simulate_replicates(BirthDeathSpec(b=b, d=d, i0=i0, t_end=200.0, seed=43), n, threshold=threshold)
    assert {r.outcome for r in reps} == {"onset", "extinct"}
    r = d / b
    want = (1.0 - r**i0) / (1.0 - r**threshold)
    share = np.mean([rep.outcome == "onset" for rep in reps])
    assert abs(share - want) < 3.5 * math.sqrt(want * (1.0 - want) / n)


def test_replicates_truncated_past_max_population(monkeypatch):
    # an onset study whose threshold lies past the cap: the jump chain truncates first
    b, d, cap, n = 2.0, 0.5, 50, 5000
    monkeypatch.setattr(birthdeath, "MAX_POPULATION", cap)
    reps = simulate_replicates(BirthDeathSpec(b=b, d=d, i0=1, t_end=1e3, seed=47), n, threshold=10**6)
    assert {r.outcome for r in reps} == {"truncated", "extinct"}
    assert all(0 < r.time < 1e3 for r in reps)
    r = d / b
    want = (1.0 - r) / (1.0 - r ** (cap + 1))  # reaches cap + 1 before 0
    share = np.mean([rep.outcome == "truncated" for rep in reps])
    assert abs(share - want) < 3.5 * math.sqrt(want * (1.0 - want) / n)


@pytest.mark.parametrize("threshold", [40, 50, 51])
def test_onset_wins_over_truncation(threshold, monkeypatch):
    monkeypatch.setattr(birthdeath, "MAX_POPULATION", 50)
    spec = BirthDeathSpec(b=2.0, d=0.5, i0=1, t_end=1e3, seed=53)
    reps = simulate_replicates(spec, 2000, threshold=threshold)
    assert {r.outcome for r in reps} == {"onset", "extinct"}


def test_one_replicate_is_end_of_trajectory(monkeypatch):
    # a one-clone onset study draws the trajectory's steps: it stops at the trajectory's first
    # passage of the threshold, or where the trajectory ends; a threshold past the cap truncates
    specs = [
        (BirthDeathSpec(b=1.0, d=1.0, i0=2, t_end=3.0), 10**8),
        (BirthDeathSpec(b=0.0, d=1.0, i0=1, t_end=100.0), 10**8),
        (BirthDeathSpec(b=1.0, d=1.0, i0=3, t_end=0.05), 10**8),
        (BirthDeathSpec(b=2.0, d=1.0, i0=1, t_end=50.0), 30),
    ]
    seen = set()
    for base, cap in specs:
        for seed in range(20):
            spec = BirthDeathSpec(b=base.b, d=base.d, i0=base.i0, t_end=base.t_end, seed=seed)
            monkeypatch.setattr(birthdeath, "MAX_POPULATION", cap)
            traj = simulate_bd(spec)
            for threshold in (base.i0 + 2, cap + 2):
                (rep,) = simulate_replicates(spec, 1, threshold=threshold)
                reached = np.flatnonzero(traj.populations >= threshold)
                if reached.size:
                    assert (rep.outcome, rep.time) == ("onset", traj.times[reached[0]])
                elif traj.extinct:
                    assert (rep.outcome, rep.time) == ("extinct", traj.extinction_time)
                elif traj.truncated:
                    assert (rep.outcome, rep.time) == ("truncated", traj.times[-1])
                else:
                    assert (rep.outcome, rep.time) == ("censored", spec.t_end)
                seen.add(rep.outcome)
    assert seen == {"extinct", "truncated", "censored", "onset"}


def test_kernel_emits_no_runtime_warning(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for threshold in SAMPLERS.values():
            simulate_replicates(BirthDeathSpec(b=0.0, d=1.0, i0=3, t_end=100.0, seed=59), 500, threshold=threshold)
            simulate_replicates(BirthDeathSpec(b=1.0, d=1.0, i0=1, t_end=20.0, seed=59), 500, threshold=threshold)
            monkeypatch.setattr(birthdeath, "MAX_POPULATION", 1000)
            simulate_replicates(BirthDeathSpec(b=3.0, d=0.0, i0=1, t_end=1e3, seed=59), 50, threshold=threshold)
            monkeypatch.undo()
        simulate_replicates(BirthDeathSpec(b=1.5, d=1.0, i0=1, t_end=40.0, seed=59), 500, threshold=100)
        simulate_bd(BirthDeathSpec(b=0.5, d=2.0, i0=5, t_end=100.0, seed=59))
        simulate_bd(BirthDeathSpec(b=2.0, d=1.0, i0=1, t_end=8.0, seed=59))


def test_trajectory_event_budget(monkeypatch):
    monkeypatch.setattr(birthdeath, "MAX_TRAJECTORY_EVENTS", 1000)
    short = simulate_bd(BirthDeathSpec(b=2.0, d=1.0, i0=20, t_end=1.0, seed=61))
    assert short.times.size - 1 <= 1000
    with pytest.raises(NotConvergedError, match="1000 events"):
        simulate_bd(BirthDeathSpec(b=2.0, d=1.0, i0=20, t_end=12.0, seed=61))


def test_replicate_step_budget(monkeypatch):
    # the budget bounds the jump chain of onset studies
    small = BirthDeathSpec(b=1.0, d=1.0, i0=1, t_end=1.0, seed=67)
    expected = simulate_replicates(small, 50, threshold=5)
    monkeypatch.setattr(birthdeath, "MAX_REPLICATE_STEPS", 100_000)
    assert simulate_replicates(small, 50, threshold=5) == expected
    # supercritical from 20 cells to a threshold past the cap: extinction is negligible,
    # the clones grow past the budget
    with pytest.raises(NotConvergedError, match="100000 steps over 2 clones"):
        simulate_replicates(BirthDeathSpec(b=2.0, d=1.0, i0=20, t_end=100.0, seed=67), 2, threshold=10**9)


def test_replicate_step_budget_checked_before_allocating(monkeypatch):
    # a study of more clones than the budget raises before its ~25 bytes per clone are allocated
    monkeypatch.setattr(birthdeath, "MAX_REPLICATE_STEPS", 1000)
    spec = BirthDeathSpec(b=1.0, d=1.0, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(NotConvergedError, match="1000 steps over 1000000 clones"):
            simulate_replicates(spec, 1_000_000, threshold=5)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_replicate_cap_checked_before_allocating(monkeypatch):
    # a study of more clones than the cap raises before its ~160 bytes per clone are allocated
    monkeypatch.setattr(birthdeath, "MAX_REPLICATES", 1000)
    spec = BirthDeathSpec(b=1.0, d=1.0, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="1000000 replicates exceed the cap of 1000 per study"):
            simulate_replicates(spec, 1_000_000)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(simulate_replicates(spec, 1000)) == 1000


def test_spec_validation():
    with pytest.raises(DomainError):
        BirthDeathSpec(b=-1.0, d=1.0)
    with pytest.raises(DomainError):
        BirthDeathSpec(b=0.0, d=0.0)
    with pytest.raises(DomainError):
        BirthDeathSpec(b=1.0, d=1.0, i0=0)
    with pytest.raises(DomainError, match="initial population"):
        BirthDeathSpec(b=1.0, d=1.0, i0=10**20)  # past int64
    with pytest.raises(DomainError):
        BirthDeathSpec(b=1.0, d=1.0, t_end=0.0)


@pytest.mark.parametrize("t_end", [math.inf, math.nan, -1.0])
def test_spec_rejects_a_horizon_that_is_not_finite_and_positive(t_end):
    # with t_end = inf a pure-birth clone, which never dies, was reported extinct at inf
    with pytest.raises(DomainError, match="t_end must be > 0 and finite"):
        BirthDeathSpec(b=1.0, d=0.0, t_end=t_end)


def test_the_jump_chain_rejects_rates_whose_event_rate_overflows():
    # (b + d)(MAX_POPULATION + 1) is inf: each waiting time would be 0 where the exact one is subnormal
    spec = BirthDeathSpec(b=1e308, d=1e300, i0=3)
    with pytest.raises(DomainError, match="overflow the event rate"):
        simulate_bd(spec)
    with pytest.raises(DomainError, match="overflow the event rate"):
        simulate_replicates(spec, 5, threshold=4)
    assert len(simulate_replicates(spec, 5)) == 5  # Kendall's law: no chain, no rate to overflow
    # just inside the bound every waiting time is positive
    b = sys.float_info.max / (2 * (birthdeath.MAX_POPULATION + 1))
    reps = simulate_replicates(BirthDeathSpec(b=b, d=0.0), 5, threshold=4)
    assert all(r.outcome == "onset" and 0.0 < r.time < 1e-298 for r in reps)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_spec_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        BirthDeathSpec(b=1.0, d=1.0, seed=seed)
    assert BirthDeathSpec(b=1.0, d=1.0, seed=np.int64(5)).seed == 5


@pytest.mark.parametrize("b, d", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf), (-np.inf, 1.0)])
def test_spec_rejects_non_finite_rates(b, d):
    with pytest.raises(DomainError, match="rates must be finite and nonnegative"):
        BirthDeathSpec(b=b, d=d)


# -- empirical hazard ---------------------------------------------------------

def test_flat_hazard_for_exponential_times():
    rng = np.random.default_rng(29)
    lam = 1.3
    times = rng.exponential(1.0 / lam, 10_000)
    mids, rates = empirical_hazard(times, bins=5, t_range=(0.0, 1.0 / lam))
    assert len(rates) == 5
    assert np.all(np.abs(rates - lam) / lam < 0.2)


def test_increasing_hazard_for_weibull_times():
    rng = np.random.default_rng(31)
    times = rng.weibull(2.0, 10_000)
    mids, rates = empirical_hazard(times, bins=5, t_range=(0.0, 1.2))
    assert np.all(np.diff(rates) > 0)


def test_single_bin_total_rate():
    times = [0.5, 1.0, 2.0, 4.0]
    mids, rates = empirical_hazard(times, bins=1)
    assert mids[0] == pytest.approx(2.0)
    assert rates[0] == pytest.approx(4 / (4 * 4.0))


def test_empirical_hazard_past_the_float_range_is_a_domain_error():
    # bins of width 1e-320: one event among two at risk is a rate of 5e319
    with pytest.raises(DomainError, match="too narrow for a finite hazard"):
        empirical_hazard([1e-320, 2e-320], bins=2)


def test_empirical_hazard_matches_per_bin_counts():
    """Sorted-position counts give the same rates, bit for bit, as counting each bin."""
    rng = np.random.default_rng(67)
    for trial in range(200):
        times = np.round(rng.exponential(1.0, int(rng.integers(1, 300))), int(rng.integers(1, 4)))
        bins = int(rng.integers(1, 12))
        t_range = None if trial % 2 else (0.0, float(rng.uniform(0.2, 2.0)))
        lo, hi = t_range if t_range is not None else (0.0, float(times.max()))
        edges = np.linspace(lo, hi, bins + 1)
        want_mids, want_rates = [], []
        for j in range(bins):
            at_risk = int(np.sum(times >= edges[j]))
            if at_risk:
                upper = times <= edges[j + 1] if j == bins - 1 else times < edges[j + 1]
                want_mids.append(0.5 * (edges[j] + edges[j + 1]))
                want_rates.append(int(np.sum((times >= edges[j]) & upper)) / (at_risk * (edges[1] - edges[0])))
        mids, rates = empirical_hazard(times, bins, t_range)
        assert mids.tolist() == want_mids
        assert rates.tolist() == want_rates


def test_empirical_hazard_rejects_nan():
    with pytest.raises(DomainError, match="NaN"):
        empirical_hazard([0.5, float("nan")], bins=2, t_range=(0.0, 1.0))


@pytest.mark.parametrize(
    "times, t_range",
    [([1.0, math.inf], None), ([-math.inf, 1.0], None), ([0.5, 1.0], (0.0, math.inf)), ([0.5, 1.0], (math.nan, 1.0))],
)
def test_empirical_hazard_rejects_non_finite(times, t_range):
    with pytest.raises(DomainError, match="finite"):
        empirical_hazard(times, bins=2, t_range=t_range)


def test_empirical_hazard_rejects_empty():
    with pytest.raises(DomainError):
        empirical_hazard([], bins=3)


@pytest.mark.parametrize("bins", [2.5, math.nan, 0])
def test_empirical_hazard_rejects_non_integer_bins(bins):
    with pytest.raises(DomainError, match="bins"):
        empirical_hazard([0.5, 1.0], bins=bins)


def test_empirical_hazard_takes_numpy_integer_bins():
    mids, rates = empirical_hazard([0.5, 1.0, 2.5], bins=np.int64(3), t_range=(0.0, 3.0))
    np.testing.assert_allclose(mids, [0.5, 1.5, 2.5])
    np.testing.assert_allclose(rates, [1 / 3, 0.5, 1.0])


# -- power-law hazard fit ---------------------------------------------------------

def test_ad_fit_reduces_to_exponential_mle():
    times = [0.4, 1.1, 2.2, 0.9]
    assert ad_hazard_fit(times, k=1) == pytest.approx(len(times) / np.sum(times), rel=1e-14)
    assert ad_hazard_fit([1.0, 1.0], k=1) == pytest.approx(1.0)


def test_ad_fit_recovers_known_rate():
    rng = np.random.default_rng(37)
    k, t0, c = 3, 0.5, 2.0
    n = 2000
    for seed_shift in range(5):
        e = rng.exponential(1.0, n)
        times = t0 + (k * e / c) ** (1.0 / k)  # cumulative hazard c*(t-t0)^k/k
        c_hat = ad_hazard_fit(times, k=k, t0=t0)
        se = c / math.sqrt(n)  # scale-family information: n / c^2
        assert abs(c_hat - c) < 3 * se


def test_ad_fit_validation():
    with pytest.raises(DomainError):
        ad_hazard_fit([], k=1)
    with pytest.raises(DomainError):
        ad_hazard_fit([1.0], k=0)
    with pytest.raises(DomainError, match="lag"):
        ad_hazard_fit([0.2, 1.0], k=2, t0=0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            ad_hazard_fit([1.0, bad], k=2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="lag t0 must be finite"):
            ad_hazard_fit([1.0, 2.0], k=2, t0=bad)
    # hazard_ad's rule: a negative lag is outside the stage model
    with pytest.raises(DomainError, match="lag t0 must be finite and >= 0"):
        ad_hazard_fit([1.0, 2.0], k=2, t0=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="stage count"):
            ad_hazard_fit([1.0, 2.0], k=bad)


@pytest.mark.parametrize("times", [[2.0, 3.0], [0.2, 0.3]], ids=["sum-overflows", "sum-underflows"])
def test_ad_fit_rejects_sums_outside_the_float_range(times):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="leaves the float range"):
            ad_hazard_fit(times, k=1000)
