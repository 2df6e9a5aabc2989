"""Linear birth-death clonal simulation and empirical hazard estimation.

At population i the total event rate is i*(b + d): exponential waiting
times, each event a birth with probability b/(b+d).  Replicate studies
take one of two exact samplers, chosen by what the study records, and
each draws from one generator seeded by ``spec.seed``:

- an extinction study (no threshold) inverts Kendall's closed-form law
  of the extinction time, one uniform per clone, so clone i is the same
  in every study of more than i clones;
- an onset study records the first passage of a configurable cell
  count, which has no such closed form.  It runs the jump chain, drawn
  for all running clones at once in blocks of steps, so it is
  deterministic for a fixed (seed, n), and a clone past
  ``MAX_POPULATION`` cells stops as truncated.

``simulate_bd`` records one trajectory of the same jump chain; a
one-clone onset study stops where that trajectory first reaches the
threshold, or where it ends.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, NotConvergedError
from .models.hazards import check_stage_model

__all__ = [
    "BirthDeathSpec",
    "Trajectory",
    "Replicate",
    "simulate_bd",
    "simulate_replicates",
    "empirical_hazard",
    "ad_hazard_fit",
]

MAX_POPULATION = 100_000_000  # cells past which a clone stops as truncated (explosion guard)
MAX_TRAJECTORY_EVENTS = 10_000_000  # recorded events of one trajectory (memory guard)
MAX_REPLICATE_STEPS = 200_000_000  # steps drawn by one onset study, over all clones (time guard)
MAX_REPLICATES = 1_000_000  # clones of one replicate study, at about 160 bytes each (memory guard)
_BLOCK_CELLS = 1 << 16  # steps drawn per block, over all running clones

_RUNNING, _CENSORED, _EXTINCT, _ONSET, _TRUNCATED = range(5)
_OUTCOMES = (None, "censored", "extinct", "onset", "truncated")
_OUTCOME_NAMES = np.array(_OUTCOMES, dtype=object)  # outcome code -> name, indexed by a state array


@dataclass(frozen=True)
class BirthDeathSpec:
    """Per-cell birth/death rates, initial count, horizon, and RNG seed."""

    b: float
    d: float
    i0: int = 1
    t_end: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.b < np.inf and 0 <= self.d < np.inf):
            raise DomainError(f"rates must be finite and nonnegative, got b={self.b}, d={self.d}")
        if self.b == 0 and self.d == 0:
            raise DomainError("at least one of b, d must be positive")
        # populations are int64, with room above i0 for a block of births
        if not 1 <= self.i0 <= 2**62 or self.i0 != int(self.i0):
            raise DomainError(f"initial population must be an integer in [1, 2**62], got {self.i0}")
        if not 0 < self.t_end < np.inf:
            raise DomainError(f"t_end must be > 0 and finite, got {self.t_end}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise DomainError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class Trajectory:
    """Event times and population sizes, starting from (0, i0)."""

    times: np.ndarray
    populations: np.ndarray
    extinct: bool
    truncated: bool
    t_end: float

    @property
    def extinction_time(self) -> float | None:
        return float(self.times[-1]) if self.extinct else None

    @property
    def final_population(self) -> int:
        return int(self.populations[-1])


def _step_budget_error(spec: BirthDeathSpec, n: int) -> NotConvergedError:
    return NotConvergedError(
        f"simulation passed {MAX_REPLICATE_STEPS} steps over {n} clones before t = {spec.t_end}; "
        "shorten the horizon or simulate fewer replicates"
    )


@np.errstate(all="ignore")
def _run(spec: BirthDeathSpec, n: int, threshold: int | None, record: bool = False):
    """Exact jump chains of ``n`` independent clones, drawn in blocks of steps.

    Each block draws k birth/death steps and k unit exponentials for every
    running clone.  The populations live in one int64 path array of shape
    (m, k + 1): column 0 holds each clone's start population, the others
    its steps 2 birth - 1, and one in-place cumulative sum turns it into
    the path, so the populations after each step and before it are two
    views of it.  Event times are the cumulative sums of the exponentials
    over i (b + d) at the population before each step.  A clone stops at
    its first step that lies past t_end (censored, the step is not taken),
    empties the clone (extinct), reaches ``threshold`` (onset) or exceeds
    ``MAX_POPULATION`` (truncated), in that precedence; one ``argmax`` over
    the block's stop mask finds that step.  Clones still running carry
    their last (t, pop) into the next block.  Drawing more than
    ``MAX_REPLICATE_STEPS`` steps raises NotConvergedError.
    Returns the stop times (t_end when censored) and outcome codes; with
    ``record`` (n = 1) also the event times and populations from (0, i0).
    """
    # a first block of more than the budget would be allocated only to be refused
    if n > MAX_REPLICATE_STEPS:
        raise _step_budget_error(spec, n)
    total = spec.b + spec.d
    # an overflowed rate i (b + d) would give waiting times of 0 where the exact ones are subnormal
    if not math.isfinite(total * max(spec.i0, MAX_POPULATION + 1)):
        raise DomainError(f"rates b={spec.b}, d={spec.d} overflow the event rate i (b + d) of the jump chain")
    rng = np.random.default_rng(spec.seed)
    p_birth = spec.b / total
    t = np.zeros(n)
    pop = np.full(n, int(spec.i0), dtype=np.int64)
    state = np.full(n, _RUNNING, dtype=np.int8)
    if threshold is not None and spec.i0 >= threshold:
        state[:] = _ONSET
    times_rec, pops_rec = [np.zeros(1)], [pop[:1].copy()]
    # the first population that stops a clone from above: onset or truncation
    ceiling = MAX_POPULATION + 1 if threshold is None else min(threshold, MAX_POPULATION + 1)
    events = drawn = 0
    live = np.flatnonzero(state == _RUNNING)
    k = 16
    while live.size:
        m = live.size
        width = max(1, min(k, _BLOCK_CELLS // m))
        k = min(2 * k, _BLOCK_CELLS)
        drawn += m * width
        if drawn > MAX_REPLICATE_STEPS:
            raise _step_budget_error(spec, n)
        rows = np.arange(m)
        # one path per clone: its start population, then its +-1 steps summed in place
        path = np.empty((m, width + 1), dtype=np.int64)
        path[:, 0] = pop[live]
        birth = (rng.random((m, width)) < p_birth).view(np.int8)
        np.subtract(birth + birth, 1, out=path[:, 1:])  # 2 birth - 1, cast up from int8
        np.cumsum(path, axis=1, out=path)
        pops, before = path[:, 1:], path[:, :-1]
        times = rng.standard_exponential((m, width))
        times /= before * total
        times[:, 0] += t[live]
        np.cumsum(times, axis=1, out=times)
        late = times > spec.t_end
        stop = late | (pops == 0) | (pops >= ceiling)
        col = stop.argmax(axis=1)  # 0 for a row with no stop, where stop[row, 0] is False
        stopped = stop[rows, col]
        col[~stopped] = width - 1
        censored = late[rows, col]
        t_new, p_new = times[rows, col], pops[rows, col]
        code = np.where(stopped, _TRUNCATED, _RUNNING).astype(np.int8)
        if threshold is not None:
            code[stopped & (p_new >= threshold)] = _ONSET
        code[stopped & (p_new == 0)] = _EXTINCT
        code[censored] = _CENSORED
        t[live] = np.where(censored, spec.t_end, t_new)
        pop[live] = p_new  # read again only while running
        state[live] = code
        if record:
            taken = int(col[0]) + 1 - int(censored[0])
            times_rec.append(times[0, :taken])
            pops_rec.append(pops[0, :taken])
            events += taken
            if events > MAX_TRAJECTORY_EVENTS:
                raise NotConvergedError(
                    f"trajectory passed {MAX_TRAJECTORY_EVENTS} events before t = {spec.t_end}; "
                    "shorten the horizon or simulate replicates instead"
                )
        live = live[code == _RUNNING]
    if record:
        return t, state, np.concatenate(times_rec), np.concatenate(pops_rec)
    return t, state


@np.errstate(all="ignore")
def _kendall(spec: BirthDeathSpec, n: int):
    """Extinction times of ``n`` clones, each one uniform through Kendall's law.

    P(T <= t) = q(t)^i0 with q(t) = d (e^{(b-d)t} - 1) / (b e^{(b-d)t} - d),
    and q(t) = bt / (1 + bt) at b = d (Kendall 1948).  Clone i takes the
    i-th uniform U = 1 - ``random()`` in (0, 1] of the seeded generator and
    the time q^-1(v) at v = U^(1/i0), held as w = 1 - v = -expm1(log U / i0).
    With e = w + (1 - b/d) v, which is (d - bv) / d, a clone with e <= 0 never
    dies out (d = 0, or b > d and v >= d/b); otherwise, at b != d,
    T = log1p(x) / (b - d) with x = (b - d) v / (d e), and 1 + x = w / e gives
    the form log(w / e) / (b - d) where |x| > 1/2.  At b = d, T = v / (d w).
    A clone is extinct at T if T <= t_end and censored at t_end otherwise.
    Returns the stop times and outcome codes, as ``_run`` does.
    """
    b, d = spec.b, spec.d
    log_v = np.log1p(-np.random.default_rng(spec.seed).random(n)) / spec.i0
    v, w = np.exp(log_v), -np.expm1(log_v)
    # w = 0 (U = 1) and e near 0 give T = inf; e < 0 gives a NaN that the mask on e replaces by inf
    if d == 0:
        t = np.full(n, np.inf)
    elif b == d:
        t = v / (d * w)
    else:
        e = w + (d - b) / d * v
        x = (b - d) / d * v / e
        t = np.where(np.abs(x) <= 0.5, np.log1p(x), np.log(w / e))
        t /= b - d
        t[e <= 0] = np.inf
    extinct = t <= spec.t_end
    return np.where(extinct, t, spec.t_end), np.where(extinct, np.int8(_EXTINCT), np.int8(_CENSORED))


def simulate_bd(spec: BirthDeathSpec) -> Trajectory:
    """One exact trajectory; deterministic for a fixed seed.

    Stops at extinction or the horizon; a population beyond
    ``MAX_POPULATION`` stops the run with the truncation flag set
    (explosion guard).  A trajectory of more than ``MAX_TRAJECTORY_EVENTS``
    events raises NotConvergedError (memory guard).
    """
    _t, state, times, pops = _run(spec, 1, None, record=True)
    return Trajectory(
        times=times,
        populations=pops,
        extinct=bool(state[0] == _EXTINCT),
        truncated=bool(state[0] == _TRUNCATED),
        t_end=spec.t_end,
    )


class Replicate(NamedTuple):
    index: int
    outcome: str  # "extinct" | "onset" | "censored" | "truncated"
    time: float


def simulate_replicates(
    spec: BirthDeathSpec,
    n_replicates: int,
    threshold: int | None = None,
) -> list[Replicate]:
    """Independent replicates from one seeded generator.

    With ``threshold`` None the recorded event is extinction, sampled
    exactly from Kendall's law by one uniform per clone (``_kendall``):
    the work is O(n) whatever the rates and horizon, and clone i is the
    same in every study of more than i clones.  Otherwise the event is the
    first time the population reaches the threshold, found by the jump
    chain (``_run``): a clone past ``MAX_POPULATION`` cells stops as
    truncated, and a study that draws more than ``MAX_REPLICATE_STEPS``
    steps over all clones raises NotConvergedError (time guard).  Runs that
    see neither event by the horizon are censored at t_end.

    A study of more than ``MAX_REPLICATES`` clones raises DomainError
    before it allocates anything (memory guard).  At its peak a call holds
    about 160 bytes per clone: 136 for the returned Replicate (the tuple,
    its index and time objects and its list slot), the rest the clone's
    sampler state.  For an onset study that is its running state and its
    share of the kernel's first block, one step wide past 2^16 clones (the
    kernel alone peaks near 95 bytes a clone there, tracemalloc at 10^5
    and 4 x 10^5 clones).  The cap bounds a call near 160 MB.
    """
    if n_replicates < 1:
        raise DomainError("n_replicates must be >= 1")
    if n_replicates > MAX_REPLICATES:
        raise DomainError(f"{n_replicates} replicates exceed the cap of {MAX_REPLICATES} per study")
    if threshold is not None and threshold < 1:
        raise DomainError("threshold must be >= 1")
    if threshold is None:
        t, state = _kendall(spec, n_replicates)
    else:
        t, state = _run(spec, n_replicates, threshold)
    return list(map(Replicate, range(n_replicates), _OUTCOME_NAMES[state].tolist(), t.tolist()))


@np.errstate(all="ignore")
def empirical_hazard(event_times, bins: int, t_range: tuple[float, float] | None = None):
    """Binned hazard estimate: events / (at risk at the bin start * width).

    Returns (midpoints, rates) for bins with someone at risk.  The event
    times and ``t_range`` must be finite.
    """
    times = np.sort(np.asarray(event_times, dtype=float))
    if times.size == 0:
        raise DomainError("no event times supplied")
    if not np.all(np.isfinite(times)):
        raise DomainError("event times must be finite, not NaN or inf")
    if not (isinstance(bins, numbers.Integral) and bins >= 1):
        raise DomainError(f"bins must be an integer >= 1, got {bins}")
    lo, hi = t_range if t_range is not None else (0.0, float(times.max()))
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise DomainError(f"time range ({lo}, {hi}) must be finite and nonempty")
    edges = np.linspace(lo, hi, bins + 1)
    width = edges[1] - edges[0]
    # sorted positions of the edges: bin j holds [edge j, edge j+1), the last bin is closed
    pos = np.searchsorted(times, edges, side="left")
    pos[-1] = np.searchsorted(times, edges[-1], side="right")
    at_risk = times.size - pos[:-1]
    keep = at_risk > 0
    rates = np.diff(pos)[keep] / (at_risk[keep] * width)
    if not np.isfinite(rates).all():
        raise DomainError(f"bins of width {width} are too narrow for a finite hazard")
    return 0.5 * (edges[:-1] + edges[1:])[keep], rates


@np.errstate(all="ignore")
def ad_hazard_fit(event_times, k: int, t0: float = 0.0) -> float:
    """Rate-scale MLE for the power-law hazard c*(t - t0)**(k-1) with k, t0 fixed.

    The implied cumulative hazard c*(t-t0)^k / k gives the closed form
    c = n*k / sum (t_i - t0)^k; with k = 1 this is the exponential-rate MLE.
    The event times must be finite; k and t0 follow :func:`hazard_ad`.  Where
    the sum or the rate leaves the float range (a large k on times far from 1
    after the lag), DomainError is raised instead of a rate of 0 or inf.
    """
    times = np.asarray(event_times, dtype=float)
    if times.size == 0:
        raise DomainError("no event times supplied")
    if not np.all(np.isfinite(times)):
        raise DomainError("event times must be finite, not NaN or inf")
    check_stage_model(k, t0)
    if np.any(times <= t0):
        raise DomainError(f"all event times must exceed the lag t0 = {t0}")
    rate = float(times.size * k / np.sum((times - t0) ** k))
    if not 0.0 < rate < math.inf:
        raise DomainError(
            f"sum of (t - t0)^k leaves the float range at k = {k}: rescale the event times"
        )
    return rate
