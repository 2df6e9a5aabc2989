"""Measurement core: spans, closed-loop rounds and metric arithmetic.

Nothing here imports bioassay; workloads hand in callables.  All times are
``time.perf_counter`` seconds.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


# -- metric arithmetic -----------------------------------------------------------


def tail(values, beyond: int = TAIL_BEYOND):
    """Latency at the highest percentile that has ``beyond`` samples above it.

    Returns ``(value, percentile, n)``: the order statistic with exactly
    ``beyond`` samples ranked after it, the percentile that rank stands for
    (100 * (n - beyond) / n) and the sample count.  Needs n > ``beyond``.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    k = n - 1 - beyond
    return xs[k], 100.0 * (n - beyond) / n, n


def fail_share(failed: int, attempted: int) -> float:
    """Operations that raised or failed an output check, per operation attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def covered_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        out.append((s.end - s.start) - covered_length([k for k in kids if k[1] > k[0]]))
    return out


# -- spans ------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same tracer
    op: int  # operation id: index of the operation in the batch
    round: int
    failed: bool = False


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@dataclass
class Tracer:
    """Records one span per wrapped call; spans stay in memory until written."""

    spans: list = field(default_factory=list)
    op: int = -1
    round: int = -1
    _stack: list = field(default_factory=list)

    def call(self, name, fn, *args, **kwargs):
        rec = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, self.round)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()


# -- workloads -------------------------------------------------------------------------


class Mix:
    """The batches of several workload modules, run as one batch.

    A workload module provides ``generate(seed, workdir)``, ``run_op(op, t)``,
    ``check(op, out)`` (raises on a wrong output, returns a known-defect
    message or None), ``digest(op, out)``, ``op_counts(op, out)`` and
    optionally ``check_batch(ops, counts)``.  Operations are interleaved in
    proportion, so every stretch of a round holds each kind.
    """

    def __init__(self, modules):
        self.modules = list(modules)

    def generate(self, seed: int, workdir: str) -> list:
        keyed = []
        for j, mod in enumerate(self.modules):
            batch = mod.generate(seed, workdir)
            keyed += [((i + 0.5) / len(batch), j, (mod, op)) for i, op in enumerate(batch)]
        keyed.sort(key=lambda k: k[:2])
        return [item for _, _, item in keyed]

    def run_op(self, op, t):
        return op[0].run_op(op[1], t)

    def check(self, op, out):
        return op[0].check(op[1], out)

    def digest(self, op, out):
        return op[0].digest(op[1], out)

    def op_counts(self, op, out) -> dict:
        return op[0].op_counts(op[1], out)

    def check_batch(self, ops, counts) -> dict:
        """Failures by index into ``ops``, from each module's own batch check."""
        failures = {}
        for mod in self.modules:
            if hasattr(mod, "check_batch"):
                idx = [i for i, (m, _) in enumerate(ops) if m is mod]
                found = mod.check_batch([ops[i][1] for i in idx], [counts[i] for i in idx])
                failures.update({idx[k]: message for k, message in found.items()})
        return failures


# -- the round loop ------------------------------------------------------------------


@dataclass
class OpRecord:
    latencies: list = field(default_factory=list)  # seconds, one per untraced round
    error: str | None = None  # first unexpected exception or failed output check
    known_defect: str | None = None  # expected failure the benchmark counts, not hides
    digest: object = None  # round-0 digest that later rounds must reproduce


@dataclass
class RunResult:
    records: list
    rounds_untraced: list  # wall seconds of each untraced round
    rounds_traced: list
    tracer: Tracer | None
    attempted: int  # operation executions, all rounds
    failed: int  # executions that raised or failed a check
    op_counts: list  # per operation, the workload's counts from its round-0 output

    def op_latencies(self) -> list[float]:
        """Per-operation latency: the fastest of its untraced rounds.

        Other tenants of a shared machine slow whole stretches of a run by
        up to a half; they never speed an operation up, so the minimum over
        rounds spread across the run is the steady estimate of its cost.
        """
        return [min(r.latencies) for r in self.records if r.latencies]

    def failed_ops(self) -> int:
        """Operations of the batch that failed, known defects included."""
        return sum(1 for r in self.records if r.error is not None or r.known_defect is not None)


def run_rounds(workload, ops, seconds: float, trace: bool, min_rounds: int = 3) -> RunResult:
    """Closed loop, one client: each operation starts when the previous ended.

    Rounds repeat the fixed batch ``ops`` until the next round would end
    past ``seconds``, with at least ``min_rounds`` untraced rounds.  Round
    0 is checked against the workload's references outside the timed
    region; later rounds must reproduce round 0's digest.  With ``trace``
    rounds alternate untraced/traced; only untraced rounds give latencies.
    """
    records = [OpRecord() for _ in ops]
    counts = [{} for _ in ops]
    null = NullTracer()
    tracer = Tracer() if trace else None
    walls = ([], [])  # untraced, traced
    attempted = failed = 0
    rnd = 0
    while True:
        traced_round = trace and rnd % 2 == 1
        t = tracer if traced_round else null
        if traced_round:
            tracer.round = rnd
        wall = 0.0
        for i, op in enumerate(ops):
            rec = records[i]
            attempted += 1
            if traced_round:
                tracer.op = i
            start = time.perf_counter()
            try:
                out = t.call("op", workload.run_op, op, t)
            except Exception as exc:  # noqa: BLE001 - a failed operation is data, not a crash
                wall += time.perf_counter() - start
                failed += 1
                rec.error = rec.error or f"{type(exc).__name__}: {exc}"
                continue
            elapsed = time.perf_counter() - start
            wall += elapsed
            if not traced_round:
                rec.latencies.append(elapsed)
            if rnd == 0:
                ok = _check_first(workload, op, out, rec)
                if ok:
                    counts[i] = workload.op_counts(op, out)
            else:
                ok = rec.digest is not None and workload.digest(op, out) == rec.digest
                if not ok:
                    rec.error = rec.error or f"round {rnd} output differs from round 0"
            failed += not ok
        walls[traced_round].append(wall)
        rnd += 1
        done = len(walls[0]) >= min_rounds and (not trace or len(walls[1]) >= min_rounds - 1)
        if done and sum(walls[0]) + sum(walls[1]) + max(walls[0] + walls[1]) > seconds:
            break
    return RunResult(records, walls[0], walls[1], tracer, attempted, failed, counts)


def _check_first(workload, op, out, rec: OpRecord) -> bool:
    try:
        rec.known_defect = workload.check(op, out)
        rec.digest = workload.digest(op, out)
    except Exception as exc:  # noqa: BLE001 - report every failed check by name
        rec.error = f"check failed: {type(exc).__name__}: {exc}"
        return False
    return True


def batch_metrics(result: RunResult) -> dict:
    """End-to-end numbers over the fixed batch."""
    lat = result.op_latencies()
    tail_v, tail_pct, n = tail(lat)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_v,
        "tail_percentile": tail_pct,
        "tail_samples": n,
    }


def layer_stats(spans, n_rounds: int) -> dict:
    """Per span name: calls, busy and self seconds per round, p50, failures per round."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, own))
    out = {}
    for name, items in by_name.items():
        durs = [s.end - s.start for s, _ in items]
        out[name] = {
            "calls": len(items) / n_rounds,
            "busy_s": sum(durs) / n_rounds,
            "self_s": sum(own for _, own in items) / n_rounds,
            "p50_us": 1e6 * statistics.median(durs),
            "failed": sum(1 for s, _ in items if s.failed) / n_rounds,
        }
    return out
