"""polyptych: one consistency query per operation.

polyptych JSON -> ``polyptych_from_json`` -> ``check_consistency``, and on
every fourth query ``classify_empty`` on one cell (a phase-2 LP with a
cost row).  Two size classes with fixed table sizes, so that seeds differ
only in cell counts:

- small: two-margin r x r tables, r = 2..5 (the criterion-10 regime);
- large: two-margin r x r tables, r = 10..20, and three-way tables with
  all three two-way margins, r = 4..5.

Even-numbered queries are margins of a drawn integer table, so they are
consistent; odd-numbered ones are perturbed.  A perturbed two-margin query
has unequal grand totals; a perturbed three-way query moves mass around a
2 x 2 cycle of one margin, which keeps every one-way margin and may or may
not leave the polyptych consistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from bioassay.tables import check_consistency, classify_empty, polyptych_from_json

SMALL_SIZES, SMALL_REPS = (2, 3, 4, 5), 30
LARGE_SIZES, LARGE_REPS = tuple(range(10, 21)), 5
THREE_WAY_SIZES, THREE_WAY_REPS = (4, 5), 10
CLASSIFY_EVERY = 4
EQ_TOL = 1e-9  # the package's equality tolerance, for the classification oracle


@dataclass(frozen=True)
class Op:
    size_class: str  # "small" | "large"
    shape: str  # "two-margin" | "three-way"
    r: int
    obj: dict  # the polyptych JSON handed to the program
    cell: tuple | None  # universal cell to classify, or None


def _attrs(names, r):
    return [{"name": n, "domain": [f"{n}{i}" for i in range(r)]} for n in names]


def _table(scheme, arr, names_codes):
    cells = []
    for idx in itertools.product(*(range(s) for s in arr.shape)):
        v = int(arr[idx])
        if v:
            cells.append({"coords": [names_codes[n][i] for n, i in zip(scheme, idx)], "value": v})
    return {"scheme": list(scheme), "cells": cells}


def _two_margin(rng, r, consistent):
    counts = rng.poisson(4.0, (r, r))
    counts[rng.integers(r)] = 0  # one empty row: its cells are forced zeros
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    if not consistent:
        rows = rows.copy()
        rows[rng.integers(r)] += 1 + rng.integers(3)
    attrs = _attrs(("row", "col"), r)
    codes = {a["name"]: a["domain"] for a in attrs}
    tables = [_table(("row",), rows, codes), _table(("col",), cols, codes)]
    return {"attributes": attrs, "variable": {"name": "count", "type": "nonneg-integer"}, "tables": tables}, counts


def _three_way(rng, r, consistent):
    counts = rng.poisson(2.0, (r, r, r))
    ab, ac, bc = counts.sum(axis=2), counts.sum(axis=1), counts.sum(axis=0)
    if not consistent:
        # empty two cells of a 2x2 cycle of AB into the other two: every
        # one-way margin stays equal, the two-way margins may now disagree
        ab = ab.copy()
        while True:
            (i, i2), (j, j2) = rng.choice(r, 2, replace=False), rng.choice(r, 2, replace=False)
            delta = min(ab[i, j2], ab[i2, j])
            if delta > 0:
                break
        ab[i, j] += delta
        ab[i2, j2] += delta
        ab[i, j2] -= delta
        ab[i2, j] -= delta
    attrs = _attrs(("a", "b", "c"), r)
    codes = {a["name"]: a["domain"] for a in attrs}
    tables = [_table(("a", "b"), ab, codes), _table(("a", "c"), ac, codes), _table(("b", "c"), bc, codes)]
    return {"attributes": attrs, "variable": {"name": "count", "type": "nonneg-integer"}, "tables": tables}, counts


def generate(seed: int, workdir: str) -> list[Op]:
    plan = (
        [("small", "two-margin", r) for _ in range(SMALL_REPS) for r in SMALL_SIZES]
        + [("large", "two-margin", r) for _ in range(LARGE_REPS) for r in LARGE_SIZES]
        + [("large", "three-way", r) for _ in range(THREE_WAY_REPS) for r in THREE_WAY_SIZES]
    )
    ops = []
    for k, ((size_class, shape, r), rng) in enumerate(zip(plan, np.random.default_rng(seed).spawn(len(plan)))):
        consistent = k % 2 == 0
        build = _two_margin if shape == "two-margin" else _three_way
        obj, counts = build(rng, r, consistent)
        cell = None
        if k % CLASSIFY_EVERY == 0:
            idx = tuple(int(rng.integers(n)) for n in counts.shape)
            cell = tuple(a["domain"][i] for a, i in zip(obj["attributes"], idx))
        ops.append(Op(size_class, shape, r, obj, cell))
    return ops


def run_op(op: Op, t):
    p = t.call("tables.polyptych_from_json", polyptych_from_json, op.obj)
    verdict = t.call(f"tables.check_consistency.{op.size_class}", check_consistency, p)
    label = None
    if op.cell is not None:
        label = t.call("tables.classify_empty", classify_empty, p, op.cell)
    return verdict.consistent, label


def digest(op: Op, out):
    return out


# -- oracle: HiGHS on a system built here from the JSON --------------------------------


def _system(obj):
    attrs = [(a["name"], a["domain"]) for a in obj["attributes"]]
    cells = list(itertools.product(*(d for _, d in attrs)))
    names = [n for n, _ in attrs]
    rows, rhs = [], []
    for t in obj["tables"]:
        pos = [names.index(n) for n in t["scheme"]]
        value = {tuple(c["coords"]): c["value"] for c in t["cells"]}
        domains = [attrs[i][1] for i in pos]
        for key in itertools.product(*domains):
            rows.append([1.0 if tuple(c[i] for i in pos) == key else 0.0 for c in cells])
            rhs.append(float(value.get(key, 0)))
    return np.asarray(rows), np.asarray(rhs), cells


def check(op: Op, out):
    consistent, label = out
    A, b, cells = _system(op.obj)
    res = linprog(np.zeros(len(cells)), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise AssertionError(f"HiGHS could not decide: {res.message}")
    if consistent != (res.status == 0):
        raise AssertionError(f"{op.shape} r={op.r}: verdict {consistent}, HiGHS says {res.status == 0}")
    if op.shape == "two-margin":
        totals = [sum(c["value"] for c in t["cells"]) for t in op.obj["tables"]]
        if consistent != (totals[0] == totals[1]):
            raise AssertionError(f"two-margin r={op.r}: verdict {consistent} but totals {totals}")
    if op.cell is not None:
        if not consistent:
            raise AssertionError("classify_empty answered on an inconsistent polyptych")
        cost = np.zeros(len(cells))
        cost[cells.index(op.cell)] = -1.0
        res = linprog(cost, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if res.status != 0:
            raise AssertionError(f"HiGHS cell maximization failed: {res.message}")
        want = "accidental" if -res.fun <= EQ_TOL * max(1.0, float(np.abs(b).max())) else "occupied"
        if label != want:
            raise AssertionError(f"classify_empty {op.cell}: {label}, HiGHS maximum {-res.fun} says {want}")
    elif label is not None:
        raise AssertionError("unexpected classification")
    return None


def op_counts(op: Op, out) -> dict:
    return {"tables.consistent_share": float(out[0])}
