"""Summary tables over classification schemes and polyptych consistency.

A summary table maps tuples of category codes to values of one summary
variable.  Several tables on the same variable and population form a
polyptych; it is consistent when a universal table over the union of
their schemes has every table as a marginal.  Consistency is decided as
feasibility of the linear system {U >= 0, U = 0 on structural zeros,
marginals match} via :mod:`bioassay.simplex`; an optional exact mode
enumerates integer witnesses for integer-typed variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .simplex import solve_lp

__all__ = [
    "VARIABLE_TYPES",
    "CategoryAttribute",
    "SummaryVariable",
    "SummaryTable",
    "Polyptych",
    "ConsistencyVerdict",
    "marginal",
    "is_homogeneous",
    "check_consistency",
    "chi_square_independence",
    "classify_empty",
    "polyptych_from_json",
    "verdict_to_json",
]

VARIABLE_TYPES = ("real", "integer", "nonneg-real", "nonneg-integer")
_MAX_DOMAIN = 10_000
_MAX_UNIVERSAL_CELLS = 1_000_000
_MAX_ENUM_CELLS = 10_000
_EQ_TOL = 1e-9


@dataclass(frozen=True)
class CategoryAttribute:
    """A named classification axis with a finite ordered code domain."""

    name: str
    domain: tuple

    def __post_init__(self):
        domain = tuple(self.domain)
        if not domain:
            raise DomainError(f"attribute '{self.name}' has an empty domain")
        if len(set(domain)) != len(domain):
            raise DomainError(f"attribute '{self.name}' has duplicate codes")
        if len(domain) > _MAX_DOMAIN:
            raise DomainError(f"attribute '{self.name}' exceeds the domain cap {_MAX_DOMAIN}")
        object.__setattr__(self, "domain", domain)


@dataclass(frozen=True)
class SummaryVariable:
    name: str
    type: str

    def __post_init__(self):
        if self.type not in VARIABLE_TYPES:
            raise DomainError(f"unknown variable type {self.type!r}; pick one of {VARIABLE_TYPES}")

    def check_value(self, v) -> float:
        try:
            v = float(v)
        except (TypeError, ValueError):
            raise DomainError(f"variable '{self.name}': value {v!r} is not a number") from None
        if not np.isfinite(v):
            raise DomainError(f"variable '{self.name}': values must be finite")
        if self.type in ("integer", "nonneg-integer") and v != int(v):
            raise DomainError(f"variable '{self.name}': value {v} is not an integer")
        if self.type in ("nonneg-real", "nonneg-integer") and v < 0:
            raise DomainError(f"variable '{self.name}': value {v} is negative")
        return v


@dataclass(frozen=True)
class SummaryTable:
    """Sparse cells over the Cartesian product of the scheme's domains.

    Missing coordinates read as 0.
    """

    scheme: tuple[CategoryAttribute, ...]
    variable: SummaryVariable
    cells: dict

    def __post_init__(self):
        scheme = tuple(self.scheme)
        names = [a.name for a in scheme]
        if len(set(names)) != len(names):
            raise DomainError(f"scheme repeats attribute names: {names}")
        checked = {}
        for coords, value in self.cells.items():
            coords = tuple(coords) if isinstance(coords, (tuple, list)) else (coords,)
            if len(coords) != len(scheme):
                raise DomainError(f"cell {coords} does not match the scheme arity {len(scheme)}")
            for code, attr in zip(coords, scheme):
                if code not in attr.domain:
                    raise DomainError(f"code {code!r} not in domain of attribute '{attr.name}'")
            checked[coords] = self.variable.check_value(value)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "cells", checked)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.scheme)

    def value(self, coords) -> float:
        return self.cells.get(tuple(coords), 0.0)

    def grand_total(self) -> float:
        return float(sum(self.cells.values()))

    def coordinates(self):
        """All coordinate tuples of the full scheme product."""
        return itertools.product(*(a.domain for a in self.scheme))

    def to_array(self) -> np.ndarray:
        shape = tuple(len(a.domain) for a in self.scheme)
        out = np.zeros(shape)
        index = [{code: i for i, code in enumerate(a.domain)} for a in self.scheme]
        for coords, v in self.cells.items():
            out[tuple(ix[c] for ix, c in zip(index, coords))] = v
        return out


def marginal(table: SummaryTable, keep) -> SummaryTable:
    """Sum the table onto a subset of its attributes (original order kept).

    ``keep`` lists attribute names (or attributes); the empty subset
    yields the single-cell grand-total table.
    """
    keep_names = [k.name if isinstance(k, CategoryAttribute) else k for k in keep]
    known = table.attribute_names
    for k in keep_names:
        if k not in known:
            raise DomainError(f"unknown attribute '{k}'; table has {known}")
    if len(set(keep_names)) != len(keep_names):
        raise DomainError(f"keep list repeats attributes: {keep_names}")
    positions = [i for i, a in enumerate(table.scheme) if a.name in keep_names]
    out_scheme = tuple(table.scheme[i] for i in positions)
    out_cells: dict = {}
    for coords, v in table.cells.items():
        key = tuple(coords[i] for i in positions)
        out_cells[key] = out_cells.get(key, 0.0) + v
    return SummaryTable(scheme=out_scheme, variable=table.variable, cells=out_cells)


def is_homogeneous(tables) -> bool:
    """True when all tables describe the same variable and carry equal totals."""
    tables = list(tables)
    if len(tables) < 2:
        raise DomainError("homogeneity compares at least two tables")
    v0 = tables[0].variable
    if any(t.variable != v0 for t in tables[1:]):
        return False
    totals = [t.grand_total() for t in tables]
    scale = max(1.0, max(abs(t) for t in totals))
    return all(abs(t - totals[0]) <= _EQ_TOL * scale for t in totals[1:])


@dataclass(frozen=True)
class Polyptych:
    """A collection of summary tables on one variable, plus known-impossible cells.

    The universal scheme is the union of the tables' attributes in order
    of first appearance; ``structural_zeros`` lists universal coordinate
    tuples that are impossible by semantics.
    """

    tables: tuple[SummaryTable, ...]
    structural_zeros: frozenset = frozenset()

    def __post_init__(self):
        tables = tuple(self.tables)
        if not tables:
            raise DomainError("a polyptych needs at least one table")
        v0 = tables[0].variable
        for t in tables[1:]:
            if t.variable != v0:
                raise DomainError(
                    f"tables mix summary variables: {t.variable} vs {v0} (inhomogeneous)"
                )
        seen: dict[str, CategoryAttribute] = {}
        order: list[CategoryAttribute] = []
        for t in tables:
            for attr in t.scheme:
                if attr.name in seen:
                    if seen[attr.name] != attr:
                        raise DomainError(
                            f"attribute '{attr.name}' redefined with a different domain"
                        )
                else:
                    seen[attr.name] = attr
                    order.append(attr)
        zeros = frozenset(tuple(z) for z in self.structural_zeros)
        universal = tuple(order)
        for z in zeros:
            if len(z) != len(universal):
                raise DomainError(f"structural zero {z} does not match the universal scheme")
            for code, attr in zip(z, universal):
                if code not in attr.domain:
                    raise DomainError(f"structural zero {z}: code {code!r} not in '{attr.name}'")
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "structural_zeros", zeros)
        object.__setattr__(self, "_universal", universal)

    @property
    def universal_scheme(self) -> tuple[CategoryAttribute, ...]:
        return self._universal

    @property
    def variable(self) -> SummaryVariable:
        return self.tables[0].variable

    def universal_size(self) -> int:
        size = 1
        for a in self._universal:
            size *= len(a.domain)
        return size


@dataclass(frozen=True)
class ConsistencyVerdict:
    consistent: bool
    witness: SummaryTable | None = None
    certificate: str | None = None


def _constraint_system(p: Polyptych):
    """Dense equality system over non-structural universal cells."""
    universal = p.universal_scheme
    cells = [c for c in itertools.product(*(a.domain for a in universal)) if c not in p.structural_zeros]
    col_of = {c: j for j, c in enumerate(cells)}
    names = [a.name for a in universal]
    rows = []
    rhs = []
    labels = []
    for t_idx, t in enumerate(p.tables):
        positions = [names.index(a.name) for a in t.scheme]
        row_of: dict[tuple, int] = {}
        for coords in t.coordinates():
            row = np.zeros(len(cells))
            rows.append(row)
            rhs.append(t.value(coords))
            labels.append(f"table {t_idx + 1} cell {coords}")
            row_of[coords] = len(rows) - 1
        for c, j in col_of.items():
            key = tuple(c[i] for i in positions)
            rows[row_of[key]][j] = 1.0
    return np.array(rows), np.array(rhs), cells, labels


def check_consistency(p: Polyptych, integer_exact: bool = False) -> ConsistencyVerdict:
    """Decide whether a universal table exists with the given marginals.

    Real-valued feasibility is the primary semantics.  With
    ``integer_exact`` (integer-typed variables only) an exhaustive
    search over integer tables decides integer feasibility instead.
    """
    if p.universal_size() > _MAX_UNIVERSAL_CELLS:
        raise DomainError(
            f"universal scheme too large: {p.universal_size()} cells exceed {_MAX_UNIVERSAL_CELLS}"
        )
    totals = [t.grand_total() for t in p.tables]
    scale = max(1.0, max(abs(t) for t in totals))
    if any(abs(t - totals[0]) > _EQ_TOL * scale for t in totals[1:]):
        pretty = ", ".join(f"{t:g}" for t in totals)
        return ConsistencyVerdict(
            consistent=False,
            certificate=f"grand totals differ ({pretty}): additivity over the shared population fails",
        )
    if integer_exact:
        if p.variable.type not in ("integer", "nonneg-integer"):
            raise DomainError("integer_exact applies to integer-typed variables only")
        return _check_integer(p)

    A, b, cells, labels = _constraint_system(p)
    res = solve_lp(A, b)
    if res.status == "infeasible":
        bad = "; ".join(labels[i] for i in res.unsatisfied_rows) or "marginal constraints"
        return ConsistencyVerdict(
            consistent=False,
            certificate=f"no nonnegative universal table satisfies: {bad}",
        )
    witness_cells = {c: float(v) for c, v in zip(cells, res.x) if v > 0.0}
    witness_var = p.variable
    if witness_var.type in ("integer", "nonneg-integer"):
        # a real-valued witness certifies LP feasibility only
        witness_var = SummaryVariable(witness_var.name, "nonneg-real" if witness_var.type == "nonneg-integer" else "real")
    witness = SummaryTable(scheme=p.universal_scheme, variable=witness_var, cells=witness_cells)
    return ConsistencyVerdict(consistent=True, witness=witness)


def _check_integer(p: Polyptych) -> ConsistencyVerdict:
    if p.universal_size() > _MAX_ENUM_CELLS:
        raise DomainError(
            f"integer enumeration capped at {_MAX_ENUM_CELLS} cells, got {p.universal_size()}"
        )
    universal = p.universal_scheme
    names = [a.name for a in universal]
    cells = [c for c in itertools.product(*(a.domain for a in universal)) if c not in p.structural_zeros]
    # constraints: (cells involved, target value)
    constraints: list[tuple[list[int], float]] = []
    per_cell: list[list[int]] = [[] for _ in cells]
    for t in p.tables:
        positions = [names.index(a.name) for a in t.scheme]
        groups: dict[tuple, list[int]] = {}
        for j, c in enumerate(cells):
            groups.setdefault(tuple(c[i] for i in positions), []).append(j)
        for coords in t.coordinates():
            members = groups.get(coords, [])
            target = t.value(coords)
            if target != int(target) or target < 0:
                return ConsistencyVerdict(
                    consistent=False,
                    certificate=f"marginal value {target} at {coords} admits no nonnegative integer table",
                )
            k = len(constraints)
            constraints.append((members, int(target)))
            for j in members:
                per_cell[j].append(k)

    remaining = [v for _, v in constraints]
    open_count = [len(members) for members, _ in constraints]
    values = [0] * len(cells)

    def assign(j: int) -> bool:
        if j == len(cells):
            return all(r == 0 for r in remaining)
        cap = min(remaining[k] for k in per_cell[j]) if per_cell[j] else 0
        # a constraint down to its last open cell pins this value exactly
        forced = None
        for k in per_cell[j]:
            if open_count[k] == 1:
                if forced is not None and forced != remaining[k]:
                    return False
                forced = remaining[k]
        if forced is not None:
            candidates = (forced,) if forced <= cap else ()
        else:
            candidates = range(cap, -1, -1)
        for v in candidates:
            ok = True
            for k in per_cell[j]:
                remaining[k] -= v
                open_count[k] -= 1
                if remaining[k] < 0 or (open_count[k] == 0 and remaining[k] != 0):
                    ok = False
            if ok:
                values[j] = v
                if assign(j + 1):
                    return True
            for k in per_cell[j]:
                remaining[k] += v
                open_count[k] += 1
        values[j] = 0
        return False

    if assign(0):
        witness = SummaryTable(
            scheme=universal,
            variable=p.variable,
            cells={c: v for c, v in zip(cells, values) if v != 0},
        )
        return ConsistencyVerdict(consistent=True, witness=witness)
    return ConsistencyVerdict(
        consistent=False,
        certificate="exhaustive search: no nonnegative integer table matches all marginals",
    )


def chi_square_independence(table: SummaryTable) -> tuple[float, int]:
    """Pearson chi-square for a two-attribute count table.

    Expected counts come from the row/column totals; zero marginals are
    rejected.  Returns (X2, degrees of freedom).
    """
    if len(table.scheme) != 2:
        raise DomainError(f"need exactly 2 attributes, got {len(table.scheme)}")
    if table.variable.type != "nonneg-integer":
        raise DomainError("independence test applies to nonnegative integer counts")
    counts = table.to_array()
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    if np.any(rows <= 0) or np.any(cols <= 0):
        raise DomainError("all row and column totals must be positive")
    expected = np.outer(rows, cols) / counts.sum()
    x2 = float(((counts - expected) ** 2 / expected).sum())
    df = (counts.shape[0] - 1) * (counts.shape[1] - 1)
    return x2, df


def classify_empty(p: Polyptych, coords) -> str:
    """'structural', 'accidental' (forced zero), or 'occupied' for one universal cell.

    Accidental means every consistent universal table carries 0 there,
    decided by maximizing the cell subject to the marginal constraints.
    """
    coords = tuple(coords)
    universal = p.universal_scheme
    if len(coords) != len(universal):
        raise DomainError(f"coordinates {coords} do not match the universal scheme")
    for code, attr in zip(coords, universal):
        if code not in attr.domain:
            raise DomainError(f"code {code!r} not in domain of '{attr.name}'")
    verdict = check_consistency(p)
    if not verdict.consistent:
        raise DomainError(f"polyptych is inconsistent: {verdict.certificate}")
    if coords in p.structural_zeros:
        return "structural"
    A, b, cells, _labels = _constraint_system(p)
    j = cells.index(coords)
    c = np.zeros(len(cells))
    c[j] = -1.0  # maximize the cell
    res = solve_lp(A, b, c)
    if res.status != "optimal":
        raise DomainError(f"cell maximization failed: {res.status}")
    max_value = -res.objective
    scale = max(1.0, float(np.abs(b).max()))
    return "accidental" if max_value <= _EQ_TOL * scale else "occupied"


# -- JSON wire format ---------------------------------------------------------

def polyptych_from_json(obj: dict) -> Polyptych:
    """Build a polyptych from the documented JSON layout.

    {"attributes": [{"name", "domain": [...]}],
     "variable": {"name", "type"},
     "tables": [{"scheme": [names], "cells": [{"coords": [...], "value": v}]}],
     "structural_zeros": [[codes]]}
    """
    try:
        attrs = {a["name"]: CategoryAttribute(a["name"], tuple(a["domain"])) for a in obj["attributes"]}
        variable = SummaryVariable(obj["variable"]["name"], obj["variable"]["type"])
        tables = []
        for t in obj["tables"]:
            scheme = tuple(attrs[name] for name in t["scheme"])
            cells = {tuple(cell["coords"]): cell["value"] for cell in t.get("cells", [])}
            tables.append(SummaryTable(scheme=scheme, variable=variable, cells=cells))
        zeros = frozenset(tuple(z) for z in obj.get("structural_zeros", []))
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed polyptych JSON: {exc}") from exc
    return Polyptych(tables=tuple(tables), structural_zeros=zeros)


def verdict_to_json(verdict: ConsistencyVerdict) -> dict:
    out: dict = {"consistent": verdict.consistent}
    if verdict.witness is not None:
        out["witness"] = {
            "scheme": list(verdict.witness.attribute_names),
            "cells": [
                {"coords": list(c), "value": v} for c, v in sorted(verdict.witness.cells.items(), key=lambda kv: str(kv[0]))
            ],
        }
    if verdict.certificate is not None:
        out["certificate"] = verdict.certificate
    return out
