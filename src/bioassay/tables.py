"""Summary tables over classification schemes and polyptych consistency.

A summary table maps tuples of category codes to values of one summary
variable.  Several tables on the same variable and population form a
polyptych; it is consistent when a universal table over the union of
their schemes has every table as a marginal, i.e. when the linear system
{U >= 0, U = 0 on structural zeros, marginals match} is feasible.

Two paths decide it.  When there are no structural zeros and the table
schemes form an acyclic (decomposable) hypergraph, found by GYO
reduction, tables that agree on the marginals of their join-tree
separators are globally consistent (Vorob'ev 1962): the join-tree
product prod n_C / prod n_S is a witness, and the sharp upper bound of a
universal cell is the smallest table cell containing it (Dobra &
Fienberg 2000).  Everything else (cyclic schemes, structural zeros) is the
linear system A x = b, x >= 0 over the universal cells.  Up to
``MAX_NNLS_ENTRIES`` dense entries, Lawson-Hanson non-negative least
squares (Lawson & Hanson 1974, ch. 23; ``scipy.optimize.nnls``) decides
it: a zero residual leaves a witness, and a nonzero one is a Farkas
certificate.  Larger systems, and the LP that classifies a cell, go to
HiGHS (``scipy.optimize.milp``).  An optional exact mode decides integer
feasibility for integer-typed variables: by a northwest-corner fill along
the join tree, or off it by the same system with integer cells, one HiGHS
mixed-integer program.  Integer feasibility of cyclic schemes is
NP-complete (Irving & Jerrum 1994), so every HiGHS call stops after
``MAX_HIGHS_SECONDS``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .exceptions import DomainError, NotConvergedError

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
MAX_HIGHS_SECONDS = 10.0  # wall-clock limit of one HiGHS call (time guard)
# dense entries of A x = b up to which NNLS decides feasibility faster than a
# HiGHS phase-1 LP: three-way r <= 6 (23 328 entries) below, r = 7 (50 421) break-even
MAX_NNLS_ENTRIES = 1 << 15
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
        object.__setattr__(self, "_index", {code: i for i, code in enumerate(domain)})


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
        except OverflowError:  # an int beyond the float range
            raise DomainError(f"variable '{self.name}': values must be finite") from None
        if not np.isfinite(v):
            raise DomainError(f"variable '{self.name}': values must be finite")
        if self.type in ("integer", "nonneg-integer") and v != int(v):
            raise DomainError(f"variable '{self.name}': value {v} is not an integer")
        if self.type in ("nonneg-real", "nonneg-integer") and v < 0:
            raise DomainError(f"variable '{self.name}': value {v} is negative")
        return v


def _as_coords(key) -> tuple:
    if type(key) is tuple:
        return key
    return tuple(key) if isinstance(key, (tuple, list)) else (key,)


def _checked_cells(cells: dict, scheme, variable: SummaryVariable) -> dict | None:
    """Validate all cells at once, with set operations and C-level maps.

    Returns the checked ``{coords: float}`` dict, or None when some cell
    fails a check (the caller then walks the cells to name the first).
    """
    keys = list(cells)
    if set(map(type, keys)) - {tuple}:
        keys = list(map(_as_coords, keys))
    try:
        values = list(map(float, cells.values()))
        if not set(map(len, keys)) <= {len(scheme)}:
            return None
        if not all(attr._index.keys() >= set(codes) for codes, attr in zip(zip(*keys), scheme)):
            return None
    except (TypeError, ValueError, OverflowError):
        return None
    if not all(map(math.isfinite, values)):
        return None
    if variable.type in ("integer", "nonneg-integer") and not all(map(float.is_integer, values)):
        return None
    if variable.type in ("nonneg-real", "nonneg-integer") and values and min(values) < 0:
        return None
    return dict(zip(keys, values))


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
        checked = _checked_cells(self.cells, scheme, self.variable)
        if checked is None:
            # some cell is invalid: the per-cell walk raises on the first one
            checked = {}
            for coords, value in self.cells.items():
                coords = _as_coords(coords)
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
        flat = np.zeros(len(self.cells), dtype=np.intp)  # C-order cell index, built axis by axis
        for attr, codes in zip(self.scheme, zip(*self.cells)):
            flat = flat * len(attr.domain) + list(map(attr._index.__getitem__, codes))
        out = np.zeros(math.prod(shape))
        out[flat] = list(self.cells.values())
        return out.reshape(shape)


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
    return _grand_totals(tables)[2]


def _grand_totals(tables) -> tuple[list[float], float, bool]:
    """The tables' grand totals, their scale max(1, |total|), and whether
    every total lies within ``_EQ_TOL * scale`` of the first."""
    totals = [t.grand_total() for t in tables]
    scale = max(1.0, max(abs(t) for t in totals))
    if not math.isfinite(scale):
        raise DomainError("a grand total overflows the float range")
    return totals, scale, all(abs(t - totals[0]) <= _EQ_TOL * scale for t in totals[1:])


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


# -- consistency core -----------------------------------------------------------------


def _totals_certificate(p: Polyptych) -> tuple[str | None, float]:
    """Size guard and grand-total check: (certificate or None, total scale)."""
    if p.universal_size() > _MAX_UNIVERSAL_CELLS:
        raise DomainError(
            f"universal scheme too large: {p.universal_size()} cells exceed {_MAX_UNIVERSAL_CELLS}"
        )
    totals, scale, agree = _grand_totals(p.tables)
    if not agree:
        pretty = ", ".join(f"{t:g}" for t in totals)
        return f"grand totals differ ({pretty}): additivity over the shared population fails", scale
    return None, scale


def _join_tree(p: Polyptych) -> list[tuple[int, int, frozenset]] | None:
    """GYO reduction of the table schemes, in its ear-removal form.

    A table is an ear when one other remaining table (its parent) holds
    every attribute it shares with the rest; the separator is that shared
    set of universal axes.  Returns the (child, parent, separator) edges in
    removal order, the last table left being the root, or None when the
    schemes are cyclic or the polyptych has structural zeros.
    """
    if p.structural_zeros:
        return None
    names = [a.name for a in p.universal_scheme]
    schemes = [frozenset(names.index(n) for n in t.attribute_names) for t in p.tables]
    left = list(range(len(schemes)))
    edges = []
    while len(left) > 1:
        for e in left:
            others = [f for f in left if f != e]
            shared = schemes[e] & frozenset().union(*(schemes[f] for f in others))
            parent = next((f for f in others if shared <= schemes[f]), None)
            if parent is not None:
                edges.append((e, parent, shared))
                left.remove(e)
                break
        else:
            return None
    return edges


def _dense_tables(p: Polyptych) -> list[tuple[frozenset, np.ndarray]]:
    """Each table as (its universal axes, array over every universal axis).

    Axes follow the universal order; an attribute the table lacks is a
    length-1 axis, so tables broadcast against each other.
    """
    names = [a.name for a in p.universal_scheme]
    out = []
    for t in p.tables:
        pos = [names.index(n) for n in t.attribute_names]
        shape = [1] * len(names)
        for i, attr in zip(pos, t.scheme):
            shape[i] = len(attr.domain)
        order = sorted(range(len(pos)), key=pos.__getitem__)
        out.append((frozenset(pos), t.to_array().transpose(order).reshape(shape)))
    return out


def _margin(axes: frozenset, arr: np.ndarray, keep: frozenset) -> np.ndarray:
    """Sum a dense table onto the universal axes ``keep`` (others become length 1)."""
    return arr.sum(axis=tuple(sorted(axes - keep)), keepdims=True)


def _codes(scheme, index) -> tuple:
    return tuple(a.domain[i] for a, i in zip(scheme, index))


def _tree_certificate(p: Polyptych, dense, edges, tol: float) -> str | None:
    """Why no nonnegative universal table fits a decomposable polyptych, or None.

    A negative cell rules out every nonnegative table; otherwise tables
    that agree on each join-tree separator marginal, within ``tol``, are
    consistent.
    """
    for k, t in enumerate(p.tables):
        if t.cells and min(t.cells.values()) < -tol:
            coords = min(t.cells, key=t.cells.get)
            return (
                f"table {k + 1} cell {coords} is negative ({t.cells[coords]:g}): "
                "no nonnegative table has it as a marginal"
            )
    universal = p.universal_scheme
    for child, parent, sep in edges:
        mine, theirs = _margin(*dense[child], sep), _margin(*dense[parent], sep)
        bad = np.flatnonzero(np.abs(mine - theirs) > tol)
        if bad.size:
            axes = sorted(sep)
            index = np.unravel_index(bad[0], mine.shape)
            over = ", ".join(universal[i].name for i in axes)
            at = _codes([universal[i] for i in axes], [index[i] for i in axes])
            return (
                f"tables {child + 1} and {parent + 1} disagree on their marginal over ({over}) "
                f"at {at}: {mine.flat[bad[0]]:g} vs {theirs.flat[bad[0]]:g}"
            )
    return None


def _product_fill(dense, edges) -> np.ndarray:
    """The join-tree product prod n_C / prod n_S over the universal cells, with 0/0 = 0.

    Each separator marginal is taken from the parent table, so the product
    reproduces every table's marginal.
    """
    arrays = [np.maximum(arr, 0.0) for _axes, arr in dense]
    num = reduce(np.multiply, arrays)
    separators = (_margin(dense[parent][0], arrays[parent], sep) for _c, parent, sep in edges)
    den = reduce(np.multiply, separators, np.ones(()))
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


def _northwest_fill(dense, edges) -> np.ndarray:
    """An integer universal table with the given marginals.

    Starting from the root table, each child is joined on in the reverse
    of GYO removal order: within every slice of its separator, the
    northwest-corner rule fills the current table's cells (rows) against
    the child's new cells (columns).  Cell (i, j) takes the overlap of the
    cumulative intervals [A_{i-1}, A_i) and [B_{j-1}, B_j), which is exact
    in integers because the slice totals agree.
    """
    shape = np.broadcast_shapes(*(arr.shape for _axes, arr in dense))
    root = (set(range(len(dense))) - {child for child, _p, _s in edges}).pop()
    axes = sorted(dense[root][0])
    fill = dense[root][1].reshape([shape[i] for i in axes])
    for child, _parent, sep in reversed(edges):
        child_axes = sorted(dense[child][0])
        s = sorted(sep)
        rows = [i for i in axes if i not in sep]
        cols = [i for i in child_axes if i not in sep]
        n_s, n_rows, n_cols = (math.prod(shape[i] for i in group) for group in (s, rows, cols))
        a = fill.transpose([axes.index(i) for i in s + rows]).reshape(n_s, n_rows)
        b = (
            dense[child][1]
            .reshape([shape[i] for i in child_axes])
            .transpose([child_axes.index(i) for i in s + cols])
            .reshape(n_s, n_cols)
        )
        hi_a, hi_b = a.cumsum(axis=1), b.cumsum(axis=1)
        overlap = np.minimum(hi_a[:, :, None], hi_b[:, None, :]) - np.maximum(
            (hi_a - a)[:, :, None], (hi_b - b)[:, None, :]
        )
        axes = s + rows + cols
        fill = np.maximum(overlap, 0.0).reshape([shape[i] for i in axes])
    return fill.transpose(np.argsort(axes)).reshape(shape)


def _real_variable(v: SummaryVariable) -> SummaryVariable:
    # a real-valued witness certifies LP feasibility only
    relaxed = {"integer": "real", "nonneg-integer": "nonneg-real"}
    return SummaryVariable(v.name, relaxed[v.type]) if v.type in relaxed else v


def _witness(p: Polyptych, variable: SummaryVariable, flat: np.ndarray) -> SummaryTable:
    """The universal table holding the positive entries of a C-ordered universal array."""
    flat = flat.ravel()
    positive = flat > 0.0
    coords = itertools.compress(itertools.product(*(a.domain for a in p.universal_scheme)), positive)
    return SummaryTable(
        scheme=p.universal_scheme, variable=variable, cells=dict(zip(coords, flat[positive].tolist()))
    )


def _constraint_system(p: Polyptych):
    """Sparse equality system A x = b over the non-structural universal cells.

    Table t owns one row per cell of its scheme, in C order, and tables
    follow each other; column j is universal cell ``cols[j]`` (a flat C
    index) and holds a 1 in the row of each table cell that contains it.
    A is built as a CSC array straight from those row indices, so its size
    is one entry per table and cell.  Returns (A, b, cols).
    """
    from scipy.sparse import csc_array  # deferred, as in _linprog

    universal = p.universal_scheme
    names = [a.name for a in universal]
    shape = tuple(len(a.domain) for a in universal)
    size = p.universal_size()
    keep = np.ones(size, dtype=bool)
    if p.structural_zeros:
        zeros = np.array([[a._index[c] for a, c in zip(universal, z)] for z in p.structural_zeros])
        keep[np.ravel_multi_index(tuple(zeros.T), shape)] = False
    cols = np.flatnonzero(keep)
    index = np.indices(shape).reshape(len(shape), size)[:, cols]
    b = np.concatenate([t.to_array().ravel() for t in p.tables])
    rows = np.empty((cols.size, len(p.tables)), dtype=np.intp)  # column j's row in each table
    offset = 0
    for k, t in enumerate(p.tables):
        pos = [names.index(n) for n in t.attribute_names]
        t_shape = tuple(shape[i] for i in pos)
        rows[:, k] = offset + np.ravel_multi_index(tuple(index[pos]), t_shape)
        offset += math.prod(t_shape)
    indptr = np.arange(0, rows.size + 1, len(p.tables))
    A = csc_array((np.ones(rows.size), rows.ravel(), indptr), shape=(b.size, cols.size))
    return A, b, cols


def _row_label(p: Polyptych, row: int) -> str:
    """Name row ``row`` of the constraint system by its table and cell."""
    for k, t in enumerate(p.tables):
        shape = tuple(len(a.domain) for a in t.scheme)
        size = math.prod(shape)
        if row < size:
            return f"table {k + 1} cell {_codes(t.scheme, np.unravel_index(row, shape))}"
        row -= size


def _linprog(c, A, b, integrality=None):
    """min c.x subject to A x = b, x >= 0, by HiGHS; raises unless solved or infeasible.

    Calls :func:`scipy.optimize.milp`, an LP solve behind a thinner
    wrapper than ``linprog``'s; ``integrality=1`` makes every x integer.
    It serves the phase-1 LP of systems above ``MAX_NNLS_ENTRIES``, the
    cell-classification LP and the integer program.  The solve stops
    after ``MAX_HIGHS_SECONDS``.
    """
    # deferred: importing scipy.optimize costs ~0.3 s
    from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp

    if not c.size:  # no cells (every one a structural zero): milp takes no empty problem
        return OptimizeResult(x=c, fun=0.0, status=2 if b.any() else 0)
    res = milp(
        c,
        integrality=integrality,
        constraints=LinearConstraint(A, b, b),
        bounds=Bounds(0.0, np.inf),
        options={"time_limit": MAX_HIGHS_SECONDS},
    )
    if res.status not in (0, 2):
        kind = "linear" if integrality is None else "integer"
        raise NotConvergedError(f"HiGHS did not decide the {kind} program: {res.message}")
    return res


def _phase1(A, b):
    """Phase-1 LP: min sum(a) subject to [A | I] (x, a) = |b|, (x, a) >= 0.

    Returns x and the artificials a, which are |b - A x| row by row.
    """
    from scipy.sparse import csc_array  # deferred, as in _linprog

    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    # the columns of A, each row times the sign of its b, then one 1 per artificial
    data = np.r_[A.data * sign[A.indices], np.ones(m)]
    indptr = np.r_[A.indptr, A.indptr[-1] + np.arange(1, m + 1)]
    phase1 = csc_array((data, np.r_[A.indices, np.arange(m)], indptr), shape=(m, n + m))
    res = _linprog(np.r_[np.zeros(n), np.ones(m)], phase1, b * sign)
    return res.x[:n], res.x[n:]


def _nonnegative_solution(p: Polyptych, A, b):
    """Decide whether A x = b has a solution x >= 0.

    A system with at most ``MAX_NNLS_ENTRIES`` dense entries goes first to
    Lawson-Hanson non-negative least squares (``scipy.optimize.nnls``),
    which minimizes ||b - A x|| over x >= 0 by an active-set method.
    Entries of x within ``_EQ_TOL`` times the scale of b of 0 are rounding
    dust and set to 0; when every residual row is then within that
    tolerance, x is a solution.  Otherwise y = b - A x is a Farkas
    certificate: at the optimum A^T y <= 0 and b^T y = ||y||^2 > 0, so no
    x >= 0 has A x = b.  The certificate is checked, not assumed: every
    such x would have b^T y = x^T A^T y <= sum(x) max(A^T y), and
    sum(x) = sum(b) / (number of tables) <= sum|b| / (number of tables),
    since each column holds one 1 per table.  NNLS stopping at
    its limit of 3n iterations raises :class:`NotConvergedError`.  A larger
    system, or one whose NNLS answer fails the check (nnls can stop at a
    singular active set), goes to the HiGHS phase-1 LP, whose artificials
    are |b - A x|.

    Returns (x, None), or (None, certificate) naming the rows whose
    residual stays above the tolerance.
    """
    m, n = A.shape
    tol = _EQ_TOL * max(1.0, float(np.abs(b).max()))
    if m * n <= MAX_NNLS_ENTRIES:
        dense, x = A.toarray(), np.zeros(n)
        if n:  # nnls takes no empty system (every cell a structural zero)
            from scipy.optimize import nnls  # deferred, as in _linprog

            try:
                x = nnls(dense, b)[0]
            except RuntimeError as exc:  # its iteration limit
                raise NotConvergedError(f"NNLS did not decide the linear system: {exc}") from None
            x[x <= tol] = 0.0  # rounding dust on cells the solve keeps in its active set
        y = b - dense @ x
        residual = np.abs(y)
        if residual.max() <= tol:
            return x, None
        if b @ y > np.abs(b).sum() / len(p.tables) * (dense.T @ y).max(initial=0.0):
            return None, _unsatisfied(p, residual, tol)
    x, residual = _phase1(A, b)
    if residual.sum() <= tol * m:
        return x, None
    return None, _unsatisfied(p, residual, tol)


def _unsatisfied(p: Polyptych, residual, tol: float) -> str:
    """The certificate of an infeasible system: the rows whose residual exceeds ``tol``."""
    bad = "; ".join(_row_label(p, i) for i in np.flatnonzero(residual > tol))
    return f"no nonnegative universal table satisfies: {bad}"


def check_consistency(p: Polyptych, integer_exact: bool = False) -> ConsistencyVerdict:
    """Decide whether a universal table exists with the given marginals.

    Real-valued feasibility is the primary semantics: closed form on
    decomposable polyptychs, otherwise NNLS up to ``MAX_NNLS_ENTRIES`` dense
    entries and a HiGHS phase-1 LP above.  With ``integer_exact``
    (integer-typed variables only) integer feasibility is decided instead:
    by a northwest-corner fill on decomposable polyptychs, otherwise by one
    HiGHS mixed-integer program once a real table is found.  NNLS at its
    iteration limit, or a HiGHS call that runs out of ``MAX_HIGHS_SECONDS``,
    raises :class:`NotConvergedError`.
    """
    bad, scale = _totals_certificate(p)
    if bad is not None:
        return ConsistencyVerdict(consistent=False, certificate=bad)
    if integer_exact and p.variable.type not in ("integer", "nonneg-integer"):
        raise DomainError("integer_exact applies to integer-typed variables only")
    edges = _join_tree(p)
    if edges is None:
        A, b, cols = _constraint_system(p)
        x, bad = _nonnegative_solution(p, A, b)
        if bad is not None:
            return ConsistencyVerdict(consistent=False, certificate=bad)
        variable = _real_variable(p.variable)
        if integer_exact:
            res = _linprog(np.zeros(cols.size), A, b, integrality=1)
            if res.status == 2:
                return ConsistencyVerdict(
                    consistent=False,
                    certificate="a real universal table exists but no nonnegative integer one",
                )
            x, variable = np.rint(res.x), p.variable
            if not np.array_equal(A @ x, b):
                raise NotConvergedError("HiGHS returned an integer table that misses the marginals")
        flat = np.zeros(p.universal_size())
        flat[cols] = x
        return ConsistencyVerdict(consistent=True, witness=_witness(p, variable, flat))
    dense = _dense_tables(p)
    bad = _tree_certificate(p, dense, edges, 0.0 if integer_exact else _EQ_TOL * scale)
    if bad is not None:
        return ConsistencyVerdict(consistent=False, certificate=bad)
    if integer_exact:
        witness = _witness(p, p.variable, _northwest_fill(dense, edges))
    else:
        witness = _witness(p, _real_variable(p.variable), _product_fill(dense, edges))
    return ConsistencyVerdict(consistent=True, witness=witness)


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

    Accidental means every consistent universal table carries 0 there: the
    largest value the cell takes subject to the marginal constraints is 0.
    On a decomposable polyptych that largest value is the smallest table
    cell containing it; otherwise one HiGHS LP maximizes the cell, and an
    infeasible LP is explained by the certificate of
    :func:`check_consistency` (NNLS or the phase-1 LP, by size).
    """
    coords = tuple(coords)
    universal = p.universal_scheme
    if len(coords) != len(universal):
        raise DomainError(f"coordinates {coords} do not match the universal scheme")
    for code, attr in zip(coords, universal):
        if code not in attr.domain:
            raise DomainError(f"code {code!r} not in domain of '{attr.name}'")
    index = tuple(attr._index[code] for code, attr in zip(coords, universal))
    bad, scale = _totals_certificate(p)
    edges = _join_tree(p)
    if bad is None and edges is not None:
        dense = _dense_tables(p)
        bad = _tree_certificate(p, dense, edges, _EQ_TOL * scale)
    if bad is not None:
        raise DomainError(f"polyptych is inconsistent: {bad}")
    if edges is not None:
        # a table indexes only its own axes; an absent attribute is a length-1 axis
        containing = [arr[tuple(i if n > 1 else 0 for i, n in zip(index, arr.shape))] for _a, arr in dense]
        largest = float(min(containing))
        cell_scale = max(1.0, max(float(np.abs(arr).max()) for _a, arr in dense))
    else:
        A, b, cols = _constraint_system(p)
        structural = coords in p.structural_zeros
        c = np.zeros(cols.size)
        if not structural:
            shape = tuple(len(a.domain) for a in universal)
            c[np.searchsorted(cols, np.ravel_multi_index(index, shape))] = -1.0  # maximize the cell
        res = _linprog(c, A, b)
        if res.status == 2:
            _x, bad = _nonnegative_solution(p, A, b)
            raise DomainError(f"polyptych is inconsistent: {bad or 'HiGHS finds the marginals infeasible'}")
        if structural:
            return "structural"
        largest = -res.fun
        cell_scale = max(1.0, float(np.abs(b).max()))
    return "accidental" if largest <= _EQ_TOL * cell_scale else "occupied"


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
