"""Summary tables: marginals, homogeneity, consistency, chi-square, emptiness."""

import itertools
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from bioassay import tables
from bioassay.exceptions import DomainError, NotConvergedError
from bioassay.tables import (
    CategoryAttribute,
    Polyptych,
    SummaryTable,
    SummaryVariable,
    check_consistency,
    chi_square_independence,
    classify_empty,
    is_homogeneous,
    marginal,
    polyptych_from_json,
    verdict_to_json,
)

from conftest import integer_table_exists

ROW = CategoryAttribute("row", ("r1", "r2"))
COL = CategoryAttribute("col", ("c1", "c2"))
COUNTS = SummaryVariable("count", "nonneg-integer")


def table_2x2(values, variable=COUNTS):
    cells = {}
    for i, r in enumerate(ROW.domain):
        for j, c in enumerate(COL.domain):
            cells[(r, c)] = values[i][j]
    return SummaryTable(scheme=(ROW, COL), variable=variable, cells=cells)


def row_table(values, attr=ROW, variable=COUNTS):
    return SummaryTable(
        scheme=(attr,), variable=variable, cells={(c,): v for c, v in zip(attr.domain, values)}
    )


# -- marginals -------------------------------------------------------------------

def test_marginal_full_scheme_is_identity():
    t = table_2x2([[1, 2], [3, 4]])
    m = marginal(t, ["row", "col"])
    assert m.cells == t.cells
    assert m.scheme == t.scheme


def test_marginal_empty_keep_is_grand_total():
    t = table_2x2([[1, 2], [3, 4]])
    m = marginal(t, [])
    assert m.scheme == ()
    assert m.cells == {(): 10.0}


def test_marginal_row_sums():
    t = table_2x2([[1, 2], [3, 4]])
    m = marginal(t, ["row"])
    assert m.value(("r1",)) == 3.0
    assert m.value(("r2",)) == 7.0
    assert m.grand_total() == t.grand_total()


def test_marginal_projection_closure():
    a = CategoryAttribute("a", (0, 1))
    b = CategoryAttribute("b", (0, 1, 2))
    c = CategoryAttribute("c", (0, 1))
    rng = np.random.default_rng(1)
    cells = {
        coords: int(rng.integers(0, 5))
        for coords in itertools.product(a.domain, b.domain, c.domain)
    }
    t = SummaryTable(scheme=(a, b, c), variable=COUNTS, cells=cells)
    via_ab = marginal(marginal(t, ["a", "b"]), ["b"])
    direct = marginal(t, ["b"])
    assert via_ab.cells == direct.cells


def test_marginal_unknown_attribute():
    t = table_2x2([[1, 2], [3, 4]])
    with pytest.raises(DomainError, match="unknown attribute"):
        marginal(t, ["nope"])


# -- homogeneity -------------------------------------------------------------------

def test_homogeneous_same_table_twice():
    t = table_2x2([[1, 2], [3, 4]])
    assert is_homogeneous([t, t])


def test_homogeneous_totals_must_match():
    assert not is_homogeneous([row_table([4, 6]), row_table([5, 6])])


def test_homogeneous_disjoint_schemes_equal_totals():
    other = CategoryAttribute("site", ("s1", "s2", "s3"))
    assert is_homogeneous([row_table([4, 6]), row_table([2, 3, 5], attr=other)])


def test_homogeneous_needs_two_tables():
    with pytest.raises(DomainError):
        is_homogeneous([row_table([1, 2])])


# -- consistency -------------------------------------------------------------------

def test_single_table_consistent_with_self_witness():
    t = table_2x2([[1, 2], [3, 4]])
    verdict = check_consistency(Polyptych(tables=(t,)))
    assert verdict.consistent
    for coords in t.coordinates():
        assert verdict.witness.value(coords) == pytest.approx(t.value(coords), abs=1e-9)


def test_overflowing_grand_total_is_a_domain_error():
    # each cell is finite, their sum is not: no tolerance can compare such totals
    huge = SummaryVariable("mass", "nonneg-real")
    tables = (row_table([1e308, 1e308], variable=huge), row_table([1e308, 1e308], attr=COL, variable=huge))
    with pytest.raises(DomainError, match="grand total overflows"):
        is_homogeneous(tables)
    with pytest.raises(DomainError, match="grand total overflows"):
        check_consistency(Polyptych(tables=tables))


def test_total_mismatch_certificate():
    p = Polyptych(tables=(row_table([2, 1]), row_table([3, 2], attr=COL)))
    verdict = check_consistency(p)
    assert not verdict.consistent
    assert "grand totals differ" in verdict.certificate


def test_diptych_3_1_2_2_consistent_and_verified_by_enumeration():
    p = Polyptych(tables=(row_table([3, 1]), row_table([2, 2], attr=COL)))
    verdict = check_consistency(p)
    assert verdict.consistent
    w = verdict.witness
    assert marginal(w, ["row"]).value(("r1",)) == pytest.approx(3.0, abs=1e-9)
    assert marginal(w, ["col"]).value(("c2",)) == pytest.approx(2.0, abs=1e-9)
    # brute-force integer oracle agrees
    assert integer_table_exists((3, 1), (2, 2))


def test_witness_marginal_soundness_random(rng):
    a = CategoryAttribute("a", (0, 1, 2))
    b = CategoryAttribute("b", (0, 1))
    c = CategoryAttribute("c", (0, 1))
    for _ in range(15):
        cells = {
            coords: int(rng.integers(0, 7))
            for coords in itertools.product(a.domain, b.domain, c.domain)
        }
        universal = SummaryTable(scheme=(a, b, c), variable=COUNTS, cells=cells)
        t1 = marginal(universal, ["a", "b"])
        t2 = marginal(universal, ["b", "c"])
        t3 = marginal(universal, ["a"])
        p = Polyptych(tables=(t1, t2, t3))
        verdict = check_consistency(p)
        assert verdict.consistent
        w = verdict.witness
        for t in (t1, t2, t3):
            back = marginal(w, list(t.attribute_names))
            for coords in t.coordinates():
                assert back.value(coords) == pytest.approx(t.value(coords), abs=1e-9)


def test_structural_zero_forces_infeasibility():
    p = Polyptych(
        tables=(row_table([1, 0]), row_table([0, 1], attr=COL)),
        structural_zeros=frozenset({("r1", "c2")}),
    )
    verdict = check_consistency(p)
    assert not verdict.consistent
    assert "table" in verdict.certificate


def test_integer_exact_agrees_with_lp_on_transportation(rng):
    for _ in range(25):
        rows = tuple(int(v) for v in rng.integers(0, 7, size=2))
        cols_free = rng.integers(0, 7, size=1)
        total = sum(rows)
        if total < cols_free[0]:
            continue
        cols = (int(cols_free[0]), total - int(cols_free[0]))
        p = Polyptych(tables=(row_table(rows), row_table(cols, attr=COL)))
        lp = check_consistency(p)
        exact = check_consistency(p, integer_exact=True)
        assert lp.consistent == exact.consistent == integer_table_exists(rows, cols)
        if exact.consistent:
            w = exact.witness
            assert all(v == int(v) for v in w.cells.values())


def test_integer_exact_type_guard():
    t = row_table([1.5, 2.5], variable=SummaryVariable("mass", "nonneg-real"))
    t2 = row_table([2.0, 2.0], attr=COL, variable=SummaryVariable("mass", "nonneg-real"))
    with pytest.raises(DomainError, match="integer-typed"):
        check_consistency(Polyptych(tables=(t, t2)), integer_exact=True)


def test_polyptych_rejects_mixed_variables():
    t1 = row_table([1, 2])
    t2 = row_table([1, 2], attr=COL, variable=SummaryVariable("other", "nonneg-integer"))
    with pytest.raises(DomainError, match="inhomogeneous"):
        Polyptych(tables=(t1, t2))


def test_polyptych_rejects_redefined_attribute():
    other_row = CategoryAttribute("row", ("r1", "r2", "r3"))
    with pytest.raises(DomainError, match="redefined"):
        Polyptych(tables=(row_table([1, 2]), row_table([1, 1, 1], attr=other_row)))


# -- chi-square ---------------------------------------------------------------------

def test_chi_square_uniform_table():
    x2, df = chi_square_independence(table_2x2([[5, 5], [5, 5]]))
    assert x2 == 0.0
    assert df == 1


def test_chi_square_diagonal_table():
    x2, df = chi_square_independence(table_2x2([[10, 0], [0, 10]]))
    assert x2 == pytest.approx(20.0, rel=1e-12)
    assert df == 1


def test_chi_square_2x3_df():
    three = CategoryAttribute("col3", ("a", "b", "c"))
    cells = {}
    for r, vals in zip(ROW.domain, [[1, 2, 3], [4, 5, 6]]):
        for c, v in zip(three.domain, vals):
            cells[(r, c)] = v
    t = SummaryTable(scheme=(ROW, three), variable=COUNTS, cells=cells)
    _, df = chi_square_independence(t)
    assert df == 2


def test_chi_square_zero_marginal_rejected():
    with pytest.raises(DomainError, match="positive"):
        chi_square_independence(table_2x2([[0, 0], [3, 4]]))


def test_chi_square_requires_counts():
    t = table_2x2([[1.0, 2.0], [3.0, 4.0]], variable=SummaryVariable("mass", "nonneg-real"))
    with pytest.raises(DomainError, match="integer"):
        chi_square_independence(t)


# -- emptiness classification ---------------------------------------------------------

def test_classify_structural():
    p = Polyptych(
        tables=(row_table([3, 1]), row_table([2, 2], attr=COL)),
        structural_zeros=frozenset({("r2", "c2")}),
    )
    assert classify_empty(p, ("r2", "c2")) == "structural"


def test_classify_accidental_forced_by_zero_marginal():
    p = Polyptych(tables=(row_table([0, 4]), row_table([2, 2], attr=COL)))
    assert classify_empty(p, ("r1", "c1")) == "accidental"
    assert classify_empty(p, ("r1", "c2")) == "accidental"
    assert classify_empty(p, ("r2", "c1")) == "occupied"


def test_classify_occupied_cell():
    p = Polyptych(tables=(row_table([3, 1]), row_table([2, 2], attr=COL)))
    assert classify_empty(p, ("r2", "c1")) == "occupied"


def test_classify_rejects_inconsistent():
    p = Polyptych(tables=(row_table([2, 1]), row_table([3, 2], attr=COL)))
    with pytest.raises(DomainError, match="inconsistent"):
        classify_empty(p, ("r1", "c1"))


# -- HiGHS as the oracle -----------------------------------------------------------------

def highs_system(p):
    """The marginal equality system, built cell by cell, independently of the package."""
    universal = p.universal_scheme
    names = [a.name for a in universal]
    cells = [c for c in itertools.product(*(a.domain for a in universal)) if c not in p.structural_zeros]
    rows, rhs = [], []
    for t in p.tables:
        pos = [names.index(a.name) for a in t.scheme]
        for key in t.coordinates():
            rows.append([1.0 if tuple(c[i] for i in pos) == key else 0.0 for c in cells])
            rhs.append(t.value(key))
    return np.array(rows), np.array(rhs), cells


def highs_consistent(p):
    A, b, cells = highs_system(p)
    res = linprog(np.zeros(len(cells)), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def highs_label(p, cell):
    if cell in p.structural_zeros:
        return "structural"
    A, b, cells = highs_system(p)
    cost = np.zeros(len(cells))
    cost[cells.index(cell)] = -1.0
    res = linprog(cost, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return "accidental" if -res.fun <= 1e-9 * max(1.0, float(np.abs(b).max())) else "occupied"


def margin_table(universal, counts, names, variable=COUNTS):
    """The marginal of a dense universal count array onto ``names`` (in that order)."""
    order = [a.name for a in universal]
    axes = [order.index(n) for n in names]
    summed = counts.sum(axis=tuple(i for i in range(len(order)) if i not in axes))
    arr = np.transpose(summed, np.argsort(np.argsort(axes)))  # summed keeps universal order
    scheme = tuple(universal[i] for i in axes)
    cells = {
        tuple(a.domain[i] for a, i in zip(scheme, idx)): arr[idx].item()
        for idx in itertools.product(*(range(len(a.domain)) for a in scheme))
        if arr[idx]
    }
    return SummaryTable(scheme=scheme, variable=variable, cells=cells)


ACYCLIC_SCHEMES = {
    "chain": (("a", "b"), ("b", "c"), ("c", "d")),
    "star": (("a", "b"), ("a", "c"), ("a", "d")),
    "disconnected": (("a", "b"), ("c",)),
    "nested": (("a", "b", "c"), ("b", "a")),
}


@st.composite
def acyclic_polyptychs(draw, kinds=tuple(sorted(ACYCLIC_SCHEMES)), perturb=True):
    """Margins of a random count table on an acyclic scheme, perhaps with one unit moved."""
    kind = draw(st.sampled_from(kinds))
    schemes = [s[::-1] if draw(st.booleans()) else s for s in ACYCLIC_SCHEMES[kind]]
    schemes = draw(st.permutations(schemes))
    names = sorted({n for s in schemes for n in s})
    universal = tuple(
        CategoryAttribute(n, tuple(f"{n}{i}" for i in range(draw(st.integers(1, 3))))) for n in names
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.poisson(rng.uniform(0.3, 3.0), [len(a.domain) for a in universal])
    if draw(st.booleans()):  # an empty row: its cells are forced zeros
        axis = int(rng.integers(len(universal)))
        np.moveaxis(counts, axis, 0)[int(rng.integers(counts.shape[axis]))] = 0
    tables = [margin_table(universal, counts, s) for s in schemes]
    if perturb and draw(st.booleans()):
        k = draw(st.integers(0, len(tables) - 1))
        t = tables[k]
        coords = list(t.coordinates())
        src, dst = draw(st.sampled_from(coords)), draw(st.sampled_from(coords))
        cells = dict(t.cells)
        if cells.get(src, 0) > 0:
            cells[src] -= 1  # move one unit: every grand total stays equal
        cells[dst] = cells.get(dst, 0) + 1
        tables[k] = SummaryTable(scheme=t.scheme, variable=t.variable, cells=cells)
    return Polyptych(tables=tuple(tables))


def assert_witness_marginals(p, w, exact=False, tol=1e-9):
    for t in p.tables:
        back = marginal(w, list(t.attribute_names))  # in the witness's attribute order
        order = [t.attribute_names.index(n) for n in back.attribute_names]
        for coords in t.coordinates():
            got = back.value(tuple(coords[i] for i in order))
            if exact:
                assert got == t.value(coords)
            else:
                assert got == pytest.approx(t.value(coords), abs=tol)


@settings(max_examples=40, deadline=None)
@given(acyclic_polyptychs())
def test_acyclic_verdict_and_labels_agree_with_highs(p):
    verdict = check_consistency(p)
    assert verdict.consistent == highs_consistent(p)
    if not verdict.consistent:
        assert "disagree" in verdict.certificate or "grand totals differ" in verdict.certificate
        with pytest.raises(DomainError, match="inconsistent"):
            classify_empty(p, next(itertools.product(*(a.domain for a in p.universal_scheme))))
        return
    assert all(v >= 0 for v in verdict.witness.cells.values())
    assert_witness_marginals(p, verdict.witness)
    for cell in itertools.product(*(a.domain for a in p.universal_scheme)):
        assert classify_empty(p, cell) == highs_label(p, cell), cell


@settings(max_examples=40, deadline=None)
@given(acyclic_polyptychs(kinds=("chain", "star")))
def test_northwest_fill_is_an_exact_integer_witness(p):
    verdict = check_consistency(p, integer_exact=True)
    assert verdict.consistent == highs_consistent(p)
    if verdict.consistent:
        w = verdict.witness
        assert w.variable == p.variable
        assert all(v >= 0 and v == int(v) for v in w.cells.values())
        assert_witness_marginals(p, w, exact=True)


@settings(max_examples=20, deadline=None)
@given(acyclic_polyptychs(perturb=False))
def test_to_array_matches_cell_walk(p):
    for t in p.tables:
        arr = t.to_array()
        for idx in itertools.product(*(range(len(a.domain)) for a in t.scheme)):
            assert arr[idx] == t.value(tuple(a.domain[i] for a, i in zip(t.scheme, idx)))


def three_way(counts, variable=COUNTS):
    attrs = tuple(
        CategoryAttribute(n, tuple(f"{n}{i}" for i in range(r))) for n, r in zip("abc", counts.shape)
    )
    return attrs, Polyptych(
        tables=tuple(margin_table(attrs, counts, pair, variable) for pair in (("a", "b"), ("a", "c"), ("b", "c")))
    )


def test_cyclic_verdict_and_labels_agree_with_highs(rng):
    counts = rng.poisson(1.0, (3, 2, 3))
    counts[1] = 0
    attrs, p = three_way(counts)
    verdict = check_consistency(p)
    assert verdict.consistent and highs_consistent(p)
    assert_witness_marginals(p, verdict.witness)
    for cell in itertools.product(*(a.domain for a in attrs)):
        assert classify_empty(p, cell) == highs_label(p, cell), cell


def test_cyclic_inconsistent_classify_names_unsatisfied_rows():
    # a = b, a = c and b != c: every one-way margin agrees, no table exists
    attrs = tuple(CategoryAttribute(n, (f"{n}0", f"{n}1")) for n in "abc")
    ab = SummaryTable(scheme=attrs[:2], variable=COUNTS, cells={("a0", "b0"): 1, ("a1", "b1"): 1})
    ac = SummaryTable(scheme=(attrs[0], attrs[2]), variable=COUNTS, cells={("a0", "c0"): 1, ("a1", "c1"): 1})
    bc = SummaryTable(scheme=attrs[1:], variable=COUNTS, cells={("b0", "c1"): 1, ("b1", "c0"): 1})
    p = Polyptych(tables=(ab, ac, bc))
    assert not highs_consistent(p)
    verdict = check_consistency(p)
    assert not verdict.consistent
    assert "no nonnegative universal table satisfies: table" in verdict.certificate
    rows_named = r"inconsistent: no nonnegative universal table satisfies: table \d cell"
    with pytest.raises(DomainError, match=rows_named):
        classify_empty(p, ("a0", "b0", "c0"))


def test_cyclic_integer_exact_gives_an_exact_integer_witness(rng):
    # all two-way margins of a three-way r=3 table: cyclic, decided by one HiGHS MIP
    _attrs, p = three_way(rng.integers(0, 4, (3, 3, 3)))
    verdict = check_consistency(p, integer_exact=True)
    assert verdict.consistent
    w = verdict.witness
    assert w.variable == p.variable
    assert all(v >= 0 and v == int(v) for v in w.cells.values())
    assert_witness_marginals(p, w, exact=True)


MASS = SummaryVariable("mass", "nonneg-real")


@pytest.mark.filterwarnings("error")
def test_product_witness_of_huge_margins_stays_in_range():
    # the product of the two margins' cells, 1e400, leaves the float range; the witness does not
    p = Polyptych(tables=(row_table([1e200, 1e200], variable=MASS), row_table([1e200, 1e200], attr=COL, variable=MASS)))
    verdict = check_consistency(p)
    assert verdict.consistent
    assert verdict.witness.cells == {(r, c): 5e199 for r in ROW.domain for c in COL.domain}


def contradictory_three_way(r, scale):
    """Two-way margins with a = b, a = c and c = b + 1 (mod r): every one-way
    margin agrees and no table exists."""
    attrs = tuple(CategoryAttribute(n, tuple(f"{n}{i}" for i in range(r))) for n in "abc")

    def pairs(x, y, shift):
        cells = {(x.domain[i], y.domain[(i + shift) % r]): scale for i in range(r)}
        return SummaryTable(scheme=(x, y), variable=MASS, cells=cells)

    a, b, c = attrs
    return Polyptych(tables=(pairs(a, b, 0), pairs(a, c, 0), pairs(b, c, 1)))


@pytest.mark.parametrize("r", [3, 7], ids=["nnls", "phase-1 LP"])
def test_huge_marginals_get_the_answers_of_scale_1(r):
    # HiGHS's tolerances are absolute: unscaled, marginals near 1e20 read as
    # infeasible (r = 3) or left the phase-1 LP without a solution (r = 7)
    counts = np.random.default_rng(r).poisson(2.0, (r, r, r)).astype(float)
    counts[0, 0] = 0.0  # makes every cell (a0, b0, c) accidental
    cells = [("a0", "b0", "c0"), ("a1", "b1", "c1"), ("a1", "b0", "c2")]
    answers = []
    for scale in (1.0, 1e20):
        _attrs, p = three_way(counts * scale, MASS)
        assert check_consistency(p).consistent
        answers.append([classify_empty(p, cell) for cell in cells])
        bad = contradictory_three_way(r, scale)
        assert not check_consistency(bad).consistent
        with pytest.raises(DomainError, match="inconsistent: no nonnegative universal table satisfies"):
            classify_empty(bad, ("a0", "b0", "c0"))
    assert answers[0] == answers[1]
    assert answers[0][0] == "accidental"


def test_integer_exact_refuses_marginals_past_2_53():
    _attrs, p = three_way(np.full((3, 3, 3), 2**51))  # two-way margins of 3 * 2^51 < 2^53
    assert check_consistency(p, integer_exact=True).consistent
    _attrs, p = three_way(np.full((3, 3, 3), 2**52))
    with pytest.raises(DomainError, match=r"within 2\^53 = 9007199254740992"):
        check_consistency(p, integer_exact=True)


def test_integer_exact_structural_zero_infeasible_by_exhaustive_search():
    # no real table either: phase 1 rejects it and names the rows it cannot meet
    p = Polyptych(
        tables=(row_table([1, 0]), row_table([0, 1], attr=COL)),
        structural_zeros=frozenset({("r1", "c2")}),
    )
    verdict = check_consistency(p, integer_exact=True)
    assert not verdict.consistent
    assert verdict.certificate.startswith("no nonnegative universal table satisfies: table")


def test_integer_exact_enumeration_cap():
    # 10,100 cells, one MIP: no cell count is capped
    rows = CategoryAttribute("big-row", tuple(f"r{i}" for i in range(101)))
    cols = CategoryAttribute("big-col", tuple(f"c{i}" for i in range(100)))
    p = Polyptych(
        tables=(row_table([1] + [0] * 100, attr=rows), row_table([1] + [0] * 99, attr=cols)),
        structural_zeros=frozenset({("r0", "c1")}),
    )
    verdict = check_consistency(p, integer_exact=True)
    assert verdict.consistent
    assert verdict.witness.cells == {("r0", "c0"): 1}


def test_every_cell_structural():
    row, col = CategoryAttribute("row", ("r1",)), CategoryAttribute("col", ("c1",))
    empty = Polyptych(
        tables=(row_table([0], attr=row), row_table([0], attr=col)),
        structural_zeros=frozenset({("r1", "c1")}),
    )
    for integer_exact in (False, True):
        verdict = check_consistency(empty, integer_exact=integer_exact)
        assert verdict.consistent and verdict.witness.cells == {}
    assert classify_empty(empty, ("r1", "c1")) == "structural"
    full = Polyptych(tables=(row_table([1], attr=row), row_table([1], attr=col)), structural_zeros=empty.structural_zeros)
    assert not check_consistency(full, integer_exact=True).consistent
    with pytest.raises(DomainError, match="inconsistent: no nonnegative universal table satisfies: table 1"):
        classify_empty(full, ("r1", "c1"))


def test_integer_exact_poisson_4x4x4_has_an_exact_integer_witness():
    # cell-by-cell backtracking takes more than 20 s on this instance; one MIP takes ~20 ms
    _attrs, p = three_way(np.random.default_rng(5).poisson(10, (4, 4, 4)))
    verdict = check_consistency(p, integer_exact=True)
    assert verdict.consistent
    assert verdict.witness.variable == p.variable
    assert all(v > 0 and v == int(v) for v in verdict.witness.cells.values())
    assert_witness_marginals(p, verdict.witness, exact=True)


# A 3x3x3 support on which every nonempty line holds exactly two cells.  With
# margins 1 on those lines, half a unit in every cell is a real table; an
# integer one would pick one cell of each line, and the lines form an odd cycle.
HALF_SUPPORT = (
    (0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1),
    (1, 2, 0), (1, 2, 2), (2, 0, 1), (2, 0, 2), (2, 1, 0), (2, 1, 2), (2, 2, 0), (2, 2, 1),
)


def test_integer_exact_real_but_no_integer_table():
    support = np.zeros((3, 3, 3), dtype=int)
    support[tuple(np.array(HALF_SUPPORT).T)] = 1
    attrs, p = three_way(support)
    halved = tuple(
        SummaryTable(scheme=t.scheme, variable=t.variable, cells={k: v // 2 for k, v in t.cells.items()})
        for t in p.tables
    )
    cells = list(itertools.product(*(a.domain for a in attrs)))
    zeros = frozenset(c for c, n in zip(cells, support.ravel()) if n == 0)
    p = Polyptych(tables=halved, structural_zeros=zeros)
    assert highs_consistent(p)
    # test-side proof: no 0/1 choice over the support meets every line once
    A, b, kept = highs_system(p)
    choices = (np.arange(2 ** len(kept))[:, None] >> np.arange(len(kept))) & 1
    assert not np.any(np.all(choices @ A.T == b, axis=1))
    verdict = check_consistency(p, integer_exact=True)
    assert not verdict.consistent
    assert verdict.certificate == "a real universal table exists but no nonnegative integer one"
    assert check_consistency(p).consistent


def test_integer_exact_time_limit_is_not_converged(monkeypatch):
    _attrs, p = three_way(np.random.default_rng(0).poisson(10, (10, 10, 10)))
    monkeypatch.setattr("bioassay.tables.MAX_HIGHS_SECONDS", 1e-6)
    with pytest.raises(NotConvergedError, match="Time limit reached"):
        check_consistency(p, integer_exact=True)


def test_cyclic_constraint_system_memory_is_bounded(monkeypatch):
    # r = 20: 1200 marginal rows over 8000 cells; a dense system alone is 77 MB
    _attrs, p = three_way(np.random.default_rng(0).poisson(2, (20, 20, 20)))
    monkeypatch.setattr("bioassay.tables.MAX_HIGHS_SECONDS", 1e-6)
    tracemalloc.start()
    try:
        with pytest.raises(NotConvergedError, match="Time limit reached"):
            check_consistency(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@st.composite
def small_integer_polyptychs(draw):
    """Cyclic or structural-zero polyptychs on 2x2x2 / 2x2x3 holding at most 4 units.

    Each table is a margin of one of two integer tables with the same total,
    and the structural zeros are empty cells of the first, so the polyptych
    is consistent when every table comes from the first.
    """
    shape = (2, 2, draw(st.sampled_from((2, 3))))
    attrs = tuple(CategoryAttribute(n, tuple(f"{n}{i}" for i in range(r))) for n, r in zip("abc", shape))
    total = draw(st.integers(0, 4))
    sources = []
    for _ in range(2):
        counts = np.zeros(shape, dtype=int)
        for i in draw(st.lists(st.integers(0, counts.size - 1), min_size=total, max_size=total)):
            counts.flat[i] += 1
        sources.append(counts)
    cyclic = draw(st.booleans())
    schemes = (("a", "b"), ("a", "c"), ("b", "c")) if cyclic else (("a", "b"), ("b", "c"))
    tables = tuple(margin_table(attrs, sources[draw(st.integers(0, 1))], s) for s in schemes)
    cells = list(itertools.product(*(a.domain for a in attrs)))
    empty = [c for c, n in zip(cells, sources[0].ravel()) if n == 0]
    zeros = draw(st.sets(st.sampled_from(empty), min_size=0 if cyclic else 1, max_size=3))
    return Polyptych(tables=tables, structural_zeros=frozenset(zeros))


def integer_table_matches(p):
    """Brute force: does some nonnegative integer universal table have every table as a marginal?"""
    names = [a.name for a in p.universal_scheme]
    cells = [c for c in itertools.product(*(a.domain for a in p.universal_scheme)) if c not in p.structural_zeros]
    targets = [
        ([names.index(n) for n in t.attribute_names], {k: v for k, v in t.cells.items() if v}) for t in p.tables
    ]
    for units in itertools.combinations_with_replacement(cells, int(p.tables[0].grand_total())):
        if all(Counter(tuple(c[i] for i in pos) for c in units) == want for pos, want in targets):
            return True
    return False


@settings(max_examples=80, deadline=None)
@given(small_integer_polyptychs())
def test_integer_exact_agrees_with_brute_force_on_small_cyclic_polyptychs(p):
    verdict = check_consistency(p, integer_exact=True)
    assert verdict.consistent == integer_table_matches(p)
    if verdict.consistent:
        w = verdict.witness
        assert w.variable == p.variable
        assert all(v > 0 and v == int(v) for v in w.cells.values())
        assert not set(w.cells) & p.structural_zeros
        assert_witness_marginals(p, w, exact=True)


def test_negative_real_cell_is_inconsistent():
    real = SummaryVariable("mass", "real")
    p = Polyptych(
        tables=(row_table([2.0, -1.0], variable=real), row_table([1.0, 0.0], attr=COL, variable=real))
    )
    assert not highs_consistent(p)
    verdict = check_consistency(p)
    assert not verdict.consistent
    assert "table 1 cell ('r2',) is negative" in verdict.certificate
    with pytest.raises(DomainError, match="negative"):
        classify_empty(p, ("r1", "c1"))


def test_zero_separator_slice_gives_zero_witness_cells():
    # b1 is empty in both tables: the product witness divides 0 by 0 there
    a = CategoryAttribute("a", ("a0", "a1"))
    b = CategoryAttribute("b", ("b0", "b1"))
    c = CategoryAttribute("c", ("c0", "c1"))
    ab = SummaryTable(scheme=(a, b), variable=COUNTS, cells={("a0", "b0"): 2, ("a1", "b0"): 1})
    bc = SummaryTable(scheme=(b, c), variable=COUNTS, cells={("b0", "c0"): 1, ("b0", "c1"): 2})
    p = Polyptych(tables=(ab, bc))
    w = check_consistency(p).witness
    assert all(np.isfinite(v) and v > 0 for v in w.cells.values())
    assert all(coords[1] == "b0" for coords in w.cells)
    assert_witness_marginals(p, w)
    assert classify_empty(p, ("a0", "b1", "c0")) == "accidental"
    assert classify_empty(p, ("a1", "b0", "c1")) == "occupied"


def test_grand_total_tables_are_decomposable():
    total = SummaryTable(scheme=(), variable=COUNTS, cells={(): 4})
    verdict = check_consistency(Polyptych(tables=(total, total)))
    assert verdict.consistent and verdict.witness.cells == {(): 4.0}
    p = Polyptych(tables=(row_table([3, 1]), total))
    assert check_consistency(p, integer_exact=True).witness.cells == {("r1",): 3.0, ("r2",): 1.0}


def spy(monkeypatch, calls, name):
    """Count the calls of ``scipy.optimize.<name>``, which the package imports on use."""
    real = getattr(scipy.optimize, name)
    monkeypatch.setattr(scipy.optimize, name, lambda *a, **k: calls.update([name]) or real(*a, **k))


def test_structural_zeros_leave_the_closed_form(monkeypatch):
    calls = Counter()
    for name in ("nnls", "milp"):
        spy(monkeypatch, calls, name)
    p = Polyptych(tables=(row_table([3, 1]), row_table([2, 2], attr=COL)))
    assert check_consistency(p).consistent
    assert classify_empty(p, ("r1", "c1")) == "occupied"
    assert calls == {}
    zeros = Polyptych(tables=p.tables, structural_zeros=frozenset({("r2", "c2")}))
    assert check_consistency(zeros).consistent == highs_consistent(zeros)
    assert calls == {"nnls": 1}
    assert classify_empty(zeros, ("r2", "c1")) == highs_label(zeros, ("r2", "c1"))
    assert calls == {"nnls": 1, "milp": 1}  # the classify LP stays on HiGHS


def test_highs_failure_is_not_converged(monkeypatch):
    class Stalled:
        status, message = 4, "numerical difficulties"

    monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **k: Stalled())
    attrs, p = three_way(np.ones((2, 2, 2), dtype=int))
    with pytest.raises(NotConvergedError, match="numerical difficulties"):
        classify_empty(p, tuple(a.domain[0] for a in attrs))


def test_classify_lp_disagreeing_with_a_found_table_is_not_converged(monkeypatch):
    # a consistent cyclic polyptych: the classify LP says infeasible, NNLS finds a table
    attrs, p = three_way(np.ones((2, 2, 2), dtype=int))
    assert check_consistency(p).consistent
    infeasible = scipy.optimize.OptimizeResult(status=2)
    monkeypatch.setattr(tables, "_linprog", lambda c, A, b, integrality=None: infeasible)
    with pytest.raises(NotConvergedError, match="HiGHS finds the marginals infeasible"):
        classify_empty(p, tuple(a.domain[0] for a in attrs))


def test_nnls_iteration_limit_is_not_converged(monkeypatch):
    def stalled(*a, **k):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(scipy.optimize, "nnls", stalled)
    _attrs, p = three_way(np.ones((2, 2, 2), dtype=int))
    with pytest.raises(NotConvergedError, match="NNLS did not decide the linear system: Maximum number"):
        check_consistency(p)


@st.composite
def small_lp_polyptychs(draw):
    """Cyclic three-way or structural-zero chain polyptychs on up to 4x4x4 cells.

    Each table is a margin of one of two count tables with the same total,
    and the structural zeros are empty cells of the first; a nonneg-real
    variant scales every value by the same real factor.
    """
    shape = tuple(draw(st.integers(2, 4)) for _ in range(3))
    attrs = tuple(CategoryAttribute(n, tuple(f"{n}{i}" for i in range(r))) for n, r in zip("abc", shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = rng.poisson(rng.uniform(0.3, 3.0), shape)
    second = rng.permutation(first.ravel()).reshape(shape)  # the same total
    cells = list(itertools.product(*(a.domain for a in attrs)))
    empty = [c for c, n in zip(cells, first.ravel()) if n == 0]
    cyclic = draw(st.booleans()) or not empty  # a chain needs a structural zero to leave the closed form
    schemes = (("a", "b"), ("a", "c"), ("b", "c")) if cyclic else (("a", "b"), ("b", "c"))
    factor = draw(st.sampled_from((1, 0.37, 2.5e6)))
    variable = COUNTS if factor == 1 else SummaryVariable("mass", "nonneg-real")
    sources = [first * factor, second * factor]
    margins = tuple(margin_table(attrs, sources[draw(st.integers(0, 1))], s, variable) for s in schemes)
    zeros = draw(st.sets(st.sampled_from(empty), min_size=0 if cyclic else 1, max_size=4)) if empty else set()
    return Polyptych(tables=margins, structural_zeros=frozenset(zeros))


@settings(max_examples=120, deadline=None)
@given(small_lp_polyptychs())
def test_nnls_verdict_witness_and_farkas_vector_agree_with_highs(p):
    found, calls = [], Counter()
    real_nnls = scipy.optimize.nnls
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.optimize, "nnls", lambda *a, **k: found.append(real_nnls(*a, **k)) or found[-1])
        spy(mp, calls, "milp")
        verdict = check_consistency(p)
    assert len(found) == 1  # every such system is under the NNLS constant
    assert verdict.consistent == highs_consistent(p)
    A, b, _cells = highs_system(p)
    tol = 1e-9 * max(1.0, float(np.abs(b).max()))
    if verdict.consistent:
        assert calls == {}
        w = verdict.witness
        assert all(v > tol for v in w.cells.values())  # no rounding dust
        assert not set(w.cells) & p.structural_zeros
        assert_witness_marginals(p, w, tol=tol)
        return
    # the least-squares residual (of x with its dust zeroed) proves that no nonnegative
    # table exists, or HiGHS decided: every such table sums to the grand total T, so
    # it would have b.y = x.(A^T y) <= T max(A^T y)
    x = np.where(found[0][0] <= tol, 0.0, found[0][0])
    y = b - A @ x
    farkas = b @ y > p.tables[0].grand_total() * max(0.0, (A.T @ y).max())
    assert farkas or calls == {"milp": 1}
    assert re.fullmatch(r"no nonnegative universal table satisfies: table \d cell \(.*\)", verdict.certificate)


@pytest.mark.parametrize("consistent", [True, False])
def test_uncertified_nnls_answer_falls_back_to_highs(monkeypatch, consistent):
    # x = 0 leaves y = b, and A^T b > 0: no Farkas vector, so the phase-1 LP decides
    calls = Counter()
    monkeypatch.setattr(scipy.optimize, "nnls", lambda A, b: (np.zeros(A.shape[1]), float(np.linalg.norm(b))))
    spy(monkeypatch, calls, "milp")
    _attrs, p = three_way(np.ones((2, 2, 2), dtype=int))
    if not consistent:
        ab, ac, bc = p.tables
        swapped = {("b0", "c0"): bc.cells[("b0", "c1")] + 1, ("b0", "c1"): bc.cells[("b0", "c0")] - 1}
        p = Polyptych(tables=(ab, ac, SummaryTable(scheme=bc.scheme, variable=COUNTS, cells={**bc.cells, **swapped})))
    verdict = check_consistency(p)
    assert calls == {"milp": 1}
    assert verdict.consistent == consistent == highs_consistent(p)
    if consistent:
        assert_witness_marginals(p, verdict.witness)
    else:
        assert verdict.certificate.startswith("no nonnegative universal table satisfies: table")


def padded_three_way(shape, bc_cells):
    """a = b = c on the first two codes, with the given (b, c) table; every other code is empty."""
    attrs = tuple(CategoryAttribute(n, tuple(f"{n}{i}" for i in range(r))) for n, r in zip("abc", shape))
    diagonal = {("a0", "b0"): 1, ("a1", "b1"): 1}
    ab = SummaryTable(scheme=attrs[:2], variable=COUNTS, cells=diagonal)
    ac = SummaryTable(scheme=(attrs[0], attrs[2]), variable=COUNTS, cells={("a0", "c0"): 1, ("a1", "c1"): 1})
    bc = SummaryTable(scheme=attrs[1:], variable=COUNTS, cells=bc_cells)
    return Polyptych(tables=(ab, ac, bc))


@pytest.mark.parametrize(
    "bc_cells, consistent",
    [({("b0", "c0"): 1, ("b1", "c1"): 1}, True), ({("b0", "c1"): 1, ("b1", "c0"): 1}, False)],
    ids=["consistent", "inconsistent"],
)
def test_systems_either_side_of_the_nnls_constant_agree(monkeypatch, bc_cells, consistent):
    calls = Counter()
    for name in ("nnls", "milp"):
        spy(monkeypatch, calls, name)
    below, above = (padded_three_way(shape, bc_cells) for shape in ((6, 6, 7), (6, 7, 7)))
    assert 120 * 252 <= tables.MAX_NNLS_ENTRIES < 133 * 294  # rows x cells of the two systems
    verdicts = [check_consistency(below)]
    assert calls == {"nnls": 1}
    verdicts.append(check_consistency(above))
    assert calls == {"nnls": 1, "milp": 1}
    assert [v.consistent for v in verdicts] == [consistent, consistent] == [highs_consistent(below)] * 2
    for p, v in zip((below, above), verdicts):
        if consistent:
            assert_witness_marginals(p, v.witness)
        else:
            assert v.certificate.startswith("no nonnegative universal table satisfies: table")


# -- cell validation --------------------------------------------------------------------

@pytest.mark.parametrize(
    "variable, cells, message",
    [
        (COUNTS, {("r1",): 1, ("zz",): 2, ("r2",): "abc"}, "code 'zz' not in domain of attribute 'row'"),
        (COUNTS, {("r1",): "abc", ("zz",): 2}, "value 'abc' is not a number"),
        (COUNTS, {("r1",): 1, ("r1", "c1"): 2}, r"cell \('r1', 'c1'\) does not match the scheme arity 1"),
        (COUNTS, {("r1",): 1.5, ("r2",): -1}, "value 1.5 is not an integer"),
        (COUNTS, {("r1",): 1, ("r2",): -1}, "value -1.0 is negative"),
        (COUNTS, {("r1",): float("inf")}, "values must be finite"),
        (COUNTS, {("r1",): 10**400}, "values must be finite"),
        (SummaryVariable("mass", "nonneg-real"), {("r1",): None}, "'mass': value None is not a number"),
    ],
)
def test_cell_validation_names_the_first_bad_cell(variable, cells, message):
    with pytest.raises(DomainError, match=message):
        SummaryTable(scheme=(ROW,), variable=variable, cells=cells)


@pytest.mark.parametrize(
    "cell, message",
    [
        (("r1",), r"\('r1',\) has 1 codes; the universal scheme has 2"),
        (("r1", "zz"), r"\('r1', 'zz'\): code 'zz' not in domain of 'col'"),
    ],
    ids=["arity", "code"],
)
def test_bad_universal_coordinates_name_the_code_and_attribute(cell, message):
    with pytest.raises(DomainError, match="structural zero " + message):
        Polyptych(tables=(table_2x2([[1, 0], [0, 1]]),), structural_zeros=frozenset({cell}))
    with pytest.raises(DomainError, match="coordinates " + message):
        classify_empty(Polyptych(tables=(table_2x2([[1, 0], [0, 1]]),)), cell)


def test_cell_keys_and_values_are_normalized():
    t = SummaryTable(scheme=(ROW,), variable=COUNTS, cells={"r1": "3", ("r2",): True})
    assert t.cells == {("r1",): 3.0, ("r2",): 1.0}
    assert all(type(v) is float for v in t.cells.values())
    real = SummaryTable(scheme=(ROW, COL), variable=SummaryVariable("x", "real"), cells={("r1", "c2"): -0.5})
    assert real.cells == {("r1", "c2"): -0.5}


# -- JSON ------------------------------------------------------------------------------

def test_polyptych_json_round_trip():
    obj = {
        "attributes": [
            {"name": "row", "domain": ["r1", "r2"]},
            {"name": "col", "domain": ["c1", "c2"]},
        ],
        "variable": {"name": "count", "type": "nonneg-integer"},
        "tables": [
            {"scheme": ["row"], "cells": [{"coords": ["r1"], "value": 3}, {"coords": ["r2"], "value": 1}]},
            {"scheme": ["col"], "cells": [{"coords": ["c1"], "value": 2}, {"coords": ["c2"], "value": 2}]},
        ],
        "structural_zeros": [],
    }
    p = polyptych_from_json(obj)
    verdict = check_consistency(p)
    assert verdict.consistent
    out = verdict_to_json(verdict)
    assert out["consistent"] is True
    assert out["witness"]["scheme"] == ["row", "col"]


def test_polyptych_json_missing_cells_read_zero():
    obj = {
        "attributes": [{"name": "row", "domain": ["r1", "r2"]}],
        "variable": {"name": "count", "type": "nonneg-integer"},
        "tables": [{"scheme": ["row"], "cells": [{"coords": ["r1"], "value": 2}]}],
    }
    p = polyptych_from_json(obj)
    assert p.tables[0].value(("r2",)) == 0.0


def test_polyptych_json_malformed():
    with pytest.raises(DomainError, match="malformed"):
        polyptych_from_json({"attributes": []})
