"""The one echelon routine: transform, rows, kernel and coordinates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmforms.exactnum import FieldElement, QuadExt
from qmforms.linalg import charpoly, nullspace, rref, solve
from qmforms.qseries import PrecisionError, QSeries
from test_qseries_parts import ValueTupleForbidden

EXT = QuadExt(2, 2)  # t^2 = 2t + 2
EXT3 = QuadExt(2, 90)  # t^2 = 2t + 90: P != 0 and a large N

rationals = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
quadratics = st.builds(lambda a, b: FieldElement(a, b, EXT), rationals, rationals)
quadratics3 = st.builds(lambda a, b: FieldElement(a, b, EXT3), rationals, rationals)


@st.composite
def matrices(draw, entries=rationals, square=False):
    """Matrices whose rows include linear combinations of the others and zero rows."""
    ncols = draw(st.integers(1, 6))
    nrows = ncols if square else draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, nrows - 1))
        cs = draw(st.lists(st.integers(-2, 2), min_size=nrows, max_size=nrows))
        rows[i] = [sum((c * r[j] for k, (c, r) in enumerate(zip(cs, rows)) if k != i), 0)
                   for j in range(ncols)]
    return rows


def combination(x, rows):
    return [sum((a * r[c] for a, r in zip(x, rows)), 0) for c in range(len(rows[0]))]


def check_echelon(rows):
    ech = rref(rows)
    product = [combination(tk, rows) for tk in ech.transform]
    assert product[: ech.rank] == ech.rows
    assert all(x == 0 for row in product[ech.rank:] for x in row)
    for k, (row, pc) in enumerate(zip(ech.rows, ech.pivots)):
        assert all(x == 0 for x in row[:pc])
        assert [row[p] for p in ech.pivots] == [int(i == k) for i in range(ech.rank)]
    for v in ech.kernel():
        assert all(x == 0 for x in combination(v, list(map(list, zip(*rows)))))
    return ech


def check_coords(ech, rows, y):
    v = combination(y, rows)
    x, fail = ech.coords(v)
    assert fail is None
    assert combination(x, rows) == v
    assert ech.coords(QSeries(v)) == (x, None)  # a series reads as its value list
    free = next((c for c in range(len(v)) if c not in ech.pivots), None)
    if free is not None:
        # same pivot entries, so the same coordinates, off the span at `free` only
        v[free] += 1
        assert ech.coords(v) == (x, free)
        assert ech.coords(QSeries(v)) == (x, free)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_rational_echelon(rows, data):
    ech = check_echelon(rows)
    y = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    check_coords(ech, rows, y)


@settings(max_examples=25, deadline=None)
@given(matrices(quadratics), st.data())
def test_quadratic_field_echelon(rows, data):
    ech = check_echelon(rows)
    y = data.draw(st.lists(quadratics, min_size=len(rows), max_size=len(rows)))
    check_coords(ech, rows, y)


def test_field_element_rows_with_a_dependent_row():
    t = EXT.gen()
    a, b = [1, t, 0, 2 * t + 1], [t, 2 + t, 1, 0]
    rows = [a, b, [x + t * y for x, y in zip(a, b)]]
    ech = check_echelon(rows)
    assert (ech.rank, ech.pivots) == (2, (0, 1))
    assert len(ech.kernel()) == 2
    check_coords(ech, rows, [t, 3, 0])


def test_pivot_is_the_first_nonzero_row_at_or_below_the_rank():
    # with a dependent row the transform depends on the rule, the rows do not
    ech = rref([[0, 1], [1, 0], [1, 0]])
    assert ech.pivots == (0, 1)
    assert ech.transform == [[0, 1, 0], [1, 0, 0], [0, -1, 1]]
    assert ech.rows == [[1, 0], [0, 1]]


def test_no_rows_span_only_zero():
    ech = rref([])
    assert (ech.rank, ech.pivots, ech.rows, ech.kernel()) == (0, (), [], [])
    assert ech.coords([0, 0]) == ([], None)
    assert ech.coords([0, 3]) == ([], 1)
    ech = rref([[], []])  # rows with no columns
    assert (ech.rank, ech.rows, ech.kernel(), ech.coords([])) == (0, [], [], ([0, 0], None))


def test_solve_unique_inconsistent_and_underdetermined():
    assert solve([[1, 2], [3, 4]], [5, 6]) == [-4, Fraction(9, 2)]
    assert solve([[1, 1], [1, 1]], [1, 2]) is None
    with pytest.raises(ValueError, match="underdetermined"):
        solve([[1, 1], [2, 2]], [1, 2])


def test_nullspace_and_charpoly_of_a_small_matrix():
    assert nullspace([[1, 2], [2, 4]]) == [[-2, 1]]
    assert charpoly([[1, 2], [3, 4]]) == [-2, -5, 1]


# -- the fraction-free elimination against Gauss-Jordan over values ----------


def value_echelon(rows):
    """(pivots, T) by Gauss-Jordan on Fraction and FieldElement values, same pivot rule."""
    n = len(rows)
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots = []
    for c in range(len(rows[0]) if n else 0):
        r = len(pivots)
        if r == n:
            break
        vals = [sum((x * row[c] for x, row in zip(ti, rows)), Fraction(0)) for ti in t]
        pr = next((i for i in range(r, n) if vals[i]), None)
        if pr is None:
            continue
        t[r], t[pr], vals[r], vals[pr] = t[pr], t[r], vals[pr], vals[r]
        t[r] = [x / vals[r] for x in t[r]]
        for i, f in enumerate(vals):
            if i != r and f:
                t[i] = [x - f * y for x, y in zip(t[i], t[r])]
        pivots.append(c)
    return tuple(pivots), t


@st.composite
def mixed_matrices(draw):
    """Rows over Q, rows over Q(t) with e > 1 and zero rows, then some rows made dependent."""
    ncols, nrows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kinds = st.sampled_from([rationals, quadratics3, st.just(0)])
    rows = [draw(st.lists(draw(kinds), min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, nrows - 1))
        cs = draw(st.lists(st.one_of(st.integers(-2, 2), quadratics3), min_size=nrows,
                           max_size=nrows))
        rows[i] = [sum((c * r[j] for k, (c, r) in enumerate(zip(cs, rows)) if k != i), 0)
                   for j in range(ncols)]
    return rows


def check_against_values(rows):
    ech = rref(rows)
    pivots, t = value_echelon(rows)
    assert (ech.pivots, ech.rank) == (pivots, len(pivots))
    assert ech.transform == t  # kernel rows included, entry for entry


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_fraction_free_matches_values_over_q(rows):
    check_against_values(rows)


@settings(max_examples=40, deadline=None)
@given(matrices(quadratics3))
def test_fraction_free_matches_values_over_a_non_integral_descriptor(rows):
    check_against_values(rows)


@settings(max_examples=80, deadline=None)
@given(mixed_matrices())
def test_fraction_free_matches_values_on_mixed_rows(rows):
    check_against_values(rows)


def test_fraction_free_on_a_rank_deficient_mixed_matrix():
    t = EXT3.gen()
    a, b = [1, t, Fraction(1, 2), 0], [Fraction(2, 3), 0, 5, t / 7]
    rows = [[0, 0, 0, 0], a, b, [x * t + y for x, y in zip(a, b)], [2 * y for y in b]]
    check_against_values(rows)
    ech = rref(rows)
    assert (ech.rank, ech.pivots, len(ech.kernel())) == (2, (0, 1), 2)


def test_series_rows_build_no_values():
    t = EXT3.gen()
    rows = [ValueTupleForbidden(cs) for cs in ([1, t, Fraction(1, 2), 0], [Fraction(2, 3), 0, 5, t / 7],
                                               [3, 1, 1, 1])]
    ech = rref(rows)
    assert (ech.rank, len(ech.transform)) == (3, 3)


def test_the_first_row_sets_the_columns():
    rows = [QSeries([2, 3, 8, 5]), QSeries([0, 1, 2, 5, 7]), QSeries([1, 1, 3, 0, 9, 4])]
    ech, cut = rref(rows), rref([r.truncate(3) for r in rows])
    assert ech.series == rows  # the rows as given, no truncated copies
    assert (ech.ncols, ech.pivots, ech.rows, ech.transform) == \
        (cut.ncols, cut.pivots, cut.rows, cut.transform)
    with pytest.raises(PrecisionError):
        rref(rows[1:] + rows[:1])
