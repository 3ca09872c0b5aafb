"""The one echelon routine: transform, rows, kernels and coordinates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmforms import linalg
from qmforms.exactnum import FieldElement, QuadExt
from qmforms.linalg import charpoly, nullspace, rref, solve
from qmforms.qseries import PrecisionError, QSeries, combine
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


def check_kernel(rows, rank):
    """nullspace(rows) is a basis of the right kernel: A v = 0, ncols - rank vectors, independent."""
    kern = nullspace(rows)
    for v in kern:
        assert all(x == 0 for x in combination(v, list(map(list, zip(*rows)))))
    assert len(kern) == len(rows[0]) - rank
    assert rref(kern).rank == len(kern)


def r_rows(ech):
    """The nonzero rows of R as value lists, read from `row_series`."""
    return [list(r.coeffs) for r in ech.row_series]


def check_echelon(rows):
    ech = rref(rows)
    product = [combination(tk, rows) for tk in ech.transform]
    assert product[: ech.rank] == r_rows(ech)
    assert all(x == 0 for row in product[ech.rank:] for x in row)
    for k, (row, pc) in enumerate(zip(r_rows(ech), ech.pivots)):
        assert all(x == 0 for x in row[:pc])
        assert [row[p] for p in ech.pivots] == [int(i == k) for i in range(ech.rank)]
    check_kernel(rows, ech.rank)
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
    assert len(nullspace(rows)) == 2
    check_coords(ech, rows, [t, 3, 0])


def test_pivot_is_the_first_nonzero_row_at_or_below_the_rank():
    # with a dependent row the transform depends on the rule, the rows do not
    ech = rref([[0, 1], [1, 0], [1, 0]])
    assert ech.pivots == (0, 1)
    assert ech.transform == [[0, 1, 0], [1, 0, 0], [0, -1, 1]]
    assert r_rows(ech) == [[1, 0], [0, 1]]


def test_no_rows_span_only_zero():
    ech = rref([])
    assert (ech.rank, ech.pivots, r_rows(ech), nullspace([])) == (0, (), [], [])
    assert ech.coords([0, 0]) == ([], None)
    assert ech.coords([0, 3]) == ([], 1)
    assert ech.coords(QSeries([0, 0, EXT3.gen(), 1])) == ([], 2)
    ech = rref([[], []])  # rows with no columns
    assert (ech.rank, r_rows(ech), nullspace([[], []]), ech.coords([])) == (0, [], [], ([0, 0], None))


def test_solve_unique_inconsistent_and_underdetermined():
    assert solve([[1, 2], [3, 4]], [5, 6]) == [-4, Fraction(9, 2)]
    assert solve([[1, 1], [1, 1]], [1, 2]) is None
    with pytest.raises(ValueError, match="underdetermined"):
        solve([[1, 1], [2, 2]], [1, 2])


def test_nullspace_and_charpoly_of_a_small_matrix():
    assert nullspace([[1, 2], [2, 4]]) == [[-2, 1]]
    assert charpoly([[1, 2], [3, 4]]) == [-2, -5, 1]


def test_coords_below_the_last_pivot_raise_a_precision_error():
    with pytest.raises(PrecisionError, match="target precision 1 is below the last pivot 2"):
        rref([[1, 0, 0], [0, 0, 1]]).coords(QSeries([1, 0]))


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
    assert (ech.rank, ech.pivots, len(nullspace(rows))) == (2, (0, 1), 2)


# no max_examples: the active profile sets it, and `--hypothesis-profile=ci` (tests/conftest.py) raises it
@settings(deadline=None, derandomize=True)
@given(st.one_of(matrices(), matrices(quadratics), mixed_matrices()))
def test_nullspace_is_a_basis_of_the_right_kernel(rows):
    check_kernel(rows, rref(rows).rank)


def test_coords_and_row_series_build_no_values_of_the_target_or_of_t(monkeypatch):
    """T's rows and the targets are series whose value tuples fail the test when read."""

    def make(prec, ext, num, unum=None, den=1):
        s = object.__new__(ValueTupleForbidden)
        s._set(prec, ext, num, unum, den)
        return s

    monkeypatch.setattr(linalg, "_make", make)  # the echelon builds T's rows with it
    t = EXT3.gen()
    rows = [QSeries([1, 2, t, 4]), QSeries([0, Fraction(1, 3), 1, 5]), QSeries([2, 4, 2 * t, 8])]
    ech = rref(rows)
    assert all(isinstance(tk, ValueTupleForbidden) for tk in ech.tseries)
    assert [list(r.coeffs) for r in ech.row_series] == [[1, 0, t - 6, -26], [0, 1, 3, 15]]
    # rows 0 + 1, then cut at the last pivot, then off the span at column 3
    for cs, fail in (([1, Fraction(7, 3), t + 1, 9], None), ([1, Fraction(7, 3)], None),
                     ([1, Fraction(7, 3), t + 1, 10], 3)):
        assert ech.coords(ValueTupleForbidden(cs)) == ([1, 1, 0], fail)


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
    assert (ech.ncols, ech.pivots, r_rows(ech), ech.transform) == \
        (cut.ncols, cut.pivots, r_rows(cut), cut.transform)
    with pytest.raises(PrecisionError):
        rref(rows[1:] + rows[:1])


# -- the packed check of coords against the series difference ------------------


def series_check(ech, v, x):
    """Reference for coords' second result: the valuation of v - x·A in series arithmetic."""
    m = min(v.prec, ech.ncols - 1)
    return (v.truncate(m) - combine(QSeries(x), ech.series, m)).valuation()


WIDE_SCALES = (1, 1, 1, 10**40 + 7, Fraction(1, 10**30 + 3), FieldElement(10**25, -(10**24), EXT3),
               FieldElement(0, 10**30 + 1, EXT3))


@st.composite
def packed_checks(draw):
    """Rows over Q and Q(t) (t^2 = 2t + 90) and targets v checked in turn on one echelon.

    Each v is a combination of the rows, as long as the last pivot or up to
    four columns longer than the rows, with a mismatch planted at column 0,
    at column m, in the t-part only, past v's precision or nowhere; some
    examples end with a zero target.  A target
    scaled by a wide factor after a narrow one makes the later check need a
    wider digit.  Each check comes with the column it must report when the
    plant leaves x unchanged, else "ref" (only the reference applies).
    """
    rnd = draw(st.randoms(use_true_random=True))
    t = EXT3.gen()
    ncols, nrows = rnd.randint(1, 40), rnd.randint(1, 5)

    def value(quad):
        top, ttop = rnd.choice((9, 9, 10**6, 10**30)), rnd.choice((9, 9, 10**6, 10**30))
        a = Fraction(rnd.randint(-top, top), rnd.choice((1, 1, 2, 3, 6)))
        return a + t * rnd.randint(-ttop, ttop) if quad and rnd.random() < 0.5 else a

    rows = []
    for _ in range(nrows):
        quad = rnd.random() < 0.4
        rows.append([value(quad) if rnd.random() < 0.8 else 0 for _ in range(ncols)])
    if nrows > 1 and rnd.random() < 0.5:  # a dependent row
        rows[-1] = combination([rnd.randint(-2, 2) for _ in rows[:-1]], rows[:-1])
    ech = rref([QSeries(r) for r in rows])
    low = max(ech.pivots, default=0)
    checks = []
    for _ in range(rnd.randint(1, 4)):
        scale = rnd.choice(WIDE_SCALES)
        y = [scale * value(rnd.random() < 0.3) if rnd.random() < 0.8 else 0 for _ in rows]
        full = combination(y, rows) + [value(True) for _ in range(4)]
        p = rnd.randint(low, ncols + 3)
        m = min(p, ncols - 1)
        plant = rnd.choice(("none", "zero", "m", "t-part", "past"))
        want = None
        if plant == "zero":
            full[0] += 1
            want = 0
        elif plant == "m":
            full[m] += Fraction(1, 7)
            want = m
        elif plant == "t-part":
            c = rnd.randint(0, m)
            full[c] += t
            want = c
        elif plant == "past" and p < ncols - 1:
            full[rnd.randint(p + 1, ncols - 1)] += 5  # a column the check must not read
        if want is not None and want in ech.pivots:
            want = "ref"  # the plant moves x, so the first failing column moves too
        checks.append((QSeries(full[: p + 1]), want))
    if rnd.random() < 0.3:  # a wide target after a narrow one
        v, want = checks[0]
        checks.append((v * (10**60 + 1), want))
    if rnd.random() < 0.1:
        checks.append((QSeries([0], rnd.randint(low, ncols + 3)), None))
    return [QSeries(r) for r in rows], checks


# no max_examples: the active profile sets it, and `--hypothesis-profile=ci` (tests/conftest.py) raises it
@settings(deadline=None, derandomize=True)
@given(packed_checks())
def test_packed_check_matches_the_series_difference(case):
    rows, checks = case
    ech = rref(rows)
    for v, want in checks:
        x, fail = ech.coords(v)
        assert fail == series_check(ech, v, x)
        if want != "ref":
            assert fail == want


def test_packed_check_on_a_zero_target():
    t = EXT3.gen()
    ech = rref([QSeries([1, t, 3]), QSeries([0, 2, Fraction(1, 5)])])
    assert ech.coords(QSeries([0], 2)) == ([0, 0], None)
    assert ech.coords(QSeries([0], 9)) == ([0, 0], None)
    assert ech.coords(QSeries([0, 0, t])) == ([0, 0], 2)


@pytest.mark.parametrize("k", [1, 2, 8, 9])
def test_packed_check_at_a_byte_boundary(k):
    """Entries of 2**(8k - 1), which need a digit of k + 1 bytes: in the rows, in v and in x·A alone."""
    top, t = 1 << (8 * k - 1), EXT3.gen()
    row = QSeries([1, top, -top, 0])
    assert rref([row]).coords(QSeries([0, 0, 0, 0])) == ([0], None)
    assert rref([row]).coords(QSeries([0, 0, top])) == ([0], 2)
    assert rref([row]).coords(QSeries([1, top, -top, top])) == ([1], 3)
    assert rref([row]).coords(QSeries([1, -top, top])) == ([1], 1)
    # t-parts of v and x alone set the width: rows over Q, t-parts of top
    ech = rref([QSeries([1, 0, 0]), QSeries([0, 1, 0])])
    assert ech.coords(QSeries([top * t, top * t, t])) == ([top * t, top * t], 2)


def test_a_first_failing_value_that_is_a_power_of_two():
    """v - x·A is a multiple of 2**80 at the failing column: each part of the bound must count."""
    t, big = EXT3.gen(), 1 << 40
    assert rref([QSeries([1, -big])]).coords(QSeries([big, 0])) == ([big], 1)  # x·X
    assert rref([QSeries([1, -big])]).coords(QSeries([big * t, 0])) == ([big * t], 1)  # x·X, in the t-part
    assert rref([QSeries([1, big * t])]).coords(QSeries([big, 0])) == ([big], 1)  # x·Y, in the t-part
    assert rref([QSeries([1, big * t])]).coords(QSeries([big * t, 0])) == ([big * t], 1)
    u = QuadExt(0, 3).gen()  # P = 0: only N·b·Y reaches the failing column
    assert rref([QSeries([1, big * u])]).coords(QSeries([big * u, 0])) == ([big * u], 1)
    assert rref([QSeries([1, 0])]).coords(QSeries([0, big * big])) == ([0], 1)  # v alone
    assert rref([QSeries([1, 0])]).coords(QSeries([0, big * big * t])) == ([0], 1)  # v's t-part alone


def test_a_stored_echelon_packs_its_rows_once(monkeypatch):
    t = EXT3.gen()
    rows = [QSeries([1, 2, 3, 4, 5, 6]), QSeries([0, 1, t, 0, 7, 1]), QSeries([0, 0, 1, 1, 1, 1])]
    ech = rref(rows)
    packed = []
    pack = linalg._pack

    def spy(cs, nb, bias):
        packed.append(tuple(cs))
        return pack(cs, nb, bias)

    monkeypatch.setattr(linalg, "_pack", spy)
    parts = [r.num for r in rows] + [rows[1].unum]
    v = combine(QSeries([2, Fraction(1, 3), -1]), rows)
    assert ech.coords(v) == ([2, Fraction(1, 3), -1], None)
    assert sorted(packed) == sorted(parts + [v.num, v.unum])  # each row part, then v
    del packed[:]
    w = combine(QSeries([1, 1, 1]), rows)
    assert ech.coords(w) == ([1, 1, 1], None)
    assert packed == [w.num, w.unum]  # v alone: no row is packed again
    del packed[:]
    wide = w * (10**50 + 3) + QSeries([0, 0, 0, 0, 1])
    x, fail = ech.coords(wide)
    assert fail == 4 == series_check(ech, wide, x)
    assert sorted(packed) == sorted(parts + [wide.num, wide.unum])  # a wider digit: every row part again
