"""The integer-parts normal form of QSeries against per-coefficient oracles.

Each operation is computed on the parts and compared with the same operation
done value by value on `coeffs`, over Q and over Q(t), with coefficients
near 10**40 and with mixed denominators.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmforms.exactnum import FieldElement, FieldMismatch, conj
from qmforms.forms import eisenstein
from qmforms.linalg import rref
from qmforms.qseries import PrecisionError, QSeries, combine
from test_qseries_product import (EXT, EXTS, OTHER, WIDE, huge_ints, quadratic_coeffs, rational_coeffs,
                                  rationals, series)

rational_scalars = st.one_of(st.integers(-10**6, 10**6), huge_ints,
                             st.fractions(min_value=-1000, max_value=1000, max_denominator=60))
scalars = st.one_of(rational_scalars,
                    st.builds(FieldElement, rational_scalars, rational_scalars, EXTS))
any_series = st.one_of(series(rational_coeffs), series(quadratic_coeffs))


def values(f: QSeries):
    return list(f.coeffs)


class ValueTupleForbidden(QSeries):
    """A series whose full value tuple fails the test when read."""

    __slots__ = ()

    @property
    def coeffs(self):
        pytest.fail("read the full value tuple of a series")


def assert_stored_types(f: QSeries):
    """ints where integral, reduced Fractions otherwise, FieldElements only where b != 0."""
    for c in f.coeffs:
        if isinstance(c, FieldElement):
            assert c.b != 0 and c.ext == f.ext
        elif isinstance(c, Fraction):
            assert c.denominator > 1
        else:
            assert type(c) is int


def assert_matches(got: QSeries, want: list, prec: int, ext):
    assert (got.prec, got.ext) == (prec, ext)
    assert values(got) == want
    assert got == QSeries(want, prec, ext)
    assert_stored_types(got)


@settings(max_examples=120, deadline=None)
@given(any_series, scalars)
@example(QSeries([0]), FieldElement(0, 0, EXT))  # a zero scalar over Q(t) keeps f over Q
def test_scalar_multiples(f, c):
    ext = c.ext if isinstance(c, FieldElement) else f.ext
    want = [c * x for x in f.coeffs]
    assert_matches(c * f, want, f.prec, f.ext if not c else ext)
    assert_matches(f * c, want, f.prec, f.ext if not c else ext)


@settings(max_examples=120, deadline=None)
@given(any_series, any_series)
def test_sums_differences_and_negation(f, g):
    p = min(f.prec, g.prec)
    ext = f.ext or g.ext
    assert_matches(f + g, [x + y for x, y in zip(f.coeffs, g.coeffs)], p, ext)
    assert_matches(f - g, [x - y for x, y in zip(f.coeffs, g.coeffs)], p, ext)
    assert_matches(-f, [-x for x in f.coeffs], f.prec, f.ext)


@settings(max_examples=120, deadline=None)
@given(any_series, st.integers(0, 3), st.integers(1, 4), st.integers(0, 45))
def test_derive_rescale_and_truncate(f, i, d, cut):
    assert_matches(f.derive(i), [x * n**i for n, x in enumerate(f.coeffs)], f.prec, f.ext)
    spread = [0] * (f.prec * d + 1)
    spread[::d] = f.coeffs
    assert_matches(f.rescale(d), spread, f.prec * d, f.ext)
    if cut <= f.prec:
        assert_matches(f.truncate(cut), list(f.coeffs[: cut + 1]), cut, f.ext)


@settings(max_examples=120, deadline=None)
@given(any_series, st.sampled_from([2, 3, 5, 7]), st.integers(1, 12), st.integers(1, 30))
def test_hecke(f, p, weight, level):
    a = f.coeffs
    want = [a[p * m] + (p ** (weight - 1) * a[m // p] if level % p and m % p == 0 else 0)
            for m in range(f.prec // p + 1)]
    assert_matches(f.hecke(p, weight, level), want, f.prec // p, f.ext)


@settings(max_examples=120, deadline=None)
@given(any_series)
def test_conjugation(f):
    assert_matches(f.conj(), [conj(x) for x in f.coeffs], f.prec, f.ext)
    assert f.conj().conj() == f


@settings(max_examples=80, deadline=None)
@given(series(rational_coeffs))
def test_rational_series_equal_their_quadratic_copies(f):
    lifted = QSeries([FieldElement(x, 0, EXT) for x in f.coeffs], f.prec)
    assert lifted.ext == EXT
    assert lifted == f and f == lifted
    assert hash(lifted) == hash(f)
    assert values(lifted) == values(f)
    assert_stored_types(lifted)


def test_integral_rational_series_read_their_numerators():
    f = eisenstein(4, 1, 64)
    assert f.den == 1 and f.unum is None
    assert f.coeffs is f.num


@pytest.mark.parametrize("cs", [
    [3, Fraction(-5, 4), 0, 10**40, Fraction(7, 2)],
    [1, FieldElement(Fraction(1, 2), Fraction(-2, 3), WIDE), Fraction(1, 6), FieldElement(2, 0, WIDE),
     FieldElement(0, 5, WIDE), FieldElement(Fraction(-1, 4), 7, WIDE) * FieldElement(3, 1, WIDE)],
])
def test_coeff_reads_one_value_from_the_parts(cs):
    f = ValueTupleForbidden(cs, len(cs) + 1)
    got = [f.coeff(n) for n in range(f.prec + 1)]
    want = QSeries(cs, len(cs) + 1).coeffs
    assert got == list(want)
    assert [type(c) for c in got] == [type(c) for c in want]


def test_different_descriptors_raise():
    f = QSeries([1, FieldElement(1, 2, EXT)], 1)
    g = QSeries([FieldElement(0, 1, OTHER), 3], 1)
    for op in (lambda: f + g, lambda: f - g, lambda: f * g, lambda: FieldElement(1, 1, OTHER) * f,
               lambda: FieldElement(0, 0, OTHER) * f,
               lambda: QSeries([FieldElement(0, 1, EXT), FieldElement(0, 1, OTHER)])):
        with pytest.raises(FieldMismatch):
            op()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([EXT, WIDE]), st.data())
def test_combinations(ext, data):
    field = st.one_of(rational_coeffs, st.builds(FieldElement, rationals, rationals, st.just(ext)))
    fs = data.draw(st.lists(series(field), min_size=1, max_size=5))
    cs = data.draw(st.lists(st.one_of(st.just(0), rational_scalars, field),
                            min_size=len(fs), max_size=len(fs)))
    low = min(f.prec for c, f in zip(cs, fs) if c) if any(cs) else min(f.prec for f in fs)
    prec = data.draw(st.integers(0, low))
    got = combine(QSeries(cs), fs, prec)
    want = [sum((c * f.coeffs[n] for c, f in zip(cs, fs) if c), 0) for n in range(prec + 1)]
    assert got.prec == prec and values(got) == want and got == QSeries(want, prec)
    assert_stored_types(got)
    if any(cs):
        with pytest.raises(PrecisionError):
            combine(QSeries(cs), fs, low + 1)


# -- Echelon.coords on Q(t) rows: the residual check in integer parts ----------

big_rationals = st.one_of(st.integers(-9, 9), huge_ints,
                          st.fractions(-10**6, 10**6, max_denominator=10**4))
big_quadratics = st.one_of(big_rationals, st.builds(FieldElement, big_rationals, big_rationals,
                                                    st.just(EXT)))


def first_mismatch(x, rows, v):
    """Reference: the first column where sum_j x_j rows_j != v, by value arithmetic."""
    m = min(len(v), len(rows[0]))
    for c in range(m):
        acc = sum((a * r[c] for a, r in zip(x, rows)), 0)
        if acc != v[c]:
            return c
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.data())
def test_coords_residual_matches_field_element_reference(nrows, ncols, data):
    rows = data.draw(st.lists(st.lists(big_quadratics, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    v = data.draw(st.lists(big_quadratics, min_size=ncols, max_size=ncols))
    if data.draw(st.booleans()):
        # a vector in the span, perturbed at one column
        y = data.draw(st.lists(big_quadratics, min_size=nrows, max_size=nrows))
        v = [sum((a * r[c] for a, r in zip(y, rows)), 0) for c in range(ncols)]
        v[data.draw(st.integers(0, ncols - 1))] += data.draw(st.sampled_from([0, 1, FieldElement(0, 1, EXT)]))
    x, fail = rref(rows).coords(v)
    assert fail == first_mismatch(x, rows, v)


# -- fail-fast inputs ----------------------------------------------------------


def test_inexact_coefficients_raise_type_error():
    for bad in ([1, 0.5, 2], [1, "2"], [None]):
        with pytest.raises(TypeError, match="exact value"):
            QSeries(bad)


@pytest.mark.parametrize("p, weight, level", [
    (2, 0, 1),    # weight 0 once wrote the floats 1.5 and 17640.0 into the series
    (4, 4, 1),    # 4 is not prime: T_4 is not this formula
    (0, 4, 1),    # once a ZeroDivisionError
    (1, 4, 1),
    (2, 4, 0),
    (2, 4.0, 1),
])
def test_hecke_rejects_bad_operators(p, weight, level):
    f = eisenstein(4, 1, 40)
    with pytest.raises(ValueError, match="T_p needs"):
        f.hecke(p, weight, level)


@settings(max_examples=120, deadline=None)
@given(any_series, st.integers(1, 4), st.data())
def test_rescale_to_a_target_precision(f, d, data):
    target = data.draw(st.integers(0, f.prec * d))
    spread = [0] * (f.prec * d + 1)
    spread[::d] = f.coeffs
    assert_matches(f.rescale(d, target), spread[: target + 1], target, f.ext)
    with pytest.raises(PrecisionError):
        f.rescale(d, f.prec * d + 1)
