"""The Kronecker-substitution series product against the schoolbook product."""

from fractions import Fraction
from math import isqrt
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmforms import qseries
from qmforms.exactnum import FieldElement, FieldMismatch, QuadExt
from qmforms.forms import eisenstein, named_form, phi
from qmforms.qseries import QSeries, _int_product, eta_quotient


def schoolbook(f: QSeries, g: QSeries) -> QSeries:
    """Reference product: the plain double loop over coefficient pairs."""
    p = min(f.prec, g.prec)
    ext = f.ext if f.ext is not None else g.ext
    fc, gc = f.coeffs, g.coeffs
    out = [0] * (p + 1)
    for i in range(min(len(fc) - 1, p) + 1):
        fi = fc[i]
        if not fi:
            continue
        for j in range(min(len(gc) - 1, p - i) + 1):
            gj = gc[j]
            if gj:
                out[i + j] += fi * gj
    return QSeries(out, p, ext)


def assert_same_product(f: QSeries, g: QSeries):
    got, want = f * g, schoolbook(f, g)
    assert got == want
    assert got.to_record() == want.to_record()


EXT = QuadExt(1, 3)    # t^2 = t + 3
OTHER = QuadExt(0, 5)  # t^2 = 5
WIDE = QuadExt(2, 90)  # t^2 = 2t + 90: P != 0 and a large N
# one descriptor per example, shared by every quadratic value drawn in it
EXTS = st.shared(st.sampled_from([EXT, WIDE]), key="ext")

small_ints = st.integers(-10**6, 10**6)
huge_ints = st.integers(10**40 - 10**6, 10**40 + 10**6) | st.integers(-10**40 - 10**6, -10**40 + 10**6)
rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
integral_fractions = small_ints.map(Fraction)
rational_coeffs = st.one_of(st.just(0), small_ints, huge_ints, rationals, integral_fractions)
quadratic_coeffs = st.one_of(
    rational_coeffs,
    st.builds(FieldElement, rationals, rationals, EXTS),
    st.builds(FieldElement, small_ints, st.just(0), EXTS),
)


@st.composite
def series(draw, coeffs, max_prec=40):
    prec = draw(st.integers(0, max_prec))
    cs = draw(st.lists(coeffs, max_size=prec + 1))
    return QSeries(cs, prec)


@settings(max_examples=150, deadline=None)
@given(series(rational_coeffs), series(rational_coeffs))
def test_rational_product_matches_schoolbook(f, g):
    assert_same_product(f, g)


@settings(max_examples=100, deadline=None)
@given(series(quadratic_coeffs, max_prec=20), series(quadratic_coeffs, max_prec=20))
def test_quadratic_product_matches_schoolbook(f, g):
    assert_same_product(f, g)


@pytest.mark.parametrize("f, g", [
    (QSeries([0], 5), QSeries([1, 2, 3], 5)),
    (QSeries([0], 0), QSeries([0], 0)),
    (QSeries([7], 0), QSeries([Fraction(-3, 4)], 0)),
    (QSeries([1, -1, 2], 2), QSeries([3, 0, 0, 0, 5], 9)),
    (QSeries([10**40, -(10**40)], 3), QSeries([-(10**40) + 1, 10**40 - 1, 10**40], 3)),
    (QSeries([Fraction(5), Fraction(-6)], 1), QSeries([Fraction(1, 3), Fraction(2)], 1)),
    (QSeries([FieldElement(0, 1, EXT)], 4), QSeries([FieldElement(0, 1, EXT)], 4)),
    (QSeries([FieldElement(2, 0, EXT), 0, Fraction(1, 2)], 3), QSeries([1, FieldElement(1, -1, EXT)], 2)),
])
def test_edge_cases(f, g):
    assert_same_product(f, g)


def test_integral_fractions_are_stored_as_ints():
    h = QSeries([Fraction(4, 2), Fraction(1, 3)]) * QSeries([Fraction(3), Fraction(-6)])
    assert [type(c) for c in h.coeffs] == [int, int]
    assert h.coeffs == (6, -11)
    assert type((QSeries([Fraction(1, 2)]) * QSeries([Fraction(1, 3)])).coeffs[0]) is Fraction


def test_different_descriptors_raise():
    f = QSeries([1, FieldElement(0, 1, EXT)], 1)
    g = QSeries([1, FieldElement(0, 1, OTHER)], 1)
    with pytest.raises(FieldMismatch):
        f * g


def test_truncation_commutes_with_the_product():
    forms = [phi(1, 5, 512), 9 * phi(1, 10, 512), eisenstein(4, 1, 512),
             eta_quotient(((1, 4), (5, 4)), 512), named_form("delta_4_7", 512)[1]]
    for f in forms:
        for g in forms:
            assert (f * g).truncate(128) == f.truncate(128) * g.truncate(128)
    assert_same_product(forms[0].truncate(128), forms[1].truncate(128))


# -- the int kernel ------------------------------------------------------------


def convolution(xs, ys):
    """Reference kernel: the first len(xs) coefficients, one dot product each."""
    return [sum(map(mul, xs[: k + 1], reversed(ys[: k + 1]))) for k in range(len(xs))]


KERNEL_STRIDES = (1,) * 8 + tuple(range(2, 15)) + (30, 100, 500)


@st.composite
def kernel_operands(draw):
    """Two int lists of one length up to 700, or one list twice.

    Widths from 0 to 160 bits put packed sizes on both sides of the cutoff.
    Each list is in q^d for a drawn d (d = 1 is dense; the large d put
    d*d on both sides of n), and its coefficients
    are random, all at one extreme (the digit bound is then nearly tight), zero
    or a constant.
    """
    rnd = draw(st.randoms(use_true_random=True))
    n = rnd.randint(1, 700)

    def operand(stride):
        top = 1 << rnd.choice((0, 1, 3, 8, 20, 40, 80, 160))
        shape = rnd.choices(("random", "extreme", "zero", "constant"), (12, 4, 1, 1))[0]
        xs = [0] * n
        if shape == "constant":
            xs[0] = rnd.randint(-top, top)
        elif shape != "zero":
            sign = rnd.choice((-1, 1))
            xs[::stride] = [sign * top if shape == "extreme" else rnd.randint(-top, top) for _ in xs[::stride]]
        return xs

    sx = rnd.choice(KERNEL_STRIDES)
    xs = operand(sx)
    pick = rnd.random()
    if pick < 0.15:
        return xs, xs
    return xs, operand(sx if pick < 0.4 else rnd.choice(KERNEL_STRIDES))


# no max_examples: the active profile sets it, and `--hypothesis-profile=ci` (tests/conftest.py) raises it
@settings(deadline=None, derandomize=True)
@given(kernel_operands())
def test_kernel_matches_the_convolution(operands):
    xs, ys = operands
    assert _int_product(xs, ys) == convolution(xs, ys)


@pytest.mark.parametrize("n, nb", [(1, 1), (7, 2), (64, 8), (300, 4), (700, 12), (700, 40)])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
def test_kernel_with_the_digit_bound_tight(n, nb, signs):
    """Every coefficient at +-a, so q^(n-1) reaches the bound n*a*a: just below 2**(8*nb - 1), then just above."""
    low = isqrt(((1 << (8 * nb - 1)) - 1) // n)
    for a, bits in ((low, 8 * nb - 1), (low + 1, 8 * nb)):
        assert (n * a * a).bit_length() == bits
        xs, ys = [signs[0] * a] * n, [signs[1] * a] * n
        assert _int_product(xs, ys) == convolution(xs, ys)
        assert _int_product(xs, xs) == convolution(xs, xs)


@pytest.mark.parametrize("n", [1, 2, 101, 700])
def test_kernel_on_zero_and_constant_operands(n):
    dense = [(-1) ** i * (i * 7919 + 3) ** 5 for i in range(n)]
    zero, constant = [0] * n, [-12345678901234567890] + [0] * (n - 1)
    for xs, ys in [(zero, dense), (dense, zero), (zero, zero), (constant, dense), (dense, constant),
                   (constant, constant), (dense, dense)]:
        assert _int_product(xs, ys) == convolution(xs, ys)


def test_a_product_in_q7_multiplies_lists_of_length_101(monkeypatch):
    f, g = eisenstein(4, 1, 100), eisenstein(6, 1, 100)
    lengths = []
    kernel = qseries._int_product

    def spy(xs, ys):
        lengths.append(len(xs))
        return kernel(xs, ys)

    monkeypatch.setattr(qseries, "_int_product", spy)
    h = f.rescale(7) * g.rescale(7)
    assert lengths == [701, 101]
    monkeypatch.undo()
    assert h == (f * g).rescale(7)
