from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmforms.exactnum import (
    FieldElement,
    FieldMismatch,
    IntegrityError,
    QuadExt,
    QuadraticFactor,
    conj,
    factor_small,
    format_element,
    format_parts,
    join_parts,
    parse_element,
    poly_divmod,
    poly_mul,
    trace,
)

EXT_T = QuadExt(2, 2)    # t^2 = 2t + 2
EXT_U = QuadExt(1, 4)    # u^2 = u + 4


def fe(a, b, ext=EXT_T):
    return FieldElement(a, b, ext)


def test_generator_square():
    t = EXT_T.gen()
    assert t * t == fe(2, 2)


def test_identity_multiplication():
    x = fe(3, Fraction(1, 2))
    assert fe(1, 0) * x == x


def test_u_times_one_minus_u():
    u = EXT_U.gen()
    assert u * (1 - u) == -4


def test_conj_examples():
    assert conj(EXT_T.gen()) == fe(2, -1)
    assert conj(7) == 7
    assert conj(EXT_U.gen()) == FieldElement(1, -1, EXT_U)


def test_trace_examples():
    assert trace(EXT_T.gen()) == 2
    assert trace(5) == 10
    assert trace(EXT_U.gen()) == 1


def test_division_and_inverse():
    x = fe(3, -2)
    assert x / x == 1
    y = (1 / x) * x
    assert y == 1


def test_mismatched_descriptors_rejected():
    with pytest.raises(FieldMismatch):
        EXT_T.gen() * EXT_U.gen()


def test_integrity_errors_are_value_errors():
    assert issubclass(FieldMismatch, IntegrityError)
    assert issubclass(IntegrityError, ValueError)


def test_descriptor_must_be_real_and_irreducible():
    with pytest.raises(ValueError):
        QuadExt(0, -1)       # complex
    with pytest.raises(ValueError):
        QuadExt(3, -2)       # (X-1)(X-2)


@pytest.mark.parametrize("make", [
    lambda: QuadExt(Fraction(1, 3), Fraction(5, 2)),
    lambda: QuadExt(Fraction(1, 2), 3),
    lambda: parse_element("1+1*t@(1/3,5/2)"),
])
def test_descriptor_must_be_integral(make):
    with pytest.raises(ValueError, match="not integral"):
        make()


def test_descriptor_holds_ints():
    for ext in (QuadExt(2, 2), QuadExt(Fraction(4, 2), Fraction(2))):
        assert (type(ext.p), type(ext.q)) == (int, int) and ext == QuadExt(2, 2)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def elements(draw, ext=EXT_T):
    return FieldElement(draw(rationals), draw(rationals), ext)


@given(elements())
@settings(max_examples=80)
def test_conj_involution_and_rational_invariants(x):
    assert conj(conj(x)) == x
    tr = trace(x)
    assert isinstance(tr, Fraction)
    assert x * conj(x) == x.a * x.a + x.a * x.b * EXT_T.p - x.b * x.b * EXT_T.q


@given(elements(), elements(), elements())
@settings(max_examples=60)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


def test_factor_x2_2x_2():
    roots, quads = factor_small([-2, -2, 1])
    assert roots == []
    assert quads == [QuadraticFactor(Fraction(2), Fraction(2), True)]


def test_factor_quartic_with_complex_part():
    # (X - 2)(X + 2)(X^2 + X + 8)
    poly = poly_mul(poly_mul([-2, 1], [2, 1]), [8, 1, 1])
    roots, quads = factor_small(poly)
    assert roots == [2, -2]
    assert quads == [QuadraticFactor(Fraction(-1), Fraction(-8), False)]


def test_factor_cubic_with_rational_root():
    # (X + 5)(X^2 - X - 4)
    poly = poly_mul([5, 1], [-4, -1, 1])
    roots, quads = factor_small(poly)
    assert roots == [-5]
    assert quads == [QuadraticFactor(Fraction(1), Fraction(4), True)]


def test_factor_product_reconstructs_input():
    poly = [Fraction(6), Fraction(-5), Fraction(-2), Fraction(1)]
    roots, quads = factor_small(poly)
    rebuilt = [Fraction(1)]
    for r in roots:
        rebuilt = poly_mul(rebuilt, [-r, Fraction(1)])
    for qf in quads:
        rebuilt = poly_mul(rebuilt, [-qf.q, -qf.p, Fraction(1)])
    lead = poly[-1]
    assert [c * lead for c in rebuilt] == poly


def test_factor_degree_limit():
    with pytest.raises(ValueError):
        factor_small([1, 0, 0, 0, 0, 0, 1])


def test_poly_divmod_exact():
    a = poly_mul([1, 2, 1], [3, 1])
    q, r = poly_divmod(a, [3, 1])
    assert q == [1, 2, 1] and r == []


def test_serialization_roundtrip():
    vals = [
        Fraction(5, 12),
        Fraction(-7),
        fe(Fraction(-43, 4026), Fraction(-1, 2013)),
        FieldElement(248, -20, QuadExt(20, -24)),
    ]
    for v in vals:
        assert parse_element(format_element(v)) == v


def test_serialization_examples():
    assert format_element(Fraction(5, 12)) == "5/12"
    x = FieldElement(2, -1, EXT_T)
    assert format_element(x) == "2+-1*t@(2,2)"


# -- one formatter: format_parts on integer parts ----------------------------

WIDE = QuadExt(2, 90)  # t^2 = 2t + 90: P != 0 and a large N
part_ints = st.one_of(st.integers(-50, 50), st.integers(-10**40, 10**40))


@st.composite
def integer_parts(draw):
    """(num, unum, den, ext): over Q with den 1 or den > 1, or over Q(t), zeros and negatives included."""
    ext = draw(st.sampled_from([None, QuadExt(1, 3), WIDE]))
    n = draw(st.integers(0, 12))
    num = draw(st.lists(part_ints, min_size=n, max_size=n))
    unum = None if ext is None else draw(st.lists(st.one_of(st.just(0), part_ints), min_size=n, max_size=n))
    den = draw(st.one_of(st.just(1), st.integers(2, 10**6), st.integers(2, 10**30)))
    return num, unum, den, ext


def value_str(x) -> str:
    """Each value's string from its Fraction parts, as the printed form is specified."""
    def frac(y):
        y = Fraction(y)
        return str(y.numerator) if y.denominator == 1 else f"{y.numerator}/{y.denominator}"

    if isinstance(x, FieldElement) and x.b != 0:
        return f"{frac(x.a)}+{frac(x.b)}*t@({frac(x.ext.p)},{frac(x.ext.q)})"
    return frac(x.a if isinstance(x, FieldElement) else x)


@settings(max_examples=300, deadline=None)
@given(integer_parts())
def test_format_parts_is_format_element_of_the_values(parts):
    vals = join_parts(*parts)
    got = format_parts(*parts)
    assert got == [format_element(v) for v in vals]
    assert got == [value_str(v) for v in vals]
    assert [parse_element(s) for s in got] == list(vals)


def test_format_parts_examples():
    assert format_parts([3, -4, 0, 6], None, 6, None) == ["1/2", "-2/3", "0", "1"]
    assert format_parts([1, 0, 2], [0, 1, -1], 2, QuadExt(1, 3)) == ["1/2", "0+1/2*t@(1,3)", "1+-1/2*t@(1,3)"]


def test_series_str_is_unchanged(reg):
    from qmforms.qseries import series_str, zero

    def reference(f, upto):
        terms = [(n, value_str(c)) for n, c in enumerate(f.coeffs[: upto + 1]) if c or n == 0]
        body = " + ".join(s if n == 0 else f"{s}*q" if n == 1 else f"{s}*q^{n}" for n, s in terms)
        return f"{body} (prec {f.prec}, field {f.ext or 'Q'})"

    f = reg.newform("4.11.1").series
    assert series_str(f, upto=6) == ("0 + 1*q + 2+-1*t@(2,2)*q^2 + -5+4*t@(2,2)*q^3 + -2+-2*t@(2,2)*q^4"
                                     " + 9+-8*t@(2,2)*q^5 + -18+5*t@(2,2)*q^6 (prec 128, field (2,2))")
    for g in (f, Fraction(5, 6) * f, fe(Fraction(1, 2), Fraction(1, 3), EXT_T) * f,
              reg.newform("8.5.2").series):
        assert series_str(g) == reference(g, g.prec)
        assert g.to_record()["coeffs"] == [value_str(c) for c in g.coeffs]
    assert series_str(zero(5)) == "0 (prec 5, field Q)"
    assert series_str(zero(0)) == "0 (prec 0, field Q)"
