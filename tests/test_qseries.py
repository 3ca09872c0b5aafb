import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmforms import oracle
from qmforms.forms import eisenstein, named_form, phi
from qmforms.qseries import PrecisionError, QSeries, eta_quotient, one, rc_bracket1


def test_mul_examples():
    f = QSeries([1, -24], 2)
    assert (f * f).coeff_list() == [1, -48, 576]
    e2 = eisenstein(2, 1, 8)
    assert (e2 * one(8)).coeff_list() == e2.coeff_list()
    assert (e2 * e2).coeff(2) == 432


def test_mul_cross_check_against_convolution():
    # coefficient of q^2 in E2^2 equals -48 sigma1(2) + 576 W_1(2)
    e2 = eisenstein(2, 1, 4)
    assert (e2 * e2).coeff(2) == -48 * oracle.sigma(1, 2) + 576 * oracle.W(1, 2)


def test_mul_takes_min_precision():
    f = QSeries([1, 1, 1], 2)
    g = QSeries([1, 1, 1, 1, 1], 4)
    assert (f * g).prec == 2


def test_mul_commutative_associative_random():
    rng = random.Random(3)
    for _ in range(20):
        f = QSeries([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 12))], 14)
        g = QSeries([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 12))], 10)
        h = QSeries([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 12))], 12)
        assert (f * g).coeff_list() == (g * f).coeff_list()
        assert ((f * g) * h).coeff_list() == (f * (g * h)).coeff_list()


def test_rescale():
    e2 = eisenstein(2, 1, 8)
    r = e2.rescale(2)
    assert r.prec == 16
    assert r.coeff(1) == 0
    assert r.coeff(2) == -24
    d45 = named_form("delta_4_5", 16)[1]
    assert d45.rescale(2).coeff_list(16) == named_form("f_4_5_2", 16)[1].coeff_list()


def test_rescale_composes():
    f = eisenstein(4, 1, 10)
    assert f.rescale(6).coeff_list() == f.rescale(2).rescale(3).coeff_list()


def test_derive():
    assert one(5).derive().valuation() is None
    e2 = eisenstein(2, 1, 6)
    assert e2.derive().coeff(1) == -24
    assert e2.derive(3).coeff(2) == -576
    assert e2.derive(0) is e2


def test_derive_leibniz():
    rng = random.Random(7)
    f = QSeries([rng.randrange(-9, 10) for _ in range(12)])
    g = QSeries([rng.randrange(-9, 10) for _ in range(12)])
    lhs = (f * g).derive()
    rhs = f.derive() * g + f * g.derive()
    assert lhs.coeff_list() == rhs.coeff_list()


def test_power():
    e2 = eisenstein(2, 1, 10)
    assert e2.power(0).coeff_list() == one(10).coeff_list()
    cube = (e2 - 1).power(3)
    assert cube.valuation() == 3
    assert cube.coeff(3) == -13824
    p = phi(1, 5, 10)
    assert (p * p).coeff(0) == 1


def test_root_perfect_cube():
    f = QSeries([0, 0, 0, 1, 3, 3, 1], 6)
    g = f.root(3)
    assert g.coeff_list(2) == [0, 1, 1]
    assert f.root(1) is f


def test_root_preconditions():
    with pytest.raises(ValueError):
        QSeries([0, 2, 0, 0], 3).root(2)        # leading coefficient not 1
    with pytest.raises(ValueError):
        QSeries([0, 1, 0, 0], 3).root(2)        # valuation not divisible
    with pytest.raises(ValueError):
        QSeries([0, 1], 1).root(0)


def test_root_of_eta_sum_matches_table():
    _, d47 = named_form("delta_4_7", 24)
    table = oracle.table_entries("tau_4_7")
    for n in range(1, 23):
        assert d47.coeff(n) == table[n]


@given(st.integers(2, 4), st.lists(st.integers(-5, 5), min_size=0, max_size=6))
@settings(max_examples=40)
def test_root_power_roundtrip(n, tail):
    g = QSeries([1] + tail, 10)
    f = g.power(n)
    assert f.root(n).coeff_list() == g.coeff_list()


def test_eta_quotient_examples():
    delta = eta_quotient([(1, 24)], 6)
    assert delta.coeff(2) == -24 and delta.coeff(3) == 252
    f1 = eta_quotient([(1, 4), (11, 4)], 10)
    assert f1.coeff_list(5) == [0, 0, 1, -4, 2, 8]
    d82 = eta_quotient([(1, 8), (2, 8)], 6)
    assert d82.valuation() == 1 and d82.coeff(1) == 1


def test_eta_quotient_fractional_exponent_rejected():
    with pytest.raises(ValueError):
        eta_quotient([(1, 4)], 8)


def test_eta_negative_exponents():
    # eta(z)^24 / eta(2z)^24 * eta(2z)^48 = eta(z)^24 eta(2z)^24
    a = eta_quotient([(1, 24), (2, -24), (2, 48)], 12)
    b = eta_quotient([(1, 24), (2, 24)], 12)
    assert a.coeff_list() == b.coeff_list()


def test_hecke_examples():
    f1 = eta_quotient([(1, 4), (11, 4)], 24)
    f2 = f1.hecke(2, 4, 11)
    assert f2.coeff_list(5) == [0, 1, 2, -5, -2, 9]
    assert f2.prec == 12
    # at level 10 the operator reduces to reading even coefficients
    g = QSeries(list(range(13)), 12)
    assert g.hecke(2, 6, 10).coeff_list() == [0, 2, 4, 6, 8, 10, 12]
    z = QSeries([0], 8)
    assert z.hecke(3, 4, 1).valuation() is None


def test_hecke_eigenform_catalog_entry(reg):
    nf = reg.newform("4.5.1")
    image = nf.series.hecke(3, 4, 5)
    expected = nf.series.coeff(3) * nf.series
    assert image.coeff_list(image.prec) == expected.coeff_list(image.prec)


def test_rc_bracket_antisymmetry():
    e4 = eisenstein(4, 1, 12)
    assert rc_bracket1(e4, 4, e4, 4).valuation() is None
    p = phi(1, 5, 12)
    lhs = rc_bracket1(e4, 4, p, 2)
    rhs = 4 * (e4 * p.derive()) - 2 * (e4.derive() * p)
    assert lhs.coeff_list() == rhs.coeff_list()


def test_precision_reads_are_strict():
    f = QSeries([1, 2, 3], 2)
    with pytest.raises(PrecisionError):
        f.coeff(3)
    with pytest.raises(PrecisionError):
        f.truncate(5)


def test_series_str():
    f = QSeries([1, 0, Fraction(1, 2)], 2)
    assert str(f) == "1 + 1/2*q^2 (prec 2, field Q)"
