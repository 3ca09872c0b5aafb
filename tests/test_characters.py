import time
from fractions import Fraction
from math import comb

import pytest

from qmforms import oracle
from qmforms.characters import (
    bernoulli,
    gen_bernoulli,
    principal_character,
    quadratic_character,
    sigma_twisted,
    sigma_twisted_table,
    trivial_character,
    twist,
    twisted_level,
)
from qmforms.forms import eisenstein, evaluate, parse_expr


def test_character_values():
    chi3 = quadratic_character(3)
    assert chi3(2) == -1 and chi3(1) == 1 and chi3(0) == 0
    assert quadratic_character(13)(2) == -1
    assert principal_character(6)(35) == 1
    assert trivial_character()(0) == 1


def test_quadratic_character_requires_odd_prime():
    with pytest.raises(ValueError):
        quadratic_character(9)
    with pytest.raises(ValueError):
        quadratic_character(2)


def test_complete_multiplicativity():
    for chi in (quadratic_character(13), principal_character(12)):
        m = chi.modulus
        for a in range(m):
            for b in range(m):
                assert chi(a * b) == chi(a) * chi(b) or (chi(a) == 0 or chi(b) == 0)
                if chi(a) and chi(b):
                    assert chi(a * b) == chi(a) * chi(b)


def test_parity():
    assert quadratic_character(3).parity == -1
    assert quadratic_character(13).parity == 1
    assert trivial_character().parity == 1


def _bernoulli_pascal(kmax):
    # independent recurrence: sum_j C(m+1, j) B_j = 0 for m >= 1
    bs = [Fraction(1)]
    for m in range(1, kmax + 1):
        s = sum(comb(m + 1, j) * bs[j] for j in range(m))
        bs.append(-s / (m + 1))
    return bs


def test_bernoulli_against_recurrence_oracle():
    want = _bernoulli_pascal(14)
    for k in range(15):
        assert bernoulli(k) == want[k]
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(6) == Fraction(1, 42)


def test_gen_bernoulli_examples():
    assert gen_bernoulli(trivial_character(), 4) == Fraction(-1, 30)
    assert gen_bernoulli(quadratic_character(3), 1) == Fraction(-1, 3)
    assert gen_bernoulli(trivial_character(), 0) == 1


def test_odd_character_even_indices_vanish():
    chi3 = quadratic_character(3)
    assert chi3.parity == -1
    for k in (2, 4, 6):
        assert gen_bernoulli(chi3, k) == 0


def test_sigma_twisted_examples():
    one = trivial_character()
    chi3 = quadratic_character(3)
    assert sigma_twisted(one, one, 3, 6) == 252
    assert sigma_twisted(chi3, quadratic_character(13), 4, 1) == 1
    assert sigma_twisted(one, chi3, 1, 3) == 1
    assert sigma_twisted(one, one, 1, 0) == 0
    assert sigma_twisted(one, one, 1, -4) == 0


@pytest.mark.parametrize("psi,phi", [
    ("one", "chi13"), ("chi13", "one"),  # the catalog's character Eisenstein series
    ("one", "one"), ("chi3", "chi3"), ("chi0_4", "chi5"), ("chi7", "chi0_6")])
def test_sigma_twisted_table_matches_trial_division(psi, phi):
    chars = {"one": trivial_character(), "chi13": quadratic_character(13),
             "chi3": quadratic_character(3), "chi5": quadratic_character(5),
             "chi7": quadratic_character(7), "chi0_4": principal_character(4),
             "chi0_6": principal_character(6)}
    psi, phi = chars[psi], chars[phi]
    for k in (0, 1, 3):
        table = sigma_twisted_table(psi, phi, k, 300)
        assert table == [sigma_twisted(psi, phi, k, n) for n in range(301)]
    assert sigma_twisted_table(psi, phi, 1, 0) == [0]


def test_sigma_twisted_trivial_matches_oracle():
    one = trivial_character()
    t = oracle.sigma_table(1, 10000)
    for n in range(1, 10001):
        assert sigma_twisted(one, one, 1, n) == t[n]
    t3 = oracle.sigma_table(3, 2000)
    for n in range(1, 2001):
        assert sigma_twisted(one, one, 3, n) == t3[n]


def test_twist():
    e2 = eisenstein(2, 1, 9)
    chi3 = quadratic_character(3)
    tw = twist(e2, chi3)
    assert tw.coeff(0) == 0
    assert tw.coeff(1) == -24
    assert tw.coeff(3) == 0
    assert twist(e2, trivial_character()).coeff_list() == e2.coeff_list()


def test_twist_by_square():
    e2 = eisenstein(2, 1, 12)
    chi3 = quadratic_character(3)
    chi0 = principal_character(3)
    double = twist(twist(e2, chi3), chi3)
    assert double.coeff_list() == twist(e2, chi0).coeff_list()


def test_twisted_level():
    chi3 = quadratic_character(3)
    assert twisted_level(1, chi3) == 9
    assert twisted_level(3, chi3) == 9
    assert twisted_level(2, chi3) == 18
    assert twisted_level(5, trivial_character()) == 5


def test_a_large_modulus_is_evaluated_by_rule():
    # a table of the character would cost the modulus; read by rule it costs prec + 1 values
    t0 = time.perf_counter()
    f = evaluate(parse_expr("twist(E(4),chi1000003)"), 64)
    assert time.perf_counter() - t0 < 0.5
    assert principal_character(20000000).values(4) == [0, 1, 0, 1, 0]
    legendre_symbol = pytest.importorskip("sympy").legendre_symbol
    e4 = eisenstein(4, 1, 64)
    assert f.coeff_list() == [legendre_symbol(n, 1000003) * e4.coeff(n) for n in range(65)]
