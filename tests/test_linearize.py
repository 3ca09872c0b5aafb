import random
from fractions import Fraction

import pytest

from qmforms import forms, oracle
from qmforms.exactnum import IntegrityError
from qmforms.linearize import (
    build_H,
    build_lahiri,
    decompose,
    mixed_qm_basis,
    named_qm_basis,
    qm_basis,
    sturm_margin,
)
from qmforms.qseries import PrecisionError, QSeries

P = 128


def F(*args):
    return Fraction(*args)


def test_qm_basis_sizes():
    assert len(qm_basis(4, 3, 2, P)) == 4
    assert len(qm_basis(4, 1, 2, P)) == 2
    assert len(qm_basis(6, 1, 1, P)) == 2
    assert len(qm_basis(8, 2, 1, P)) == 5
    assert [str(e) for e, _ in named_qm_basis(6, 1, 1, P).elements] == ["E(6)", "D(E(4))"]


def test_decompose_e2_squared():
    e2 = forms.eisenstein(2, 1, P)
    d = decompose(e2 * e2, named_qm_basis(4, 1, 2, P))
    assert d.coefficients == (1, 12)
    assert d.verified_to == P


def test_decompose_h3(reg):
    d = decompose(build_H(3, P), named_qm_basis(4, 3, 2, P, reg))
    assert d.coefficients == (F(1, 10), F(9, 10), 4, 4)


def test_decompose_zero(reg):
    z = QSeries([0], P)
    d = decompose(z, named_qm_basis(4, 3, 2, P, reg))
    assert all(c == 0 for c in d.coefficients)


def test_decompose_roundtrip_random(reg):
    basis = named_qm_basis(4, 6, 2, P, reg)
    rng = random.Random(11)
    coeffs = [F(rng.randrange(-30, 31), rng.randrange(1, 7)) for _ in basis.elements]
    target = None
    for c, (_, s) in zip(coeffs, basis.elements):
        term = c * s
        target = term if target is None else target + term
    d = decompose(target, basis)
    assert list(d.coefficients) == coeffs


def test_decompose_detects_corruption(reg):
    basis = named_qm_basis(4, 3, 2, P, reg)
    target = build_H(3, P)
    cs = list(target.coeffs)
    cs[100] += 1
    with pytest.raises(ValueError, match="exponent 100"):
        decompose(QSeries(cs, P), basis)


def test_failed_verification_is_an_integrity_error(reg):
    cs = list(build_H(3, P).coeffs)
    cs[90] -= 1
    with pytest.raises(IntegrityError, match="fails verification at exponent 90"):
        decompose(QSeries(cs, P), named_qm_basis(4, 3, 2, P, reg))


def test_decompose_rejects_dependent_basis(reg):
    b = named_qm_basis(4, 3, 2, P, reg)
    from qmforms.linearize import QMBasis

    doubled = QMBasis(b.elements + b.elements[:1], b.weights + b.weights[:1], b.level)
    with pytest.raises(ValueError, match="dependent"):
        decompose(build_H(3, P), doubled)


def test_decompose_precision_guard(reg):
    basis = named_qm_basis(4, 3, 2, 16, reg)
    with pytest.raises(PrecisionError):
        decompose(build_H(3, 16), basis)


def test_sturm_margin():
    assert sturm_margin(4, 3) == 64
    assert sturm_margin(4, 14) == 64
    assert sturm_margin(6, 10) == 72   # eight times the equality bound


def test_build_h_coefficient_identity():
    for N in (1, 2, 5):
        h = build_H(N, 40)
        for n in (1, 6, 17, 40):
            want = -24 * (oracle.sigma(1, n) + (oracle.sigma(1, n // N) if n % N == 0 else 0)) \
                + 576 * oracle.W(N, n)
            assert h.coeff(n) == want
    assert build_H(1, 8).coeff(1) == -48
    assert build_H(2, 8).coeff(1) == -24
    assert build_H(5, 8).coeff(6) == 288


def test_build_lahiri_normalizations():
    _, c = build_lahiri((0, 1, 1), (1, 1, 1), (1, 1, 1), 16)
    assert c == -(24**3)
    _, c = build_lahiri((0, 0, 0, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 16)
    assert c == -(24**5)
    psi, c = build_lahiri((0,), (1,), (1,), 16)
    assert c == -24
    assert psi.coeff(1) == c * oracle.sigma(1, 1)


def test_build_lahiri_matches_oracle_sweep():
    for a, b, nv in [((0, 1), (1, 1), (2, 5)), ((1, 1), (1, 1), (1, 5))]:
        psi, c = build_lahiri(a, b, nv, 48)
        sweep = oracle.lahiri_range(a, b, nv, 48)
        for n in range(1, 49):
            assert psi.coeff(n) == c * sweep[n]


def test_build_lahiri_preconditions():
    with pytest.raises(ValueError):
        build_lahiri((1, 0), (1, 1), (1, 1), 16)     # not ascending
    with pytest.raises(ValueError):
        build_lahiri((0,), (2,), (1,), 16)           # even index


def test_mixed_basis_size(reg):
    b = mixed_qm_basis([8, 10], 1, P, reg)
    assert len(b) == 9
    b2 = mixed_qm_basis([8, 10, 12, 14], 1, P, reg)
    assert len(b2) == 24
