import random
from fractions import Fraction

import pytest

from qmforms import forms, linalg, oracle
from qmforms.exactnum import IntegrityError
from qmforms.forms import _echelon
from qmforms.linearize import (
    QMBasis,
    build_H,
    build_lahiri,
    decompose,
    mixed_qm_basis,
    named_qm_basis,
    sturm_margin,
)
from qmforms.qseries import PrecisionError, QSeries

P = 128


def F(*args):
    return Fraction(*args)


def test_qm_basis_sizes():
    assert len(named_qm_basis(4, 3, 2, P)) == 4
    assert len(named_qm_basis(4, 1, 2, P)) == 2
    assert len(named_qm_basis(6, 1, 1, P)) == 2
    assert len(named_qm_basis(8, 2, 1, P)) == 5
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
    basis = named_qm_basis(4, 3, 2, P, reg)
    assert decompose(build_H(3, P), basis).coefficients == (F(1, 10), F(9, 10), 4, 4)
    cs = list(build_H(3, P).coeffs)
    cs[90] -= 1
    # the echelon is stored by now; every coefficient is still checked
    with pytest.raises(IntegrityError, match="fails verification at exponent 90"):
        decompose(QSeries(cs, P), basis)


def test_decompose_rejects_dependent_basis(reg):
    b = named_qm_basis(4, 3, 2, P, reg)
    from qmforms.linearize import QMBasis

    doubled = QMBasis(b.elements + b.elements[:1], b.weights + b.weights[:1], b.level)
    with pytest.raises(ValueError, match="dependent"):
        decompose(build_H(3, P), doubled)


def test_decompose_precision_guard():
    basis = named_qm_basis(4, 3, 2, 16)
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


def test_mixed_basis_is_stored_by_sorted_weights(reg):
    b = mixed_qm_basis([10, 8], 1, P, reg)
    assert mixed_qm_basis((8, 10), 1, P) == b
    assert mixed_qm_basis((8, 10), 1, P).echelon is b.echelon
    assert b.elements[:4] == named_qm_basis(8, 1, None, P, reg).elements


def _pinned_runs(reg):
    """(target, basis function) of the pinned decompositions at precision P."""
    e2 = forms.eisenstein(2, 1, P)
    de2 = e2.derive()
    runs = [(e2 * e2, lambda: named_qm_basis(4, 1, 2, P, reg))]
    runs += [(build_H(n, P), lambda n=n: named_qm_basis(4, n, 2, P, reg))
             for n in (2, 3, 5, 6, 10, 11, 13, 14)]
    runs += [(forms.eisenstein(2, 2, P) * forms.eisenstein(6, 1, P),
              lambda: named_qm_basis(8, 2, 1, P, reg)),
             ((e2 - 1) * de2 * de2, lambda: mixed_qm_basis([8, 10], 1, P, reg))]
    for k, n in ((4, 14), (6, 10), (8, 5)):
        def cusp_basis(k=k, n=n):
            pool = forms.generator_pool(k, n, True, P)
            return QMBasis(tuple(pool), tuple(k for _ in pool), n)

        runs += [(nf.series, cusp_basis) for nf in reg.space_newforms(k, n)]
    return runs


def test_a_second_run_reuses_every_echelon(reg, monkeypatch):
    runs = _pinned_runs(reg)
    first = [decompose(target, basis()).coefficients for target, basis in runs]
    built, parts = [], []

    class CountingEchelon(linalg.Echelon):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    eisenstein_parts = forms._eisenstein_parts
    monkeypatch.setattr(linalg, "Echelon", CountingEchelon)
    monkeypatch.setattr(forms, "_eisenstein_parts",
                        lambda *a: parts.append(1) or eisenstein_parts(*a))
    second = [decompose(target, basis()).coefficients for target, basis in runs]
    assert (len(built), len(parts)) == (0, 0)
    assert second == first
    assert first[2] == (F(1, 10), F(9, 10), 4, 4)  # H_3
    assert first[10] == (0, 0, F(-1, 5), -2, 0, 0, F(2, 21), F(4, 5), 6)  # the mixed target


def test_a_changed_series_does_not_reuse_the_echelon(reg):
    basis = named_qm_basis(4, 3, 2, P, reg)
    decompose(build_H(3, P), basis)
    expr, series = basis.elements[1]
    cs = list(series.coeffs)
    cs[100] += 1  # past every pivot, so the pivots and the transform are the same
    changed = QMBasis(basis.elements[:1] + ((expr, QSeries(cs, P)),) + basis.elements[2:],
                      basis.weights, basis.level)
    assert changed != basis and _echelon(changed) is not _echelon(basis)
    coeffs = [F(3, 7), -2, 5, F(1, 4)]
    target = sum((c * s for c, s in zip(coeffs[1:], changed.series()[1:])),
                 coeffs[0] * changed.series()[0])
    x, fail = linalg.rref(changed.series()).coords(target)
    assert (x, fail) == (coeffs, None)
    assert list(decompose(target, changed).coefficients) == x
    with pytest.raises(IntegrityError, match="fails verification at exponent 100"):
        decompose(target, basis)


def test_each_precision_has_its_own_basis_and_echelon(reg, reg512):
    want = (F(1, 26), F(25, 26), F(-288, 65), F(24, 5), F(12, 5))
    for prec in (P, 512):
        basis = named_qm_basis(4, 5, 2, prec)
        assert basis.series()[0].prec == prec
        assert decompose(build_H(5, prec), basis).coefficients == want
        assert _echelon(basis).ncols == prec + 1
    assert named_qm_basis(4, 5, 2, P) is not named_qm_basis(4, 5, 2, 512)


def test_a_shorter_target_is_solved_on_the_stored_echelon(reg):
    basis = named_qm_basis(4, 3, 2, P, reg)
    d = decompose(build_H(3, 100), basis)
    assert (d.coefficients, d.verified_to) == ((F(1, 10), F(9, 10), 4, 4), 100)
    assert _echelon(basis).ncols == P + 1
    cs = list(build_H(3, 100).coeffs)
    cs[90] -= 1
    with pytest.raises(IntegrityError, match="fails verification at exponent 90"):
        decompose(QSeries(cs, 100), basis)
    with pytest.raises(PrecisionError, match="below required margin 64"):
        decompose(build_H(3, 63), basis)


def test_a_pivot_past_the_target_precision_is_a_dependent_basis():
    e4 = forms.eisenstein(4, 1, P)
    late = QSeries([0] * 80 + [1, 2], P)  # first nonzero coefficient at q^80
    basis = QMBasis(((forms.call("E", 4, 1), e4), (forms.call("E", 4, 2), late)), (4, 4), 1)
    target = 3 * e4 + late
    assert decompose(target, basis).coefficients == (3, 1)
    for prec in (64, 79):
        with pytest.raises(ValueError, match="linearly dependent"):
            decompose(target.truncate(prec), basis)
    assert decompose(target.truncate(80), basis).coefficients == (3, 1)


def test_a_registry_at_another_precision_is_refused(reg512):
    with pytest.raises(ValueError, match="registry precision 512.*basis precision 128"):
        named_qm_basis(4, 11, 2, 128, reg512)
    with pytest.raises(ValueError, match="registry precision 512.*basis precision 128"):
        mixed_qm_basis([8, 10], 1, 128, reg512)
