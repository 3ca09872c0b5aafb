import re
from fractions import Fraction
from functools import lru_cache

import pytest

from qmforms import forms, linalg, linearize, oracle
from qmforms.exactnum import QuadExt
from qmforms.heckeeigen import (
    Registry,
    _multiplicative_ok,
    extract_newforms,
    hecke_matrix,
    multiplicativity_solve,
)
from qmforms.linalg import charpoly
from qmforms.linearize import decompose
from qmforms.qseries import PrecisionError, QSeries, combine

P = 128


def test_hecke_matrix_level_11():
    sb = forms.space_basis(4, 11, True, P)
    m = hecke_matrix(sb, 2)
    assert charpoly(m) == [-2, -2, 1]  # X^2 - 2X - 2


def test_hecke_matrix_level_13():
    sb = forms.space_basis(4, 13, True, P)
    m = hecke_matrix(sb, 2)
    # (X + 5)(X^2 - X - 4)
    from qmforms.exactnum import poly_mul

    assert charpoly(m) == [Fraction(c) for c in poly_mul([5, 1], [-4, -1, 1])]


def test_hecke_matrix_one_dimensional():
    sb = forms.space_basis(4, 5, True, P)
    m = hecke_matrix(sb, 2)
    assert m == [[-4]]


def test_hecke_matrix_precision_guard():
    sb = forms.space_basis(4, 5, True, P)
    with pytest.raises(PrecisionError):
        hecke_matrix(sb, 61)


def test_extract_level_11(reg):
    nfs = reg.space_newforms(4, 11)
    t = QuadExt(2, 2).gen()
    assert nfs[0].series.coeff(2) == 2 - t
    assert nfs[1].series.coeff(2) == t
    for n, want in oracle.table_entries("tau_4_11_1").items():
        assert nfs[0].series.coeff(n) == want


def test_extract_level_13(reg):
    nfs = reg.space_newforms(4, 13)
    u = QuadExt(1, 4).gen()
    assert nfs[0].ext is None and nfs[0].series.coeff(2) == -5
    assert nfs[1].series.coeff(2) == 1 - u
    assert nfs[2].series.coeff(2) == u


def test_extract_level_10_with_old_span(reg):
    nfs = reg.space_newforms(4, 10)
    assert len(nfs) == 1
    nf = nfs[0]
    assert (nf.series.coeff(2), nf.series.coeff(3), nf.series.coeff(5)) == (2, -8, 5)


def test_old_span_must_lie_in_space():
    sb = forms.space_basis(4, 11, True, P)
    bogus = forms.eisenstein(4, 1, P)
    with pytest.raises(ValueError):
        extract_newforms(sb, [bogus])


def test_zero_dimensional_cusp_space():
    sb = forms.space_basis(4, 1, True, P)
    assert (sb.elements, sb.weights, sb.pivots) == ((), (), ())  # no weight to read
    assert hecke_matrix(sb, 2) == []
    assert extract_newforms(sb) == []
    assert multiplicativity_solve(sb) == []


def test_a_space_basis_is_the_one_space_class():
    assert linearize.QMBasis is forms.QMBasis
    sb = forms.space_basis(4, 13, True, P)
    assert isinstance(sb, forms.QMBasis)
    assert (sb.weights, sb.level, sb.prec, sb.pivots) == ((4, 4, 4), 13, P, (1, 2, 3))
    assert sb.echelon is forms._echelon(sb) and sb.echelon.rank == 3


@pytest.mark.parametrize("k, n", [(4, 11), (4, 13)])
def test_each_newform_recombines_in_the_cusp_space(reg, k, n):
    sb = forms.space_basis(k, n, True, P)
    for nf in reg.space_newforms(k, n):
        coeffs = decompose(nf.series, sb).coefficients
        assert combine(QSeries(coeffs), sb.series()) == nf.series


@pytest.mark.parametrize("k, n, cuspidal", [(4, 13, False), (4, 11, True), (6, 10, True),
                                            (8, 5, True)])
def test_hecke_charpoly_on_a_generator_pool(k, n, cuspidal):
    # S_4(13)'s cusp pool spans but is not a basis; M_4(13)'s pool holds its newforms
    pool = forms.generator_pool(k, n, cuspidal, P)
    basis = forms.QMBasis(tuple(pool), (k,) * len(pool), n)
    want = charpoly(hecke_matrix(forms.space_basis(k, n, cuspidal, P), 2))
    assert charpoly(hecke_matrix(basis, 2)) == want


def test_a_registry_build_echelonizes_each_cusp_space_once(monkeypatch):
    built = []

    class CountingEchelon(linalg.Echelon):
        def __init__(self, rows):
            rows = list(rows)
            built.append(rows)
            super().__init__(rows)

    monkeypatch.setattr(linalg, "Echelon", CountingEchelon)
    # fresh space and echelon stores, so nothing is served from earlier builds
    monkeypatch.setattr(forms, "space_basis", lru_cache(forms.space_basis.__wrapped__))
    monkeypatch.setattr(forms, "_echelon", lru_cache(forms._echelon.__wrapped__))
    reg = Registry(P)
    for label in reg.labels():
        reg.newform(label)
    # counted from before space_basis: where the pool is already in echelon form,
    # the pool's echelon is the space's
    spaces = {key: forms.space_basis(*key, True, P).series() for key in forms._CUSP_POOLS}
    counts = {key: sum(r == rows for r in built) for key, rows in spaces.items()}
    assert counts == dict.fromkeys(spaces, 1)


def test_dependent_old_span(reg):
    sb = forms.space_basis(4, 10, True, P)
    _, old = forms.named_form("delta_4_5", P)
    span = [old, old.rescale(2).truncate(P), old]
    nfs = extract_newforms(sb, span)
    assert [nf.label for nf in nfs] == ["4.10.1"]
    assert nfs[0].series == reg.newform("4.10.1").series


def test_cross_precision_spaces_and_newforms(reg, reg512):
    # built at 512 and truncated to 128, every space and newform equals the build at 128
    for k, n in sorted(forms._CUSP_POOLS):  # the spaces Registry.space_newforms builds
        hi, lo = forms.space_basis(k, n, True, 512), forms.space_basis(k, n, True, P)
        assert hi.pivots == lo.pivots
        assert [(e, s.truncate(P)) for e, s in hi.elements] == list(lo.elements)
    for label in reg.labels():
        a, b = reg512.newform(label), reg.newform(label)
        assert (a.ext, a.series.truncate(P)) == (b.ext, b.series)



# the old parts once listed as generator texts, against the derived f(dz)
PINNED_OLD = {(4, 10): ["delta_4_5", "f_4_5_2"], (4, 14): ["delta_4_7", "f_4_7_2"],
              (6, 10): ["delta_6_5", "f_6_5_2"]}


def test_old_spans_derived_from_lower_levels(reg):
    for k, n in sorted(forms._CUSP_POOLS):
        derived = reg.old_span(k, n)
        if (k, n) not in PINNED_OLD:
            assert derived == [], (k, n)
            continue
        pinned = [s for _, s in forms._build(PINNED_OLD[(k, n)], P)]
        ranks = [linalg.rref(rows).rank for rows in (derived, pinned, derived + pinned)]
        assert ranks == [2, 2, 2], (k, n)


def test_labels_from_the_new_dimensions(reg):
    assert reg.labels() == [
        "12.1.1", "2.11.1", "2.14.1", "4.10.1", "4.11.1", "4.11.2", "4.13.1", "4.13.2",
        "4.13.3", "4.14.1", "4.14.2", "4.5.1", "4.6.1", "4.7.1", "4.8.1", "4.9.1",
        "6.10.1", "6.10.2", "6.10.3", "6.5.1", "8.2.1", "8.5.1", "8.5.2", "8.5.3",
    ]


# S_6(10) is the one space where the solver fixes a(2) and solves again for a(3)
SOLVE_SPACES = ((4, 11), (4, 14), (6, 10), (8, 5), (4, 13), (4, 10))


def test_multiplicativity_solve_matches_extract(reg):
    for k, n in SOLVE_SPACES:
        sb = forms.space_basis(k, n, True, P)
        solved = multiplicativity_solve(sb)
        extracted = reg.space_newforms(k, n)
        assert len(solved) == len(extracted)
        for a, b in zip(solved, extracted):
            assert a.ext == b.ext
            assert a.series.coeff_list(60) == b.series.coeff_list(60)


def test_multiplicativity_solve_guards():
    with pytest.raises(ValueError, match="pivots"):
        multiplicativity_solve(forms.space_basis(4, 5, False, P))  # pivots 0, 1, 2
    with pytest.raises(ValueError, match="dimension"):
        multiplicativity_solve(forms.space_basis(6, 10, False, P))  # dimension 9


def test_multiplicativity_solve_uses_no_linear_algebra(reg, monkeypatch):
    spaces = {(k, n): forms.space_basis(k, n, True, P) for k, n in SOLVE_SPACES}
    extracted = {key: reg.space_newforms(*key) for key in SOLVE_SPACES}

    def forbidden(*args, **kwargs):
        raise AssertionError("the multiplicativity route called linalg")

    for name in ("rref", "solve", "nullspace", "charpoly"):
        monkeypatch.setattr(linalg, name, forbidden)
    for key, sb in spaces.items():
        solved = multiplicativity_solve(sb)
        assert [(f.label, f.ext, f.series) for f in solved] == \
            [(f.label, f.ext, f.series) for f in extracted[key]]


def test_coefficient_extension(reg):
    nf47 = reg.newform("4.7.1")
    assert nf47.coefficient(12) == 14
    assert nf47.coefficient(1) == 1
    nf410 = reg.newform("4.10.1")
    assert nf410.coefficient(18) == 74
    assert nf410.coefficient(18) == nf410.coefficient(2) * nf410.coefficient(9)


def test_coefficient_beyond_precision_multiplicative():
    reg_small = Registry(16)
    nf = reg_small.newform("4.5.1")
    # 18 = 2 * 3^2 exceeds the stored window but factors through primes <= 16
    full = Registry(64).newform("4.5.1")
    assert nf.coefficient(18) == full.series.coeff(18)
    assert nf.coefficient(25) == full.series.coeff(25)
    with pytest.raises(PrecisionError):
        nf.coefficient(17)  # prime beyond the window


def test_conjugation_swaps_partners(reg):
    for k, n in ((4, 11), (4, 13), (8, 5)):
        nfs = [f for f in reg.space_newforms(k, n) if f.ext is not None]
        a, b = nfs
        assert a.series.conj().coeff_list(60) == b.series.coeff_list(60)


def test_hecke_multiplicativity_relation(reg):
    # tau(mn) = sum over d | (m, n), gcd(d, N) = 1 of mu(d) d^(k-1) tau(m/d) tau(n/d)
    for label in ("4.7.1", "4.10.1", "4.11.1", "8.5.2"):
        nf = reg.newform(label)
        k, lvl = nf.weight, nf.level
        for m in range(1, 15):
            for n in range(1, 15):
                if m * n > nf.series.prec:
                    continue
                acc = 0
                d = 1
                while d * d <= min(m, n) ** 2:
                    if m % d == 0 and n % d == 0 and _gcd(d, lvl) == 1:
                        acc += (oracle.mobius(d) * d ** (k - 1)
                                * nf.series.coeff(m // d) * nf.series.coeff(n // d))
                    d += 1
                assert nf.series.coeff(m * n) == acc, (label, m, n)


def test_multiplicativity_check_on_every_registry_newform(reg512):
    q6 = QSeries([0] * 6 + [1], 512)
    for label in reg512.labels():
        nf = reg512.newform(label)
        f, k, n = nf.series, nf.weight, nf.level
        assert _multiplicative_ok(f, k, n), label
        assert not _multiplicative_ok(f + q6, k, n), label  # a(6) != a(2) a(3)
        if nf.ext is not None:
            t = nf.ext.gen()
            assert not _multiplicative_ok(f + q6 * t, k, n), label


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_registry_labels_and_tau(reg):
    labels = reg.labels()
    assert "4.11.2" in labels and "6.10.3" in labels and "12.1.1" in labels
    assert len(labels) == 24
    assert reg.tau("tau").coefficient(6) == -6048
    assert reg.tau("tau_4_7").coefficient(19) == -110
    assert reg.tau("tau_8_5_2").coefficient(5) == -125
    assert reg.tau("tau_4_11_2") is reg.newform("4.11.2") and reg.tau("tau_4_7") is reg.newform("4.7.1")
    for name in ("tau_4", "tau_4_11_2_1", "sigma_4_11", "4.11.2"):
        with pytest.raises(KeyError):
            reg.tau(name)


@pytest.mark.parametrize("lookup, name", [
    ("newform", "4.11.0"), ("newform", "4.11.3"), ("newform", "4.11"), ("newform", "12.1.1.5"),
    ("newform", "x.11.1"), ("tau", "tau_4_11_0"), ("tau", "tau_4_11_3"), ("tau", "tau_x_11"),
])
def test_malformed_or_out_of_range_labels_raise_key_error(reg, lookup, name):
    with pytest.raises(KeyError, match=re.escape(repr(name))):
        getattr(reg, lookup)(name)


def test_newform_serialization(reg):
    rec = reg.newform("4.11.1").to_record()
    assert rec["weight"] == 4 and rec["level"] == 11
    assert rec["field"] == ["2", "2"]
    assert rec["coeffs"][1] == "1"
