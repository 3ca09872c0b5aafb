"""Acceptance suite: every identity, decomposition, table and structural
property at its full stated bound, in exact arithmetic with zero tolerance.

Run with -s to see the per-criterion pass lines."""

import time
from fractions import Fraction

from qmforms import forms, identities as idn, oracle
from qmforms.exactnum import FieldElement, QuadExt
from qmforms.heckeeigen import multiplicativity_solve
from qmforms.linearize import QMBasis, build_H, decompose, mixed_qm_basis, named_qm_basis

P = 512


def F(*a):
    return Fraction(*a)


def fe(a, b, p, q):
    return FieldElement(a, b, QuadExt(p, q))


def _sweep(ident, n_max, reg):
    rep = idn.verify(idn.get_identity(ident), n_max, reg.tau)
    assert rep.ok, f"{ident}: first failure {rep.failures[:1]}"
    assert rep.passed == n_max
    return rep


def test_criterion_01_w1_to_w10(reg512):
    t0 = time.time()
    for n in range(1, 11):
        _sweep(f"w{n}", 500, reg512)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: W_1..W_10 equal their closed forms for n <= 500 "
          f"({elapsed:.1f} s)")


def test_criterion_02_quadratic_levels(reg512):
    for ident in ("w11", "w13", "w14"):
        _sweep(ident, 500, reg512)
    print("\nPASS criterion 2: W_11, W_13, W_14 verified for n <= 500 with "
          "trace-reduced quadratic terms")


def test_criterion_03_arithmetic_progressions(reg512):
    for ident in ("smod3.0", "smod3.1", "smod3.2"):
        _sweep(ident, 300, reg512)
    _sweep("smod3.sum", 300, reg512)
    s = [idn.get_identity(f"smod3.{i}") for i in range(3)]
    w1 = idn.get_identity("w1")
    for n in range(1, 301):
        total = sum(idn.evaluate_rhs(x, n, reg512.tau) for x in s)
        assert total == idn.evaluate_rhs(w1, n, reg512.tau)
    print("\nPASS criterion 3: S[a,3] identities for n <= 300 plus their sum "
          "against W_1")


def test_criterion_04_mixed_weight_sums(reg512):
    for ident in ("s1.s3", "s1.s3_2", "s1_2.s3", "s1.s5", "s1_2.s5", "s1.s5_2"):
        _sweep(ident, 500, reg512)
    print("\nPASS criterion 4: all six sigma1*sigma3 / sigma1*sigma5 identities "
          "for n <= 500")


def test_criterion_05_higher_order_sums(reg512):
    _sweep("lahiri.011", 300, reg512)
    _sweep("lahiri.00011", 100, reg512)
    print("\nPASS criterion 5: triple sum for n <= 300 and the -24^5-normalized "
          "quintuple sum for n <= 100")


def test_criterion_06_weighted_two_term_sums(reg512):
    _sweep("bsum.2a5b", 300, reg512)
    _sweep("absum.a5b", 300, reg512)
    print("\nPASS criterion 6: the two 5*24^2-normalized weighted sums for "
          "n <= 300, one over Q(v)")


_H_TUPLES = {
    2: [F(1, 5), F(4, 5), 3, 6],
    3: [F(1, 10), F(9, 10), 4, 4],
    4: [F(1, 20), F(3, 20), F(4, 5), 0, F(9, 2), 3],
    5: [F(1, 26), F(25, 26), F(-288, 65), F(24, 5), F(12, 5)],
    6: [F(1, 50), F(2, 25), F(9, 50), F(18, 25), F(-24, 5), 0, 2, 3, 2],
    7: [F(1, 50), F(49, 50), F(-288, 35), F(36, 7), F(12, 7)],
    8: [F(1, 80), F(3, 80), F(3, 20), F(4, 5), -9, 0, F(21, 4), 0, F(3, 2)],
    9: [F(1, 90), 0, F(4, 45), F(9, 10), F(-32, 3), 0, 0, F(16, 3), F(4, 3)],
    10: [F(1, 130), F(2, 65), F(5, 26), F(10, 13), F(-24, 5), F(-432, 65),
         F(-1728, 65), F(27, 5), 0, 0, F(6, 5)],
    11: [F(1, 122), F(121, 122), fe(F(-4128, 671), F(-192, 671), 2, 2),
         fe(F(-4512, 671), F(192, 671), 2, 2), F(60, 11), 0, F(12, 11)],
    13: [F(1, 170), F(169, 170), 0, fe(F(-1728, 221), F(288, 221), 1, 4),
         fe(F(-1440, 221), F(-288, 221), 1, 4), F(72, 13), F(12, 13)],
    14: [F(1, 250), F(2, 125), F(49, 250), F(98, 125), F(-864, 175),
         F(-3456, 175), F(-48, 7), F(-72, 25), 0, F(39, 7), 0, 0, F(6, 7)],
}


def test_criterion_07_decompositions(reg512):
    e2 = forms.eisenstein(2, 1, P)
    d = decompose(e2 * e2, named_qm_basis(4, 1, 2, P, reg512))
    assert list(d.coefficients) == [1, 12]
    for level, want in _H_TUPLES.items():
        d = decompose(build_H(level, P), named_qm_basis(4, level, 2, P, reg512))
        assert list(d.coefficients) == want, f"H_{level}"

    e4 = forms.eisenstein(4, 1, P)
    e6 = forms.eisenstein(6, 1, P)
    e22 = forms.eisenstein(2, 2, P)
    e42 = forms.eisenstein(4, 2, P)
    e62 = forms.eisenstein(6, 2, P)
    sec4 = [
        (e2 * e4, 6, 1, [1, 3]),
        (e2 * e42, 6, 2, [F(1, 21), F(20, 21), 0, 3]),
        (e4 * e22, 6, 2, [F(5, 21), F(16, 21), F(3, 2), 0]),
        (e2 * e6, 8, 1, [1, 2]),
        (e22 * e6, 8, 2, [F(21, 85), F(64, 85), F(-2016, 17), 1, 0]),
        (e2 * e62, 8, 2, [F(1, 85), F(84, 85), F(-504, 17), 0, 2]),
    ]
    for target, k, n, want in sec4:
        d = decompose(target, named_qm_basis(k, n, 1, P, reg512))
        assert list(d.coefficients) == want

    de2 = e2.derive()
    t1 = (e2 - 1) * de2 * de2
    d = decompose(t1, mixed_qm_basis([8, 10], 1, P, reg512))
    assert list(d.coefficients) == [0, 0, F(-1, 5), -2, 0, 0, F(2, 21), F(4, 5), 6]

    t2 = (e2 - 1).power(3) * de2 * de2
    d = decompose(t2, mixed_qm_basis([8, 10, 12, 14], 1, P, reg512))
    want = ([0, 0, F(-1, 5), -2]
            + [0, 0, F(2, 7), F(12, 5), 18]
            + [0, F(-8, 35), 0, F(-1, 6), F(-9, 7), F(-234, 35), F(-216, 5)]
            + [0, 0, F(8, 35), F(2, 55), F(4, 15), F(25, 21), F(171, 35), F(144, 5)])
    assert list(d.coefficients) == want
    print("\nPASS criterion 7: all decomposition coefficient tuples reproduced "
          "exactly (12 weight-4 products, 6 weight-6/8 products, 2 mixed targets)")


_TABLE_NEWFORMS = {
    "tau_4_7": "4.7.1", "tau_4_10": "4.10.1", "tau_2_11": "2.11.1",
    "tau_4_11_1": "4.11.1", "tau_4_13_1": "4.13.1", "tau_4_13_2": "4.13.2",
    "tau_4_14_1": "4.14.1", "tau_4_14_2": "4.14.2", "tau_2_14": "2.14.1",
    "tau_6_10_1": "6.10.1", "tau_6_10_2": "6.10.2", "tau_6_10_3": "6.10.3",
    "tau_6_5": "6.5.1", "tau_8_5_1": "8.5.1", "tau_8_5_2": "8.5.2",
}


def test_criterion_08_table_reproduction(reg512):
    total = 0
    for name in oracle.table_names():
        label = _TABLE_NEWFORMS[name]
        nf = reg512.newform(label)
        for n, want in sorted(oracle.table_entries(name).items()):
            assert nf.series.coeff(n) == want, (name, n)
            total += 1
    # eleven 22-entry tables plus the 15/15/18/15-entry quadratic ones
    assert total == 11 * 22 + 15 + 15 + 18 + 15 == 305
    print(f"\nPASS criterion 8: every embedded table entry matches the engine "
          f"({total} values across {len(oracle.table_names())} tables)")


def _hecke_relation_holds(nf, m, n):
    k, lvl = nf.weight, nf.level
    acc = 0
    d = 1
    while d <= min(m, n):
        if m % d == 0 and n % d == 0 and _gcd(d, lvl) == 1:
            acc += (oracle.mobius(d) * d ** (k - 1)
                    * nf.series.coeff(m // d) * nf.series.coeff(n // d))
        d += 1
    return nf.series.coeff(m * n) == acc


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_criterion_09_structural_properties(reg512):
    # full multiplicativity for every constructed eigenform, mn <= 200
    for label in reg512.labels():
        nf = reg512.newform(label)
        for m in range(1, 201):
            for n in range(1, 200 // m + 1):
                assert _hecke_relation_holds(nf, m, n), (label, m, n)

    # conjugation swaps the members of each quadratic pair
    for k, lvl, i, j in ((4, 11, 0, 1), (4, 13, 1, 2), (8, 5, 1, 2)):
        nfs = reg512.space_newforms(k, lvl)
        assert nfs[i].series.conj().coeff_list(200) == nfs[j].series.coeff_list(200)

    # the two extraction routes agree wherever both run
    for k, lvl in ((4, 14), (6, 10), (8, 5), (4, 11)):
        space = forms.space_basis(k, lvl, True, P)
        solved = multiplicativity_solve(space)
        extracted = reg512.space_newforms(k, lvl)
        assert [f.series.coeff_list(200) for f in solved] == \
            [f.series.coeff_list(200) for f in extracted]

    # solved combinations in the generator pools
    def cusp_basis(k, lvl):
        pool = forms.generator_pool(k, lvl, True, P)
        return QMBasis(tuple(pool), tuple(k for _ in pool), lvl)

    b14 = cusp_basis(4, 14)
    nfs = reg512.space_newforms(4, 14)
    assert list(decompose(nfs[0].series, b14).coefficients) == [F(-9, 4), -9, 6, F(13, 4)]
    assert list(decompose(nfs[1].series, b14).coefficients) == [1, 4, -5, 0]

    b610 = cusp_basis(6, 10)
    nfs = reg512.space_newforms(6, 10)
    assert list(decompose(nfs[0].series, b610).coefficients) == [-1, 16, 1, 0, F(1, 4)]
    assert list(decompose(nfs[1].series, b610).coefficients) == \
        [F(-4, 3), 8, F(7, 8), F(-7, 24), 0]
    assert list(decompose(nfs[2].series, b610).coefficients) == \
        [F(-1, 3), -16, 0, F(1, 3), F(-1, 4)]

    b85 = cusp_basis(8, 5)
    nfs = reg512.space_newforms(8, 5)
    v = QuadExt(20, -24).gen()
    assert list(decompose(nfs[0].series, b85).coefficients) == [F(16, 3), F(22, 3), F(-1, 3)]
    assert list(decompose(nfs[1].series, b85).coefficients) == [12 - v, 1, 0]
    assert list(decompose(nfs[2].series, b85).coefficients) == [v - 8, 1, 0]
    print("\nPASS criterion 9: multiplicativity to mn <= 200, conjugation "
          "symmetry, route agreement, and all solved combinations")


def test_criterion_10_fixture_rederivation(reg512):
    # the only externally sourced inputs are the golden tables; every one of
    # them is recomputed by the engine (criterion 8), so the full pipeline is
    # reproducible at desk scale with no scaled-down substitutes
    for name in oracle.table_names():
        nf = reg512.newform(_TABLE_NEWFORMS[name])
        entries = oracle.table_entries(name)
        assert all(nf.series.coeff(n) == v for n, v in entries.items())
    assert max(s.nmax for s in idn.catalog()) == 500 <= P
    print("\nPASS criterion 10: golden fixtures independently re-derived; "
          "entire pipeline re-runs at full scale")
