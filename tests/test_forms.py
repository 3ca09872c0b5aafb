import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qmforms import forms, oracle
from qmforms.characters import principal_character, quadratic_character, trivial_character
from qmforms.forms import (
    call,
    char_eisenstein,
    eisenstein,
    evaluate,
    named_form,
    parse_expr,
    phi,
    space_basis,
)
from qmforms.qseries import QSeries

P = 64


def test_eisenstein_coefficients():
    assert eisenstein(4, 1, 8).coeff(1) == 240
    assert eisenstein(6, 1, 8).coeff(1) == -504
    e43 = eisenstein(4, 3, 8)
    assert e43.coeff(1) == 0 and e43.coeff(3) == 240
    with pytest.raises(ValueError):
        eisenstein(3, 1, 8)
    with pytest.raises(ValueError):
        eisenstein(0, 1, 8)


def test_phi_values():
    p13 = phi(1, 3, 8)
    assert p13.coeff(0) == 1 and p13.coeff(1) == 12
    assert phi(1, 2, 8).coeff(2) == 24
    with pytest.raises(ValueError):
        phi(2, 3, 8)
    with pytest.raises(ValueError):
        phi(1, 1, 8)


def test_every_level_reads_one_sigma_table():
    oracle.sigma_table.cache_clear()
    series = [eisenstein(4, n, P) for n in range(1, 15)]
    assert oracle.sigma_table.cache_info().currsize == 1
    for n, e in enumerate(series, 1):
        assert e.coeff_list() == [1] + [0 if m % n else 240 * oracle.sigma(3, m // n)
                                        for m in range(1, P + 1)]
    phi(1, 7, P), phi(2, 14, P)
    assert oracle.sigma_table.cache_info().currsize == 2


def test_char_eisenstein():
    one = trivial_character()
    chi13 = quadratic_character(13)
    # weight-2 trivial pair is the phi combination up to sign and scale
    e = char_eisenstein(2, one, one, 5, 32)
    expect = -4 * phi(1, 5, 32)
    assert e.coeff_list() == expect.coeff_list()
    with pytest.raises(ValueError):
        char_eisenstein(2, one, one, 1, 16)
    s1 = char_eisenstein(2, one, chi13, 1, 16)
    assert s1.coeff(0) == 1
    s2 = char_eisenstein(2, chi13, one, 1, 16)
    assert s2.coeff(0) == 0
    assert s2.coeff(1) == -24  # -4/B_2 times sigma^{chi,1}(1)
    with pytest.raises(ValueError):
        char_eisenstein(3, one, chi13, 1, 16)   # odd weight
    with pytest.raises(ValueError):
        char_eisenstein(2, one, quadratic_character(3), 1, 16)  # parity clash


def test_named_form_leading_terms():
    assert named_form("delta_4_9", 8)[1].valuation() == 1
    assert named_form("delta_2_14", 8)[1].valuation() == 1
    d45 = named_form("delta_4_5", 8)[1]
    assert d45.coeff(1) == 1 and d45.coeff(2) == -4
    with pytest.raises(KeyError):
        named_form("delta_3_3", 8)


def test_catalog_eta_specs_are_integral():
    for label in forms.catalog_labels():
        expr, _ = named_form(label, 8)
        if expr.kind == "eta":
            assert sum(d * r for d, r in expr.params[0]) % 24 == 0


def test_c10_is_cuspidal_with_nonzero_q_term():
    # c10, the projector-built third generator of the level-10 cusp pool
    c10 = named_form("c10", 32)[1]
    assert c10.coeff(0) == 0
    assert c10.coeff(1) != 0


def test_catalog_tables_match():
    checks = {
        "delta_4_7": "tau_4_7",
        "delta_2_11": "tau_2_11",
        "delta_2_14": "tau_2_14",
        "delta_6_5": "tau_6_5",
    }
    for label, table in checks.items():
        _, series = named_form(label, 24)
        for n, want in oracle.table_entries(table).items():
            assert series.coeff(n) == want


def test_space_dimensions():
    assert len(space_basis(4, 6, False, P).elements) == 5
    assert len(space_basis(2, 9, False, P).elements) == 3
    assert len(space_basis(4, 13, True, P).elements) == 3
    with pytest.raises(KeyError):
        space_basis(4, 12, False, P)


def test_echelon_property():
    sb = space_basis(4, 10, False, P)
    for i, (_, series) in enumerate(sb.elements):
        for j, piv in enumerate(sb.pivots):
            assert series.coeff(piv) == (1 if i == j else 0)


def test_echelon_unique_under_pool_permutation():
    from qmforms.forms import _SPANNING_TAILS, _build, _pool_texts
    from qmforms.linalg import rref

    rows = [s.coeffs for _, s in _build(_pool_texts(4, 6, False, _SPANNING_TAILS), P)]
    ech1, ech2 = rref(rows), rref(list(reversed(rows)))
    rows1, piv1 = [list(r.coeffs) for r in ech1.row_series], ech1.pivots
    rows2, piv2 = [list(r.coeffs) for r in ech2.row_series], ech2.pivots
    assert piv1 == piv2
    assert rows1 == rows2


def test_cusp_projection_level_13_kills_eisenstein():
    sc = space_basis(4, 13, True, P)
    for _, series in sc.elements:
        assert series.coeff(0) == 0
    # pivots 1..3 and echelon identity
    assert sc.pivots == (1, 2, 3)


def pool_combos(weight, level):
    """Each echelon cusp basis element's coefficients on the pool, read from its expression."""
    exprs = [e for e, _ in forms.generator_pool(weight, level, True, P)]
    out = []
    for e, _ in space_basis(weight, level, True, P).elements:
        coeffs = dict.fromkeys(exprs, 0)
        for term in e.params if e.kind == "sum" else (e,):
            if term in coeffs:
                coeffs[term] = 1
            else:  # c times a pool expression
                coeffs[term.params[1]] = term.params[0]
        out.append(tuple(coeffs.values()))
    return out


def test_rankin_cohen_cusp_pool_combos():
    # the echelonized weight-8 level-5 basis in terms of the generator pool
    want = [
        (Fraction(46, 25), Fraction(82, 25), Fraction(-3, 25)),
        (Fraction(47, 375), Fraction(-76, 375), Fraction(4, 375)),
        (Fraction(-41, 375), Fraction(-19, 750), Fraction(1, 750)),
    ]
    assert pool_combos(8, 5) == [tuple(w) for w in want]


def test_weight6_level10_pool_combos():
    want = [
        (Fraction(-4, 15), Fraction(31, 10), Fraction(15, 32), Fraction(1, 96), Fraction(3, 80)),
        (Fraction(1, 20), Fraction(6, 5), 0, 0, Fraction(1, 80)),
        (Fraction(-1, 30), Fraction(7, 10), Fraction(1, 32), Fraction(-1, 96), Fraction(1, 80)),
        (Fraction(-1, 40), Fraction(-1, 10), 0, 0, Fraction(-1, 160)),
        (Fraction(1, 75), Fraction(-11, 50), Fraction(-11, 800), Fraction(-1, 480), Fraction(-3, 400)),
    ]
    assert pool_combos(6, 10) == [tuple(w) for w in want]


def test_weight4_level14_pool_combos():
    want = [
        (Fraction(-11, 28), Fraction(-22, 7), Fraction(11, 7), Fraction(39, 28)),
        (Fraction(-13, 56), Fraction(1, 7), Fraction(3, 7), Fraction(13, 56)),
        (Fraction(13, 56), Fraction(19, 14), Fraction(-13, 14), Fraction(-13, 56)),
        (Fraction(-13, 56), Fraction(-6, 7), Fraction(3, 7), Fraction(13, 56)),
    ]
    assert pool_combos(4, 14) == [tuple(w) for w in want]


def test_expression_metadata():
    e = parse_expr("E(2)*E(2,11)")
    assert (e.weight, e.depth, e.level) == (4, 2, 11)
    e = parse_expr("D^2(E(2))")
    assert (e.weight, e.depth) == (6, 3)
    e = parse_expr("twist(E(4),chi3)")
    assert e.level == 9
    e = parse_expr("rc1(E(4),phi(1,5))")
    assert (e.weight, e.depth, e.level) == (8, 0, 5)
    e = parse_expr("eta(1^4*11^4)")
    assert (e.weight, e.level) == (4, 11)
    e = parse_expr("eta(3^8)")
    assert e.level == 9
    e = parse_expr("rescale(delta_4_5,2)")
    assert e.level == 10


def test_depth_cap_enforced():
    # depth tracks products and derivatives, and stays within weight/2
    e = parse_expr("D(E(2))*D(E(2))*D(E(2))")
    assert (e.weight, e.depth) == (12, 6)
    from qmforms.forms import _mk

    with pytest.raises(ValueError):
        _mk("eis", params=(2,), weight=2, depth=2, level=1)


def test_parse_evaluate_consistency():
    for text in ["E(4,3)", "phi(1,5)", "delta_4_5", "eta(1^24)",
                 "(1/2)*(E(2)*twist(E(2),chi0_3) + E(2)*twist(E(2),chi3))"]:
        expr = parse_expr(text)
        series = evaluate(expr, 16)
        assert series.prec == 16


def test_parse_expr_matches_direct_series():
    e2 = eisenstein(2, 1, 16)
    h3 = evaluate(parse_expr("E(2)*E(2,3)"), 16)
    assert h3.coeff_list() == (e2 * eisenstein(2, 3, 16)).coeff_list()
    root = evaluate(parse_expr("root(eta(1^16*7^8) + 13*eta(1^12*7^12) + 49*eta(1^8*7^16),3)"), 12)
    assert root.coeff_list(5) == [0, 1, -1, -2, -7, 16]


ETA_SUM_4_7 = "eta(1^16*7^8) + 13*eta(1^12*7^12) + 49*eta(1^8*7^16)"


def test_delta_4_7_combination_cubed_is_the_eta_sum():
    """The catalog builds delta_4_7 as 5/16*phi(1,7)^2 - 1/160*E(4) - 49/160*E(4,7).

    Proof that this is root(eta sum, 3): the combination's cube and the eta
    sum both lie in M_12(Gamma0(7)), whose Sturm bound is 12/12 * [SL2(Z) :
    Gamma0(7)] = 8 coefficients, so their agreement here (through q^512)
    makes them equal; and q^3 (1 + O(q)) has one cube root q (1 + O(q)).
    """
    built, shown = forms._EXPRS["delta_4_7"], forms._DISPLAY["delta_4_7"]
    assert shown == parse_expr(f"root({ETA_SUM_4_7},3)")
    assert (built.weight, built.depth, built.level) == (shown.weight, shown.depth, shown.level) == (4, 0, 7)
    d47 = named_form("delta_4_7", 512)[1]
    assert d47.prec == 512
    assert d47.power(3) == evaluate(parse_expr(ETA_SUM_4_7), 512)
    # the label and the root text keep the root's loss of 2; the combination, typed, has none
    assert evaluate(shown, 512).prec == 510
    assert evaluate(parse_expr(forms._BUILT_AS["delta_4_7"]), 512) == d47


def test_root_of_the_eta_sum_is_the_catalog_delta_4_7():
    # QSeries.root called directly: evaluate of the root text is served from
    # the catalog, so it never runs the root
    root = evaluate(parse_expr(ETA_SUM_4_7), 512).root(3)
    assert root.prec == 510
    assert root == named_form("delta_4_7", 512)[1].truncate(510)


def test_catalog_delta_4_7_takes_no_root(monkeypatch):
    calls = []
    real = QSeries.root
    monkeypatch.setattr(QSeries, "root", lambda self, n: calls.append(n) or real(self, n))
    series = named_form.__wrapped__("delta_4_7", 97)[1]  # a fresh evaluation, past the cache
    assert (calls, series.prec) == ([], 97)


def test_cold_registry_build_takes_no_root():
    # a fresh interpreter, so no store holds a series built before the patch
    code = ("from qmforms import forms, heckeeigen, qseries\n"
            "def refuse(self, n): raise AssertionError('QSeries.root called')\n"
            "qseries.QSeries.root = refuse\n"
            "reg = heckeeigen.registry(512)\n"
            "for label in reg.labels(): reg.newform(label)\n"
            "for label in forms.catalog_labels(): forms.named_form(label, 512)\n")
    src = os.path.dirname(os.path.dirname(forms.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_hecke_operator_in_the_language():
    assert evaluate(parse_expr("T(3,E(4)) - 28*E(4)"), P).valuation() is None
    e = parse_expr("T(2,f1_4_11)")
    assert str(e) == "T(2,eta(1^4*11^4))" and parse_expr(str(e)) == e
    assert (e.weight, e.depth, e.level) == (4, 0, 11)
    f2 = named_form("f2_4_11", P)[1]
    assert evaluate(e, P).coeff_list() == f2.coeff_list()
    assert f2.coeff_list() == named_form("f1_4_11", 2 * P)[1].hecke(2, 4, 11).coeff_list()
    with pytest.raises(ValueError):
        parse_expr("T(4,E(4))")


def test_catalog_and_space_bases_round_trip():
    # what every catalog form and basis element prints evaluates to its series
    pairs = [named_form(label, 128) for label in forms.catalog_labels()]
    for k, n in forms.DIMENSIONS:
        for cuspidal in (False, True):
            pairs += space_basis(k, n, cuspidal, 128).elements
    for expr, series in pairs:
        again = evaluate(parse_expr(str(expr)), 128)
        p = min(again.prec, series.prec)
        assert again.coeff_list(p) == series.coeff_list(p), str(expr)


def test_generator_pool_catalog_order():
    pool = forms.generator_pool(4, 10, False, 128)
    names = [str(e) for e, _ in pool]
    assert names[:4] == ["E(4)", "E(4,2)", "E(4,5)", "E(4,10)"]
    assert "nf_4_10_1" in names[4]
    assert len(pool) == 7


def test_generator_pool_is_one_stored_tuple():
    pool = forms.generator_pool(4, 10, False, 128)
    assert isinstance(pool, tuple)
    assert forms.generator_pool(4, 10, False, 128) is pool
    assert forms.generator_pool(4, 10, False, 64) is not pool
    # texts outside the catalog are shared: E(4,2) is one series in every level's pool
    (e42,) = [s for e, s in forms.generator_pool(4, 2, False, 128) if str(e) == "E(4,2)"]
    assert e42 is pool[1][1]


# -- the function table ------------------------------------------------------

CHARACTERS = st.sampled_from([trivial_character(), quadratic_character(3), quadratic_character(5),
                              quadratic_character(13), principal_character(3),
                              principal_character(4)])
COEFFS = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def _or(build, fallback):
    """build(), or fallback where the arguments break a metadata rule."""
    try:
        return build()
    except ValueError:
        return fallback


E4 = call("E", 4, 1)
LEAVES = st.one_of(
    st.lists(st.tuples(st.integers(1, 12), st.integers(-6, 12)), min_size=1, max_size=3)
    .map(lambda spec: _or(lambda: call("eta", tuple(spec)), E4)),
    st.builds(lambda k, n: call("E", k, n), st.sampled_from([2, 4, 6]), st.integers(1, 6)),
    st.builds(lambda a, m: call("phi", a, a * m), st.integers(1, 3), st.integers(2, 4)),
    st.builds(lambda k, psi, chi, t: call("chareis", k, psi, chi, t),
              st.sampled_from([2, 4]), CHARACTERS, CHARACTERS, st.integers(1, 3)),
    st.sampled_from(["delta_4_5", "c10", "f2_4_11", "e1_2_13"]).map(parse_expr),
)


def _extend(forms_):
    return st.one_of(
        st.builds(lambda i, f: call("D", i, f), st.integers(0, 2), forms_),
        st.builds(lambda f, d: call("rescale", f, d), forms_, st.integers(1, 3)),
        st.builds(lambda f, n: _or(lambda: call("root", f, n), f), forms_, st.integers(1, 3)),
        st.builds(lambda f, g: _or(lambda: call("rc1", f, g), f), forms_, forms_),
        st.builds(lambda f, chi: call("twist", f, chi), forms_, CHARACTERS),
        st.builds(lambda p, f: call("T", p, f), st.sampled_from([2, 3, 5]), forms_),
        # the operators, as the parser builds them from the operands' texts
        st.builds(lambda f, g: parse_expr(f"({f}) + ({g})"), forms_, forms_),
        st.builds(lambda f, g: parse_expr(f"({f}) - ({g})"), forms_, forms_),
        st.builds(lambda f, c: parse_expr(f"({f}) + {c}"), forms_, COEFFS),
        st.builds(lambda f, g: parse_expr(f"({f})*({g})"), forms_, forms_),
        st.builds(lambda f, m: parse_expr(f"({f})^{m}"), forms_, st.integers(1, 3)),
        st.builds(lambda c, f: parse_expr(f"{c}*({f})"), COEFFS, forms_),
    )


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=8)
BUILT = {"eta", "E", "phi", "chareis", "D", "rescale", "root", "rc1", "twist", "T"}


def test_the_strategy_builds_every_function():
    assert set(forms._FUNCTIONS) == BUILT


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(EXPRESSIONS)
@example(parse_expr("(E(4)*E(6))^2"))
@example(parse_expr("(2*E(4))*E(6)"))
@example(parse_expr("2*(3*E(4))"))
def test_expressions_print_and_parse_back(e):
    again = parse_expr(str(e))
    assert again == e
    assert (again.weight, again.depth, again.level) == (e.weight, e.depth, e.level)


def test_call_checks_its_arguments():
    assert str(call("D", 2, call("E", 2, 1))) == "D^2(E(2))"
    assert str(call("eta", ((1, 4), (5, 4)))) == "eta(1^4*5^4)"
    for name, args in [("E", (4,)), ("E", (4, 1, 1)), ("rescale", (E4, 0)), ("zeta", (2,))]:
        with pytest.raises(ValueError):
            call(name, *args)


@pytest.mark.parametrize("text", [
    "foo(1)",             # unknown function
    "bar",                # unknown name
    "twist(E(4),psi)",    # unknown character
    "E(4)$",              # a character outside the language
    "phi(1)",             # missing argument
    "phi(1,2,3)",         # extra argument
    "E(4))",              # trailing input
    "E(4) +",             # unexpected end
    "eta(1^1)",
    "root(E(2),2)",
    "rc1(E(2),E(4))",
    "T(4,E(4))",
])
def test_malformed_texts_are_rejected(text):
    with pytest.raises(ValueError):
        parse_expr(text)


def test_series_rules_call_the_module_bindings(monkeypatch):
    # a table entry holding the function object would bypass a patched
    # binding, and the benchmark's per-layer spans would read 0
    text = "twist(E(4,2),chi3) + eta(1^16*2^4)"
    want = evaluate(parse_expr(text), 20)
    seen = []
    for name in ("eisenstein", "eta_quotient", "twist", "evaluate"):
        def spy(*args, _orig=getattr(forms, name), _name=name):
            seen.append(_name)
            return _orig(*args)
        monkeypatch.setattr(forms, name, spy)
    assert evaluate(parse_expr(text), 20) == want
    assert set(seen) == {"eisenstein", "eta_quotient", "twist", "evaluate"}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 40), st.integers(-30, 30)), min_size=1, max_size=4))
def test_eta_level_is_the_smallest_multiple(spec):
    base = lcm(*(d for d, _ in spec))
    want = next(k * base for k in range(1, 25)
                if sum((k * base // d) * r for d, r in spec) % 24 == 0)
    assert forms._eta_level(tuple(spec)) == want


def test_rescale_keeps_only_the_requested_coefficients():
    expr = parse_expr("rescale(E(4),100000)")
    tracemalloc.start()
    try:
        series = evaluate(expr, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert series.prec == 64 and series.coeff_list() == [1] + [0] * 64
