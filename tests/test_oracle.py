import ast
import inspect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmforms import identities, oracle


def test_sigma():
    assert oracle.sigma(1, 6) == 12
    assert oracle.sigma(3, 1) == 1
    assert oracle.sigma(1, 0) == 0
    assert oracle.sigma(1, -3) == 0
    assert oracle.sigma(3, 6) == 252


def test_sigma_table_matches_direct():
    t = oracle.sigma_table(5, 300)
    for n in (1, 2, 17, 120, 299):
        assert t[n] == oracle.sigma(5, n)


def test_mobius():
    vals = [oracle.mobius(n) for n in range(1, 13)]
    assert vals == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_w_examples():
    assert oracle.W(1, 1) == 0
    assert oracle.W(2, 3) == 1
    assert oracle.W(1, 3) == 6


def test_w_symmetry():
    # sigma1(m) sigma1(n-m) is symmetric under m <-> n-m
    for n in (5, 12, 30):
        forward = oracle.W(1, n)
        backward = sum(oracle.sigma(1, n - m) * oracle.sigma(1, m) for m in range(1, n))
        assert forward == backward


def test_w_range_agrees_with_pointwise():
    for N in (1, 5, 14):
        sweep = oracle.w_range(N, 60)
        for n in (1, 7, 33, 60):
            assert sweep[n] == oracle.W(N, n)


def test_smod_examples():
    n = 10
    assert sum(oracle.S_mod(a, 3, n) for a in range(3)) == oracle.W(1, n)
    assert oracle.S_mod(1, 3, 2) == 1
    assert oracle.S_mod(2, 3, 1) == 0
    with pytest.raises(ValueError):
        oracle.S_mod(3, 3, 5)


def test_lahiri_examples():
    assert oracle.lahiri((0, 0), (1, 3), (1, 1), 2) == 1
    assert oracle.lahiri((0, 1), (1, 1), (2, 5), 7) == 5
    assert oracle.lahiri((0, 0, 0, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 4) == 0


def test_lahiri_reduces_to_w():
    for N in range(1, 15):
        sweep = oracle.lahiri_range((0, 0), (1, 1), (1, N), 200)
        wn = oracle.w_range(N, 200)
        assert sweep[1:] == wn[1:]


def test_lahiri_range_matches_nested_loops():
    for args in [((0, 0), (1, 3), (1, 2)), ((0, 1), (1, 1), (2, 5)),
                 ((0, 1, 1), (1, 1, 1), (1, 1, 1))]:
        sweep = oracle.lahiri_range(*args, 30)
        for n in (1, 9, 17, 30):
            assert sweep[n] == oracle.lahiri(*args, n)
    quint = ((0, 0, 0, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1))
    assert oracle.lahiri_range(*quint, 40)[40] == oracle.lahiri(*quint, 40)


def test_ranges_match_per_n_enumeration_on_catalog_descriptors():
    seen = set()
    for spec in identities.catalog():
        desc = (spec.lhs_kind, spec.lhs_params)
        if desc in seen:
            continue
        seen.add(desc)
        sweep = identities.lhs_sweep(spec, 60)
        if spec.lhs_kind == "W":
            want = [oracle.W(*spec.lhs_params, n) for n in range(1, 61)]
        elif spec.lhs_kind == "Smod":
            want = [oracle.S_mod(*spec.lhs_params, n) for n in range(1, 61)]
        else:
            want = [oracle.lahiri(*spec.lhs_params, n) for n in range(1, 61)]
        assert sweep == [0] + want, desc
    assert len(seen) == 26


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 30))
def test_w_range_matches_w(N, n_max):
    assert oracle.w_range(N, n_max) == [0] + [oracle.W(N, n) for n in range(1, n_max + 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda b: st.tuples(st.integers(0, b - 1), st.just(b))),
       st.integers(0, 30))
def test_smod_range_matches_s_mod(ab, n_max):
    assert oracle.smod_range(*ab, n_max) == [0] + [oracle.S_mod(*ab, n) for n in range(1, n_max + 1)]


descriptors = st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.lists(st.integers(0, 2), min_size=r, max_size=r),
    st.lists(st.integers(0, 5), min_size=r, max_size=r),
    st.lists(st.integers(1, 6), min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(descriptors, st.integers(0, 24))
def test_lahiri_range_matches_lahiri(desc, n_max):
    want = [oracle.lahiri(*desc, n) for n in range(n_max + 1)]
    assert oracle.lahiri_range(*desc, n_max) == want


def schoolbook(xs, ys):
    return [sum(xs[i] * ys[n - i] for i in range(n + 1) if n - i < len(ys)) for n in range(len(xs))]


nonnegative = st.lists(st.one_of(st.integers(0, 9), st.integers(10**40 - 10**6, 10**40 + 10**6)),
                       min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(nonnegative, nonnegative)
@example([7], [3])
@example([0] * 5, [4, 5])
@example([2, 3], [0] * 9)
@example([10**40] * 3, [10**40 - 1] * 7)
def test_convolve_matches_schoolbook(xs, ys):
    assert oracle._convolve(xs, ys) == schoolbook(xs, ys)


def test_sweeps_match_per_n_references_at_large_n():
    for N in range(1, 15):
        assert oracle.w_range(N, 400) == [0] + [oracle.W(N, n) for n in range(1, 401)], N
    for a in range(3):
        assert oracle.smod_range(a, 3, 400) == [0] + [oracle.S_mod(a, 3, n) for n in range(1, 401)], a
    pair = ((1, 0), (3, 1), (2, 3))
    assert oracle.lahiri_range(*pair, 300) == [oracle.lahiri(*pair, n) for n in range(301)]
    quint = ((0, 0, 0, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1))
    assert oracle.lahiri_range(*quint, 40) == [oracle.lahiri(*quint, n) for n in range(41)]


def test_oracle_imports_nothing_from_the_engine_but_the_parser():
    tree = ast.parse(inspect.getsource(oracle))
    engine = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            engine.update(a.name for a in node.names if a.name.split(".")[0] == "qmforms")
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "qmforms"):
            engine.update(f"{node.module}.{a.name}" for a in node.names)
    assert engine == {"exactnum.parse_element"}


def test_smod_range_rejects_bad_residue():
    with pytest.raises(ValueError):
        oracle.smod_range(3, 3, 0)


@pytest.mark.parametrize("call, named", [
    (lambda: oracle.W(0, 4), "N must be >= 1"),
    (lambda: oracle.w_range(-1, 4), "N must be >= 1"),
    (lambda: oracle.lahiri((0, 0), (1, -1), (1, 1), 4), "bvec entry"),
    (lambda: oracle.lahiri_range((-1, 0), (1, 1), (1, 1), 4), "avec entry"),
    (lambda: oracle.lahiri((0, 0), (1, 1), (1, 0), 4), "Nvec entry"),
    (lambda: oracle.lahiri_range((0, 0), (1, 1), (-1, 1), 4), "Nvec entry"),
])
def test_sweeps_reject_bad_descriptors(call, named):
    with pytest.raises(ValueError, match=named):
        call()


def test_table_inventory():
    names = oracle.table_names()
    assert len(names) == 15
    sizes = {n: len(oracle.table_entries(n)) for n in names}
    assert sizes["tau_4_7"] == 22
    assert sizes["tau_4_11_1"] == 15
    assert sizes["tau_8_5_1"] == 18
    assert sizes["tau_8_5_2"] == 15
