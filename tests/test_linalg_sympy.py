"""The echelon routine against sympy's exact rref, nullspace and charpoly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from qmforms.linalg import charpoly, nullspace, rref
from test_linalg import matrices

sympy = pytest.importorskip("sympy")


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_matches_sympy(rows):
    ech = rref(rows)
    want, pivots = to_sympy(rows).rref()
    assert ech.pivots == pivots
    assert [list(r.coeffs) for r in ech.row_series] == [[from_sympy(x) for x in want.row(k)] for k in range(ech.rank)]
    assert all(x == 0 for x in want[ech.rank:, :])


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_spans_sympy_kernel(rows):
    ours = [to_sympy([v]).T for v in nullspace(rows)]
    theirs = to_sympy(rows).nullspace()
    assert len(ours) == len(theirs)
    if ours:
        a, b = sympy.Matrix.hstack(*ours), sympy.Matrix.hstack(*theirs)
        assert a.rank() == b.rank() == sympy.Matrix.hstack(a, b).rank() == len(ours)


@settings(max_examples=60, deadline=None)
@given(matrices(square=True))
def test_charpoly_matches_sympy(rows):
    want = to_sympy(rows).charpoly().all_coeffs()
    assert charpoly(rows) == [from_sympy(c) for c in reversed(want)]
