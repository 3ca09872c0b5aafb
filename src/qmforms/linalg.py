"""Dense exact linear algebra over Q or a quadratic extension.

Matrix entries are ints, Fractions or FieldElements.  Every elimination in
the engine goes through one routine, `Echelon`; `rref`, `solve` and
`nullspace` are thin entries to it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .exactnum import common_denominator

__all__ = ["Echelon", "rref", "nullspace", "solve", "charpoly"]


def _scaled(v):
    """(w, d) with v = w / d: w integral and d > 0 if v is rational, else (v, 1)."""
    if all(isinstance(x, (int, Fraction)) for x in v):
        d = common_denominator(v)
        return [x.numerator * (d // x.denominator) for x in v], d
    return v, 1


def _div(g, d: int):
    """g / d for an int d > 0, exact for int, Fraction and FieldElement g."""
    if d == 1:
        return g
    return Fraction(g, d) if isinstance(g, int) else g / d


def _dot(w, col):
    return sum(a * b for a, b in zip(w, col) if a)


def _lincomb(w, rows, m: int):
    """The first m entries of sum_j w[j] * rows[j]."""
    acc = [0] * m
    for a, row in zip(w, rows):
        if a:
            acc = [s + a * x for s, x in zip(acc, row)]
    return acc


class Echelon:
    """Reduced row echelon form R = T·A of the rows A, kept as the transform T.

    Columns are scanned left to right; a column's pivot is the first row, at
    or below the current rank, whose entry in R is nonzero.  Only T is
    eliminated (R's entries in a column are read off as T·A when the scan
    reaches it), and the scan stops once every row has a pivot, so a long
    tail of columns costs nothing.  The first `rank` rows of T express the
    nonzero rows of R in the input rows; the rest span the left kernel.
    """

    def __init__(self, rows):
        self.source = list(rows)
        n = len(self.source)
        self.ncols = len(self.source[0]) if n else 0
        t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        # each row of T as integers over a common denominator, for the dot products
        w = [_scaled(row) for row in t]
        pivots = []
        for c in range(self.ncols):
            r = len(pivots)
            if r == n:
                break
            col = [a[c] for a in self.source]
            pr = next((i for i in range(r, n) if _dot(w[i][0], col) != 0), None)
            if pr is None:
                continue
            t[r], t[pr] = t[pr], t[r]
            w[r], w[pr] = w[pr], w[r]
            vals = [_div(_dot(wi, col), d) for wi, d in w]
            t[r] = [x / vals[r] for x in t[r]]
            w[r] = _scaled(t[r])
            for i, f in enumerate(vals):
                if i != r and f:
                    t[i] = [a - f * b if b else a for a, b in zip(t[i], t[r])]
                    w[i] = _scaled(t[i])
            pivots.append(c)
        self.transform = t
        self.pivots = tuple(pivots)
        self.rank = len(pivots)

    @cached_property
    def rows(self):
        """The nonzero rows of R, each formed in integers and divided once."""
        out = []
        for tk in self.transform[: self.rank]:
            wk, d = _scaled(tk)
            out.append([_div(g, d) for g in _lincomb(wk, self.source, self.ncols)])
        return out

    def kernel(self):
        """Basis of the right kernel {x : A x = 0}, one vector per free column."""
        basis = []
        for fc in (c for c in range(self.ncols) if c not in self.pivots):
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for row, pc in zip(self.rows, self.pivots):
                v[pc] = -row[fc]
            basis.append(v)
        return basis

    def coords(self, v):
        """Coordinates x over the input rows, and the first column where x·A != v.

        x matches v on the pivot columns; every column that v and the rows
        both have is then checked, and the first mismatch is returned in place
        of None.  With no rows the span is {0}, checked on every column of v.
        """
        x = [Fraction(0)] * len(self.source)
        for tk, pc in zip(self.transform, self.pivots):
            y = v[pc]
            if y:
                x = [a + y * b if b else a for a, b in zip(x, tk)]
        m = min(len(v), self.ncols) if self.source else len(v)
        w, d = _scaled(x)
        acc = _lincomb(w, self.source, m)
        fail = next((c for c, (g, y) in enumerate(zip(acc, v)) if g != d * y), None)
        return x, fail


def rref(rows) -> Echelon:
    """The reduced row echelon form of a list of rows."""
    return Echelon(rows)


def nullspace(rows):
    """Basis of the right kernel of the matrix, one vector per free column."""
    return rref(rows).kernel()


def solve(rows, rhs):
    """Solve A x = b exactly; returns x or None if inconsistent.

    Requires the solution to be unique (raises on free columns).
    """
    if not rows:
        return []
    ech = rref([list(col) for col in zip(*rows)])
    x, fail = ech.coords(rhs)
    if fail is not None:
        return None
    if ech.rank < len(x):
        raise ValueError("underdetermined system")
    return x


def charpoly(mat):
    """Characteristic polynomial det(X*I - M), coefficients low to high."""
    n = len(mat)
    # Faddeev-LeVerrier: M_1 = M, c_k = -tr(M_k)/k, M_{k+1} = M (M_k + c_k I)
    mk = [list(row) for row in mat]
    coeffs = []
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / Fraction(k)
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        mk = [[sum(mat[i][t] * mk[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return list(reversed(coeffs)) + [Fraction(1)]
