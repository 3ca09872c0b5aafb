"""Dense exact linear algebra over Q or a quadratic extension.

Matrix entries are ints, Fractions or FieldElements, given as rows that are
sequences of values or QSeries.  Every elimination in the engine goes through
one routine, `Echelon`; `rref`, `solve` and `nullspace` are thin entries to
it.  `Echelon` keeps its transform T as QSeries rows too, so pivot scaling
and row elimination are series arithmetic on integer parts; values are built
only where a caller reads them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .qseries import QSeries, combine

__all__ = ["Echelon", "rref", "nullspace", "solve", "charpoly"]


def _dot(s, col):
    """sum_j x_j col_j for the vector x held as the series s."""
    v = sum(x * y for x, y in zip(s.num, col) if x and y)
    if s.tnum is not None:
        v += s.ext.gen() * sum(x * y for x, y in zip(s.tnum, col) if x and y)
    return Fraction(v, s.den) if isinstance(v, int) else v / s.den


class Echelon:
    """Reduced row echelon form R = T·A of the rows A, kept as the transform T.

    Columns are scanned left to right; a column's pivot is the first row, at
    or below the current rank, whose entry in R is nonzero.  Only T is
    eliminated (R's entries in a column are read off as T·A when the scan
    reaches it), and the scan stops once every row has a pivot, so a long
    tail of columns costs nothing.  The first `rank` rows of T express the
    nonzero rows of R in the input rows; the rest span the left kernel.
    Rows of A and of T are held as series (a row of A is given as a QSeries
    or a sequence), so every product x·A and every row operation on T is a
    series combination in integer parts.
    """

    def __init__(self, rows):
        rows = list(rows)
        n = len(rows)
        self.ncols = 0 if not n else rows[0].prec + 1 if isinstance(rows[0], QSeries) else len(rows[0])
        self.series = [r if isinstance(r, QSeries) else QSeries(r) for r in rows] if self.ncols else []
        self.source = [s.coeffs for s in self.series]
        t = [QSeries([0] * i + [1], n - 1) for i in range(n)]
        pivots = []
        for c in range(self.ncols):
            r = len(pivots)
            if r == n:
                break
            col = [a[c] for a in self.source]
            vals = [_dot(ti, col) for ti in t]
            pr = next((i for i in range(r, n) if vals[i]), None)
            if pr is None:
                continue
            t[r], t[pr] = t[pr], t[r]
            vals[r], vals[pr] = vals[pr], vals[r]
            t[r] = t[r] * (1 / vals[r])
            for i, f in enumerate(vals):
                if i != r and f:
                    t[i] = t[i] - t[r] * f
            pivots.append(c)
        self.tseries = t
        self.pivots = tuple(pivots)
        self.rank = len(pivots)

    @cached_property
    def transform(self):
        """T as a list of value lists, one per row."""
        return [list(tk.coeffs) for tk in self.tseries]

    @cached_property
    def rows(self):
        """The nonzero rows of R."""
        return [list(combine(tk.coeffs, self.series).coeffs) for tk in self.tseries[: self.rank]]

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

        v is a QSeries or a sequence of values.  x matches v on the pivot
        columns, read from a truncation of v, so it is the combination of T's
        rows weighted by those values; every column that v and the rows both
        have is then checked in integer parts, and the first mismatch is
        returned in place of None.  With no rows the span is {0}, checked on
        every column of v.
        """
        if not isinstance(v, QSeries):
            if not len(v):
                return [0] * len(self.tseries), None
            v = QSeries(v)
        if not self.tseries:
            return [], v.valuation()
        head = v.truncate(min(v.prec, max(self.pivots, default=0))).coeffs
        x = list(combine([head[pc] for pc in self.pivots], self.tseries).coeffs)
        m = min(v.prec, self.ncols - 1)
        if m < 0:
            return x, None
        rest = v.truncate(m) - combine(x, self.series, m)
        return x, rest.valuation()


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
