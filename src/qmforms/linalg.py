"""Dense exact linear algebra over Q or a quadratic extension.

Matrix entries are ints, Fractions or FieldElements, given as rows that are
sequences of values or QSeries.  Every elimination in the engine goes through
one routine, `Echelon`; `rref`, `solve` and `nullspace` are thin entries to
it.  `Echelon` eliminates fraction-free on the rows' integer parts as the
QSeries holds them, over Z or over Z[t] (t**2 = P*t + N, exactnum.ext_ints),
and turns each row of its transform T into a QSeries once, at the end.
Everything else is read off T in integer parts: the rows of R and the
coordinates are `qseries.combine`s of T's rows, and a kernel is T's rows past
the rank.  `coords` checks x·A = v as one integer equation per part, with
`combine`'s own scalars: an echelon packs its rows' integer parts once, one
signed digit per column (Kronecker substitution, qseries._pack), so each
check packs v and takes one scalar multiply per row part.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import repeat
from math import gcd
from operator import mul

from .exactnum import ext_ints, join_ext, scale_parts
from .qseries import PrecisionError, QSeries, _bias, _make, _pack, _zt_terms, combine

__all__ = ["Echelon", "rref", "nullspace", "solve", "charpoly"]


def _at(row, col, P, N):
    """row·col in Z[t], t**2 = P*t + N; a vector is a pair of int lists (t-part None if zero)."""
    (a, b), (x, y) = row, col
    v0 = sum(map(mul, a, x))
    v1 = sum(map(mul, a, y)) if y else 0
    if b:
        v1 += sum(map(mul, b, x))
        if y:
            by = sum(map(mul, b, y))
            v0, v1 = v0 + N * by, v1 + P * by
    return v0, v1


def _eliminate(p, row, f, prow, P, N):
    """p·row - f·prow over Z[t], divided by the gcd of its integer entries."""
    if p[1] or f[1] or row[1] or prow[1]:
        (a, b), (c, d) = scale_parts(p, row, P, N), scale_parts(f, prow, P, N)
        a = [x - y for x, y in zip(a, c)]
        b = [x - y for x, y in zip(b or repeat(0), d or repeat(0))] if b or d else None
        b = b if b and any(b) else None
    else:
        p, f = p[0], f[0]
        a, b = [p * x - f * y for x, y in zip(row[0], prow[0])], None
    g = gcd(*a, *(b or ()))
    if g > 1:
        a, b = [x // g for x in a], b and [y // g for y in b]
    return a, b


class Echelon:
    """Reduced row echelon form R = T·A of the rows A, kept as the transform T.

    Columns are scanned left to right; a column's pivot is the first row, at
    or below the current rank, whose entry in R is nonzero.  Only T is
    eliminated (R's entries in a column are read off as T·A when the scan
    reaches it), and the scan stops once every row has a pivot, so a long
    tail of columns costs nothing.  The first `rank` rows of T express the
    nonzero rows of R in the input rows; the rest span the left kernel.
    The columns are 0 up to the first row's precision; a shorter row raises
    PrecisionError, a longer one is read only that far.

    The elimination is fraction-free.  Input row j, the QSeries
    (num_j + unum_j*t) / den_j, is the integer row A'_j over Z[t] (Z over Q)
    scaled by 1/den_j, read as stored.  It runs on A' with integer T' rows:
    each row updates as p*row - f*row_r for the pivot value p and the row's
    value f, then is divided by the gcd of its entries.  Each row of T' stays
    a multiple of the matching row of T, so the pivots are the same.  At the
    end each row is scaled back once: a pivot row by its pivot value (in Z[t]
    by the conjugate over the norm), a kernel row so that the entry at its
    own input row is 1, as the elimination over values leaves it.
    """

    def __init__(self, rows):
        rows = list(rows)
        n = len(rows)
        prec = -1 if not n else rows[0].prec if isinstance(rows[0], QSeries) else len(rows[0]) - 1
        self.ncols = prec + 1
        self.series = [r if isinstance(r, QSeries) else QSeries(r) for r in rows] if self.ncols else []
        if self.series and prec > min(s.prec for s in self.series):
            raise PrecisionError(f"cannot take columns 0..{prec} of a row of smaller precision")
        ext = reduce(join_ext, (s.ext for s in self.series if s.unum), None)
        P, N = ext_ints(ext)
        t = [([0] * i + [1] + [0] * (n - 1 - i), None) for i in range(n)]
        start = list(range(n))  # the input row each row of T' started as
        pivots, pcols = [], []
        for c in range(self.ncols):
            r = len(pivots)
            if r == n:
                break
            cb = ext and [s.unum[c] if s.unum else 0 for s in self.series]
            col = [s.num[c] for s in self.series], cb if cb and any(cb) else None
            vals = [_at(ti, col, P, N) for ti in t]
            pr = next((i for i in range(r, n) if vals[i] != (0, 0)), None)
            if pr is None:
                continue
            t[r], t[pr] = t[pr], t[r]
            start[r], start[pr] = start[pr], start[r]
            vals[r], vals[pr] = vals[pr], vals[r]
            for i, f in enumerate(vals):
                if i != r and f != (0, 0):
                    t[i] = _eliminate(vals[r], t[i], f, t[r], P, N)
            pivots.append(c)
            pcols.append(col)
        # T = T'·diag(den_j), each row scaled once; with no columns T' = I
        scale = [s.den for s in self.series] or [1] * n
        self.tseries = []
        for i, (a, b) in enumerate(t):
            a, b = [x * d for x, d in zip(a, scale)], b and [y * d for y, d in zip(b, scale)]
            if i < len(pivots):
                s0, s1 = _at(t[i], pcols[i], P, N)
            else:
                s0, s1 = a[start[i]], b[start[i]] if b else 0
            if s1:  # times the conjugate s0 + P*s1 - s1*t, over the norm
                a, b = scale_parts((s0 + P * s1, -s1), (a, b), P, N)
                s0 = s0 * s0 + P * s0 * s1 - N * s1 * s1
            self.tseries.append(_make(n - 1, ext, a, b, s0))
        self.pivots, self.rank = tuple(pivots), len(pivots)
        # the rows' integer parts packed over columns 0.._cols-1 at _nb bytes, with their bounds
        self._cols, self._nb, self._maxes, self._packs = 0, 0, [], []

    @property
    def transform(self):
        """T as a list of value lists, one per row, built on each read."""
        return [list(tk.coeffs) for tk in self.tseries]

    @cached_property
    def row_series(self):
        """The nonzero rows of R as series, each T's row combined in integer parts."""
        return [combine(tk, self.series, self.ncols - 1) for tk in self.tseries[: self.rank]]

    def coords(self, v):
        """Coordinates x over the input rows, and the first column where x·A != v.

        v is a QSeries or a sequence of values.  x matches v on the pivot
        columns, so it is the combination of T's rows weighted by v's parts
        there.  Every column that v and the rows both have is then checked at
        once, as one integer equation per part (`_mismatch`), and the first
        mismatch is returned in place of None.  With no rows the span is {0},
        checked on every column of v.  A v that stops before the last pivot
        raises PrecisionError.
        """
        if not isinstance(v, QSeries):
            if not len(v):
                return [0] * len(self.tseries), None
            v = QSeries(v)
        if not self.tseries:
            return [], v.valuation()
        if self.pivots and v.prec < self.pivots[-1]:
            raise PrecisionError(f"target precision {v.prec} is below the last pivot {self.pivots[-1]}")
        u, pcs = v.unum, self.pivots
        xs = combine(_make(self.rank - 1, v.ext, [v.num[c] for c in pcs], u and [u[c] for c in pcs], v.den),
                     self.tseries)
        m = min(v.prec, self.ncols - 1)
        return list(xs.coeffs), None if m < 0 else self._mismatch(xs, v, m)

    def _mismatch(self, xs, v, m):
        """The first column c <= m where sum x_i A_i differs from v, or None.

        `combine`'s scalars (`_zt_terms`) give sum x_i A_i as (S + S' t) / D,
        S = sum kx_i X_i + ky_i Y_i and S' = sum tx_i X_i + ty_i Y_i over the
        rows' integer parts A_i = (X_i + Y_i t) / d_i.  With v = (V + U t) / e
        and g = gcd(D, e), the check times D e / g is two equations over Z,
        with kv = D / g and kr = e / g:
            kv V - kr S = 0,    kv U - kr S' = 0.
        Each list is packed into one int with a signed w-bit digit per column
        (`_pack`), so each side is one pack of v and one scalar multiply per
        row part.  w is the least whole byte with 2**(w-1) above every
        |row entry| and above each of sum kr (|kx_i| max|X_i| + |ky_i|
        max|Y_i|) + kv max|V| and its t-part counterpart; then every digit is
        that column's value, so a side is 0 exactly when all its columns
        agree, and its lowest set bit lies in the digit of the first column
        that differs, which is nonzero mod 2**w.  The rows are packed on the
        first check and again only when a check needs more columns or a wider
        digit; their columns past v's land past m and are not read.
        """
        live, den, _ = _zt_terms(xs, self.series)
        g = gcd(den, v.den)
        kv, kr = den // g, v.den // g
        if m >= self._cols:  # columns past the packs (all, at first): bound the rows there, pack again
            self._cols, self._nb = m + 1, 0
            self._maxes = [(max(map(abs, s.num[: m + 1])), max(map(abs, s.unum[: m + 1])) if s.unum else 0)
                           for s in self.series]
        vn, vu = v.num[: m + 1], v.unum and v.unum[: m + 1]
        bn, bt = kv * max(map(abs, vn)), kv * max(map(abs, vu)) if vu else 0
        terms = [(i, kr * kx, kr * ky, kr * tx, kr * ty) for i, kx, ky, tx, ty in live]
        for i, cx, cy, tx, ty in terms:
            mx, my = self._maxes[i]
            bn += abs(cx) * mx + abs(cy) * my
            bt += abs(tx) * mx + abs(ty) * my
        nb = (max(bn, bt, *map(max, self._maxes)).bit_length() + 8) // 8  # 2**(8*nb - 1) > each
        if nb > self._nb:  # the packs are too narrow: pack every row again
            bias, cut = _bias(nb, self._cols), self._cols
            self._packs = [(_pack(s.num[:cut], nb, bias), s.unum and _pack(s.unum[:cut], nb, bias))
                           for s in self.series]
            self._nb = nb
        nb, bias = self._nb, _bias(self._nb, m + 1)
        d, dt = kv * _pack(vn, nb, bias), kv * _pack(vu, nb, bias) if vu else 0
        for i, cx, cy, tx, ty in terms:
            px, py = self._packs[i]
            d -= cx * px
            dt -= tx * px
            if py:
                d -= cy * py
                dt -= ty * py
        first = min((((r & -r).bit_length() - 1) // (8 * nb) for r in (d, dt) if r), default=m + 1)
        return first if first <= m else None


def rref(rows) -> Echelon:
    """The reduced row echelon form of a list of rows."""
    return Echelon(rows)


def nullspace(rows):
    """Basis of the right kernel {x : A x = 0}: T's rows past the rank for A's transpose.

    Each is 1 at its own column and 0 at the transpose's other non-pivot rows.
    """
    ech = rref([list(col) for col in zip(*rows)])
    return [list(tk.coeffs) for tk in ech.tseries[ech.rank :]]


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
