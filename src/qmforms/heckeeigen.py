"""Extraction of primitive eigenforms from cusp spaces.

Two independent routes are provided: diagonalization of Hecke operators on an
echelonized cusp basis, and direct solution of the multiplicativity
constraints a(p^(r+1)) = a(p) a(p^r) - [p coprime to N] p^(k-1) a(p^(r-1)),
a(mn) = a(m) a(n) for coprime m, n, on the echelon coordinates.  Both must
produce the same eigenforms wherever both apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import forms, linalg, oracle
from .exactnum import (
    FieldElement,
    QuadExt,
    as_fraction,
    ext_ints,
    factor_small,
    factorize,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_trim,
)
from .qseries import PrecisionError, QSeries, combine

__all__ = [
    "Newform",
    "hecke_matrix",
    "extract_newforms",
    "multiplicativity_solve",
    "Registry",
    "registry",
]

_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass
class Newform:
    """Normalized Hecke eigenform with a stored expansion."""

    label: str
    weight: int
    level: int
    series: QSeries

    @property
    def ext(self) -> QuadExt | None:
        """The coefficient field, as the series holds it (None over Q)."""
        return self.series.ext

    def coefficient(self, n: int):
        """Fourier coefficient, extended multiplicatively beyond the expansion."""
        if n < 1:
            return 0
        if n <= self.series.prec:
            return self.series.coeff(n)
        val = 1
        for p, e in factorize(n):
            if p > self.series.prec:
                raise PrecisionError(f"prime {p} beyond stored precision {self.series.prec}")
            val = val * self._prime_power(p, e)
        return val

    def _prime_power(self, p: int, e: int):
        ap = self.series.coeff(p)
        eps = 0 if self.level % p == 0 else p ** (self.weight - 1)
        prev, cur = 1, ap
        for _ in range(e - 1):
            prev, cur = cur, ap * cur - eps * prev
        return cur

    def to_record(self) -> dict:
        fld = [str(self.ext.p), str(self.ext.q)] if self.ext else "Q"
        return {
            "label": self.label,
            "weight": self.weight,
            "level": self.level,
            "field": fld,
            "coeffs": self.series.to_record()["coeffs"],
        }


def _validate_newform(nf: Newform):
    s = nf.series
    if s.coeff(0) != 0 or s.coeff(1) != 1:
        raise ValueError(f"{nf.label}: not normalized to q + O(q^2)")
    if not _multiplicative_ok(s, nf.weight, nf.level, 40):
        raise ValueError(f"{nf.label}: a Hecke relation below q^41 fails")


# ---------------------------------------------------------------------------
# Hecke matrices


def hecke_matrix(space: forms.QMBasis, p: int, fs=None):
    """Matrix of T_p on the span of the series fs, columns indexed by the fs.

    fs defaults to the series of the space, solved on its stored echelon;
    given, it must be a basis of a T_p-stable subspace, and is echelonized
    here.  The precision guard is the whole space's.
    """
    ech = space.echelon if fs is None else linalg.rref(fs)
    if not ech.series:
        return []
    dim = len(space)
    if space.prec < p * (space.pivots[-1] + dim + 2):
        raise PrecisionError(
            f"basis precision {space.prec} too low for T_{p} on {dim} elements"
        )
    cols = []
    for f in ech.series:
        coords, fail = ech.coords(f.hecke(p, space.weights[0], space.level))
        if fail is not None:
            raise ValueError(
                f"T_{p} image leaves the space (exponent {fail}); pool is not stable"
            )
        cols.append(coords)
    return [list(row) for row in zip(*cols)]


# ---------------------------------------------------------------------------
# eigenform extraction by diagonalization


def _split(space, is_old, fs=None, prime_idx=0):
    """Eigenform series on the Hecke-stable span of fs, old ones dropped.

    fs defaults to the series of the whole space.  Each eigenspace of T_p is
    kept as series, combine(kernel vector, fs): one series is an eigenform,
    more are split again by the next prime.  A quadratic factor gives one
    eigenform over Q(t); its conjugate is the other.
    """
    if prime_idx >= len(_PRIMES):
        raise ValueError("eigenspaces did not split with the available primes")
    op = hecke_matrix(space, _PRIMES[prime_idx], fs)
    fs = space.series() if fs is None else fs
    roots, quads = factor_small(linalg.charpoly(op))
    if not roots and not quads:
        raise ValueError("characteristic polynomial did not factor")
    out = []
    for lam in sorted(set(roots), reverse=True):
        gs = [combine(QSeries(k), fs) for k in linalg.nullspace(_shift(op, lam))]
        if len(gs) > 1:
            out += _split(space, is_old, gs, prime_idx + 1)
        elif not is_old(gs[0]):
            out.append(gs[0])
    for qf in quads:
        kern = linalg.nullspace(_poly_of_matrix(qf, op))
        if len(kern) != 2:
            raise ValueError("unexpected multiplicity of a quadratic factor")
        if all(is_old(combine(QSeries(k), fs)) for k in kern):
            continue
        if not qf.totally_real:
            raise ValueError(
                f"quadratic eigenvalue factor X^2-{qf.p}X-{qf.q} is not totally real"
            )
        kern = linalg.nullspace(_shift(op, qf.ext().gen()))
        if len(kern) != 1:
            raise ValueError("quadratic eigenvalue is not simple")
        out.append(combine(QSeries(kern[0]), fs))
    return out


def _shift(m, lam):
    """m - lam I."""
    return [[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]


def _poly_of_matrix(qf, m):
    """m^2 - p m - q I for the factor X^2 - p X - q."""
    n = len(m)
    return [[sum(m[i][t] * m[t][j] for t in range(n)) - qf.p * m[i][j] - (qf.q if i == j else 0)
             for j in range(n)] for i in range(n)]


def extract_newforms(space: forms.QMBasis, old_span=()) -> list[Newform]:
    """Newforms of a cusp space, by Hecke diagonalization.

    old_span lists expansions of forms arising from lower levels; eigenforms
    falling inside their span are discarded.  Quadratic eigenvalue pairs must
    be totally real unless the corresponding subspace is old.
    """
    if any(space.echelon.coords(s)[1] is not None for s in old_span):
        raise ValueError("old form does not lie in the cusp space")
    if not space.elements:  # every old form is zero: nothing to split
        return []
    old = linalg.rref(old_span)

    def is_old(f):
        return old.coords(f)[1] is None

    parts = []
    for f in _split(space, is_old):
        lead = f.coeff(f.valuation())
        parts.append(f if lead == 1 else (Fraction(1) / lead) * f)
    nfs = _label_sorted(parts, space.weights[0], space.level)
    expected = len(space) - old.rank
    if len(nfs) != expected:
        raise ValueError(f"extracted {len(nfs)} newforms, expected {expected}")
    return nfs


def _sort_key(series: QSeries):
    """The rational parts of a(2) .. a(12)."""
    return [Fraction(a, series.den) for a in series.num[2 : min(series.prec, 12) + 1]]


def _label_sorted(parts, weight: int, level: int) -> list[Newform]:
    """Rational newforms by descending a(2..12), then each quadratic one after its conjugate."""
    rationals = sorted((s for s in parts if s.ext is None), key=_sort_key, reverse=True)
    quads = [g for s in parts if s.ext is not None for g in (s.conj(), s)]
    out = []
    for i, s in enumerate(rationals + quads):
        nf = Newform(f"{weight}.{level}.{i + 1}", weight, level, s)
        _validate_newform(nf)
        out.append(nf)
    return out


# ---------------------------------------------------------------------------
# extraction by multiplicativity constraints
#
# On an echelon cusp basis V_1..V_d with pivots 1..d, a normalized eigenform
# is f = V_1 + x_2 V_2 + ... + x_d V_d, so a(j) = x_j for j <= d and every
# a(n) is affine in the x_j.  With a(p) a symbol s, or fixed, the relations
# a(p^r m) = h_r(a(p)) a(m), p not dividing m, where h_r is the Hecke
# recurrence h_{r+1} = a(p) h_r - [p coprime to N] p^(k-1) h_{r-1}, are linear
# in the remaining x_j with coefficients in K[s].  Fraction-free elimination
# leaves constants whose gcd G(s) vanishes at every solution; at each root of
# G the same elimination, now numeric, yields the x_j, and a root that leaves
# some x_j free fixes a(p) and makes the next prime the symbol.


def multiplicativity_solve(space: forms.QMBasis) -> list[Newform]:
    dim = len(space)
    if dim > 5:
        raise ValueError("multiplicativity solver handles dimension <= 5")
    if space.pivots != tuple(range(1, dim + 1)):
        raise ValueError("cusp basis pivots must be exactly 1..dim")
    if dim == 0:
        return []
    weight, level = space.weights[0], space.level
    candidates = _solve(space, {}, 2) if dim > 1 else [{}]

    seen = []
    parts = []
    for xs in candidates:
        f = combine(QSeries([1] + [xs[j] for j in range(2, dim + 1)]), space.series())
        key = tuple(f.coeff_list(min(10, f.prec)))
        if key in seen:
            continue
        seen.append(key)
        if _multiplicative_ok(f, weight, level):
            parts.append(f)
    return _label_sorted(parts, weight, level)


def _solve(space, fixed: dict, p: int) -> list[dict]:
    """Solutions x (dicts j -> x_j) with a(q) = fixed[q] and a(p) unknown."""
    dim = len(space)
    known = {1: [Fraction(1)], p: [Fraction(0), Fraction(1)]}
    known.update((q, poly_trim([v])) for q, v in fixed.items())
    free = [j for j in range(2, dim + 1) if j not in known]
    rows = _relation_rows(space, known, free)
    ech, pivots = _bareiss(rows, len(free))
    g = []
    for row in ech[len(pivots):]:
        g = _poly_gcd(g, row[-1])
    if not g:
        raise ValueError("residual degrees of freedom in the constraint system")
    roots, quads = factor_small(g)
    out = []
    values = sorted(set(roots), reverse=True) + [qf.ext().gen() for qf in quads if qf.totally_real]
    for s in values:
        numeric = [[poly_trim([poly_eval(e, s)]) for e in row] for row in rows]
        ech, pivots = _bareiss(numeric, len(free))
        if any(row[-1] for row in ech[len(pivots):]):
            continue  # inconsistent once s is substituted
        if len(pivots) < len(free):
            nxt = next((q for q in _PRIMES if p < q <= dim), None)
            if nxt is None or isinstance(s, FieldElement):
                raise ValueError("residual degrees of freedom in the constraint system")
            out += _solve(space, {**fixed, p: s}, nxt)
            continue
        xs = [0] * len(free)
        for i in reversed(range(len(free))):
            row = [e[0] if e else 0 for e in ech[i]]
            xs[i] = -(row[-1] + sum(row[j] * xs[j] for j in range(i + 1, len(free)))) / row[i]
        out.append({**fixed, p: s, **dict(zip(free, xs))})
    return out


def _relation_rows(space, known: dict, free: list) -> list:
    """Rows [c_j for j in free] + [c] meaning sum c_j x_j + c = 0, entries in K[s].

    known maps 1 and each prime whose a(p) is fixed or symbolic to a(p) in K[s].
    """
    weight, level, dim = space.weights[0], space.level, len(space)

    def a(n):
        col = [as_fraction(s.coeff(n)) for _, s in space.elements]
        const = []
        for j, v in known.items():
            const = poly_add(const, poly_scale(v, col[j - 1]))
        return [poly_trim([col[j - 1]]) for j in free] + [const]

    affine = [None] + [a(n) for n in range(1, 3 * dim + 1)]
    rows = []
    for p in sorted(q for q in known if q > 1):
        eps = 0 if level % p == 0 else p ** (weight - 1)
        h = [[Fraction(1)], known[p]]
        for n in range(p, 3 * dim + 1, p):
            m, r = n, 0
            while m % p == 0:
                m, r = m // p, r + 1
            while len(h) <= r:
                h.append(poly_sub(poly_mul(known[p], h[-1]), poly_scale(h[-2], eps)))
            row = [poly_sub(x, poly_mul(h[r], y)) for x, y in zip(affine[n], affine[m])]
            if any(row):
                rows.append(row)
    return rows


def _bareiss(rows, ncols: int):
    """Fraction-free row echelon form over K[s]; returns (rows, pivot columns).

    Each elimination step divides exactly by the previous pivot (Bareiss), so
    the entries stay polynomials: minors of the input.
    """
    rows = [r[:] for r in rows]
    prev, pivots = [Fraction(1)], []
    for c in range(ncols):
        k = len(pivots)
        i = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[k], rows[i] = rows[i], rows[k]
        piv = rows[k][c]
        for i in range(k + 1, len(rows)):
            rows[i] = [poly_divmod(poly_sub(poly_mul(piv, x), poly_mul(rows[i][c], y)), prev)[0]
                       for x, y in zip(rows[i], rows[k])]
        prev = piv
        pivots.append(c)
    return rows, pivots


def _poly_gcd(a, b):
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


def _multiplicative_ok(f: QSeries, weight: int, level: int, bound: int = 200) -> bool:
    """a(mn) = a(m) a(n) for coprime m, n and the Hecke relation at p^2, up to q^bound.

    Checked on the integer parts a(n) = (x_n + y_n t) / d, t^2 = P t + N:
    d (x_k + y_k t) = (x_i + y_i t)(x_j + y_j t) - c d^2.
    """
    bound = min(f.prec, bound)
    x, d = f.num, f.den
    y = f.unum or (0,) * len(x)
    P, N = ext_ints(f.ext)

    def holds(k, i, j, c=0):
        yy = y[i] * y[j]
        return (d * x[k] == x[i] * x[j] - c * d * d + N * yy
                and d * y[k] == x[i] * y[j] + y[i] * x[j] + P * yy)

    for m in range(2, bound + 1):
        for n in range(m, bound // m + 1):
            if gcd(m, n) == 1 and not holds(m * n, m, n):
                return False
    for p in _PRIMES:
        if p * p > bound:
            break
        eps = 0 if level % p == 0 else p ** (weight - 1)
        if not holds(p * p, p, p, eps):
            return False
    return True


# ---------------------------------------------------------------------------
# the catalog of eigenforms used by the identity engine

def _new_dimension(weight: int, level: int) -> int:
    """dim S_k^new(N), from dim S_k(N) = sum over M | N of sigma0(N/M) dim S_k^new(M)."""
    return forms.dimension(weight, level, cuspidal=True) - sum(
        len(oracle.divisors(level // m)) * _new_dimension(weight, m)
        for m in oracle.divisors(level)[:-1]
    )


class Registry:
    """Cache of the newforms of every space with a cusp pool."""

    def __init__(self, prec: int = forms.DEFAULT_PREC):
        self.prec = prec
        self._spaces: dict = {}

    def space_newforms(self, weight: int, level: int) -> list[Newform]:
        key = (weight, level)
        if key in self._spaces:
            return self._spaces[key]
        if key not in forms._CUSP_POOLS:
            raise KeyError(f"no newform construction for weight {weight}, level {level}")
        space = forms.space_basis(weight, level, True, self.prec)
        out = extract_newforms(space, self.old_span(weight, level))
        self._spaces[key] = out
        return out

    def old_span(self, weight: int, level: int) -> list[QSeries]:
        """f(dz) for each newform f of level M | N, M < N, and each d | N/M.

        By Atkin-Lehner theory these span the old part of S_k(Gamma0(N)).
        """
        return [nf.series.rescale(d, self.prec)
                for m in oracle.divisors(level)[:-1] if _new_dimension(weight, m)
                for nf in self.space_newforms(weight, m)
                for d in oracle.divisors(level // m)]

    def newform(self, label: str) -> Newform:
        """The newform labelled weight.level.index, the index counted from 1."""
        parts = label.split(".")
        if len(parts) == 3 and all(x.isdecimal() for x in parts):
            weight, level, idx = map(int, parts)
            nfs = self.space_newforms(weight, level)
            if 1 <= idx <= len(nfs):
                return nfs[idx - 1]
        raise KeyError(f"unknown newform label {label!r}")

    def labels(self) -> list[str]:
        return sorted(f"{k}.{n}.{i + 1}" for k, n in forms._CUSP_POOLS
                      for i in range(_new_dimension(k, n)))

    def tau(self, name: str) -> Newform:
        """The newform of a table name: tau is 12.1.1, tau_k_N is k.N.1, tau_k_N_i is k.N.i."""
        parts = (["tau", "12", "1"] if name == "tau" else name.split("_")) + ["1"]
        if parts[0] == "tau" and len(parts) in (4, 5):
            try:
                return self.newform(".".join(parts[1:4]))
            except KeyError:
                pass
        raise KeyError(f"unknown tau name {name!r}")


@lru_cache(maxsize=None)
def registry(prec: int = forms.DEFAULT_PREC) -> Registry:
    return Registry(prec)
