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

from . import forms, linalg
from .exactnum import (
    FieldElement,
    QuadExt,
    as_fraction,
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
    "conj_series",
    "Registry",
    "registry",
]

_PRIMES = (2, 3, 5, 7, 11, 13)


def conj_series(f: QSeries) -> QSeries:
    """Apply the quadratic conjugation to every coefficient."""
    return f.conj()


@dataclass
class Newform:
    """Normalized Hecke eigenform with a stored expansion."""

    label: str
    weight: int
    level: int
    ext: QuadExt | None
    series: QSeries

    @property
    def prec(self) -> int:
        return self.series.prec

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


def hecke_matrix(space: forms.SpaceBasis, p: int):
    """Matrix of T_p in the echelon basis, columns indexed by basis elements."""
    dim = len(space.elements)
    if dim == 0:
        return []
    if space.prec < p * (space.pivots[-1] + dim + 2):
        raise PrecisionError(
            f"basis precision {space.prec} too low for T_{p} on {dim} elements"
        )
    ech = linalg.rref(space.series())
    cols = []
    for s in space.series():
        coords, fail = ech.coords(s.hecke(p, space.weight, space.level).coeffs)
        if fail is not None:
            raise ValueError(
                f"T_{p} image leaves the space (exponent {fail}); pool is not stable"
            )
        cols.append(coords)
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


# ---------------------------------------------------------------------------
# eigenform extraction by diagonalization


def _restrict(op, basis_vectors):
    """Matrix of a linear map on the subspace spanned by basis_vectors."""
    dim = len(op)
    ech = linalg.rref(basis_vectors)
    images = []
    for v in basis_vectors:
        img = [sum(op[i][j] * v[j] for j in range(dim)) for i in range(dim)]
        coords, fail = ech.coords(img)
        if fail is not None:
            raise ValueError("subspace not stable under the operator")
        images.append(coords)
    return [[images[j][i] for j in range(len(basis_vectors))] for i in range(len(basis_vectors))]


def _lift(coords, basis_vectors):
    n = len(basis_vectors[0])
    return [sum(c * bv[j] for c, bv in zip(coords, basis_vectors)) for j in range(n)]


def _split_subspace(space, basis_vectors, ops, prime_idx, pieces):
    """Recursively split a Hecke-stable subspace into 1-d and conjugate parts."""
    if prime_idx >= len(_PRIMES):
        raise ValueError("eigenspaces did not split with the available primes")
    p = _PRIMES[prime_idx]
    if p not in ops:
        ops[p] = hecke_matrix(space, p)
    op = _restrict(ops[p], basis_vectors)
    cp = linalg.charpoly(op)
    roots, quads = factor_small(cp, max_degree=len(op))
    if not roots and not quads:
        raise ValueError("characteristic polynomial did not factor")
    for lam in sorted(set(roots), reverse=True):
        shifted = [[op[i][j] - (lam if i == j else 0) for j in range(len(op))]
                   for i in range(len(op))]
        kern = linalg.nullspace(shifted)
        vectors = [_lift(k, basis_vectors) for k in kern]
        if len(vectors) == 1:
            pieces.append(("vec", vectors[0]))
        else:
            _split_subspace(space, vectors, ops, prime_idx + 1, pieces)
    for qf in quads:
        qop = _poly_of_matrix([-qf.q, -qf.p, Fraction(1)], op)
        kern = linalg.nullspace(qop)
        if len(kern) != 2:
            raise ValueError("unexpected multiplicity of a quadratic factor")
        vectors = [_lift(k, basis_vectors) for k in kern]
        pieces.append(("quad", qf, vectors, [[r[:] for r in op], basis_vectors]))
    return pieces


def _poly_of_matrix(poly, m):
    n = len(m)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        acc[i][i] = poly[-1]
    for c in reversed(poly[:-1]):
        acc = [[sum(acc[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            acc[i][i] += c
    return acc


def extract_newforms(space: forms.SpaceBasis, old_span=()) -> list[Newform]:
    """Newforms of a cusp space, by Hecke diagonalization.

    old_span lists expansions of forms arising from lower levels; eigenvectors
    falling inside their span are discarded.  Quadratic eigenvalue pairs must
    be totally real unless the corresponding subspace is old.
    """
    dim = len(space.elements)
    ech = linalg.rref(space.series())
    old_coords = []
    for s in old_span:
        coords, fail = ech.coords(s.coeffs)
        if fail is not None:
            raise ValueError("old form does not lie in the cusp space")
        old_coords.append(coords)
    old = linalg.rref(old_coords)

    def is_old(v):
        return old.coords(v)[1] is None

    expected = dim - old.rank
    identity = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
    pieces = []
    if dim:
        _split_subspace(space, identity, {}, 0, pieces)
    out = []
    for piece in pieces:
        if piece[0] == "vec":
            v = piece[1]
            if is_old(v):
                continue
            f = combine(v, space.series())
            lead = f.coeff(f.valuation())
            f = (1 / as_fraction(lead)) * f if lead != 1 else f
            out.append((None, f))
        else:
            _, qf, vectors, (op, basis_vectors) = piece
            if all(is_old(v) for v in vectors):
                continue
            if not qf.totally_real:
                raise ValueError(
                    f"quadratic eigenvalue factor X^2-{qf.p}X-{qf.q} is not totally real"
                )
            ext = qf.ext()
            t = ext.gen()
            n = len(op)
            shifted = [[FieldElement(op[i][j], 0, ext) - (t if i == j else 0)
                        for j in range(n)] for i in range(n)]
            kern = linalg.nullspace(shifted)
            if len(kern) != 1:
                raise ValueError("quadratic eigenvalue is not simple")
            v = _lift(kern[0], basis_vectors)
            f = combine(v, space.series())
            lead = f.coeff(f.valuation())
            if lead != 1:
                f = (1 / lead) * f
            out.append((ext, f))
    nfs = _label_sorted(out, space.weight, space.level)
    if len(nfs) != expected:
        raise ValueError(f"extracted {len(nfs)} newforms, expected {expected}")
    return nfs


def _sort_key(series: QSeries):
    """The rational parts of a(2) .. a(12)."""
    return [Fraction(a, series.den) for a in series.num[2 : min(series.prec, 12) + 1]]


def _label_sorted(parts, weight: int, level: int) -> list[Newform]:
    """Rational newforms by descending a(2..12), then each quadratic one after its conjugate."""
    rationals = [(ext, s) for ext, s in parts if ext is None]
    quads = [(ext, g) for ext, s in parts if ext is not None for g in (conj_series(s), s)]
    rationals.sort(key=lambda p: _sort_key(p[1]), reverse=True)
    ordered = rationals + quads
    out = []
    for i, (ext, s) in enumerate(ordered):
        nf = Newform(f"{weight}.{level}.{i + 1}", weight, level, ext, s)
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


def multiplicativity_solve(space: forms.SpaceBasis) -> list[Newform]:
    weight, level = space.weight, space.level
    dim = len(space.elements)
    if dim > 5:
        raise ValueError("multiplicativity solver handles dimension <= 5")
    if space.pivots != tuple(range(1, dim + 1)):
        raise ValueError("cusp basis pivots must be exactly 1..dim")
    if dim == 0:
        return []
    candidates = _solve(space, {}, 2) if dim > 1 else [{}]

    seen = []
    parts = []
    for xs in candidates:
        f = combine([1] + [xs[j] for j in range(2, dim + 1)], space.series())
        key = tuple(f.coeff_list(min(10, f.prec)))
        if key in seen:
            continue
        seen.append(key)
        if _multiplicative_ok(f, weight, level):
            parts.append((f.ext, f))
    return _label_sorted(parts, weight, level)


def _solve(space, fixed: dict, p: int) -> list[dict]:
    """Solutions x (dicts j -> x_j) with a(q) = fixed[q] and a(p) unknown."""
    dim = len(space.elements)
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
    weight, level, dim = space.weight, space.level, len(space.elements)

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
    """a(mn) = a(m) a(n) for coprime m, n and the Hecke relation at p^2, up to q^bound."""
    bound = min(f.prec, bound)
    for m in range(2, bound + 1):
        for n in range(m, bound // m + 1):
            if gcd(m, n) != 1:
                continue
            if f.coeff(m * n) != f.coeff(m) * f.coeff(n):
                return False
    for p in (2, 3, 5, 7, 11, 13):
        if p * p > bound:
            break
        eps = 0 if level % p == 0 else p ** (weight - 1)
        if f.coeff(p * p) != f.coeff(p) * f.coeff(p) - eps:
            return False
    return True


# ---------------------------------------------------------------------------
# the catalog of eigenforms used by the identity engine

# (weight, level) -> generator texts spanning the old part of S_k(Gamma0(N))
_OLD_SPANS = {
    (12, 1): [],
    (4, 5): [],
    (4, 6): [],
    (4, 7): [],
    (4, 8): [],
    (4, 9): [],
    (8, 2): [],
    (2, 11): [],
    (2, 14): [],
    (6, 5): [],
    (4, 10): ["delta_4_5", "f_4_5_2"],
    (4, 11): [],
    (4, 13): [],
    (4, 14): ["delta_4_7", "f_4_7_2"],
    (6, 10): ["delta_6_5", "f_6_5_2"],
    (8, 5): [],
}

_TAU_ALIASES = {"tau": "12.1.1"}


class Registry:
    """Cache of the eigenforms the identity catalog refers to."""

    def __init__(self, prec: int = forms.DEFAULT_PREC):
        self.prec = prec
        self._spaces: dict = {}

    def space_newforms(self, weight: int, level: int) -> list[Newform]:
        key = (weight, level)
        if key in self._spaces:
            return self._spaces[key]
        if key not in _OLD_SPANS:
            raise KeyError(f"no newform construction for weight {weight}, level {level}")
        space = forms.space_basis(weight, level, True, self.prec)
        old = [s for _, s in forms._build(_OLD_SPANS[key], self.prec)]
        out = extract_newforms(space, old)
        self._spaces[key] = out
        return out

    def newform(self, label: str) -> Newform:
        parts = label.split(".")
        weight, level, idx = int(parts[0]), int(parts[1]), int(parts[2])
        return self.space_newforms(weight, level)[idx - 1]

    def labels(self) -> list[str]:
        out = []
        for (k, n) in sorted(_OLD_SPANS):
            dim = forms.dimension(k, n, cuspidal=True)
            old = len(_OLD_SPANS[(k, n)])
            out += [f"{k}.{n}.{i + 1}" for i in range(dim - old)]
        return sorted(out)

    def tau(self, name: str, n: int):
        """Coefficient lookup by table-style name, e.g. tau_4_11_2."""
        return self.newform(self.tau_label(name)).coefficient(n)

    @staticmethod
    def tau_label(name: str) -> str:
        if name in _TAU_ALIASES:
            return _TAU_ALIASES[name]
        parts = name.split("_")
        if parts[0] != "tau" or len(parts) not in (3, 4):
            raise KeyError(f"unknown tau name {name!r}")
        k, lvl = int(parts[1]), int(parts[2])
        idx = int(parts[3]) if len(parts) == 4 else 1
        return f"{k}.{lvl}.{idx}"


@lru_cache(maxsize=None)
def registry(prec: int = forms.DEFAULT_PREC) -> Registry:
    return Registry(prec)
