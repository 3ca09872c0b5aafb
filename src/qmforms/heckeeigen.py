"""Extraction of primitive eigenforms from cusp spaces.

Two independent routes are provided: diagonalization of Hecke operators on an
echelonized cusp basis, and direct solution of the multiplicativity
constraints a(p^2) = a(p)^2 - [p coprime to N] p^(k-1), a(pq) = a(p) a(q) on
the echelon coordinates.  Both must produce the same eigenforms wherever both
apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import forms, linalg
from .exactnum import (
    FieldElement,
    QuadExt,
    as_fraction,
    conj,
    factor_small,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_trim,
)
from .qseries import PrecisionError, QSeries

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
    return QSeries([conj(c) for c in f.coeffs], f.prec, f.ext)


def _factorize(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@dataclass
class Newform:
    """Normalized Hecke eigenform with a stored expansion."""

    label: str
    weight: int
    level: int
    ext: QuadExt | None
    series: QSeries
    _ap: dict = field(default_factory=dict, repr=False)

    @property
    def prec(self) -> int:
        return self.series.prec

    def ap(self, p: int):
        if p not in self._ap:
            self._ap[p] = self.series.coeff(p)
        return self._ap[p]

    def coefficient(self, n: int):
        """Fourier coefficient, extended multiplicatively beyond the expansion."""
        if n < 1:
            return 0
        if n <= self.series.prec:
            return self.series.coeff(n)
        val = 1
        for p, e in _factorize(n):
            if p > self.series.prec:
                raise PrecisionError(f"prime {p} beyond stored precision {self.series.prec}")
            val = val * self._prime_power(p, e)
        return val

    def _prime_power(self, p: int, e: int):
        ap = self.ap(p)
        eps = 0 if self.level % p == 0 else p ** (self.weight - 1)
        prev, cur = 1, ap
        for _ in range(e - 1):
            prev, cur = cur, ap * cur - eps * prev
        return cur

    def to_record(self) -> dict:
        from .exactnum import format_element

        fld = [str(self.ext.p), str(self.ext.q)] if self.ext else "Q"
        return {
            "label": self.label,
            "weight": self.weight,
            "level": self.level,
            "field": fld,
            "coeffs": [format_element(c) for c in self.series.coeffs],
        }


def _validate_newform(nf: Newform):
    s = nf.series
    if s.coeff(0) != 0 or s.coeff(1) != 1:
        raise ValueError(f"{nf.label}: not normalized to q + O(q^2)")
    bound = min(s.prec, 40)
    for p in (2, 3, 5, 7):
        if p * p <= bound:
            eps = 0 if nf.level % p == 0 else p ** (nf.weight - 1)
            if s.coeff(p * p) != s.coeff(p) * s.coeff(p) - eps:
                raise ValueError(f"{nf.label}: a({p}^2) constraint fails")
    for m, n in ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (2, 9)):
        if m * n <= bound and s.coeff(m * n) != s.coeff(m) * s.coeff(n):
            raise ValueError(f"{nf.label}: a({m}*{n}) constraint fails")


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
    ech = linalg.rref([s.coeffs for s in space.series()])
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


def _combine(space: forms.SpaceBasis, coords) -> QSeries:
    acc = None
    for c, (_, s) in zip(coords, space.elements):
        if c == 0:
            continue
        term = c * s
        acc = term if acc is None else acc + term
    return acc


def extract_newforms(space: forms.SpaceBasis, old_span=()) -> list[Newform]:
    """Newforms of a cusp space, by Hecke diagonalization.

    old_span lists expansions of forms arising from lower levels; eigenvectors
    falling inside their span are discarded.  Quadratic eigenvalue pairs must
    be totally real unless the corresponding subspace is old.
    """
    dim = len(space.elements)
    ech = linalg.rref([s.coeffs for s in space.series()])
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
            f = _combine(space, v)
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
            f = _combine(space, v)
            lead = f.coeff(f.valuation())
            if lead != 1:
                f = (1 / lead) * f
            out.append((ext, conj_series(f)))
            out.append((ext, f))
    if len(out) != expected:
        raise ValueError(f"extracted {len(out)} newforms, expected {expected}")
    return _label_sorted(out, space.weight, space.level)


def _sort_key(series: QSeries):
    bound = min(series.prec, 12)
    key = []
    for n in range(2, bound + 1):
        c = series.coeff(n)
        key.append(as_fraction(c) if not isinstance(c, FieldElement) else c.a)
    return key


def _label_sorted(parts, weight: int, level: int) -> list[Newform]:
    rationals = [(ext, s) for ext, s in parts if ext is None]
    quads = [(ext, s) for ext, s in parts if ext is not None]
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
# is f = V_1 + x_2 V_2 + ... + x_d V_d and a_j(f) = x_j for j <= d.  The
# relations a(4) = a(2)^2 - eps2, a(6) = a(2) a(3), a(8) = a(2) a(4),
# a(10) = a(2) a(5), a(15) = a(3) a(5) then cut the x_j down to finitely many
# points, with every branch handled exactly.

def _read(space, j: int):
    """Row of coefficients of q^j across the echelon basis, 1-indexed."""
    return [as_fraction(s.coeff(j)) for _, s in space.elements]


def multiplicativity_solve(space: forms.SpaceBasis, weight=None, level=None) -> list[Newform]:
    weight = space.weight if weight is None else weight
    level = space.level if level is None else level
    dim = len(space.elements)
    if dim > 5:
        raise ValueError("multiplicativity solver handles dimension <= 5")
    if space.pivots != tuple(range(1, dim + 1)):
        raise ValueError("cusp basis pivots must be exactly 1..dim")
    if dim == 0:
        return []
    if dim == 1:
        return _label_sorted([(None, space.elements[0][1])], weight, level)

    eps2 = 0 if level % 2 == 0 else 2 ** (weight - 1)
    v = {j: _read(space, j) for j in (4, 6, 8, 10, 15) if j > dim}

    def row_poly(j, xpolys):
        """A(j) as a polynomial in b, for x_i given as polynomials in b."""
        if j <= dim:
            return xpolys[j]
        acc = [v[j][0]]
        for i in range(2, dim + 1):
            acc = poly_add(acc, poly_scale(xpolys[i], v[j][i - 1]))
        return acc

    b = [Fraction(0), Fraction(1)]  # the unknown a(2)
    sq = poly_sub(poly_mul(b, b), [Fraction(eps2)])  # a(2)^2 - eps2
    candidates = []

    if dim == 2:
        final = poly_sub(sq, row_poly(4, {2: b}))
        candidates += _poly_candidates(final, {2: b})
    elif dim == 3:
        v34 = _read(space, 4)[2]
        if v34 == 0:
            raise ValueError("constraint system inconsistent: a(4) row degenerate")
        x3 = poly_scale(poly_sub(sq, poly_add([_read(space, 4)[0]], poly_scale(b, _read(space, 4)[1]))), 1 / v34)
        xp = {2: b, 3: x3}
        final = poly_sub(poly_mul(b, x3), row_poly(6, xp))
        candidates += _poly_candidates(final, xp)
    elif dim == 4:
        x4 = sq
        v8 = _read(space, 8)
        if v8[2] == 0:
            raise ValueError("constraint system inconsistent: a(8) row degenerate")
        num = poly_sub(poly_mul(b, x4), poly_add([v8[0]], poly_add(poly_scale(b, v8[1]), poly_scale(x4, v8[3]))))
        x3 = poly_scale(num, 1 / v8[2])
        xp = {2: b, 3: x3, 4: x4}
        final = poly_sub(poly_mul(b, x3), row_poly(6, xp))
        candidates += _poly_candidates(final, xp)
    else:
        candidates += _solve_dim5(space, v, b, sq)

    seen = []
    parts = []
    for xs in candidates:
        f = _candidate_series(space, xs)
        key = tuple(f.coeff_list(min(10, f.prec)))
        if key in seen:
            continue
        seen.append(key)
        if not _multiplicative_ok(f, weight, level):
            continue
        ext = f.ext
        parts.append((ext, f))
    # conjugate pairs: quadratic candidates arrive once, with the generator
    expanded = []
    for ext, f in parts:
        if ext is None:
            expanded.append((None, f))
        else:
            expanded.append((ext, conj_series(f)))
            expanded.append((ext, f))
    return _label_sorted(expanded, weight, level)


def _poly_candidates(poly, xpolys):
    """Solutions of poly(b) = 0, each as a dict j -> value of x_j."""
    poly = poly_trim(poly)
    if not poly:
        raise ValueError("residual degrees of freedom in the constraint system")
    roots, quads = factor_small(poly, max_degree=5)
    out = []
    for r in roots:
        out.append({j: poly_eval(p, r) for j, p in xpolys.items()})
    for qf in quads:
        if not qf.totally_real:
            continue
        t = qf.ext().gen()
        out.append({j: poly_eval(p, t) for j, p in xpolys.items()})
    return out


def _solve_dim5(space, v, b, sq):
    x4 = sq
    v6, v8, v10, v15 = v[6], v[8], v[10], v[15]
    # a(6) = b x3:   (b - v6[2]) x3 - v6[4] x5 = v6[0] + v6[1] b + v6[3] x4
    # a(8) = b x4:   -v8[2] x3 - v8[4] x5 = v8[0] + v8[1] b + v8[3] x4 - b x4
    a1 = poly_sub(b, [v6[2]])
    b1 = [-v6[4]]
    g1 = poly_add([v6[0]], poly_add(poly_scale(b, v6[1]), poly_scale(x4, v6[3])))
    a2 = [-v8[2]]
    b2 = [-v8[4]]
    g2 = poly_sub(poly_add([v8[0]], poly_add(poly_scale(b, v8[1]), poly_scale(x4, v8[3]))), poly_mul(b, x4))
    det = poly_sub(poly_mul(a1, b2), poly_mul(b1, a2))
    n3 = poly_sub(poly_mul(g1, b2), poly_mul(b1, g2))
    n5 = poly_sub(poly_mul(a1, g2), poly_mul(g1, a2))
    out = []

    # main branch: det(b) != 0; clear the denominator in a(10) = b x5
    lhs = poly_mul(b, n5)
    rhs = poly_add(
        poly_mul(det, poly_add([v10[0]], poly_add(poly_scale(b, v10[1]), poly_scale(x4, v10[3])))),
        poly_add(poly_scale(n3, v10[2]), poly_scale(n5, v10[4])),
    )
    final = poly_sub(lhs, rhs)
    det_roots = [r for r in factor_small(det, max_degree=1)[0]] if poly_trim(det) else []
    work = poly_trim(final)
    if not work:
        raise ValueError("residual degrees of freedom in the constraint system")
    roots, quads = factor_small(work, max_degree=5)
    for r in roots:
        if r in det_roots:
            continue
        dv = poly_eval(det, r)
        out.append({2: r, 3: poly_eval(n3, r) / dv, 4: poly_eval(x4, r), 5: poly_eval(n5, r) / dv})
    for qf in quads:
        if not qf.totally_real:
            continue
        t = qf.ext().gen()
        dv = poly_eval(det, t)
        out.append({2: t, 3: poly_eval(n3, t) / dv, 4: poly_eval(x4, t), 5: poly_eval(n5, t) / dv})

    # singular branch: b fixed at a rational root of det
    for bstar in det_roots:
        out += _singular_branch(space, v, bstar, poly_eval(x4, bstar),
                                (poly_eval(a1, bstar), b1[0], poly_eval(g1, bstar)),
                                (a2[0], b2[0], poly_eval(g2, bstar)))
    return out


def _singular_branch(space, v, bstar, x4v, eq1, eq2):
    """Solve the rank-deficient linear system for (x3, x5) at b = bstar."""
    (a1, b1, g1), (a2, b2, g2) = eq1, eq2
    # pick a pivot equation; express one unknown affinely in the other
    if b2 != 0:
        # x5 = (g2 - a2 x3) / b2, x3 = s free
        x3 = [Fraction(0), Fraction(1)]
        x5 = poly_scale(poly_sub([g2], poly_scale(x3, a2)), 1 / as_fraction(b2))
    elif a2 != 0:
        x5 = [Fraction(0), Fraction(1)]
        x3 = poly_scale(poly_sub([g2], poly_scale(x5, b2)), 1 / as_fraction(a2))
    else:
        if g2 != 0:
            return []
        x3 = [Fraction(0), Fraction(1)]
        x5 = None
    if x5 is None:
        raise ValueError("residual degrees of freedom in the constraint system")
    # consistency of the other equation: a1 x3 + b1 x5 = g1 as polynomials in s
    chk = poly_sub(poly_add(poly_scale(x3, a1), poly_scale(x5, b1)), [g1])
    chk = poly_trim(chk)
    if chk and len(chk) == 1:
        return []  # contradictory constants
    if chk:
        s = -chk[0] / chk[1]
        return [_singular_point(bstar, x4v, poly_eval(x3, s), poly_eval(x5, s))]
    # cascade: a(10) = bstar x5, then a(15) = x3 x5
    sols = []
    dim = 5
    v10, v15 = v[10], v[15]

    def row_aff(vrow, x3p, x5p):
        acc = [vrow[0] + vrow[1] * bstar + vrow[3] * x4v]
        acc = poly_add(acc, poly_scale(x3p, vrow[2]))
        acc = poly_add(acc, poly_scale(x5p, vrow[4]))
        return acc

    c10 = poly_sub(poly_scale(x5, bstar), row_aff(v10, x3, x5))
    c10 = poly_trim(c10)
    if c10 and len(c10) == 2:
        s = -c10[0] / c10[1]
        return [_singular_point(bstar, x4v, poly_eval(x3, s), poly_eval(x5, s))]
    if c10 and len(c10) == 1:
        return []
    c15 = poly_sub(poly_mul(x3, x5), row_aff(v15, x3, x5))
    c15 = poly_trim(c15)
    if not c15:
        raise ValueError("residual degrees of freedom in the constraint system")
    roots, quads = factor_small(c15, max_degree=4)
    for r in roots:
        sols.append(_singular_point(bstar, x4v, poly_eval(x3, r), poly_eval(x5, r)))
    for qf in quads:
        if qf.totally_real:
            t = qf.ext().gen()
            sols.append(_singular_point(bstar, x4v, poly_eval(x3, t), poly_eval(x5, t)))
    return sols


def _singular_point(bstar, x4v, x3v, x5v):
    return {2: bstar, 3: x3v, 4: x4v, 5: x5v}


def _candidate_series(space, xs) -> QSeries:
    acc = space.elements[0][1]
    for j in range(2, len(space.elements) + 1):
        c = xs[j]
        if c == 0:
            continue
        acc = acc + c * space.elements[j - 1][1]
    return acc


def _multiplicative_ok(f: QSeries, weight: int, level: int) -> bool:
    bound = min(f.prec, 200)
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

_DIRECT = {
    (12, 1): ["delta"],
    (4, 5): ["delta_4_5"],
    (4, 6): ["delta_4_6"],
    (4, 7): ["delta_4_7"],
    (4, 8): ["delta_4_8"],
    (4, 9): ["delta_4_9"],
    (8, 2): ["delta_8_2"],
    (2, 11): ["delta_2_11"],
    (2, 14): ["delta_2_14"],
    (6, 5): ["delta_6_5"],
}

_OLD_SPANS = {
    (4, 10): [("delta_4_5", 1), ("delta_4_5", 2)],
    (4, 11): [],
    (4, 13): [],
    (4, 14): [("delta_4_7", 1), ("delta_4_7", 2)],
    (6, 10): [("delta_6_5", 1), ("delta_6_5", 2)],
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
        if key in _DIRECT:
            out = []
            for i, lbl in enumerate(_DIRECT[key]):
                _, s = forms.named_form(lbl, self.prec)
                nf = Newform(f"{weight}.{level}.{i + 1}", weight, level, None, s)
                _validate_newform(nf)
                out.append(nf)
        elif key in _OLD_SPANS:
            space = forms.space_basis(weight, level, True, self.prec)
            old = []
            for lbl, d in _OLD_SPANS[key]:
                _, s = forms.named_form(lbl, self.prec)
                if d > 1:
                    s = s.rescale(d).truncate(self.prec)
                old.append(s)
            out = extract_newforms(space, old)
        else:
            raise KeyError(f"no newform construction for weight {weight}, level {level}")
        self._spaces[key] = out
        return out

    def newform(self, label: str) -> Newform:
        parts = label.split(".")
        weight, level, idx = int(parts[0]), int(parts[1]), int(parts[2])
        return self.space_newforms(weight, level)[idx - 1]

    def labels(self) -> list[str]:
        out = []
        for (k, n), lbls in sorted(_DIRECT.items()):
            out += [f"{k}.{n}.{i + 1}" for i in range(len(lbls))]
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
