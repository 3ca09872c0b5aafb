"""Exact arithmetic over Q and real quadratic extensions Q(t) with t**2 = p*t + q.

Scalars are Python ints, fractions.Fraction, or FieldElement.  A quadratic
field is fixed by the pair (p, q) of its defining polynomial X**2 - p*X - q;
two descriptors denote the same field only if (p, q) match literally.  p and
q are ints, so t is an algebraic integer and the integer parts below are
over Z[t]: the engine uses Q(t) only for Hecke eigenvalues, which are
algebraic integers.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm

__all__ = [
    "IntegrityError",
    "FieldMismatch",
    "QuadExt",
    "FieldElement",
    "QuadraticFactor",
    "as_fraction",
    "join_ext",
    "ext_ints",
    "scale_parts",
    "split_parts",
    "join_parts",
    "conj",
    "trace",
    "factorize",
    "factor_small",
    "format_element",
    "format_parts",
    "parse_element",
    "poly_trim",
    "poly_degree",
    "poly_add",
    "poly_sub",
    "poly_scale",
    "poly_mul",
    "poly_eval",
    "poly_divmod",
]


class IntegrityError(ValueError):
    """The engine's exact results contradict each other: a check that must hold failed."""


class FieldMismatch(IntegrityError):
    """Operands live in different quadratic fields."""


def as_fraction(x):
    """Coerce an int or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational value, got {type(x).__name__}")


@dataclass(frozen=True)
class QuadExt:
    """Real quadratic field Q(t), t a root of X**2 - p*X - q with ints p and q."""

    p: int
    q: int

    def __post_init__(self):
        p, q = as_fraction(self.p), as_fraction(self.q)
        if p.denominator != 1 or q.denominator != 1:
            raise ValueError(f"descriptor ({p},{q}) is not integral")
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "q", int(q))
        d = self.p * self.p + 4 * self.q
        if d <= 0:
            raise ValueError(f"descriptor {self} is not a real quadratic field")
        if isqrt(d) ** 2 == d:
            raise ValueError(f"X^2 - {self.p}X - {self.q} is reducible over Q")

    def gen(self) -> "FieldElement":
        """The generator t with t**2 = p*t + q."""
        return FieldElement(0, 1, self)

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


class FieldElement:
    """Value a + b*t in a quadratic extension; mixes freely with rationals."""

    __slots__ = ("a", "b", "ext")

    def __init__(self, a, b, ext: QuadExt):
        if not isinstance(ext, QuadExt):
            raise TypeError("ext must be a QuadExt descriptor")
        self.a = as_fraction(a)
        self.b = as_fraction(b)
        self.ext = ext

    # -- helpers ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ext != self.ext:
                raise FieldMismatch(f"{self.ext} vs {other.ext}")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(other, 0, self.ext)
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.a + o.a, self.b + o.b, self.ext)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.a - o.a, self.b - o.b, self.ext)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(o.a - self.a, o.b - self.b, self.ext)

    def __neg__(self):
        return FieldElement(-self.a, -self.b, self.ext)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 t)(a2 + b2 t), reduced by t^2 = p t + q
        bb = self.b * o.b
        return FieldElement(
            self.a * o.a + bb * self.ext.q,
            self.a * o.b + self.b * o.a + bb * self.ext.p,
            self.ext,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nrm = o.a * o.a + o.a * o.b * o.ext.p - o.b * o.b * o.ext.q
        if nrm == 0:
            raise ZeroDivisionError("division by zero field element")
        num = self * o.conj()
        return FieldElement(num.a / nrm, num.b / nrm, self.ext)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- structure -------------------------------------------------------

    def conj(self) -> "FieldElement":
        """Image under the nontrivial automorphism t -> p - t."""
        return FieldElement(self.a + self.b * self.ext.p, -self.b, self.ext)

    def trace(self) -> Fraction:
        return 2 * self.a + self.b * self.ext.p

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if other.ext != self.ext:
                return self.b == 0 and other.b == 0 and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.ext))

    def __repr__(self):
        return format_element(self)


# -- integer parts ------------------------------------------------------------
#
# A vector of values x_i = (a_i + b_i*t) / d is held as int lists a and b over
# one denominator d > 0, b None when every t-part is zero.  With t**2 = p*t + q
# for the ints (p, q) of the descriptor, no arithmetic on parts leaves the
# ints.  Series and echelon rows use these parts.


def join_ext(e1, e2):
    """The common descriptor of two operands (None stands for Q)."""
    if e1 is None or e1 is e2:
        return e2
    if e2 is None or e1 == e2:
        return e1
    raise FieldMismatch(f"incompatible descriptors {e1} and {e2}")


def ext_ints(ext):
    """(P, N) with t**2 = P*t + N; (0, 0) over Q (ext None)."""
    return (ext.p, ext.q) if ext else (0, 0)


def scale_parts(c, row, P: int, N: int):
    """c*row over Z[t], t**2 = P*t + N, for c = (c0, c1) and row = (a, b); c1 or b falsy is 0."""
    (c0, c1), (a, b) = c, row
    if not c1:
        return [c0 * x for x in a], b and [c0 * y for y in b]
    if not b:
        return [c0 * x for x in a], [c1 * x for x in a]
    k1, k2 = N * c1, c0 + P * c1
    return [c0 * x + k1 * y for x, y in zip(a, b)], [c1 * x + k2 * y for x, y in zip(a, b)]


def split_parts(xs, ext=None):
    """Integer parts (a, b, d, ext) of the values xs, d the least common denominator.

    ext is joined with the descriptor of every FieldElement.  Raises TypeError
    on a value that is not exact.
    """
    dens, quad = set(), False
    for x in xs:
        if isinstance(x, int):
            continue
        if isinstance(x, Fraction):
            dens.add(x.denominator)
        elif isinstance(x, FieldElement):
            ext = join_ext(ext, x.ext)
            dens.update((x.a.denominator, x.b.denominator))
            quad = quad or x.b != 0
        else:
            raise TypeError(f"expected an exact value, got {type(x).__name__}")
    if not dens:
        return list(xs), None, 1, ext
    d = lcm(*dens)
    a = [x.a if isinstance(x, FieldElement) else x for x in xs]
    a = [x.numerator * (d // x.denominator) for x in a]
    b = [x.b.numerator * (d // x.b.denominator) if isinstance(x, FieldElement) else 0
         for x in xs] if quad else None
    return a, b, d, ext


def join_parts(a, b, d: int, ext) -> tuple:
    """The values (a_i + b_i*t) / d: ints where integral, FieldElements only where b_i != 0."""
    if d == 1 and b is None:
        return tuple(a)
    return tuple(FieldElement(Fraction(x, d), Fraction(y, d), ext) if y else x // d if x % d == 0
                 else Fraction(x, d) for x, y in zip(a, b or repeat(0)))


# -- module-level operations ----------------------------------------------


def conj(x):
    """Quadratic conjugate; rationals are fixed."""
    if isinstance(x, FieldElement):
        return x.conj()
    return x


def trace(x):
    """x + conj(x); always rational."""
    if isinstance(x, FieldElement):
        return x.trace()
    return 2 * x


# -- small polynomials over Q ----------------------------------------------
#
# Coefficient lists run low to high degree.


def poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_degree(cs) -> int:
    cs = poly_trim(cs)
    return len(cs) - 1 if cs else -1


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_sub(a, b):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def poly_scale(a, c):
    return poly_trim([ci * c for ci in a])


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return poly_trim(out)


def poly_eval(cs, x):
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def poly_divmod(a, b):
    """Exact polynomial division with remainder over Q or Q(t)."""
    a = [c if isinstance(c, FieldElement) else as_fraction(c) for c in poly_trim(a)]
    b = [c if isinstance(c, FieldElement) else as_fraction(c) for c in poly_trim(b)]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = a[:]
    while len(r) >= len(b) and r:
        shift = len(r) - len(b)
        f = r[-1] / b[-1]
        q[shift] = f
        for i, bi in enumerate(b):
            r[shift + i] -= f * bi
        r = poly_trim(r)
    return poly_trim(q), r


# -- factorization of small characteristic polynomials ----------------------


@dataclass(frozen=True)
class QuadraticFactor:
    """Monic irreducible quadratic X**2 - p*X - q with reality flag."""

    p: Fraction
    q: Fraction
    totally_real: bool

    def ext(self) -> QuadExt:
        if not self.totally_real:
            raise ValueError("factor is not totally real")
        return QuadExt(self.p, self.q)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of a positive integer as (prime, exponent) pairs, by trial division."""
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


def _rational_root(ints):
    """One rational root of an integer-coefficient polynomial, or None."""
    if ints[0] == 0:
        return Fraction(0)

    def divisors(n):
        ds = [1]
        for p, e in factorize(abs(n)):
            ds = [d * p**i for d in ds for i in range(e + 1)]
        return sorted(ds)

    dens = divisors(ints[-1])
    for r in divisors(ints[0]):
        for s in dens:
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if poly_eval(ints, cand) == 0:
                    return cand
    return None


def factor_small(coeffs):
    """Factor a rational polynomial into linear and quadratic parts.

    Returns (roots, quadratics): rational roots with multiplicity, sorted in
    descending order, and irreducible monic quadratics as QuadraticFactor
    records.  Raises if an irreducible factor of degree > 2 remains after
    stripping rational roots.
    """
    cs = poly_trim([as_fraction(c) for c in coeffs])
    if not cs:
        raise ValueError("zero polynomial")
    roots = []
    work = cs[:]
    while poly_degree(work) >= 1:
        ints = split_parts(work)[0]
        g = gcd(*ints)
        ints = [c // g for c in ints]
        r = _rational_root(ints)
        if r is None:
            break
        roots.append(r)
        work, rem = poly_divmod(work, [-r, Fraction(1)])
        assert not rem
    deg = poly_degree(work)
    quads = []
    if deg == 2:
        a2, a1, a0 = work[2], work[1], work[0]
        p = -a1 / a2
        q = -a0 / a2
        disc = p * p + 4 * q
        quads.append(QuadraticFactor(p, q, totally_real=disc > 0))
    elif deg > 0:
        raise ValueError(f"irreducible factor of degree {deg} over Q")
    return sorted(roots, reverse=True), quads


# -- serialization -----------------------------------------------------------
#
# Field elements print as "a" or "a+b*t@(p,q)" with a and b lowest-terms
# fractions "num/den" (integers drop the "/den") and p, q ints; parse_element
# reads fractions there too, so a fractional descriptor fails as not integral.
# format_parts writes these strings straight from integer parts, one gcd per
# part, and is the only formatter: format_element splits its one value into
# parts first.

_FRAC = r"-?\d+(?:/\d+)?"
_ELEM_RE = re.compile(rf"^({_FRAC})\+({_FRAC})\*t@\(({_FRAC}),({_FRAC})\)$")


def format_parts(num, unum, den: int, ext) -> list[str]:
    """The strings of the values (num[i] + unum[i]*t) / den."""
    def frac(x):
        g = gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"

    if not unum:
        return list(map(str if den == 1 else frac, num))
    tail = f"*t@{ext}"
    return [f"{frac(x)}+{frac(y)}{tail}" if y else frac(x) for x, y in zip(num, unum)]


def format_element(x) -> str:
    return format_parts(*split_parts((x,)))[0]


def parse_element(s: str):
    """Inverse of format_element; returns Fraction or FieldElement."""
    s = s.strip().replace(" ", "")
    m = _ELEM_RE.match(s)
    if m:
        a, b, p, q = (Fraction(g) for g in m.groups())
        return FieldElement(a, b, QuadExt(p, q))
    try:
        return Fraction(s)
    except ValueError:
        raise ValueError(f"cannot parse field element {s!r}") from None
