"""Truncated formal power series in q with exact coefficients.

A QSeries holds the coefficients of q^0 .. q^prec in one normal form: the
coefficient of q^n is (num[n] + unum[n]*t) / den with int numerators, one
positive int denominator coprime to the numerators as a whole, and t the
generator of the quadratic descriptor ext (None over Q), with t**2 = P*t + N
for the ints (P, N) = exactnum.ext_ints(ext).  unum holds the t-parts and is
None when every t-part is zero.  Every ring operation is integer vector
arithmetic on these parts; a product is one big-int multiply, or two of half
the size above a cutoff (three products over Q(t)), taken on the q^d
subsequences when an operand is in q^d.  `combine` weights series by the
coefficients of a series, by the one Z[t] rule (`_zt_terms`) that `linalg`'s
coordinate check shares.  The parts are all a series stores:
`coeffs` builds the values on each read, ints where integral, Fractions
otherwise, FieldElements only where the t-part is nonzero, and `coeff(n)`
builds only its own value.
Reads beyond the stored precision raise, they never return zero silently.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress, islice, repeat
from math import gcd, lcm
from operator import add, mul

from .exactnum import (FieldElement, ext_ints, factorize, format_parts, join_ext, join_parts, scale_parts,
                       split_parts)

__all__ = ["PrecisionError", "QSeries", "combine", "zero", "one", "eta_quotient", "rc_bracket1",
           "series_str"]


class PrecisionError(ValueError):
    """A coefficient beyond the stored precision was requested."""


# Packed bits from which two half-size multiplies beat one, about 4x CPython's
# Karatsuba cutoff of 70 30-bit digits.  Their time over one multiply's (whole
# kernel, Python 3.11, 2-core VM): 1.1-1.4 below 3k bits, 0.94-1.02 at 4-8k,
# 0.77-0.97 at 9-25k, 0.72-0.88 past 28k.
_KS2_BITS = 8192


def _bias(nb: int, n: int) -> int:
    """2**(8*nb - 1) in each of n nb-byte digits: the offset that `_pack` takes away."""
    return int.from_bytes((1 << (8 * nb - 1)).to_bytes(nb, "little") * n, "little")


def _pack(cs, nb: int, bias: int) -> int:
    """sum cs[j] * 2**(8*nb*j) for ints |cs[j]| < 2**(8*nb - 1): one signed nb-byte digit each.

    Each c + 2**(8*nb - 1) is written as an unsigned digit, and the offset
    in the low len(cs) digits of bias = _bias(nb, n), n >= len(cs), is
    taken off; a value past the width raises OverflowError.
    """
    digits = map(int.to_bytes, map(add, cs, repeat(1 << (8 * nb - 1))), repeat(nb), repeat("little"))
    return int.from_bytes(b"".join(digits), "little") - (bias >> (bias.bit_length() - 8 * nb * len(cs)))


def _int_product(xs, ys):
    """First n = len(xs) coefficients of the product of two int lists of length n.

    An operand's stride is the gcd of the indices of its nonzero coefficients
    past q^0; the scan stops at gcd 1, so a dense operand costs O(1).  If both
    operands are in q^d, one product of length ceil(n/d) is spread back; if
    only one is in q^g, with g*g <= n, each residue class of the other mod g
    is multiplied by it (past that, g products cost more than they save).
    Kronecker substitution does each product: a list is packed into one int,
    one w-bit digit per coefficient, with 2**(w-1) > max|x| * max|y| * n, so
    every coefficient below q^n fits in a digit as a signed value, and adding
    2**(w-1) to each of the low n digits makes them nonnegative for
    unpacking.  Below _KS2_BITS one multiply evaluates at 2**w.  Above, two of
    half the size evaluate at +-2**b, b = w/2 (Harvey, J. Symbolic Comput. 44
    (2009)): with E and O the even and odd coefficients packed at w bits,
    X(+-2**b) = E +- O * 2**b.  Then H+ + H- is twice the even coefficients
    of the product packed at w bits, and H+ - H- is 2**(b+1) times the odd
    ones, so both shifts divide exact multiples and lose no bit.
    """
    n = len(xs)

    def stride(cs):
        g = 0
        for i in compress(range(1, n), islice(cs, 1, None)):
            g = gcd(g, i)
            if g == 1:
                break
        return g

    gx = stride(xs)
    gy = gx if ys is xs else stride(ys)
    d, g = gcd(gx, gy) or n, max(gx, gy)
    out = [0] * n
    if d > 1:  # both in q^d; a constant is in every q^d
        sx = xs[::d]
        out[::d] = _int_product(sx, sx if ys is xs else ys[::d])
        return out
    bound = max(map(abs, xs)) * max(map(abs, ys)) * n
    if not bound:  # a zero operand; the digit width below also bounds each |x| and |y|
        return out
    nb = (bound.bit_length() + 8) // 8  # digit bytes: 2**(8*nb - 1) > bound
    half, bias = 1 << (8 * nb - 1), _bias(nb, n)

    def unpack(v, m):  # the low m digits of v, as signed values
        low = ((v + (bias >> (8 * nb * (n - m)))) & ((1 << (8 * nb * m)) - 1)).to_bytes(nb * m, "little")
        digits = [low[i : i + nb] for i in range(0, nb * m, nb)]
        return list(map(add, map(int.from_bytes, digits, repeat("little")), repeat(-half)))

    if 1 < g and g * g <= n:  # ys becomes the operand in q^g, packed once for every residue class of xs
        xs, ys = (ys, xs) if gx == g else (xs, ys)
        py = _pack(ys[::g], nb, bias)
        for r in range(g):
            sx = xs[r::g]
            out[r::g] = unpack(_pack(sx, nb, bias) * py, len(sx))
        return out
    if 8 * nb * n < _KS2_BITS:
        px = _pack(xs, nb, bias)
        return unpack(px * (px if ys is xs else _pack(ys, nb, bias)), n)  # squaring one int is faster
    b = 4 * nb

    def at_two_points(cs):
        e, o = _pack(cs[::2], nb, bias), _pack(cs[1::2], nb, bias) << b
        return e + o, e - o

    xp, xm = at_two_points(xs)
    yp, ym = (xp, xm) if ys is xs else at_two_points(ys)
    hp, hm = xp * yp, xm * ym
    out[::2] = unpack((hp + hm) >> 1, (n + 1) // 2)
    out[1::2] = unpack((hp - hm) >> (b + 1), n // 2)
    return out


def _unit_power(f, a: int, b: int) -> list:
    """The coefficients of f**(a/b) for f = 1 + O(q), given as values.

    From b f D(c) = a c D(f) with D = q d/dq, coefficient by coefficient:
    b m c_m = sum_{j=1..m} f_j c_{m-j} ((a + b) j - b m).
    """
    jf = [(a + b) * j * x for j, x in enumerate(f)]
    c = [1]
    for m in range(1, len(f)):
        s = -b * m * sum(map(mul, f[1 : m + 1], reversed(c)))
        if a + b:
            s += sum(map(mul, jf[1 : m + 1], reversed(c)))
        k = b * m
        c.append(s // k if isinstance(s, int) and s % k == 0 else s * Fraction(1, k))
    return c


def _make(prec, ext, num, unum=None, den=1) -> "QSeries":
    s = object.__new__(QSeries)
    s._set(prec, ext, num, unum, den)
    return s


class QSeries:
    __slots__ = ("prec", "ext", "num", "unum", "den")

    def __init__(self, coeffs, prec=None, ext=None):
        coeffs = list(coeffs)
        if prec is None:
            prec = len(coeffs) - 1
        if prec < 0:
            raise ValueError("precision must be >= 0")
        if len(coeffs) > prec + 1:
            raise ValueError("more coefficients than the declared precision")
        num, unum, den, ext = split_parts(coeffs, ext)
        pad = [0] * (prec + 1 - len(coeffs))
        self._set(prec, ext, num + pad, None if unum is None else unum + pad, den)

    def _set(self, prec, ext, num, unum, den):
        """Store (num + unum*t) / den in normal form, den made positive."""
        if unum is not None and not any(unum):
            unum = None
        if den != 1:
            g = gcd(den, *num, *(unum or ())) * (-1 if den < 0 else 1)
            if g != 1:
                num, unum, den = [x // g for x in num], unum and [x // g for x in unum], den // g
        self.prec, self.ext, self.num, self.den = prec, ext, tuple(num), den
        self.unum = unum and tuple(unum)

    # -- access -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as values, built from the parts on each read."""
        return join_parts(self.num, self.unum, self.den, self.ext)

    def coeff(self, n: int):
        if n < 0:
            return 0
        if n > self.prec:
            raise PrecisionError(f"coefficient {n} beyond precision {self.prec}")
        return join_parts((self.num[n],), self.unum and (self.unum[n],), self.den, self.ext)[0]

    def coeff_list(self, upto=None):
        upto = self.prec if upto is None else upto
        return [self.coeff(n) for n in range(upto + 1)]

    def strings(self, upto: int) -> list[str]:
        """The coefficients of q^0 .. q^upto as exactnum strings, written from the parts."""
        return format_parts(self.num[: upto + 1], self.unum and self.unum[: upto + 1], self.den, self.ext)

    def valuation(self):
        """Exponent of the first nonzero coefficient, or None for zero."""
        u = self.unum
        return next((n for n, c in enumerate(self.num) if c or (u and u[n])), None)

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise PrecisionError(f"cannot extend precision {self.prec} to {prec}")
        if prec < 0:
            raise ValueError("precision must be >= 0")
        if prec == self.prec:
            return self
        u = self.unum
        return _make(prec, self.ext, self.num[: prec + 1], u and u[: prec + 1], self.den)

    # -- ring operations ----------------------------------------------------

    def _add(self, other, sign: int):
        """self + sign * other at the smaller precision; a scalar is a constant series."""
        if isinstance(other, (int, Fraction, FieldElement)):
            other = QSeries([other], self.prec)
        elif not isinstance(other, QSeries):
            return NotImplemented
        ext = join_ext(self.ext, other.ext)
        den = lcm(self.den, other.den)
        m1, m2 = den // self.den, sign * den // other.den
        n = min(self.prec, other.prec) + 1
        u1, u2 = self.unum, other.unum

        def lin(xs, ys):
            return [m1 * x + m2 * y for x, y in zip(xs[:n], ys[:n])]

        unum = lin(u1 or (0,) * n, u2 or (0,) * n) if u1 or u2 else None
        return _make(n - 1, ext, lin(self.num, other.num), unum, den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        u = self.unum
        return _make(self.prec, self.ext, [-x for x in self.num], u and [-y for y in u], self.den)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c) -> "QSeries":
        """c * self for one exact scalar c."""
        (ca,), cb, cd, cext = split_parts((c,))
        ext = join_ext(self.ext, cext)  # a clashing descriptor raises even for c = 0
        if not c:
            return zero(self.prec, self.ext)
        a, b = scale_parts((ca, cb and cb[0]), (self.num, self.unum), *ext_ints(ext))
        return _make(self.prec, ext, a, b, self.den * cd)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self._scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        p = min(self.prec, other.prec)
        ext = join_ext(self.ext, other.ext)
        a1, a2 = self.num[: p + 1], other.num[: p + 1]
        b1, b2 = self.unum, other.unum
        b1, b2 = b1 and b1[: p + 1], b2 and b2[: p + 1]
        den = self.den * other.den
        aa = _int_product(a1, a2)
        if b1 is None and b2 is None:
            return _make(p, ext, aa, None, den)
        if b1 is None or b2 is None:
            return _make(p, ext, aa, _int_product(a1, b2) if b1 is None else _int_product(b1, a2), den)
        # (a1 + b1 t)(a2 + b2 t) with t^2 = P t + N, from three int products
        bb = _int_product(b1, b2)
        s1 = [x + y for x, y in zip(a1, b1)]
        ss = _int_product(s1, s1 if a2 is a1 and b2 is b1 else [x + y for x, y in zip(a2, b2)])
        P, N = ext_ints(ext)
        return _make(p, ext, [x + N * y for x, y in zip(aa, bb)],
                     [z - x - y + P * y for x, y, z in zip(aa, bb, ss)], den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.prec == other.prec and self.den == other.den and self.num == other.num
                and self.unum == other.unum and (self.unum is None or self.ext == other.ext))

    def __hash__(self):
        return hash((self.prec, self.den, self.num, self.unum))

    # -- operators of the calculus -------------------------------------------

    def pointwise(self, ws) -> "QSeries":
        """Multiply the coefficient of q^n by the integer ws[n]."""
        u = self.unum
        return _make(self.prec, self.ext, [w * x for w, x in zip(ws, self.num)],
                     u and [w * y for w, y in zip(ws, u)], self.den)

    def conj(self) -> "QSeries":
        """Apply the quadratic conjugation t -> P - t to every coefficient."""
        if self.unum is None:
            return self
        P, _ = ext_ints(self.ext)
        return _make(self.prec, self.ext, [x + P * y for x, y in zip(self.num, self.unum)],
                     [-y for y in self.unum], self.den)

    def rescale(self, d: int, prec: int | None = None) -> "QSeries":
        """Substitute q -> q**d; precision grows to prec*d, or stops at `prec`."""
        if d < 1:
            raise ValueError("rescale factor must be a positive integer")
        p = self.prec * d if prec is None else prec
        if p > self.prec * d:
            raise PrecisionError(f"cannot extend precision {self.prec * d} to {p}")

        def spread(xs):
            out = [0] * (p + 1)
            out[::d] = xs[: p // d + 1]
            return out

        u = self.unum
        return _make(p, self.ext, spread(self.num), u and spread(u), self.den)

    def derive(self, i: int = 1) -> "QSeries":
        """Apply (q d/dq)**i: coefficient n picks up a factor n**i."""
        if i < 0:
            raise ValueError("derivative order must be nonnegative")
        if i == 0:
            return self
        return self.pointwise([n**i for n in range(self.prec + 1)])

    def power(self, m: int) -> "QSeries":
        """m-th power by repeated squaring; f**0 is the constant 1."""
        if m < 0:
            raise ValueError("negative powers are not defined here")
        if m == 0:
            return one(self.prec, self.ext)
        acc, base = None, self
        while True:
            if m & 1:
                acc = base if acc is None else acc * base
            m >>= 1
            if not m:
                return acc
            base = base * base

    def inverse(self) -> "QSeries":
        """Multiplicative inverse of a series with constant term 1."""
        if self.coeff(0) != 1:
            raise ValueError("inverse requires constant term exactly 1")
        return QSeries(_unit_power(self.coeffs, -1, 1), self.prec, self.ext)

    def root(self, n: int) -> "QSeries":
        """n-th root of q**v (1 + ...) with n | v and unit leading coefficient."""
        if n < 1:
            raise ValueError("root order must be a positive integer")
        if n == 1:
            return self
        v = self.valuation()
        if v is None:
            raise ValueError("root of the zero series")
        if self.coeff(v) != 1:
            raise ValueError("leading coefficient must be exactly 1")
        if v % n:
            raise ValueError(f"valuation {v} not divisible by {n}")
        out = [0] * (v // n) + _unit_power(self.coeffs[v:], 1, n)
        return QSeries(out, v // n + self.prec - v, self.ext)

    def hecke(self, p: int, weight: int, level: int) -> "QSeries":
        """Hecke operator T_p for the given weight and level."""
        ints = all(isinstance(x, int) for x in (p, weight, level))
        if not ints or min(weight, level) < 1 or p < 2 or factorize(p) != [(p, 1)]:
            raise ValueError(f"T_p needs a prime p, weight >= 1 and level >= 1, got {p!r}, {weight!r}, {level!r}")
        newp = self.prec // p
        pk = p ** (weight - 1)

        def image(xs):
            out = list(xs[: p * newp + 1 : p])
            if level % p:
                for m in range(0, newp + 1, p):
                    out[m] += pk * xs[m // p]
            return out

        u = self.unum
        return _make(newp, self.ext, image(self.num), u and image(u), self.den)

    def __repr__(self):
        head = series_str(self, upto=min(self.prec, 6))
        tail = " + ..." if self.prec > 6 else ""
        return f"<QSeries {head}{tail} (prec {self.prec})>"

    def __str__(self):
        return series_str(self)

    def to_record(self, expr: str = "") -> dict:
        return {"expr": expr, "prec": self.prec, "field": str(self.ext or "Q"),
                "coeffs": self.strings(self.prec)}


def _zt_terms(cs: QSeries, series):
    """The integer scalars of sum c_i * f_i over Z[t], c_i the coefficients of cs.

    With c_i = (x_i + y_i t) / d, f_i = (X_i + Y_i t) / d_i, L the lcm of the
    d_i over the nonzero c_i and t^2 = P t + N, the sum times d L is
        sum (L / d_i) (x_i X_i + N y_i Y_i + (y_i X_i + (x_i + P y_i) Y_i) t).
    Returns (terms, d L, ext): one (i, kx, ky, tx, ty) per nonzero c_i, the
    scalars on X_i and Y_i in the rational part, then in the t-part, and the
    descriptor joined from cs and those f_i.
    """
    live = [(i, x, y) for i, (x, y) in enumerate(zip(cs.num, cs.unum or repeat(0))) if x or y]
    ext = reduce(join_ext, (series[i].ext for i, _, _ in live), cs.ext)
    P, N = ext_ints(ext)
    L = lcm(*(series[i].den for i, _, _ in live))
    terms = [(i, (k := L // series[i].den) * x, k * N * y, k * y, k * (x + P * y)) for i, x, y in live]
    return terms, cs.den * L, ext


def combine(cs: QSeries, series, prec=None) -> QSeries:
    """sum c_i * f_i for the coefficients c_i of cs, at precision prec or the smallest of the f_i."""
    prec = min(f.prec for f in series) if prec is None else prec
    terms, den, ext = _zt_terms(cs, series)
    if not terms:
        return zero(prec)
    low = min(series[i].prec for i, *_ in terms)
    if not 0 <= prec <= low:
        raise PrecisionError(f"cannot take precision {prec} from precision {low}")
    num, unum = [0] * (prec + 1), [0] * (prec + 1)
    for i, kx, ky, tx, ty in terms:
        f = series[i]
        for acc, c, vs in ((num, kx, f.num), (unum, tx, f.num), (num, ky, f.unum), (unum, ty, f.unum)):
            if c and vs:
                acc[:] = [s + c * v for s, v in zip(acc, vs)]
    return _make(prec, ext, num, unum, den)


def zero(prec: int, ext=None) -> QSeries:
    return QSeries([0], prec, ext)


def one(prec: int, ext=None) -> QSeries:
    return QSeries([1], prec, ext)


def _euler_factor(d: int, prec: int) -> QSeries:
    """prod_{m>=1} (1 - q**(d m)) via the pentagonal number expansion."""
    cs = [0] * (prec + 1)
    cs[0] = 1
    m = 1
    while True:
        e1 = d * m * (3 * m - 1) // 2
        e2 = d * m * (3 * m + 1) // 2
        if e1 > prec and e2 > prec:
            break
        s = -1 if m % 2 else 1
        if e1 <= prec:
            cs[e1] += s
        if e2 <= prec:
            cs[e2] += s
        m += 1
    return QSeries(cs, prec)


def eta_quotient(spec, prec: int) -> QSeries:
    """Expansion of prod_d eta(d z)**r_d as a q-series.

    spec is a sequence of (d, r) pairs.  The leading exponent sum(d*r)/24
    must be a nonnegative integer.
    """
    spec = list(spec)
    v24 = sum(d * r for d, r in spec)
    if v24 % 24:
        raise ValueError(f"fractional leading exponent {v24}/24")
    v = v24 // 24
    if v < 0:
        raise ValueError("negative leading exponent")
    acc = None
    for d, r in spec:
        if d < 1:
            raise ValueError("eta arguments must be positive")
        base = _euler_factor(d, prec)
        if r < 0:
            base = base.inverse()
            r = -r
        term = base.power(r)
        acc = term if acc is None else acc * term
    if acc is None:
        return one(prec)
    return _make(prec, None, ((0,) * v + acc.num)[: prec + 1], None, acc.den)


def rc_bracket1(f: QSeries, k_f: int, g: QSeries, k_g: int) -> QSeries:
    """First Rankin-Cohen bracket k_f * f * Dg - k_g * Df * g."""
    return k_f * (f * g.derive()) - k_g * (f.derive() * g)


def series_str(f: QSeries, upto=None) -> str:
    strs = f.strings(f.prec if upto is None else min(upto, f.prec))
    parts = [s if n == 0 else f"{s}*q" if n == 1 else f"{s}*q^{n}"
             for n, s in enumerate(strs) if n == 0 or s != "0"]
    return f"{' + '.join(parts) or '0'} (prec {f.prec}, field {f.ext or 'Q'})"
