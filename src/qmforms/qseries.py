"""Truncated formal power series in q with exact coefficients.

A QSeries holds coefficients for exponents 0..prec inclusive.  Coefficients
are ints, non-integral Fractions, or FieldElements over a single quadratic
descriptor (an integral Fraction is stored as an int); reads beyond the
stored precision raise, they never return zero silently.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import FieldElement, FieldMismatch, common_denominator, format_element

__all__ = [
    "PrecisionError",
    "QSeries",
    "zero",
    "one",
    "monomial",
    "eta_quotient",
    "rc_bracket1",
    "series_str",
]


class PrecisionError(ValueError):
    """A coefficient beyond the stored precision was requested."""


def _join_ext(e1, e2):
    if e1 is None:
        return e2
    if e2 is None or e1 == e2:
        return e1
    raise FieldMismatch(f"incompatible descriptors {e1} and {e2}")


def _coeff_ext(c):
    return c.ext if isinstance(c, FieldElement) else None


def _normal(c):
    """The stored form of a coefficient: an integral Fraction becomes an int."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _split(cs):
    """Rational parts a and t-parts b of coefficients a + b*t."""
    return ([c.a if isinstance(c, FieldElement) else c for c in cs],
            [c.b if isinstance(c, FieldElement) else 0 for c in cs])


def _rational_product(xs, ys):
    """First len(xs) coefficients of the product of two rational series.

    Kronecker substitution: both lists are scaled to ints by their common
    denominators and packed into one int each, one w-bit digit per
    coefficient, so a single big-int multiply does the whole convolution.
    Every product coefficient is a sum of at most n terms, so with
    2**(w-1) > max|x| * max|y| * n each one fits in a digit as a signed value;
    adding 2**(w-1) to every digit makes them all nonnegative for unpacking.
    """
    n = len(xs)
    dx, dy = common_denominator(xs), common_denominator(ys)
    xi = [x.numerator * (dx // x.denominator) for x in xs]
    yi = [y.numerator * (dy // y.denominator) for y in ys]
    bound = max(map(abs, xi)) * max(map(abs, yi)) * n
    if not bound:  # a zero operand; the digit width below also bounds each |x| and |y|
        return [0] * n
    nb = (bound.bit_length() + 8) // 8  # digit bytes: 2**(8*nb - 1) > bound
    half = 1 << (8 * nb - 1)
    bias = int.from_bytes(half.to_bytes(nb, "little") * n, "little")

    def pack(cs):
        return int.from_bytes(b"".join((c + half).to_bytes(nb, "little") for c in cs), "little") - bias

    low = (pack(xi) * pack(yi) + bias) & ((1 << (8 * nb * n)) - 1)
    digits = low.to_bytes(nb * n, "little")
    d = dx * dy
    out = []
    for i in range(0, nb * n, nb):
        z = int.from_bytes(digits[i : i + nb], "little") - half
        out.append(Fraction(z, d) if z % d else z // d)
    return out


class QSeries:
    __slots__ = ("prec", "coeffs", "ext")

    def __init__(self, coeffs, prec=None, ext=None):
        coeffs = [_normal(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs) - 1
        if prec < 0:
            raise ValueError("precision must be >= 0")
        if len(coeffs) > prec + 1:
            raise ValueError("more coefficients than the declared precision")
        coeffs.extend([0] * (prec + 1 - len(coeffs)))
        for e in {c.ext for c in coeffs if isinstance(c, FieldElement)}:
            ext = _join_ext(ext, e)
        self.prec = prec
        self.coeffs = tuple(coeffs)
        self.ext = ext

    # -- access -----------------------------------------------------------

    def coeff(self, n: int):
        if n < 0:
            return 0
        if n > self.prec:
            raise PrecisionError(f"coefficient {n} beyond precision {self.prec}")
        return self.coeffs[n]

    def coeff_list(self, upto=None):
        upto = self.prec if upto is None else upto
        return [self.coeff(n) for n in range(upto + 1)]

    def valuation(self):
        """Exponent of the first nonzero coefficient, or None for zero."""
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise PrecisionError(f"cannot extend precision {self.prec} to {prec}")
        return QSeries(self.coeffs[: prec + 1], prec, self.ext)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QSeries):
            p = min(self.prec, other.prec)
            ext = _join_ext(self.ext, other.ext)
            return QSeries([a + b for a, b in zip(self.coeffs[: p + 1], other.coeffs[: p + 1])], p, ext)
        if isinstance(other, (int, Fraction, FieldElement)):
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return QSeries(cs, self.prec, _join_ext(self.ext, _coeff_ext(other)))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.prec, self.ext)

    def __sub__(self, other):
        if isinstance(other, (QSeries, int, Fraction, FieldElement)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            if other == 0:
                return QSeries([0], self.prec, self.ext)
            other = _normal(other)
            ext = _join_ext(self.ext, _coeff_ext(other))
            return QSeries([c * other if c else 0 for c in self.coeffs], self.prec, ext)
        if not isinstance(other, QSeries):
            return NotImplemented
        p = min(self.prec, other.prec)
        ext = _join_ext(self.ext, other.ext)
        fc, gc = self.coeffs[: p + 1], other.coeffs[: p + 1]
        if ext is None:
            return QSeries(_rational_product(fc, gc), p)
        # (a1 + b1 t)(a2 + b2 t) with t^2 = p t + q, from three rational products
        a1, b1 = _split(fc)
        a2, b2 = _split(gc)
        aa = _rational_product(a1, a2)
        bb = _rational_product(b1, b2)
        ss = _rational_product([x + y for x, y in zip(a1, b1)], [x + y for x, y in zip(a2, b2)])
        out = []
        for x, y, z in zip(aa, bb, ss):
            a, b = x + ext.q * y, z - x - y + ext.p * y
            out.append(FieldElement(a, b, ext) if b else a)
        return QSeries(out, p, ext)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.prec == other.prec and all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.prec, self.coeffs))

    # -- operators of the calculus -------------------------------------------

    def rescale(self, d: int) -> "QSeries":
        """Substitute q -> q**d; precision grows to prec*d."""
        if d < 1:
            raise ValueError("rescale factor must be a positive integer")
        p = self.prec * d
        out = [0] * (p + 1)
        for n, c in enumerate(self.coeffs):
            out[n * d] = c
        return QSeries(out, p, self.ext)

    def derive(self, i: int = 1) -> "QSeries":
        """Apply (q d/dq)**i: coefficient n picks up a factor n**i."""
        if i < 0:
            raise ValueError("derivative order must be nonnegative")
        if i == 0:
            return self
        return QSeries([c * n**i if c else 0 for n, c in enumerate(self.coeffs)], self.prec, self.ext)

    def power(self, m: int) -> "QSeries":
        """m-th power by repeated squaring; f**0 is the constant 1."""
        if m < 0:
            raise ValueError("negative powers are not defined here")
        acc = one(self.prec, self.ext)
        base = self
        while m:
            if m & 1:
                acc = acc * base
            m >>= 1
            if m:
                base = base * base
        return acc

    def inverse(self) -> "QSeries":
        """Multiplicative inverse of a series with constant term 1."""
        if self.coeff(0) != 1:
            raise ValueError("inverse requires constant term exactly 1")
        p = self.prec
        inv = [0] * (p + 1)
        inv[0] = 1
        for n in range(1, p + 1):
            s = 0
            for k in range(1, min(n, len(self.coeffs) - 1) + 1):
                ak = self.coeffs[k]
                if ak:
                    s += ak * inv[n - k]
            inv[n] = -s
        return QSeries(inv, p, self.ext)

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
        pf = self.prec - v
        f = self.coeffs[v : v + pf + 1]
        c = [0] * (pf + 1)
        c[0] = 1
        for m in range(1, pf + 1):
            s = m * f[m]
            for j in range(1, m):
                fj, cj = f[j], c[j]
                if fj:
                    s += j * fj * c[m - j]
                if cj:
                    s -= n * j * cj * f[m - j]
            c[m] = _normal(s * Fraction(1, n * m))
        out = [0] * (v // n) + c
        return QSeries(out, v // n + pf, self.ext)

    def hecke(self, p: int, weight: int, level: int) -> "QSeries":
        """Hecke operator T_p for the given weight and level."""
        newp = self.prec // p
        pk = p ** (weight - 1)
        out = []
        for m in range(newp + 1):
            c = self.coeffs[p * m]
            if level % p and m % p == 0:
                c = c + pk * self.coeffs[m // p]
            out.append(c)
        return QSeries(out, newp, self.ext)

    def __repr__(self):
        head = series_str(self, upto=min(self.prec, 6))
        tail = " + ..." if self.prec > 6 else ""
        return f"<QSeries {head}{tail} (prec {self.prec})>"

    def __str__(self):
        return series_str(self)

    def to_record(self, expr: str = "") -> dict:
        field = str(self.ext) if self.ext is not None else "Q"
        return {
            "expr": expr,
            "prec": self.prec,
            "field": field,
            "coeffs": [format_element(c) for c in self.coeffs],
        }


def zero(prec: int, ext=None) -> QSeries:
    return QSeries([0], prec, ext)


def one(prec: int, ext=None) -> QSeries:
    return QSeries([1], prec, ext)


def monomial(c, e: int, prec: int) -> QSeries:
    if e > prec:
        raise PrecisionError(f"exponent {e} beyond precision {prec}")
    cs = [0] * (prec + 1)
    cs[e] = c
    return QSeries(cs, prec)


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
    acc = one(prec)
    for d, r in spec:
        if d < 1:
            raise ValueError("eta arguments must be positive")
        base = _euler_factor(d, prec)
        if r < 0:
            base = base.inverse()
            r = -r
        acc = acc * base.power(r)
    out = [0] * (prec + 1)
    for n in range(v, prec + 1):
        out[n] = acc.coeffs[n - v]
    return QSeries(out, prec)


def rc_bracket1(f: QSeries, k_f: int, g: QSeries, k_g: int) -> QSeries:
    """First Rankin-Cohen bracket k_f * f * Dg - k_g * Df * g."""
    return k_f * (f * g.derive()) - k_g * (f.derive() * g)


def series_str(f: QSeries, upto=None) -> str:
    upto = f.prec if upto is None else upto
    parts = []
    for n in range(min(upto, f.prec) + 1):
        c = f.coeffs[n]
        if not c and n > 0:
            continue
        cs = format_element(c)
        if n == 0:
            parts.append(cs)
        elif n == 1:
            parts.append(f"{cs}*q")
        else:
            parts.append(f"{cs}*q^{n}")
    field = str(f.ext) if f.ext is not None else "Q"
    body = " + ".join(parts) if parts else "0"
    return f"{body} (prec {f.prec}, field {field})"
