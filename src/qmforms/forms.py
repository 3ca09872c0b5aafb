"""Named generators and exact echelon bases for spaces of modular forms.

Every generator is a text in the form language: Eisenstein series, the
weight-2 combinations phi(a,b), character Eisenstein series, eta quotients
and the handful of derived constructions (rescalings, products, n-th roots,
one Rankin-Cohen bracket, Hecke images) the identity engine needs.  The
language's functions are one table, `_FUNCTIONS`; `call` builds an
expression of any of them.  The catalog names some forms, each by the text
it prints as and is built from, unless `_BUILT_AS` names a cheaper exact
equal to build; generator pools are lists of texts, and every series is built
by `evaluate`.  Every solving space, modular or quasimodular, is one class,
`QMBasis`.  Catalog forms, the other pool texts, generator pools and space
bases are each built once per precision and stored (`lru_cache`, keyed by
value), and so is each basis's echelon (`_echelon`, keyed by the basis).
Space dimensions are pinned in a table and every generator pool is
rank-checked against it when echelonized.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Callable, NamedTuple

from . import linalg, oracle
from .characters import (
    DirichletCharacter,
    bernoulli,
    gen_bernoulli,
    principal_character,
    quadratic_character,
    sigma_twisted,  # unused here; perfbench/spans.py patches this binding
    sigma_twisted_table,
    trivial_character,
    twist,
    twisted_level,
)
from .exactnum import factorize, format_element
from .qseries import QSeries, _make, eta_quotient, one, rc_bracket1

__all__ = [
    "DEFAULT_PREC",
    "FormExpr",
    "QMBasis",
    "DIMENSIONS",
    "dimension",
    "eisenstein",
    "phi",
    "char_eisenstein",
    "named_form",
    "catalog_labels",
    "space_basis",
    "generator_pool",
    "evaluate",
    "parse_expr",
    "call",
]

DEFAULT_PREC = 256


# ---------------------------------------------------------------------------
# form expressions


@dataclass(frozen=True)
class FormExpr:
    """Symbolic description of a form with weight/depth/level metadata.

    `kind` is a function of the language (a key of `_FUNCTIONS`) or one of
    the operators sum, product, power, scale, const and named; `params` are
    its arguments in text order.
    """

    kind: str
    params: tuple
    weight: int
    depth: int
    level: int

    def __str__(self) -> str:
        k, p = self.kind, self.params
        if k == "eta":
            p = ("*".join(f"{d}^{r}" if r != 1 else f"{d}" for d, r in p[0]),)
        elif k == "D":  # D^i(f); D(f) for i = 1
            k, p = ("D" if p[0] == 1 else f"D^{p[0]}"), p[1:]
        elif k == "E" and p[1] == 1:  # E(k) is E(k,1)
            p = p[:1]
        elif k not in _FUNCTIONS:
            return _operator_str(k, p)
        return f"{k}({','.join(map(str, p))})"


def _operator_str(k: str, p: tuple) -> str:
    # an operand of the kinds named below prints in parentheses, so that the
    # text parses back to the same tree: (a*b)^2 is not a*b^2
    if k == "sum":
        return " + ".join(map(_paren, p))
    if k == "product":
        return "*".join(_paren(c, "product", "scale") for c in p)
    if k == "power":
        return f"{_paren(p[0], 'product', 'power', 'scale')}^{p[1]}"
    if k == "scale":
        return f"({format_element(p[0])})*{_paren(p[1], 'scale')}"
    if k == "named":
        return p[0]
    return format_element(p[0])  # const


def _paren(e: FormExpr, *kinds: str) -> str:
    s = str(e)
    return f"({s})" if (e.kind in kinds or " " in s or "+" in s[1:] or "-" in s[1:]) else s


def _mk(kind, params=(), weight=0, depth=0, level=1) -> FormExpr:
    if depth < 0 or level < 1:
        raise ValueError("bad form metadata")
    if weight < 0 or weight % 2:
        raise ValueError(f"weight must be even and nonnegative, got {weight}")
    if 2 * depth > weight:
        raise ValueError(f"depth {depth} exceeds weight/2 for weight {weight}")
    return FormExpr(kind, tuple(params), weight, depth, level)


def _sum(terms) -> FormExpr:
    return _mk("sum", terms, max(e.weight for e in terms), max(e.depth for e in terms),
               lcm(*(e.level for e in terms)))


def _scale(c, e: FormExpr) -> FormExpr:
    return _mk("scale", (c, e), e.weight, e.depth, e.level)


# ---------------------------------------------------------------------------
# the functions of the language


class _Function(NamedTuple):
    # argument types in text order: "int", "pos" (an int >= 1), "form", "char", "eta"
    args: tuple
    meta: Callable     # arguments -> (weight, depth, level); rejects bad arguments
    series: Callable   # arguments, precision -> QSeries


def _eta_level(spec) -> int:
    """Smallest multiple L of lcm(d) with sum (L/d) r_d divisible by 24."""
    base = lcm(*(d for d, _ in spec))
    return base * 24 // gcd(24, sum((base // d) * r for d, r in spec))


def _eta_meta(spec):
    if any(d < 1 for d, _ in spec):
        raise ValueError(f"eta(d^r*...) needs every d >= 1, got {spec}")
    wt2 = sum(r for _, r in spec)
    if wt2 % 2:
        raise ValueError("eta quotient of half-integral weight")
    return wt2 // 2, 0, _eta_level(spec)


def _root_meta(f, n):
    if f.weight % n:
        raise ValueError("weight not divisible by root order")
    if f.depth:
        raise ValueError("roots only of depth-0 forms")
    return f.weight // n, 0, f.level


def _rc1_meta(f, g):
    if f.depth or g.depth:
        raise ValueError("bracket arguments must be modular (depth 0)")
    return f.weight + g.weight + 2, 0, lcm(f.level, g.level)


def _hecke_meta(p, f):
    if factorize(p) != [(p, 1)]:
        raise ValueError(f"T(p,f) needs a prime p, got {p}")
    return f.weight, f.depth, f.level


# name -> (argument types, metadata rule, series rule).  The series rules
# look eisenstein, eta_quotient, twist and evaluate up when they run, so a
# rebinding of these module attributes (a test's patch, a profiler's
# wrapper) is seen; a stored function object would bypass it.
_FUNCTIONS = {
    "eta": _Function(("eta",), _eta_meta, lambda spec, prec: eta_quotient(spec, prec)),
    "E": _Function(("int", "pos"), lambda k, n: (k, 1 if k == 2 else 0, n),
                   lambda k, n, prec: eisenstein(k, n, prec)),
    "phi": _Function(("pos", "pos"), lambda a, b: (2, 0, b), lambda a, b, prec: phi(a, b, prec)),
    "chareis": _Function(("int", "char", "char", "pos"),
                         lambda k, psi, chi, t: (k, 0, t * psi.modulus * chi.modulus),
                         lambda k, psi, chi, t, prec: char_eisenstein(k, psi, chi, t, prec)),
    "D": _Function(("int", "form"), lambda i, f: (f.weight + 2 * i, f.depth + i, f.level),
                   lambda i, f, prec: evaluate(f, prec).derive(i)),
    "rescale": _Function(("form", "pos"), lambda f, d: (f.weight, f.depth, f.level * d),
                         lambda f, d, prec: evaluate(f, prec).rescale(d, prec)),
    # typed by assertion only: root(f, n) is given weight k/n and f's level,
    # which no check proves; no catalog form is built by a root
    "root": _Function(("form", "pos"), _root_meta, lambda f, n, prec: evaluate(f, prec).root(n)),
    "rc1": _Function(("form", "form"), _rc1_meta,
                     lambda f, g, prec: rc_bracket1(evaluate(f, prec), f.weight,
                                                    evaluate(g, prec), g.weight)),
    "twist": _Function(("form", "char"),
                       lambda f, chi: (f.weight, f.depth, twisted_level(f.level, chi)),
                       lambda f, chi, prec: twist(evaluate(f, prec), chi)),
    # T_p f needs f to precision p*prec
    "T": _Function(("int", "form"), _hecke_meta,
                   lambda p, f, prec: evaluate(f, p * prec).hecke(p, f.weight, f.level)),
}


def call(name: str, *args) -> FormExpr:
    """The expression name(args) of a function of the language, arguments in text order.

    `call("E", 4, 2)` is E(4,2), `call("D", 2, f)` is D^2(f) and
    `call("eta", ((1, 4), (5, 4)))` is eta(1^4*5^4).
    """
    fn = _FUNCTIONS.get(name)
    if fn is None:
        raise ValueError(f"unknown function {name!r}")
    if len(args) != len(fn.args):
        raise ValueError(f"{name} takes {len(fn.args)} arguments, got {len(args)}")
    for j, (kind, a) in enumerate(zip(fn.args, args), 1):
        if kind == "pos" and a < 1:
            raise ValueError(f"argument {j} of {name} must be >= 1, got {a}")
    return _mk(name, args, *fn.meta(*args))


# ---------------------------------------------------------------------------
# basic series


def _eisenstein_parts(scale: Fraction, terms, prec: int, const: int = 1) -> QSeries:
    """const + scale * sum over (c, n, vals) of c * sum_{m>=1} vals[m] q^(n m).

    Built in integer parts: with scale = a/b, num[0] = const*b and num[n*m] += a*c*vals[m] over b.
    """
    if prec < 0:
        raise ValueError("precision must be >= 0")
    a, b = scale.numerator, scale.denominator
    num = [const * b] + [0] * prec
    for c, n, vals in terms:
        num[n::n] = map(add, num[n::n], [a * c * v for v in vals[1 : prec // n + 1]])
    return _make(prec, None, num, None, b)


def eisenstein(k: int, n: int = 1, prec: int = DEFAULT_PREC) -> QSeries:
    """E_k(n z) = 1 - (2k/B_k) sum sigma_{k-1}(m) q^{nm}."""
    if k < 2 or k % 2:
        raise ValueError(f"Eisenstein weight must be even and >= 2, got {k}")
    scale = -Fraction(2 * k) / bernoulli(k)
    return _eisenstein_parts(scale, [(1, n, oracle.sigma_table(k - 1, prec))], prec)


def phi(a: int, b: int, prec: int = DEFAULT_PREC) -> QSeries:
    """The weight-2 form (b E_2(bz) - a E_2(az)) / (b - a) for a | b, a < b."""
    if not (1 <= a < b and b % a == 0):
        raise ValueError(f"phi requires 1 <= a < b with a | b, got ({a},{b})")
    sig = oracle.sigma_table(1, prec)
    return _eisenstein_parts(Fraction(24, b - a), [(a, a, sig), (-b, b, sig)], prec)


def char_eisenstein(k: int, psi: DirichletCharacter, chi: DirichletCharacter, t: int = 1,
                    prec: int = DEFAULT_PREC) -> QSeries:
    """Character Eisenstein series, rescaled by z -> t z.

    The excluded (k, psi, chi) = (2, trivial, trivial) case with t > 1 returns
    E_2(z) - t E_2(tz); with t = 1 it is rejected.
    """
    if k < 2 or k % 2:
        raise ValueError("weight must be even and >= 2")
    if psi.parity * chi.parity != (1 if k % 2 == 0 else -1):
        raise ValueError("character parities incompatible with the weight")
    if k == 2 and psi.is_trivial() and chi.is_trivial():
        if t == 1:
            raise ValueError("the weight-2 trivial pair requires t > 1")
        e2 = eisenstein(2, 1, prec)
        return e2 - t * eisenstein(2, t, prec)
    bk = gen_bernoulli(chi, k)
    if bk == 0:
        raise ValueError("vanishing generalized Bernoulli number")
    vals = sigma_twisted_table(psi, chi, k - 1, prec // t)
    return _eisenstein_parts(-Fraction(2 * k) / bk, [(1, t, vals)], prec, int(psi.is_trivial()))


# ---------------------------------------------------------------------------
# the textual expression language

# CPython's default int-string limit: `expand` could not print a larger constant, nor int() read one
_MAX_DIGITS = 4300
_UNPRINTABLE = 10**_MAX_DIGITS
_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9.]*|\^|\*|\+|\-|/|\(|\)|,)")


def _tokenize(text: str):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    out.append(None)
    return out


def _char_by_name(name: str) -> DirichletCharacter:
    if name == "one":
        return trivial_character()
    m = re.fullmatch(r"chi0_(\d+)", name)
    if m:
        return principal_character(int(m.group(1)))
    m = re.fullmatch(r"chi(\d+)", name)
    if m:
        return quadratic_character(int(m.group(1)))
    raise ValueError(f"unknown character {name!r}")


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self) -> str:
        t = self.toks[self.i]
        if t is None:
            raise ValueError("unexpected end of input")
        self.i += 1
        return t

    def accept(self, t) -> bool:
        if self.peek() != t:
            return False
        self.i += 1
        return True

    def expect(self, t):
        got = self.next()
        if got != t:
            raise ValueError(f"expected {t!r}, got {got!r}")

    def integer(self, t=None) -> int:
        t = self.next() if t is None else t
        if not t.isdigit():
            raise ValueError(f"expected an integer, got {t!r}")
        if len(t) > _MAX_DIGITS:
            raise ValueError(f"integer literal of {len(t)} digits is past the {_MAX_DIGITS}-digit limit")
        return int(t)

    def parse(self) -> FormExpr:
        e = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")
        return e

    def expr(self) -> FormExpr:
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            op = self.next()
            t = self.term()
            if op == "-":
                t = self._negate(t)
            terms.append(t)
        return terms[0] if len(terms) == 1 else _sum(terms)

    @staticmethod
    def _negate(e: FormExpr) -> FormExpr:
        if e.kind == "const":
            return _mk("const", (-e.params[0],))
        if e.kind == "scale":
            return _scale(-e.params[0], e.params[1])
        return _scale(-1, e)

    def term(self) -> FormExpr:
        start, coeff = self.i, Fraction(1)
        factors = []
        while True:
            sign = 1
            while self.accept("-"):
                sign = -sign
            f = self.factor()
            if f.kind == "const":
                # each factor is below 10**4300 (`factor`), so the product takes microseconds
                coeff *= sign * f.params[0]
                if max(abs(coeff.numerator), coeff.denominator) >= _UNPRINTABLE:
                    raise ValueError(
                        f"constant product {''.join(self.toks[start : self.i])} has more than 4300 digits")
            else:
                coeff *= sign
                factors.append(f)
            if not self.accept("*"):
                break
        if not factors:
            return _mk("const", (coeff,))
        if len(factors) > 1:
            weight, depth = sum(e.weight for e in factors), sum(e.depth for e in factors)
            factors = [_mk("product", factors, weight, depth, lcm(*(e.level for e in factors)))]
        return factors[0] if coeff == 1 else _scale(coeff, factors[0])

    def factor(self) -> FormExpr:
        start = self.i
        base = self.primary()
        if not self.accept("^"):
            return base
        m = self.integer()
        if base.kind != "const":
            return _mk("power", (base, m), base.weight * m, base.depth * m, base.level)
        c = base.params[0]
        big = max(abs(c.numerator), c.denominator)
        # big**m has at least m*(bit_length - 1) bits, so a power far too large is refused unpowered
        if m * (big.bit_length() - 1) < _UNPRINTABLE.bit_length() and big**m < _UNPRINTABLE:
            return _mk("const", (c**m,))
        raise ValueError(f"constant power {''.join(self.toks[start : self.i])} has more than 4300 digits")

    def primary(self) -> FormExpr:
        t = self.next()
        if t == "(":
            e = self.expr()
            self.expect(")")
            return e
        if t.isdigit():
            num, den = self.integer(t), self.integer() if self.accept("/") else 1
            if den == 0:
                raise ValueError(f"zero denominator in {t}/0")
            return _mk("const", (Fraction(num, den),))
        return self.call_or_name(t)

    def call_or_name(self, name: str) -> FormExpr:
        args = []
        if name == "D":  # D^i(f); D(f) is D^1(f)
            args.append(self.integer() if self.accept("^") else 1)
        elif self.peek() != "(":
            if name in _DISPLAY:
                return _DISPLAY[name]
            raise ValueError(f"unknown name {name!r}")
        fn = _FUNCTIONS.get(name)
        if fn is None:
            raise ValueError(f"unknown function {name!r}")
        self.expect("(")
        for j, kind in enumerate(fn.args[len(args):]):
            if j:
                if name == "E" and self.peek() == ")":  # E(k) is E(k,1)
                    args.append(1)
                    break
                self.expect(",")
            args.append(self.argument(kind))
        self.expect(")")
        return call(name, *args)

    def argument(self, kind: str):
        if kind == "form":
            return self.expr()
        if kind == "char":
            return _char_by_name(self.next())
        if kind == "eta":
            return self.eta_spec()
        return self.integer()

    def eta_spec(self):
        spec = []
        while True:
            d = self.integer()
            r = 1
            if self.accept("^"):
                r = -self.integer() if self.accept("-") else self.integer()
            spec.append((d, r))
            if not self.accept("*"):
                return tuple(spec)


def parse_expr(text: str) -> FormExpr:
    """Parse the textual form language, e.g. "E(2)*E(2,3)" or "D^2(E(2))"."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# catalog of named constructions

# label -> text in the form language, in dependency order
_CATALOG = {
    "delta": "eta(1^24)",
    "delta_4_5": "eta(1^4*5^4)",
    "delta_4_6": "eta(1^2*2^2*3^2*6^2)",
    "delta_4_7": "root(eta(1^16*7^8) + 13*eta(1^12*7^12) + 49*eta(1^8*7^16),3)",
    "delta_4_8": "eta(2^4*4^4)",
    "delta_4_9": "eta(3^8)",
    "delta_8_2": "eta(1^8*2^8)",
    "delta_2_11": "eta(1^2*11^2)",
    "delta_2_14": "eta(1*2*7*14)",
    "e1_2_13": "chareis(2,one,chi13,1)",
    "e2_2_13": "chareis(2,chi13,one,1)",
    # cuspidal projection of phi(1,5) * 9 phi(1,10): T_3 - (1 + 3^3) kills
    # the Eisenstein part of M_4(Gamma0(10)) and is invertible on cusp forms
    "c10": "T(3,9*phi(1,5)*phi(1,10)) - 252*phi(1,5)*phi(1,10)",
    "delta_6_5": "delta_4_5*phi(1,5)",
    "f_4_5_2": "rescale(delta_4_5,2)",
    "f_4_7_2": "rescale(delta_4_7,2)",
    "f_6_5_2": "rescale(delta_6_5,2)",
    "f1_4_11": "eta(1^4*11^4)",
    "f2_4_11": "T(2,f1_4_11)",
    "f_6_10": "3*delta_4_5*phi(1,10)",
    "f1_6_10": "delta_4_5*phi(1,2)",
    "f2_6_10": "T(2,f_6_10)",
    "g1_8_5": "eta(1^8*5^8)",
    "g2_8_5": "delta_4_5*phi(1,5)^2",
    "g3_8_5": "-1/24*rc1(E(4),phi(1,5))",
}

# label -> an exact equal of its text, which named_form evaluates instead; the
# label still prints as its text.  delta_4_7's text is a cube root, O(P^2) in
# the root recurrence; the combination is its equal in M_4(Gamma0(7)), as the
# tests prove: the combination's cube and the eta sum both lie in
# M_12(Gamma0(7)) and agree past its Sturm bound of 8 coefficients, and
# q^3 (1 + O(q)) has one cube root q (1 + O(q))
_BUILT_AS = {"delta_4_7": "5/16*phi(1,7)^2 - 1/160*E(4) - 49/160*E(4,7)"}

# root(., 3) of a q^3 (1 + ...) series keeps exponents up to P - 2 of P;
# evaluate keeps that loss for the text delta_4_7 prints as
_PREC_LOSS = {"delta_4_7": 2}

_EXPRS: dict = {}    # label -> what named_form evaluates: its parsed text or _BUILT_AS equal
_DISPLAY: dict = {}  # label -> what it prints as: its name if the text applies T
_BY_EXPR: dict = {}  # its parsed text or display -> label; evaluate serves these from named_form


def _applies_hecke(e: FormExpr) -> bool:
    return e.kind == "T" or any(isinstance(a, FormExpr) and _applies_hecke(a) for a in e.params)


def _parse_catalog():
    for label, text in _CATALOG.items():
        e = parse_expr(text)
        _DISPLAY[label] = _mk("named", (label,), e.weight, e.depth, e.level) if _applies_hecke(e) else e
        _BY_EXPR[e] = _BY_EXPR[_DISPLAY[label]] = label
        _EXPRS[label] = parse_expr(_BUILT_AS[label]) if label in _BUILT_AS else e


_parse_catalog()


def catalog_labels() -> list[str]:
    return sorted(_CATALOG)


@lru_cache(maxsize=None)
def named_form(label: str, prec: int = DEFAULT_PREC):
    """Catalog lookup; returns (FormExpr, QSeries) at the given precision."""
    try:
        expr = _EXPRS[label]
    except KeyError:
        raise KeyError(f"unknown form label {label!r}") from None
    return _DISPLAY[label], _evaluate(expr, prec)


# ---------------------------------------------------------------------------
# evaluation of expressions


def evaluate(expr: FormExpr, prec: int = DEFAULT_PREC) -> QSeries:
    """The series of an expression; catalog sub-expressions come from named_form."""
    label = _BY_EXPR.get(expr)
    if label is None:
        return _evaluate(expr, prec)
    series = named_form(label, prec)[1]
    loss = _PREC_LOSS.get(label, 0)
    return series.truncate(prec - loss) if loss else series


def _evaluate(expr: FormExpr, prec: int) -> QSeries:
    k, p = expr.kind, expr.params
    fn = _FUNCTIONS.get(k)
    if fn is not None:
        return fn.series(*p, prec)
    if k in ("sum", "product"):
        acc = evaluate(p[0], prec)
        for c in p[1:]:
            acc = acc + evaluate(c, prec) if k == "sum" else acc * evaluate(c, prec)
        return acc
    if k == "power":
        return evaluate(p[0], prec).power(p[1])
    if k == "scale":
        return p[0] * evaluate(p[1], prec)
    if k == "const":
        return p[0] * one(prec)
    raise ValueError(f"cannot evaluate expression kind {k!r}")


# ---------------------------------------------------------------------------
# dimensions and generator pools

# (weight, level) -> (dim M_k, dim of the cuspidal subspace); rank-checked on
# every pool construction.
DIMENSIONS = {
    (2, 1): (0, 0), (4, 1): (1, 0), (6, 1): (1, 0), (8, 1): (1, 0),
    (10, 1): (1, 0), (12, 1): (2, 1), (14, 1): (1, 0),
    (2, 2): (1, 0), (4, 2): (2, 0), (6, 2): (2, 0), (8, 2): (3, 1),
    (2, 3): (1, 0), (4, 3): (2, 0),
    (2, 4): (2, 0), (4, 4): (3, 0),
    (2, 5): (1, 0), (4, 5): (3, 1), (6, 5): (3, 1), (8, 5): (5, 3),
    (2, 6): (3, 0), (4, 6): (5, 1),
    (2, 7): (1, 0), (4, 7): (3, 1),
    (2, 8): (3, 0), (4, 8): (5, 1),
    (2, 9): (3, 0), (4, 9): (5, 1),
    (2, 10): (3, 0), (4, 10): (7, 3), (6, 10): (9, 5),
    (2, 11): (2, 1), (4, 11): (4, 2),
    (2, 13): (1, 0), (4, 13): (5, 3),
    (2, 14): (4, 1), (4, 14): (8, 4),
}


def dimension(weight: int, level: int, cuspidal: bool = False) -> int:
    try:
        full, cusp = DIMENSIONS[(weight, level)]
    except KeyError:
        raise KeyError(f"no dimension entry for weight {weight}, level {level}") from None
    return cusp if cuspidal else full


# Generator pools are lists of texts.  The pool of a full space is its
# Eisenstein prefix followed by a tail, by default the cusp pool.  _build
# makes a catalog label with named_form and nf_k_N_i from the registry's i-th
# newform of S_k(N); any other text is parsed and evaluated once per precision
# by _text_form, so every level's pool shares E(4,2), phi(1,2) and the rest.

# the weight-2 Eisenstein prefixes; other weights use E(k,d) for d | N
_WEIGHT2_PREFIX = {
    1: [],
    2: ["phi(1,2)"],
    3: ["phi(1,3)"],
    4: ["phi(1,2)", "phi(1,4)"],
    5: ["phi(1,5)"],
    6: ["phi(1,2)", "phi(1,3)", "phi(3,6)"],
    7: ["phi(1,7)"],
    8: ["phi(1,4)", "phi(1,8)", "rescale(phi(1,4),2)"],
    9: ["phi(1,3)", "twist(phi(1,3),chi3)", "phi(1,9)"],
    10: ["phi(1,10)", "phi(1,5)", "rescale(phi(1,5),2)"],
    11: ["phi(1,11)"],
    13: ["phi(1,13)"],
    14: ["phi(1,7)", "phi(1,14)", "phi(2,14)"],
}

_PRODUCTS_13 = ["phi(1,13)^2", "e1_2_13*e2_2_13", "e1_2_13^2", "e2_2_13^2"]

_CUSP_POOLS = {
    (12, 1): ["delta"],
    (8, 2): ["delta_8_2"],
    (4, 5): ["delta_4_5"],
    (4, 6): ["delta_4_6"],
    (4, 7): ["delta_4_7"],
    (4, 8): ["delta_4_8"],
    (4, 9): ["delta_4_9"],
    (4, 10): ["delta_4_5", "f_4_5_2", "c10"],
    (4, 11): ["f2_4_11", "f1_4_11"],
    # image of T_2 - (1 + 2^3), which kills the Eisenstein part and is
    # invertible on the cuspidal part
    (4, 13): [f"T(2,{x}) - 9*{x}" for x in _PRODUCTS_13],
    (4, 14): ["delta_4_7", "f_4_7_2", "delta_2_14^2", "delta_2_14*phi(1,14)"],
    (2, 11): ["delta_2_11"],
    (2, 14): ["delta_2_14"],
    (6, 5): ["delta_6_5"],
    (6, 10): ["delta_6_5", "f_6_5_2", "f_6_10", "f1_6_10", "f2_6_10"],
    (8, 5): ["g1_8_5", "g2_8_5", "g3_8_5"],
}

# tails of the spanning pools echelonized by space_basis, free of newforms
_SPANNING_TAILS = {(4, 13): _PRODUCTS_13}

# tails of the presentation pools generator_pool reports decompositions in
_PRESENTATION_TAILS = {
    (4, 10): ["nf_4_10_1", "delta_4_5", "f_4_5_2"],
    (4, 11): ["nf_4_11_1", "nf_4_11_2"],
    (4, 13): ["nf_4_13_1", "nf_4_13_2", "nf_4_13_3"],
    (4, 14): ["delta_4_7", "f_4_7_2", "nf_4_14_1", "nf_4_14_2"],
}


def _cusp_texts(weight: int, level: int) -> list[str]:
    texts = _CUSP_POOLS.get((weight, level))
    if texts is None:
        if dimension(weight, level, cuspidal=True) == 0:
            return []
        raise KeyError(f"no cusp pool for weight {weight}, level {level}")
    return texts


def _pool_texts(weight: int, level: int, cuspidal: bool, tails: dict) -> list[str]:
    if cuspidal:
        return _cusp_texts(weight, level)
    if weight == 2:
        prefix = _WEIGHT2_PREFIX[level]
    else:
        prefix = [f"E({weight},{d})" for d in oracle.divisors(level)]
        if (weight, level) == (4, 9):
            prefix.insert(1, "twist(E(4),chi3)")
    tail = tails.get((weight, level))
    return prefix + (tail if tail is not None else _cusp_texts(weight, level))


def _build(texts, prec: int):
    """(expression, series) of each generator text, at the given precision.

    A newform nf_k_N_i comes from heckeeigen.registry(prec).
    """
    out = []
    for text in texts:
        if text in _CATALOG:
            out.append(named_form(text, prec))
        elif text.startswith("nf_"):
            from .heckeeigen import registry

            k, n, i = (int(x) for x in text.split("_")[1:])
            nf = registry(prec).newform(f"{k}.{n}.{i}")
            out.append((_mk("named", (text,), k, 0, n), nf.series))
        else:
            out.append(_text_form(text, prec))
    return out


@lru_cache(maxsize=None)
def _text_form(text: str, prec: int):
    """A pool text that is not a catalog label, parsed and evaluated once per precision."""
    expr = parse_expr(text)
    return expr, evaluate(expr, prec)


@dataclass(frozen=True)
class QMBasis:
    """Ordered (FormExpr, QSeries) pairs spanning a space of quasimodular forms.

    A space of modular forms is the depth-0 case (Kaneko-Zagier): space_basis
    gives its echelon basis, every weight the same.  Frozen, so it hashes and
    compares by content, each pair by identity first: a basis rebuilt from the
    same stored series is the same key, and finds its echelon in the store.
    """

    elements: tuple
    weights: tuple
    level: int

    def __len__(self):
        return len(self.elements)

    @property
    def prec(self) -> int:
        return self.elements[0][1].prec if self.elements else 0

    @property
    def echelon(self) -> linalg.Echelon:
        return _echelon(self)

    @property
    def pivots(self) -> tuple:
        return self.echelon.pivots

    def series(self) -> list[QSeries]:
        return [s for _, s in self.elements]


@lru_cache(maxsize=None)
def _echelon(basis: QMBasis) -> linalg.Echelon:
    """The echelon of the basis series, on every column, built once per basis.

    The key is the basis by value: a QMBasis rebuilt from the same stored
    series finds it, and one whose series differ anywhere does not.
    """
    return linalg.rref(basis.series())


def _combo_expr(combo, exprs) -> FormExpr:
    terms = []
    for c, e in zip(combo, exprs):
        if c == 0:
            continue
        terms.append(e if c == 1 else _scale(c, e))
    if not terms:
        raise ValueError("zero combination")
    return terms[0] if len(terms) == 1 else _sum(terms)


@lru_cache(maxsize=None)
def space_basis(weight: int, level: int, cuspidal: bool = False,
                prec: int = DEFAULT_PREC) -> QMBasis:
    """Echelon basis of M_k(Gamma0(N)) or S_k, each expression its combination of the pool."""
    dim = dimension(weight, level, cuspidal)
    pool = _build(_pool_texts(weight, level, cuspidal, _SPANNING_TAILS), prec)
    what = f"{'S' if cuspidal else 'M'}_{weight}(Gamma0({level}))"
    ech = _echelon(QMBasis(tuple(pool), (weight,) * len(pool), level))
    if ech.rank < dim:
        raise ValueError(f"insufficient generator pool for {what}: rank {ech.rank} < {dim}")
    if ech.rank > dim:
        raise ValueError(f"dimension table violated for {what}: rank {ech.rank} > {dim}")
    exprs = [e for e, _ in pool]
    elements = tuple((_combo_expr(c, exprs), row) for c, row in zip(ech.transform, ech.row_series))
    return QMBasis(elements, (weight,) * ech.rank, level)


@lru_cache(maxsize=None)
def generator_pool(weight: int, level: int, cuspidal: bool = False,
                   prec: int = DEFAULT_PREC) -> tuple:
    """Generator lists in their catalog order, newforms included.

    This is the presentation basis used for reporting decompositions.  It is
    not echelonized, and only its size is checked against the dimension
    table here; its rank is checked by the echelon in linearize.decompose.
    Newforms come from heckeeigen.registry(prec).  The pool is stored per
    (weight, level, cuspidal, precision) and every call returns the same
    tuple.
    """
    pool = _build(_pool_texts(weight, level, cuspidal, _PRESENTATION_TAILS), prec)
    dim = dimension(weight, level, cuspidal)
    if len(pool) != dim:
        # pools are exact bases here, not just spanning sets
        raise ValueError(f"pool size {len(pool)} != dimension {dim}")
    return tuple(pool)

