"""Named generators and exact echelon bases for spaces of modular forms.

Every generator is a text in the form language: Eisenstein series, the
weight-2 combinations phi(a,b), character Eisenstein series, eta quotients
and the handful of derived constructions (rescalings, products, a cube root,
one Rankin-Cohen bracket, Hecke images) the identity engine needs.  The
catalog names some of them; generator pools are lists of texts, and every
series is built by `evaluate`.  Space dimensions are pinned in a table and
every generator pool is rank-checked against it when echelonized.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

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
from .qseries import QSeries, eta_quotient, one, rc_bracket1

__all__ = [
    "DEFAULT_PREC",
    "FormExpr",
    "SpaceBasis",
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
    "eta_expr",
    "eis",
    "eis_level",
    "phi_expr",
    "char_eis_expr",
    "rescale_expr",
    "derive_expr",
    "product_expr",
    "power_expr",
    "root_expr",
    "rc1_expr",
    "twist_expr",
    "hecke_expr",
    "scale_expr",
    "sum_expr",
    "named",
    "const_expr",
]

DEFAULT_PREC = 256


# ---------------------------------------------------------------------------
# form expressions


@dataclass(frozen=True)
class FormExpr:
    """Symbolic description of a form with weight/depth/level metadata."""

    kind: str
    children: tuple
    params: tuple
    weight: int
    depth: int
    level: int

    def __str__(self) -> str:
        return expr_str(self)


def _check_meta(weight: int, depth: int, level: int):
    if depth < 0 or level < 1:
        raise ValueError("bad form metadata")
    if weight < 0 or weight % 2:
        raise ValueError(f"weight must be even and nonnegative, got {weight}")
    if 2 * depth > weight:
        raise ValueError(f"depth {depth} exceeds weight/2 for weight {weight}")


def _mk(kind, children=(), params=(), weight=0, depth=0, level=1) -> FormExpr:
    _check_meta(weight, depth, level)
    return FormExpr(kind, tuple(children), tuple(params), weight, depth, level)


def _eta_level(spec) -> int:
    """Smallest multiple L of lcm(d) with sum (L/d) r_d divisible by 24."""
    base = 1
    for d, _ in spec:
        base = lcm(base, d)
    for k in range(1, 25):
        level = k * base
        if sum((level // d) * r for d, r in spec) % 24 == 0:
            return level
    return 24 * base


def eta_expr(spec, level: int | None = None) -> FormExpr:
    spec = tuple((int(d), int(r)) for d, r in spec)
    wt2 = sum(r for _, r in spec)
    if wt2 % 2:
        raise ValueError("eta quotient of half-integral weight")
    return _mk("eta", params=(spec,), weight=wt2 // 2, level=level or _eta_level(spec))


def eis(k: int) -> FormExpr:
    return _mk("eis", params=(k,), weight=k, depth=1 if k == 2 else 0, level=1)


def eis_level(k: int, n: int) -> FormExpr:
    if n == 1:
        return eis(k)
    return _mk("eis_level", params=(k, n), weight=k, depth=1 if k == 2 else 0, level=n)


def phi_expr(a: int, b: int) -> FormExpr:
    return _mk("phi", params=(a, b), weight=2, level=b)


def char_eis_expr(k: int, psi: DirichletCharacter, chi: DirichletCharacter, t: int) -> FormExpr:
    return _mk("char_eis", params=(k, psi, chi, t), weight=k,
               level=max(t * psi.modulus * chi.modulus, 1))


def rescale_expr(e: FormExpr, d: int) -> FormExpr:
    return _mk("rescale", (e,), (d,), e.weight, e.depth, e.level * d)


def derive_expr(e: FormExpr, i: int = 1) -> FormExpr:
    if i == 0:
        return e
    return _mk("derive", (e,), (i,), e.weight + 2 * i, e.depth + i, e.level)


def product_expr(*es: FormExpr) -> FormExpr:
    lvl = 1
    for e in es:
        lvl = lcm(lvl, e.level)
    return _mk("product", es, (), sum(e.weight for e in es), sum(e.depth for e in es), lvl)


def power_expr(e: FormExpr, m: int) -> FormExpr:
    return _mk("power", (e,), (m,), e.weight * m, e.depth * m, e.level)


def root_expr(e: FormExpr, n: int) -> FormExpr:
    if e.weight % n:
        raise ValueError("weight not divisible by root order")
    if e.depth:
        raise ValueError("roots only of depth-0 forms")
    return _mk("root", (e,), (n,), e.weight // n, 0, e.level)


def rc1_expr(f: FormExpr, g: FormExpr) -> FormExpr:
    if f.depth or g.depth:
        raise ValueError("bracket arguments must be modular (depth 0)")
    return _mk("rc1", (f, g), (), f.weight + g.weight + 2, 0, lcm(f.level, g.level))


def twist_expr(e: FormExpr, chi: DirichletCharacter) -> FormExpr:
    return _mk("twist", (e,), (chi,), e.weight, e.depth, twisted_level(e.level, chi))


def hecke_expr(p: int, e: FormExpr) -> FormExpr:
    if factorize(p) != [(p, 1)]:
        raise ValueError(f"T(p,f) needs a prime p, got {p}")
    return _mk("hecke", (e,), (p,), e.weight, e.depth, e.level)


def scale_expr(c, e: FormExpr) -> FormExpr:
    if isinstance(c, int):
        c = Fraction(c)
    return _mk("scale", (e,), (c,), e.weight, e.depth, e.level)


def sum_expr(*es: FormExpr) -> FormExpr:
    lvl = 1
    for e in es:
        lvl = lcm(lvl, e.level)
    return _mk("sum", es, (), max(e.weight for e in es), max(e.depth for e in es), lvl)


def named(label: str, weight: int, depth: int, level: int) -> FormExpr:
    return _mk("named", params=(label,), weight=weight, depth=depth, level=level)


def const_expr(c) -> FormExpr:
    if isinstance(c, int):
        c = Fraction(c)
    return _mk("const", params=(c,))


def _paren(s: str) -> str:
    return f"({s})" if (" " in s or "+" in s[1:] or "-" in s[1:]) else s


def expr_str(e: FormExpr) -> str:
    k = e.kind
    if k == "eta":
        body = "*".join(f"{d}^{r}" if r != 1 else f"{d}" for d, r in e.params[0])
        return f"eta({body})"
    if k == "eis":
        return f"E({e.params[0]})"
    if k == "eis_level":
        return f"E({e.params[0]},{e.params[1]})"
    if k == "phi":
        return f"phi({e.params[0]},{e.params[1]})"
    if k == "char_eis":
        kk, psi, chi, t = e.params
        return f"chareis({kk},{psi},{chi},{t})"
    if k == "rescale":
        return f"rescale({e.children[0]},{e.params[0]})"
    if k == "derive":
        i = e.params[0]
        prefix = "D" if i == 1 else f"D^{i}"
        return f"{prefix}({e.children[0]})"
    if k == "product":
        return "*".join(_paren(str(c)) for c in e.children)
    if k == "power":
        return f"{_paren(str(e.children[0]))}^{e.params[0]}"
    if k == "root":
        return f"root({e.children[0]},{e.params[0]})"
    if k == "rc1":
        return f"rc1({e.children[0]},{e.children[1]})"
    if k == "twist":
        return f"twist({e.children[0]},{e.params[0]})"
    if k == "hecke":
        return f"T({e.params[0]},{e.children[0]})"
    if k == "scale":
        return f"({format_element(e.params[0])})*{_paren(str(e.children[0]))}"
    if k == "sum":
        return " + ".join(_paren(str(c)) for c in e.children)
    if k == "named":
        return e.params[0]
    if k == "const":
        return format_element(e.params[0])
    raise ValueError(f"unknown expression kind {k!r}")


# ---------------------------------------------------------------------------
# basic series


def eisenstein(k: int, n: int = 1, prec: int = DEFAULT_PREC) -> QSeries:
    """E_k(n z) = 1 - (2k/B_k) sum sigma_{k-1}(m) q^{nm}."""
    if k < 2 or k % 2:
        raise ValueError(f"Eisenstein weight must be even and >= 2, got {k}")
    scale = -Fraction(2 * k) / bernoulli(k)
    sig = oracle.sigma_table(k - 1, prec // n)
    cs = [0] * (prec + 1)
    cs[n::n] = sig[1 : prec // n + 1]
    return scale * QSeries(cs, prec) + 1


def phi(a: int, b: int, prec: int = DEFAULT_PREC) -> QSeries:
    """The weight-2 form (b E_2(bz) - a E_2(az)) / (b - a) for a | b, a < b."""
    if not (1 <= a < b and b % a == 0):
        raise ValueError(f"phi requires 1 <= a < b with a | b, got ({a},{b})")
    siga = oracle.sigma_table(1, prec // a)
    sigb = oracle.sigma_table(1, prec // b)
    den = b - a
    cs = [0] * (prec + 1)
    cs[0] = den
    for m in range(1, prec + 1):
        s = 0
        if m % b == 0:
            s -= 24 * b * sigb[m // b]
        if m % a == 0:
            s += 24 * a * siga[m // a]
        cs[m] = s
    return Fraction(1, den) * QSeries(cs, prec)


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
    scale = -Fraction(2 * k) / bk
    cs = [0] * (prec + 1)
    cs[t::t] = sigma_twisted_table(psi, chi, k - 1, prec // t)[1:]
    return scale * QSeries(cs, prec) + (1 if psi.is_trivial() else 0)


# ---------------------------------------------------------------------------
# the textual expression language

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

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise ValueError(f"expected {t!r}, got {got!r}")

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
        return terms[0] if len(terms) == 1 else sum_expr(*terms)

    @staticmethod
    def _negate(e: FormExpr) -> FormExpr:
        if e.kind == "const":
            return const_expr(-e.params[0])
        if e.kind == "scale":
            return scale_expr(-e.params[0], e.children[0])
        return scale_expr(-1, e)

    def term(self) -> FormExpr:
        coeff = Fraction(1)
        factors = []
        while True:
            sign = 1
            while self.peek() == "-":
                self.next()
                sign = -sign
            f = self.factor()
            if f.kind == "const":
                coeff *= sign * f.params[0]
            else:
                coeff *= sign
                factors.append(f)
            if self.peek() == "*":
                self.next()
                continue
            break
        if not factors:
            return const_expr(coeff)
        body = factors[0] if len(factors) == 1 else product_expr(*factors)
        return body if coeff == 1 else scale_expr(coeff, body)

    def factor(self) -> FormExpr:
        base = self.primary()
        if self.peek() == "^":
            self.next()
            m = int(self.next())
            if base.kind == "const":
                return const_expr(base.params[0] ** m)
            return power_expr(base, m)
        return base

    def primary(self) -> FormExpr:
        t = self.next()
        if t == "(":
            e = self.expr()
            self.expect(")")
            return e
        if t is None:
            raise ValueError("unexpected end of input")
        if t.isdigit():
            num = int(t)
            if self.peek() == "/":
                self.next()
                den = int(self.next())
                return const_expr(Fraction(num, den))
            return const_expr(Fraction(num))
        return self.call_or_name(t)

    def call_or_name(self, name: str) -> FormExpr:
        if name == "D":
            i = 1
            if self.peek() == "^":
                self.next()
                i = int(self.next())
            self.expect("(")
            e = self.expr()
            self.expect(")")
            return derive_expr(e, i)
        if self.peek() != "(":
            if name in _DISPLAY:
                return _DISPLAY[name]
            raise ValueError(f"unknown name {name!r}")
        self.expect("(")
        if name == "eta":
            spec = self.eta_spec()
            self.expect(")")
            return eta_expr(spec)
        if name == "E":
            k = int(self.next())
            n = 1
            if self.peek() == ",":
                self.next()
                n = int(self.next())
            self.expect(")")
            return eis_level(k, n)
        if name == "phi":
            a = int(self.next())
            self.expect(",")
            b = int(self.next())
            self.expect(")")
            return phi_expr(a, b)
        if name == "twist":
            e = self.expr()
            self.expect(",")
            chi = _char_by_name(self.next())
            self.expect(")")
            return twist_expr(e, chi)
        if name == "rc1":
            f = self.expr()
            self.expect(",")
            g = self.expr()
            self.expect(")")
            return rc1_expr(f, g)
        if name == "rescale":
            e = self.expr()
            self.expect(",")
            d = int(self.next())
            self.expect(")")
            return rescale_expr(e, d)
        if name == "T":
            p = int(self.next())
            self.expect(",")
            e = self.expr()
            self.expect(")")
            return hecke_expr(p, e)
        if name == "root":
            e = self.expr()
            self.expect(",")
            n = int(self.next())
            self.expect(")")
            return root_expr(e, n)
        if name == "chareis":
            k = int(self.next())
            self.expect(",")
            psi = _char_by_name(self.next())
            self.expect(",")
            chi = _char_by_name(self.next())
            self.expect(",")
            t = int(self.next())
            self.expect(")")
            return char_eis_expr(k, psi, chi, t)
        raise ValueError(f"unknown function {name!r}")

    def eta_spec(self):
        spec = []
        while True:
            d = int(self.next())
            r = 1
            if self.peek() == "^":
                self.next()
                nxt = self.next()
                if nxt == "-":
                    r = -int(self.next())
                else:
                    r = int(nxt)
            spec.append((d, r))
            if self.peek() == "*":
                self.next()
                continue
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

# root(., 3) of a q^3 (1 + ...) series keeps exponents up to P - 2 of P
_PREC_LOSS = {"delta_4_7": 2}

_EXPRS: dict = {}    # label -> its parsed text
_DISPLAY: dict = {}  # label -> what it prints as: its name if the text applies T


def _applies_hecke(e: FormExpr) -> bool:
    return e.kind == "hecke" or any(_applies_hecke(c) for c in e.children)


def _parse_catalog():
    for label, text in _CATALOG.items():
        e = _EXPRS[label] = parse_expr(text)
        _DISPLAY[label] = named(label, e.weight, e.depth, e.level) if _applies_hecke(e) else e


_parse_catalog()

# sub-expressions evaluate serves from named_form's cache
_BY_EXPR = {e: label for table in (_EXPRS, _DISPLAY) for label, e in table.items()}


def catalog_labels() -> list[str]:
    return sorted(_CATALOG)


@lru_cache(maxsize=None)
def named_form(label: str, prec: int = DEFAULT_PREC):
    """Catalog lookup; returns (FormExpr, QSeries) at the given precision."""
    try:
        expr = _EXPRS[label]
    except KeyError:
        raise KeyError(f"unknown form label {label!r}") from None
    series = _evaluate(expr, prec + _PREC_LOSS.get(label, 0))
    if series.prec != prec:
        series = series.truncate(prec)
    return _DISPLAY[label], series


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
    k = expr.kind
    if k == "eta":
        return eta_quotient(expr.params[0], prec)
    if k == "eis":
        return eisenstein(expr.params[0], 1, prec)
    if k == "eis_level":
        return eisenstein(expr.params[0], expr.params[1], prec)
    if k == "phi":
        return phi(expr.params[0], expr.params[1], prec)
    if k == "char_eis":
        kk, psi, chi, t = expr.params
        return char_eisenstein(kk, psi, chi, t, prec)
    if k == "rescale":
        return evaluate(expr.children[0], prec).rescale(expr.params[0]).truncate(prec)
    if k == "derive":
        return evaluate(expr.children[0], prec).derive(expr.params[0])
    if k == "product":
        acc = evaluate(expr.children[0], prec)
        for c in expr.children[1:]:
            acc = acc * evaluate(c, prec)
        return acc
    if k == "power":
        return evaluate(expr.children[0], prec).power(expr.params[0])
    if k == "root":
        return evaluate(expr.children[0], prec).root(expr.params[0])
    if k == "rc1":
        f, g = expr.children
        return rc_bracket1(evaluate(f, prec), f.weight, evaluate(g, prec), g.weight)
    if k == "twist":
        return twist(evaluate(expr.children[0], prec), expr.params[0])
    if k == "hecke":
        p, f = expr.params[0], expr.children[0]
        return evaluate(f, p * prec).hecke(p, f.weight, f.level)
    if k == "scale":
        return expr.params[0] * evaluate(expr.children[0], prec)
    if k == "sum":
        acc = None
        for c in expr.children:
            s = evaluate(c, prec)
            acc = s if acc is None else acc + s
        return acc
    if k == "const":
        return expr.params[0] * one(prec)
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
# newform of S_k(N); any other text is parsed and evaluated.

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


def _build(texts, prec: int, registry=None):
    """(expression, series) of each generator text, at the given precision."""
    out = []
    for text in texts:
        if text in _CATALOG:
            out.append(named_form(text, prec))
        elif text.startswith("nf_"):
            if registry is None:
                from .heckeeigen import registry as _registry

                registry = _registry(prec)
            k, n, i = (int(x) for x in text.split("_")[1:])
            out.append((named(text, k, 0, n), registry.newform(f"{k}.{n}.{i}").series))
        else:
            expr = parse_expr(text)
            out.append((expr, evaluate(expr, prec)))
    return out


@dataclass(frozen=True)
class SpaceBasis:
    """Echelonized exact basis of a space of modular forms."""

    weight: int
    level: int
    cuspidal: bool
    elements: tuple
    pivots: tuple
    pool_exprs: tuple
    combos: tuple

    @property
    def prec(self) -> int:
        return self.elements[0][1].prec if self.elements else 0

    def series(self) -> list[QSeries]:
        return [s for _, s in self.elements]


def _combo_expr(combo, exprs) -> FormExpr:
    terms = []
    for c, e in zip(combo, exprs):
        if c == 0:
            continue
        terms.append(e if c == 1 else scale_expr(c, e))
    if not terms:
        raise ValueError("zero combination")
    return terms[0] if len(terms) == 1 else sum_expr(*terms)


@lru_cache(maxsize=None)
def space_basis(weight: int, level: int, cuspidal: bool = False,
                prec: int = DEFAULT_PREC) -> SpaceBasis:
    """Echelonized basis of M_k(Gamma0(N)) or its cuspidal subspace."""
    dim = dimension(weight, level, cuspidal)
    pool = _build(_pool_texts(weight, level, cuspidal, _SPANNING_TAILS), prec)
    what = f"{'S' if cuspidal else 'M'}_{weight}(Gamma0({level}))"
    p = min((s.prec for _, s in pool), default=0)
    ech = linalg.rref([s.truncate(p) for _, s in pool])
    if ech.rank < dim:
        raise ValueError(f"insufficient generator pool for {what}: rank {ech.rank} < {dim}")
    if ech.rank > dim:
        raise ValueError(f"dimension table violated for {what}: rank {ech.rank} > {dim}")
    exprs = tuple(e for e, _ in pool)
    combos = tuple(tuple(c) for c in ech.transform[: ech.rank])
    elements = tuple((_combo_expr(c, exprs), QSeries(row)) for c, row in zip(combos, ech.rows))
    return SpaceBasis(weight, level, cuspidal, elements, ech.pivots, exprs, combos)


def generator_pool(weight: int, level: int, cuspidal: bool = False,
                   prec: int = DEFAULT_PREC, registry=None):
    """Generator lists in their catalog order, newforms included.

    This is the presentation basis used for reporting decompositions; it is
    rank-checked against the dimension table but not echelonized.
    """
    pool = _build(_pool_texts(weight, level, cuspidal, _PRESENTATION_TAILS), prec, registry)
    dim = dimension(weight, level, cuspidal)
    if len(pool) != dim:
        # pools are exact bases here, not just spanning sets
        raise ValueError(f"pool size {len(pool)} != dimension {dim}")
    return pool
