"""Declarative catalog of convolution identities and the exact verifier.

Each identity record pairs a brute-force sum descriptor (the oracle side)
with a list of closed-form terms built from divisor sums, character twists
and eigenform coefficients.  Verification compares the two sides integer by
integer with zero tolerance; quadratic-field terms must cancel to rationals
through conjugate pairing before comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from . import oracle
from .characters import quadratic_character, twist
from .exactnum import FieldElement, IntegrityError, QuadExt
from .qseries import QSeries, _make, combine

__all__ = [
    "RHSTerm",
    "IdentitySpec",
    "Report",
    "catalog",
    "load_catalog",
    "evaluate_rhs",
    "rhs_sweep",
    "lhs_sweep",
    "verify",
]


@dataclass(frozen=True)
class RHSTerm:
    """One closed-form term: coeff * n^npow * [chi(n)] * base(n).

    kind "sigma": base is sigma_j(n/t); "chi_sigma" multiplies by the
    quadratic character chi(n); "tau" reads an eigenform coefficient at n/d;
    "delta_sigma" is sigma_1(n) gated by the congruence n = a mod b.
    """

    coeff: object
    kind: str
    j: int = 0
    t: int = 1
    npow: int = 0
    chi: int = 0
    label: str = ""
    d: int = 1
    delta: tuple = ()


@dataclass(frozen=True)
class IdentitySpec:
    ident: str
    lhs_kind: str
    lhs_params: tuple
    lhs_scalar: Fraction
    rhs: tuple
    nmax: int


@dataclass(frozen=True)
class Report:
    ident: str
    n_max: int
    passed: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_record(self) -> dict:
        return {
            "id": self.ident,
            "n_max": self.n_max,
            "passed": self.passed,
            "failures": [
                {"n": n, "lhs": str(a), "rhs": str(b)} for n, a, b in self.failures
            ],
        }


def _parse_coeff(raw):
    if isinstance(raw, str):
        return Fraction(raw)
    ext = QuadExt(Fraction(raw["p"]), Fraction(raw["q"]))
    return FieldElement(Fraction(raw["a"]), Fraction(raw["b"]), ext)


def _parse_term(raw) -> RHSTerm:
    kind = raw["kind"]
    coeff = _parse_coeff(raw["c"])
    if kind in ("sigma", "chi_sigma"):
        return RHSTerm(coeff, kind, j=raw["j"], t=raw.get("t", 1),
                       npow=raw.get("npow", 0), chi=raw.get("chi", 0))
    if kind == "tau":
        return RHSTerm(coeff, kind, label=raw["label"], d=raw.get("d", 1),
                       npow=raw.get("npow", 0))
    if kind == "delta_sigma":
        return RHSTerm(coeff, kind, j=1, delta=(raw["b"], raw.get("a", 0)))
    raise ValueError(f"unknown term kind {kind!r}")


def _parse_identity(raw) -> IdentitySpec:
    lhs = raw["lhs"]
    kind = lhs["kind"]
    if kind == "W":
        params = (lhs["N"],)
    elif kind == "Smod":
        params = (lhs["a"], lhs["b"])
    elif kind == "lahiri":
        params = (tuple(lhs["a"]), tuple(lhs["b"]), tuple(lhs["N"]))
    else:
        raise ValueError(f"unknown lhs kind {kind!r}")
    return IdentitySpec(
        ident=raw["id"],
        lhs_kind=kind,
        lhs_params=params,
        lhs_scalar=Fraction(lhs.get("scalar", "1")),
        rhs=tuple(_parse_term(t) for t in raw["rhs"]),
        nmax=raw["nmax"],
    )


def load_catalog(path: str | None = None) -> list[IdentitySpec]:
    if path is None:
        text = resources.files("qmforms.data").joinpath("identities.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    return [_parse_identity(raw) for raw in json.loads(text)]


@lru_cache(maxsize=None)
def catalog() -> tuple[IdentitySpec, ...]:
    return tuple(load_catalog())


def get_identity(ident: str) -> IdentitySpec:
    for spec in catalog():
        if spec.ident == ident:
            return spec
    raise KeyError(f"no identity with id {ident!r}")


# ---------------------------------------------------------------------------
# evaluation


def _tau_term(term: RHSTerm, n_max: int, tau) -> QSeries:
    """The eigenform's a(m) at n = d*m for m = 1..n_max // d, sliced from its integer parts.

    Only the m above the stored precision are read one by one, through
    `Newform.coefficient`, which extends them multiplicatively.
    """
    d, top = term.d, n_max // term.d
    nf = tau(term.label)
    f = nf.series
    k = min(top, f.prec)

    def spread(xs):
        out = [0] * (n_max + 1)
        out[d : k * d + 1 : d] = xs[1 : k + 1]
        return out

    s = _make(n_max, f.ext, spread(f.num), f.unum and spread(f.unum), f.den)
    if top > k:
        vec = [0] * (n_max + 1)
        vec[(k + 1) * d :: d] = [nf.coefficient(m) for m in range(k + 1, top + 1)]
        s = s + QSeries(vec, ext=f.ext)
    return s


def _term_series(term: RHSTerm, n_max: int, tau) -> QSeries:
    """One closed-form term without its coefficient, for n = 0..n_max."""
    if term.kind == "tau":
        return _tau_term(term, n_max, tau).derive(term.npow)
    vec = [0] * (n_max + 1)
    if term.kind == "delta_sigma":
        b, a = term.delta
        vec[a % b :: b] = oracle.sigma_table(1, n_max)[a % b :: b]
        return _make(n_max, None, vec)
    vec[:: term.t] = oracle.sigma_table(term.j, n_max)[: n_max // term.t + 1]
    f = _make(n_max, None, vec).derive(term.npow)
    if term.kind == "chi_sigma":
        f = twist(f, quadratic_character(term.chi))
    return f


def rhs_sweep(spec: IdentitySpec, n_max: int, tau) -> QSeries:
    """The closed form at n = 0..n_max as one series (0 at n = 0), possibly over Q(t).

    tau maps a table name to its newform: a registry's `Registry.tau`.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    cs = QSeries([t.coeff for t in spec.rhs])
    return combine(cs, [_term_series(t, n_max, tau) for t in spec.rhs], n_max)


def _rational_parts(spec: IdentitySpec, rhs: QSeries, lo: int):
    """(num, den) of the sweep; raises at the first n >= lo with a nonzero t-part."""
    bad = rhs.unum and next((n for n in range(lo, rhs.prec + 1) if rhs.unum[n]), None)
    if bad is not None:
        raise IntegrityError(f"{spec.ident}: closed form does not reduce to a rational at n={bad}")
    return rhs.num, rhs.den


def evaluate_rhs(spec: IdentitySpec, n: int, tau) -> Fraction:
    """Exact value of the closed form at n; must reduce to a rational."""
    num, den = _rational_parts(spec, rhs_sweep(spec, n, tau), n)
    return Fraction(num[n], den)


def lhs_sweep(spec: IdentitySpec, n_max: int) -> list[int]:
    """Oracle values for n = 0..n_max (index 0 unused)."""
    if spec.lhs_kind == "W":
        return oracle.w_range(spec.lhs_params[0], n_max)
    if spec.lhs_kind == "Smod":
        a, b = spec.lhs_params
        return oracle.smod_range(a, b, n_max)
    avec, bvec, nvec = spec.lhs_params
    return oracle.lahiri_range(avec, bvec, nvec, n_max)


def verify(spec: IdentitySpec, n_max: int | None, tau) -> Report:
    """Compare scalar * oracle(lhs, n) with the closed form for n = 1..n_max.

    n_max None is the catalog bound; tau is as for `rhs_sweep`.  Both sides
    are swept once and compared in integers; Fractions are built only for
    the failing n.
    """
    n_max = spec.nmax if n_max is None else n_max
    lhs = lhs_sweep(spec, n_max)
    num, den = _rational_parts(spec, rhs_sweep(spec, n_max, tau), 1)
    # scalar * lhs == num / den  <=>  sn * den * lhs == sd * num
    sn, sd = spec.lhs_scalar.numerator * den, spec.lhs_scalar.denominator
    bad = [n for n, x, y in zip(range(1, n_max + 1), lhs[1:], num[1:]) if sn * x != sd * y]
    failures = tuple((n, spec.lhs_scalar * lhs[n], Fraction(num[n], den)) for n in bad)
    return Report(spec.ident, n_max, n_max - len(bad), failures)
