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
from .characters import quadratic_character
from .exactnum import FieldElement, QuadExt, as_fraction

__all__ = [
    "RHSTerm",
    "IdentitySpec",
    "Report",
    "catalog",
    "load_catalog",
    "evaluate_rhs",
    "lhs_sweep",
    "verify",
    "verify_all",
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


def catalog_ids() -> list[str]:
    return [spec.ident for spec in catalog()]


def get_identity(ident: str) -> IdentitySpec:
    for spec in catalog():
        if spec.ident == ident:
            return spec
    raise KeyError(f"no identity with id {ident!r}")


# ---------------------------------------------------------------------------
# evaluation


class _Context:
    """Sigma tables and eigenform reader shared across one sweep."""

    def __init__(self, n_max: int, tau):
        self.n_max = n_max
        self.tau = tau
        self._sig = {}

    def sigma(self, j: int, n: int) -> int:
        if n < 1:
            return 0
        if j not in self._sig:
            self._sig[j] = oracle.sigma_table(j, self.n_max)
        return self._sig[j][n]


def _term_value(term: RHSTerm, n: int, ctx: _Context):
    if term.kind == "delta_sigma":
        b, a = term.delta
        if (n - a) % b:
            return 0
        return term.coeff * ctx.sigma(1, n)
    scale = n**term.npow if term.npow else 1
    if term.kind == "tau":
        if n % term.d:
            return 0
        val = ctx.tau(term.label, n // term.d)
        return term.coeff * scale * val if val else 0
    if n % term.t:
        return 0
    base = ctx.sigma(term.j, n // term.t)
    if term.kind == "chi_sigma":
        base *= quadratic_character(term.chi)(n)
    return term.coeff * scale * base if base else 0


def evaluate_rhs(spec: IdentitySpec, n: int, tau, _ctx=None) -> Fraction:
    """Exact value of the closed form at n; must reduce to a rational."""
    ctx = _ctx or _Context(n, tau)
    total = 0
    for term in spec.rhs:
        total = total + _term_value(term, n, ctx)
    if isinstance(total, FieldElement):
        if total.b != 0:
            raise ValueError(
                f"{spec.ident}: closed form does not reduce to a rational at n={n}"
            )
        total = total.a
    return as_fraction(total)


def lhs_sweep(spec: IdentitySpec, n_max: int) -> list[int]:
    """Oracle values for n = 0..n_max (index 0 unused)."""
    if spec.lhs_kind == "W":
        return oracle.w_range(spec.lhs_params[0], n_max)
    if spec.lhs_kind == "Smod":
        a, b = spec.lhs_params
        return oracle.smod_range(a, b, n_max)
    avec, bvec, nvec = spec.lhs_params
    return oracle.lahiri_range(avec, bvec, nvec, n_max)


def verify(spec: IdentitySpec, n_max: int | None = None, tau=None) -> Report:
    """Compare scalar * oracle(lhs, n) with the closed form for n = 1..n_max."""
    n_max = spec.nmax if n_max is None else n_max
    if tau is None:
        from .heckeeigen import registry

        tau = registry(max(256, n_max)).tau
    lhs = lhs_sweep(spec, n_max)
    ctx = _Context(n_max, tau)
    failures = []
    passed = 0
    for n in range(1, n_max + 1):
        left = spec.lhs_scalar * lhs[n]
        right = evaluate_rhs(spec, n, tau, ctx)
        if left == right:
            passed += 1
        else:
            failures.append((n, left, right))
    return Report(spec.ident, n_max, passed, tuple(failures))


def verify_all(idents=None, n_max: int | None = None, tau=None) -> list[Report]:
    specs = catalog() if idents is None else [get_identity(i) for i in idents]
    if tau is None:
        from .heckeeigen import registry

        bound = max(n_max or 0, max(s.nmax for s in specs), 256)
        tau = registry(bound).tau
    return [verify(spec, n_max, tau) for spec in specs]
