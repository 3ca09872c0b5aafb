"""Exact decomposition of q-expansions in graded quasimodular bases.

A weight-k depth-graded basis is the union over i of D^i applied to a basis
of the weight k-2i modular forms, together with D^(k/2-1) E_2.  Solving is
one exact echelon of the basis expansions; every coefficient up to the
target precision is then checked, and any mismatch is a hard error.  The
named bases are stored per precision.  `QMBasis` is the one space class of
`forms`, whose store builds the echelon once per basis value; every call
still checks each coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil

from . import forms
from .characters import bernoulli
from .exactnum import IntegrityError, factorize
from .forms import QMBasis
from .qseries import PrecisionError, QSeries

__all__ = [
    "QMBasis",
    "Decomposition",
    "sturm_margin",
    "named_qm_basis",
    "mixed_qm_basis",
    "decompose",
    "build_H",
    "build_lahiri",
]


def _mu(level: int) -> int:
    """Index of Gamma0(N) in the modular group."""
    out = level
    for p, _ in factorize(level):
        out = out // p * (p + 1)
    return out


def sturm_margin(weight: int, level: int) -> int:
    """Number of verified coefficients: well past the equality bound."""
    return max(64, ceil(Fraction(8 * weight * _mu(level), 12)))


@dataclass(frozen=True)
class Decomposition:
    basis: QMBasis
    coefficients: tuple
    verified_to: int

    def to_record(self) -> dict:
        from .exactnum import format_element

        return {
            "basis_exprs": [str(e) for e, _ in self.basis.elements],
            "coefficients": [format_element(c) for c in self.coefficients],
            "verified_to": self.verified_to,
        }


def _derive(expr, i: int):
    """D^i(expr), with D^0(expr) = expr."""
    return forms.call("D", i, expr) if i else expr


def _check_registry(prec: int, registry) -> None:
    if registry is not None and registry.prec != prec:
        raise ValueError(f"registry precision {registry.prec} differs from basis precision {prec}")


def named_qm_basis(weight: int, level: int, depth_cap: int | None = None,
                   prec: int = forms.DEFAULT_PREC, registry=None) -> QMBasis:
    """Graded basis over the named generator pools, for reporting.

    Stored per (weight, level, depth cap, precision).  Newforms come from
    heckeeigen.registry(prec); a registry, if passed, must be at prec.
    """
    _check_registry(prec, registry)
    return _named_qm_basis(weight, level, weight // 2 if depth_cap is None else depth_cap, prec)


@lru_cache(maxsize=None)
def _named_qm_basis(weight: int, level: int, depth_cap: int, prec: int) -> QMBasis:
    if weight < 2 or weight % 2:
        raise ValueError("weight must be even and >= 2")
    elems = []
    weights = []
    for i in range(weight // 2):
        if i > depth_cap:
            break
        w = weight - 2 * i
        if forms.dimension(w, level) == 0:
            continue
        for expr, series in forms.generator_pool(w, level, False, prec):
            elems.append((_derive(expr, i), series.derive(i)))
            weights.append(weight)
    if weight // 2 <= depth_cap:
        e2 = forms.eisenstein(2, 1, prec).derive(weight // 2 - 1)
        elems.append((_derive(forms.call("E", 2, 1), weight // 2 - 1), e2))
        weights.append(weight)
    return QMBasis(tuple(elems), tuple(weights), level)


def mixed_qm_basis(weights, level: int, prec: int = forms.DEFAULT_PREC,
                   registry=None) -> QMBasis:
    """Union of the named graded bases over several weights (ascending).

    A concatenation of stored named bases, so its echelon is found by value;
    a registry, if passed, must be at prec.
    """
    _check_registry(prec, registry)
    bases = [named_qm_basis(w, level, None, prec) for w in sorted(weights)]
    return QMBasis(tuple(e for b in bases for e in b.elements),
                   tuple(w for b in bases for w in b.weights), level)


named_qm_basis.cache_info = _named_qm_basis.cache_info


def decompose(target: QSeries, basis: QMBasis) -> Decomposition:
    """Exact coordinates of the target in the basis, surplus-verified.

    Solves on the pivot exponents of the basis echelon, then checks every
    coefficient up to the common precision of the target and the basis.
    Raises when the precision falls short of the verification margin, on a
    basis that is dependent or whose last pivot lies past the common
    precision, and on the first exponent that fails the check.  The echelon
    is built once per basis and stored; the margin, the rank and every
    coefficient are checked on each call.
    """
    ncols = len(basis)
    if ncols == 0:
        raise ValueError("empty basis")
    prec = min([target.prec] + [s.prec for s in basis.series()])
    margin = sturm_margin(max(basis.weights), basis.level)
    if prec < max(margin, 2 * ncols):
        raise PrecisionError(
            f"target precision {prec} below required margin {max(margin, 2 * ncols)}"
        )
    ech = basis.echelon
    if ech.rank < ncols or ech.pivots[-1] > prec:
        raise ValueError("basis is linearly dependent on the available coefficients")
    sol, fail = ech.coords(target)
    if fail is not None:
        raise IntegrityError(f"decomposition fails verification at exponent {fail}")
    return Decomposition(basis, tuple(sol), prec)


def build_H(level: int, prec: int = forms.DEFAULT_PREC) -> QSeries:
    """The weight-4 product E_2(z) E_2(N z)."""
    return forms.eisenstein(2, 1, prec) * forms.eisenstein(2, level, prec)


def build_lahiri(avec, bvec, nvec, prec: int = forms.DEFAULT_PREC):
    """Product of shifted Eisenstein factors generating a Lahiri-type sum.

    Returns (series, normalization): the product of (E_{b+1,N} - 1) factors
    for the leading zero orders and D^a E_{b+1,N} for the rest, and the
    constant (-2)^r prod (b_j + 1) / B_{b_j+1} multiplying the sum's
    generating series.
    """
    r = len(avec)
    if not (r == len(bvec) == len(nvec)) or r < 1:
        raise ValueError("mismatched descriptor lengths")
    if list(avec) != sorted(avec):
        raise ValueError("exponents must be sorted ascending")
    acc = None
    normalization = Fraction((-2) ** r)
    for a, b, n in zip(avec, bvec, nvec):
        if b < 1 or b % 2 == 0:
            raise ValueError("sigma indices must be odd and positive")
        normalization *= Fraction(b + 1) / bernoulli(b + 1)
        e = forms.eisenstein(b + 1, n, prec)
        factor = (e - 1) if a == 0 else e.derive(a)
        acc = factor if acc is None else acc * factor
    return acc, normalization
