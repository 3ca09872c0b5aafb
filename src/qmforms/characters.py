"""Real Dirichlet characters, generalized Bernoulli numbers, twisted divisor sums.

Only real-valued characters are supported (values in {0, 1, -1}): principal
characters of any modulus and the quadratic (Legendre) character for an odd
prime modulus.  That keeps every coefficient field rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, gcd
from operator import add, mul

from .exactnum import factorize
from .qseries import QSeries

__all__ = [
    "DirichletCharacter",
    "trivial_character",
    "principal_character",
    "quadratic_character",
    "gen_bernoulli",
    "bernoulli",
    "sigma_twisted",
    "sigma_twisted_table",
    "twist",
    "twisted_level",
]


@dataclass(frozen=True)
class DirichletCharacter:
    """chi(n) by rule: the Legendre symbol (n/modulus) if quadratic, else [gcd(n, modulus) = 1]."""

    modulus: int
    name: str
    quadratic: bool

    def __call__(self, n: int) -> int:
        m = self.modulus
        if not self.quadratic:
            return 1 if gcd(n, m) == 1 else 0
        if n % m == 0:
            return 0
        return 1 if pow(n, (m - 1) // 2, m) == 1 else -1  # Euler's criterion

    def values(self, n_max: int) -> list:
        """chi(0), ..., chi(n_max); each residue below min(modulus, n_max + 1) is evaluated once."""
        period = [self(c) for c in range(min(self.modulus, n_max + 1))]
        return (period * (n_max // self.modulus + 1))[: n_max + 1]

    @property
    def parity(self) -> int:
        """Value at -1: +1 for even characters, -1 for odd ones."""
        return self(-1)

    def is_trivial(self) -> bool:
        return self.modulus == 1

    def __str__(self) -> str:
        return self.name


def trivial_character() -> DirichletCharacter:
    """The primitive character of modulus 1 (constant 1, including at 0)."""
    return DirichletCharacter(1, "one", False)


def principal_character(n: int) -> DirichletCharacter:
    if n < 1:
        raise ValueError("modulus must be positive")
    return DirichletCharacter(n, "one" if n == 1 else f"chi0_{n}", False)


def quadratic_character(m: int) -> DirichletCharacter:
    """Legendre symbol character modulo an odd prime m."""
    if m % 2 == 0 or factorize(m) != [(m, 1)]:
        raise ValueError(f"unsupported modulus {m} for a quadratic character")
    return DirichletCharacter(m, f"chi{m}", True)


@lru_cache(maxsize=None)
def gen_bernoulli(chi: DirichletCharacter, k: int) -> Fraction:
    """Generalized Bernoulli number attached to chi, exact.

    Defined by sum_c chi(c) t e^{ct} / (e^{Mt} - 1); for the trivial
    character this is the classical Bernoulli number.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    m, vals = chi.modulus, chi.values(chi.modulus - 1)
    num = QSeries([Fraction(sum(x * c**j for c, x in enumerate(vals)), factorial(j)) for j in range(k + 1)])
    den = QSeries([Fraction(m**j, factorial(j + 1)) for j in range(k + 1)])  # (e^{Mt} - 1) / (Mt)
    return Fraction((num * den.inverse()).coeff(k)) * factorial(k) / m


def bernoulli(k: int) -> Fraction:
    """Classical Bernoulli number B_k."""
    return gen_bernoulli(trivial_character(), k)


def sigma_twisted(psi: DirichletCharacter, phi: DirichletCharacter, k: int, n: int) -> int:
    """Twisted divisor power sum over d | n of psi(n/d) phi(d) d**k; 0 for n <= 0."""
    if n <= 0:
        return 0
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            e = n // d
            total += psi(e) * phi(d) * d**k
            if e != d:
                total += psi(d) * phi(e) * e**k
        d += 1
    return total


def sigma_twisted_table(psi: DirichletCharacter, phi: DirichletCharacter, k: int, n_max: int) -> list:
    """sigma_twisted(psi, phi, k, n) for n = 0..n_max, by one divisor sieve."""
    pv, fv = psi.values(n_max), phi.values(n_max)
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        c = fv[d] * d**k
        if c:  # d contributes psi(e) c at every multiple m = e d
            out[d::d] = map(add, out[d::d], map(mul, pv[1 : n_max // d + 1], repeat(c)))
    return out


def twist(f: QSeries, chi: DirichletCharacter) -> QSeries:
    """Coefficientwise multiplication by chi(n)."""
    return f.pointwise(chi.values(f.prec))


def twisted_level(level: int, chi: DirichletCharacter) -> int:
    m2 = chi.modulus * chi.modulus
    g = gcd(level, m2)
    return level // g * m2
