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
    modulus: int
    values: tuple
    name: str

    def __call__(self, n: int) -> int:
        return self.values[n % self.modulus]

    @property
    def parity(self) -> int:
        """Value at -1: +1 for even characters, -1 for odd ones."""
        return self.values[-1 % self.modulus]

    def is_trivial(self) -> bool:
        return self.modulus == 1

    def __str__(self) -> str:
        return self.name


@lru_cache(maxsize=None)
def trivial_character() -> DirichletCharacter:
    """The primitive character of modulus 1 (constant 1, including at 0)."""
    return DirichletCharacter(1, (1,), "one")


@lru_cache(maxsize=None)
def principal_character(n: int) -> DirichletCharacter:
    if n < 1:
        raise ValueError("modulus must be positive")
    if n == 1:
        return trivial_character()
    vals = tuple(1 if gcd(c, n) == 1 else 0 for c in range(n))
    return DirichletCharacter(n, vals, f"chi0_{n}")


@lru_cache(maxsize=None)
def quadratic_character(m: int) -> DirichletCharacter:
    """Legendre symbol character modulo an odd prime m."""
    if m % 2 == 0 or factorize(m) != [(m, 1)]:
        raise ValueError(f"unsupported modulus {m} for a quadratic character")
    vals = [0] * m
    for c in range(1, m):
        e = pow(c, (m - 1) // 2, m)
        vals[c] = 1 if e == 1 else -1
    return DirichletCharacter(m, tuple(vals), f"chi{m}")


@lru_cache(maxsize=None)
def gen_bernoulli(chi: DirichletCharacter, k: int) -> Fraction:
    """Generalized Bernoulli number attached to chi, exact.

    Defined by sum_c chi(c) t e^{ct} / (e^{Mt} - 1); for the trivial
    character this is the classical Bernoulli number.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    m = chi.modulus
    num = QSeries([Fraction(sum(chi(c) * c**j for c in range(m)), factorial(j)) for j in range(k + 1)])
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
    pv = [psi(e) for e in range(n_max + 1)]
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        c = phi(d) * d**k
        if c:  # d contributes psi(e) c at every multiple m = e d
            out[d::d] = map(add, out[d::d], map(mul, pv[1 : n_max // d + 1], repeat(c)))
    return out


def twist(f: QSeries, chi: DirichletCharacter) -> QSeries:
    """Coefficientwise multiplication by chi(n)."""
    vals = chi.values
    m = chi.modulus
    return f.pointwise([vals[n % m] for n in range(f.prec + 1)])


def twisted_level(level: int, chi: DirichletCharacter) -> int:
    m2 = chi.modulus * chi.modulus
    g = gcd(level, m2)
    return level // g * m2
