"""Brute-force evaluation of divisor-sum convolutions, plus golden table data.

Everything here is plain integer arithmetic, independent of the series
machinery; it serves as ground truth for identity verification.  The per-n
references `W`, `S_mod` and `lahiri` enumerate their sums directly.  The
range sweeps `w_range`, `smod_range` and `lahiri_range` compute every n at
once, one Kronecker product (`_convolve`) per pairwise convolution.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from itertools import repeat

from .exactnum import parse_element

__all__ = [
    "divisors",
    "mobius",
    "sigma",
    "sigma_table",
    "W",
    "w_range",
    "S_mod",
    "smod_range",
    "lahiri",
    "lahiri_range",
    "table_names",
    "table_entries",
]


def divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius is defined on positive integers")
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def sigma(j: int, n: int) -> int:
    """Sum of j-th powers of the divisors of n; 0 when n <= 0."""
    if n <= 0:
        return 0
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            e = n // d
            total += d**j
            if e != d:
                total += e**j
        d += 1
    return total


def _sieve(j: int, n_max: int) -> tuple:
    """sigma_j(0..n_max) as a tuple, by divisor sieve."""
    t = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dj = d**j
        for m in range(d, n_max + 1, d):
            t[m] += dj
    return tuple(t)


# reused by the sweeps and the engine; per-n W, S_mod and lahiri sieve their own: a table per n piles up
sigma_table = lru_cache(maxsize=None)(_sieve)


def _at_least(x: int, low: int, name: str) -> None:
    if x < low:
        raise ValueError(f"{name} must be >= {low}, got {x}")


def _convolve(xs, ys) -> list[int]:
    """First len(xs) coefficients of the product of two nonnegative int sequences.

    Kronecker substitution: each sequence is packed into one int, one w-bit
    digit per term, so a single big-int multiply does the whole convolution.
    Each of the first n coefficients is a sum of at most n terms, so with
    2**w > max(xs) * max(ys) * n none of them carries into the next digit.
    """
    n = len(xs)
    ys = ys[:n]
    bound = max(xs, default=0) * max(ys, default=0) * n
    if not bound:
        return [0] * n
    nb = (bound.bit_length() + 7) // 8  # digit bytes: 2**(8*nb) > bound >= every x and y

    def pack(cs):
        return int.from_bytes(b"".join(map(int.to_bytes, cs, repeat(nb), repeat("little"))), "little")

    raw = (pack(xs) * pack(ys)).to_bytes(nb * (n + len(ys)), "little")
    return [int.from_bytes(raw[i : i + nb], "little") for i in range(0, nb * n, nb)]


def W(N: int, n: int) -> int:
    """Convolution of level N: sum over 0 < m < n/N of sigma1(m) sigma1(n - N m)."""
    _at_least(N, 1, "N")
    t = _sieve(1, n)
    total = 0
    m = 1
    while N * m < n:
        total += t[m] * t[n - N * m]
        m += 1
    return total


def w_range(N: int, n_max: int) -> list[int]:
    _at_least(N, 1, "N")
    t = sigma_table(1, n_max)
    spread = [0] * (n_max + 1)  # sigma1(m) at n = N m
    spread[::N] = t[: n_max // N + 1]
    return _convolve(t, spread)


def S_mod(a: int, b: int, n: int) -> int:
    """Sum of sigma1(m) sigma1(n-m) over 0 <= m <= n with m = a mod b."""
    if not 0 <= a < b:
        raise ValueError("require 0 <= a < b")
    t = _sieve(1, n)
    total = 0
    for m in range(a, n + 1, b):
        if 1 <= m <= n - 1:
            total += t[m] * t[n - m]
    return total


def smod_range(a: int, b: int, n_max: int) -> list[int]:
    if not 0 <= a < b:
        raise ValueError("require 0 <= a < b")
    t = sigma_table(1, n_max)
    cls = [0] * (n_max + 1)  # sigma1(m) on m = a mod b only
    cls[a::b] = t[a::b]
    return _convolve(cls, t)


def _pulled(a: int, b: int, N: int, n_max: int, table=sigma_table) -> list[int]:
    """Sequence m**a * sigma_b(m / N) for m = 0..n_max (zero off multiples), sigma_b from `table`."""
    _at_least(a, 0, "avec entry")
    _at_least(b, 0, "bvec entry")
    _at_least(N, 1, "Nvec entry")
    t = table(b, n_max // N)
    out = [0] * (n_max + 1)
    for m in range(N, n_max + 1, N):
        out[m] = m**a * t[m // N]
    return out


def lahiri(avec, bvec, nvec, n: int) -> int:
    """Weighted multi-fold convolution by direct enumeration of compositions.

    Sums m1**a1 ... mr**ar sigma_b1(m1/N1) ... sigma_br(mr/Nr) over all ways
    of writing n as an ordered sum of r parts; parts that are zero or miss
    their divisibility constraint contribute nothing.
    """
    r = len(avec)
    if not (r == len(bvec) == len(nvec)) or r < 1:
        raise ValueError("mismatched descriptor lengths")
    tables = [_pulled(a, b, N, n, _sieve) for a, b, N in zip(avec, bvec, nvec)]

    def rec(i: int, rest: int, acc: int) -> int:
        if i == r - 1:
            return acc * tables[i][rest]
        total = 0
        step = nvec[i]
        t = tables[i]
        for m in range(step, rest, step):
            v = t[m]
            if v:
                total += rec(i + 1, rest - m, acc * v)
        return total

    return rec(0, n, 1)


def lahiri_range(avec, bvec, nvec, n_max: int) -> list[int]:
    """Same sums for all n <= n_max at once, via iterated pairwise convolution."""
    r = len(avec)
    if not (r == len(bvec) == len(nvec)) or r < 1:
        raise ValueError("mismatched descriptor lengths")
    acc = _pulled(avec[0], bvec[0], nvec[0], n_max)
    for a, b, N in zip(avec[1:], bvec[1:], nvec[1:]):
        acc = _convolve(acc, _pulled(a, b, N, n_max))
    return acc


# -- golden coefficient tables ------------------------------------------------


@lru_cache(maxsize=None)
def _tables() -> dict:
    text = resources.files("qmforms.data").joinpath("tables.txt").read_text()
    out: dict[str, dict[int, object]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, ns, vs = line.split(None, 2)
        out.setdefault(name, {})[int(ns)] = parse_element(vs)
    return out


def table_names() -> list[str]:
    return sorted(_tables())


def table_entries(name: str) -> dict:
    try:
        return dict(_tables()[name])
    except KeyError:
        raise KeyError(f"unknown table {name!r}") from None
