"""Pinned answers the benchmark checks every operation against.

The decomposition tuples are the published coefficients of the paper's
linearizations; they are copied here so that edits to the test suite cannot
change what the benchmark accepts.  The expand pool is checked either against
the zero series or against coefficients this module recomputes from integer
divisor sums, without calling the engine.
"""

from fractions import Fraction as F

# the 27 catalog identities and their bounds; verify must pass each in full
IDENTITY_BOUNDS = {
    **{f"w{n}": 500 for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14)},
    "smod3.0": 300, "smod3.1": 300, "smod3.2": 300, "smod3.sum": 300,
    "s1.s3": 500, "s1.s3_2": 500, "s1_2.s3": 500,
    "s1.s5": 500, "s1_2.s5": 500, "s1.s5_2": 500,
    "lahiri.011": 300, "lahiri.00011": 100,
    "bsum.2a5b": 300, "absum.a5b": 300,
}

TABLE_ENTRIES = 305

# table name -> newform label, as the golden tables name them
TABLE_NEWFORMS = {
    "tau_4_7": "4.7.1", "tau_4_10": "4.10.1", "tau_2_11": "2.11.1",
    "tau_4_11_1": "4.11.1", "tau_4_13_1": "4.13.1", "tau_4_13_2": "4.13.2",
    "tau_4_14_1": "4.14.1", "tau_4_14_2": "4.14.2", "tau_2_14": "2.14.1",
    "tau_6_10_1": "6.10.1", "tau_6_10_2": "6.10.2", "tau_6_10_3": "6.10.3",
    "tau_6_5": "6.5.1", "tau_8_5_1": "8.5.1", "tau_8_5_2": "8.5.2",
}

# spaces where both newform routes run and must agree
ROUTE_SPACES = ((4, 14), (6, 10), (8, 5), (4, 11))

# Coefficients are ints, Fractions, or ("q", a, b, p, q) for a + b*t in the
# field Q(t) with t^2 = p*t + q.

# E2(z) E2(Nz) in the named weight-4 basis of level N
H_TUPLES = {
    2: (F(1, 5), F(4, 5), 3, 6),
    3: (F(1, 10), F(9, 10), 4, 4),
    4: (F(1, 20), F(3, 20), F(4, 5), 0, F(9, 2), 3),
    5: (F(1, 26), F(25, 26), F(-288, 65), F(24, 5), F(12, 5)),
    6: (F(1, 50), F(2, 25), F(9, 50), F(18, 25), F(-24, 5), 0, 2, 3, 2),
    7: (F(1, 50), F(49, 50), F(-288, 35), F(36, 7), F(12, 7)),
    8: (F(1, 80), F(3, 80), F(3, 20), F(4, 5), -9, 0, F(21, 4), 0, F(3, 2)),
    9: (F(1, 90), 0, F(4, 45), F(9, 10), F(-32, 3), 0, 0, F(16, 3), F(4, 3)),
    10: (F(1, 130), F(2, 65), F(5, 26), F(10, 13), F(-24, 5), F(-432, 65),
         F(-1728, 65), F(27, 5), 0, 0, F(6, 5)),
    11: (F(1, 122), F(121, 122), ("q", F(-4128, 671), F(-192, 671), 2, 2),
         ("q", F(-4512, 671), F(192, 671), 2, 2), F(60, 11), 0, F(12, 11)),
    13: (F(1, 170), F(169, 170), 0, ("q", F(-1728, 221), F(288, 221), 1, 4),
         ("q", F(-1440, 221), F(-288, 221), 1, 4), F(72, 13), F(12, 13)),
    14: (F(1, 250), F(2, 125), F(49, 250), F(98, 125), F(-864, 175),
         F(-3456, 175), F(-48, 7), F(-72, 25), 0, F(39, 7), 0, 0, F(6, 7)),
}

E2_SQUARED = (1, 12)

# (first factor, second factor, weight, level, coefficients); factors are
# (k, N) for E_k(Nz), decomposed with depth cap 1
PRODUCTS = (
    ((2, 1), (4, 1), 6, 1, (1, 3)),
    ((2, 1), (4, 2), 6, 2, (F(1, 21), F(20, 21), 0, 3)),
    ((4, 1), (2, 2), 6, 2, (F(5, 21), F(16, 21), F(3, 2), 0)),
    ((2, 1), (6, 1), 8, 1, (1, 2)),
    ((2, 2), (6, 1), 8, 2, (F(21, 85), F(64, 85), F(-2016, 17), 1, 0)),
    ((2, 1), (6, 2), 8, 2, (F(1, 85), F(84, 85), F(-504, 17), 0, 2)),
)

# (E2 - 1) (D E2)^2 in weights 8, 10 and (E2 - 1)^3 (D E2)^2 in 8..14
MIXED_T1 = (0, 0, F(-1, 5), -2, 0, 0, F(2, 21), F(4, 5), 6)
MIXED_T2 = ((0, 0, F(-1, 5), -2)
            + (0, 0, F(2, 7), F(12, 5), 18)
            + (0, F(-8, 35), 0, F(-1, 6), F(-9, 7), F(-234, 35), F(-216, 5))
            + (0, 0, F(8, 35), F(2, 55), F(4, 15), F(25, 21), F(171, 35), F(144, 5)))

# newform index -> coefficients in the catalog cusp pool of (weight, level)
CUSP_SOLVES = {
    (4, 14): {0: (F(-9, 4), -9, 6, F(13, 4)), 1: (1, 4, -5, 0)},
    (6, 10): {0: (-1, 16, 1, 0, F(1, 4)),
              1: (F(-4, 3), 8, F(7, 8), F(-7, 24), 0),
              2: (F(-1, 3), -16, 0, F(1, 3), F(-1, 4))},
    (8, 5): {0: (F(16, 3), F(22, 3), F(-1, 3)),
             1: (("q", 12, -1, 20, -24), 1, 0),
             2: (("q", -8, 1, 20, -24), 1, 0)},
}


# -- the expand pool ----------------------------------------------------------

# expressions that are identically zero at every precision
ZERO_EXPRS = (
    "E(4)^2 - E(8)",
    "E(4)*E(6) - E(10)",
    "E(2)^2 - E(4) - 12*D(E(2))",
    "eta(1^24) - delta",
    "E(4)^3 - E(6)^2 - 1728*delta",
    "root(eta(1^16*7^8) + 13*eta(1^12*7^12) + 49*eta(1^8*7^16),3) - delta_4_7",
    "rescale(delta_4_5,2) - f_4_5_2",
)

# root() of q^3 (1 + ...) keeps exponents 1..P-2 of a request at precision P
PREC_LOSS = {ZERO_EXPRS[5]: 2}

# non-zero expressions, checked against divisor-sum formulas below
NONZERO_EXPRS = (
    "E(2)*E(2,3)",
    "rc1(E(4),phi(1,5))",
    "twist(phi(1,3),chi3)",
    "chareis(2,one,chi13,1)*chareis(2,chi13,one,1)",
)

# precisions requests draw from; the CLI clamps anything below 64
PREC_LADDER = (64, 80, 96, 128, 160, 192, 256, 320, 384, 512, 1024)


def _sigma_table(j, n_max):
    t = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dj = d ** j
        for m in range(d, n_max + 1, d):
            t[m] += dj
    return t


def _legendre(p):
    """chi(n) = (n/p) for an odd prime p, as a list over residues."""
    return [0] + [1 if pow(c, (p - 1) // 2, p) == 1 else -1 for c in range(1, p)]


def _convolve(f, g, n_max):
    out = [0] * (n_max + 1)
    for i, a in enumerate(f):
        if a:
            for j in range(n_max - i + 1):
                if g[j]:
                    out[i + j] += a * g[j]
    return out


def _eis(k, scale, n_max, step=1):
    """1 + scale * sum sigma_{k-1}(m) q^(step m)."""
    sig = _sigma_table(k - 1, n_max // step)
    out = [0] * (n_max + 1)
    out[0] = 1
    for m in range(1, n_max // step + 1):
        out[step * m] = scale * sig[m]
    return out


def _e2_e2_3(n_max):
    return _convolve(_eis(2, -24, n_max), _eis(2, -24, n_max, 3), n_max)


def _rc1_e4_phi15(n_max):
    # rc1(f, g) = 4 f Dg - 2 Df g with f = E4 and g = phi(1,5) = (5 E2(5z) - E2(z)) / 4
    e4 = _eis(4, 240, n_max)
    s1 = _sigma_table(1, n_max)
    g = [1] + [6 * (s1[n] - (5 * s1[n // 5] if n % 5 == 0 else 0)) for n in range(1, n_max + 1)]
    out = [0] * (n_max + 1)
    for i, a in enumerate(e4):
        if a:
            for j in range(n_max - i + 1):
                if g[j]:
                    out[i + j] += a * g[j] * (4 * j - 2 * i)
    return out


def _twist_phi13(n_max):
    # phi(1,3) = (3 E2(3z) - E2(z)) / 2 = 1 + sum (12 sigma1(n) - 36 sigma1(n/3)) q^n
    s1 = _sigma_table(1, n_max)
    chi = _legendre(3)
    out = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        c = 12 * s1[n] - (36 * s1[n // 3] if n % 3 == 0 else 0)
        out[n] = c * chi[n % 3]
    return out


def _chareis13_product(n_max):
    # E_2^{1,chi}: 1 - 4/B_{2,chi} sum_{d|n} chi(d) d, and
    # E_2^{chi,1}: -24 sum_{d|n} chi(n/d) d, with chi = (./13), both at t = 1
    chi = _legendre(13)
    b2chi = F(sum(chi[a] * a * a for a in range(1, 13)), 13)
    s1 = -4 / b2chi
    a = [1] + [0] * n_max
    b = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for n in range(d, n_max + 1, d):
            a[n] += s1 * chi[d % 13] * d
            b[n] += -24 * chi[(n // d) % 13] * d
    return _convolve(a, b, n_max)


NONZERO_FORMULAS = {
    "E(2)*E(2,3)": _e2_e2_3,
    "rc1(E(4),phi(1,5))": _rc1_e4_phi15,
    "twist(phi(1,3),chi3)": _twist_phi13,
    "chareis(2,one,chi13,1)*chareis(2,chi13,one,1)": _chareis13_product,
}


def expected_strings(expr, n_max):
    """Expected coefficient strings 0..n_max, formatted as the CLI prints them."""
    if expr in ZERO_EXPRS:
        return ["0"] * (n_max + 1)
    return [_fmt(c) for c in NONZERO_FORMULAS[expr](n_max)]


def _fmt(c):
    c = F(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
