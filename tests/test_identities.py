from dataclasses import replace
from fractions import Fraction

import pytest

from qmforms import identities as idn
from qmforms import oracle
from qmforms.characters import quadratic_character
from qmforms.exactnum import FieldElement, IntegrityError, QuadExt, conj, trace


def F(*args):
    return Fraction(*args)


def test_catalog_inventory():
    cat = idn.catalog()
    assert len(cat) == 27
    ids = [spec.ident for spec in cat]
    for want in ("w1", "w10", "w11", "w13", "w14", "smod3.0", "smod3.sum",
                 "s1.s5_2", "lahiri.011", "lahiri.00011", "bsum.2a5b", "absum.a5b"):
        assert want in ids


def test_catalog_spot_scalars():
    w5 = idn.get_identity("w5")
    tau_terms = [t for t in w5.rhs if t.kind == "tau"]
    assert tau_terms[0].coeff == F(-1, 130) and tau_terms[0].label == "tau_4_5"

    ab = idn.get_identity("absum.a5b")
    v = QuadExt(20, -24).gen()
    dterms = [t for t in ab.rhs if t.kind == "tau" and t.label.startswith("tau_8_5")]
    assert dterms[0].coeff == (792 + 12 * v) * F(1, 475)
    assert dterms[1].coeff == (1032 - 12 * v) * F(1, 475)
    assert dterms[1].coeff == conj(dterms[0].coeff)

    s13 = idn.get_identity("s1.s3")
    assert [t.coeff for t in s13.rhs] == [F(7, 80), F(-1, 8), F(1, 24), F(-1, 240)]
    assert idn.get_identity("lahiri.00011").lhs_scalar == -(24**5)


def test_trace_paired_terms_are_conjugate():
    for ident in ("w11", "w13", "absum.a5b"):
        spec = idn.get_identity(ident)
        qterms = [t for t in spec.rhs if isinstance(t.coeff, FieldElement)]
        assert len(qterms) == 2
        assert conj(qterms[0].coeff) == qterms[1].coeff


def test_evaluate_rhs_values(reg):
    w1 = idn.get_identity("w1")
    assert idn.evaluate_rhs(w1, 3, reg.tau) == 6
    w5 = idn.get_identity("w5")
    assert idn.evaluate_rhs(w5, 1, reg.tau) == 0
    assert F(5, 312) - F(1, 20) + F(1, 24) - F(1, 130) == 0


def test_rhs_tau_part_is_a_trace(reg):
    spec = idn.get_identity("w11")
    t1, t2 = [t for t in spec.rhs if t.kind == "tau"]
    for n in (1, 2, 7, 12):
        a = t1.coeff * reg.tau("tau_4_11_1").coefficient(n)
        total = a + t2.coeff * reg.tau("tau_4_11_2").coefficient(n)
        assert total == trace(a)


def test_verify_short_sweeps(reg):
    for ident in ("w7", "smod3.0", "s1.s5", "lahiri.011", "bsum.2a5b"):
        rep = idn.verify(idn.get_identity(ident), 48, reg.tau)
        assert rep.ok and rep.passed == 48


def test_verify_reports_failures(reg):
    # a deliberately corrupted catalog record must be reported, not patched
    spec = idn.get_identity("w1")
    broken = idn.IdentitySpec(
        ident="w1.broken",
        lhs_kind=spec.lhs_kind,
        lhs_params=spec.lhs_params,
        lhs_scalar=spec.lhs_scalar,
        rhs=spec.rhs[:-1],
        nmax=spec.nmax,
    )
    rep = idn.verify(broken, 20, reg.tau)
    assert not rep.ok
    assert rep.failures[0][0] == 1
    rec = rep.to_record()
    assert rec["failures"][0]["n"] == 1


def test_smod_consistency_sum(reg):
    s0 = idn.get_identity("smod3.0")
    s1 = idn.get_identity("smod3.1")
    s2 = idn.get_identity("smod3.2")
    w1 = idn.get_identity("w1")
    for n in range(1, 121):
        total = (idn.evaluate_rhs(s0, n, reg.tau) + idn.evaluate_rhs(s1, n, reg.tau)
                 + idn.evaluate_rhs(s2, n, reg.tau))
        assert total == idn.evaluate_rhs(w1, n, reg.tau)


def test_lhs_sweep_matches_oracle():
    spec = idn.get_identity("bsum.2a5b")
    sweep = idn.lhs_sweep(spec, 30)
    for n in (7, 12, 30):
        assert sweep[n] == oracle.lahiri((0, 1), (1, 1), (2, 5), n)


def test_nonrational_sweep_is_an_integrity_error(reg):
    v = QuadExt(20, -24).gen()
    bad = idn.RHSTerm(coeff=v * F(1, 3), kind="tau", label="tau_8_5_2", d=2)
    spec = idn.IdentitySpec("bad", "W", (1,), F(1), (bad,), 10)
    assert idn.evaluate_rhs(spec, 3, reg.tau) == 0  # the term vanishes off even n
    with pytest.raises(IntegrityError, match="rational at n=2"):
        idn.verify(spec, 10, reg.tau)
    sweep = idn.rhs_sweep(spec, 10, reg.tau)
    assert sweep.coeffs[1::2] == (0,) * 5 and sweep.coeffs[2] == v * F(1, 3)


def test_nonrational_total_rejected(reg):
    v = QuadExt(20, -24).gen()
    bad = idn.RHSTerm(coeff=v * F(1, 3), kind="tau", label="tau_8_5_2", d=1)
    spec = idn.IdentitySpec("bad", "W", (1,), F(1), (bad,), 10)
    with pytest.raises(ValueError, match="rational"):
        idn.evaluate_rhs(spec, 3, reg.tau)


# -- the per-n evaluator that the sweep replaced, kept as a test reference ----


def reference_rhs(spec, n, tau):
    """The closed form at one n as a sum of Fraction / FieldElement terms."""
    def sig(j, m):
        return oracle.sigma_table(j, n)[m] if m >= 1 else 0

    total = 0
    for term in spec.rhs:
        if term.kind == "delta_sigma":
            b, a = term.delta
            if (n - a) % b == 0:
                total = total + term.coeff * sig(1, n)
            continue
        scale = n**term.npow if term.npow else 1
        if term.kind == "tau":
            if n % term.d == 0:
                val = tau(term.label).coefficient(n // term.d)
                if val:
                    total = total + term.coeff * scale * val
            continue
        if n % term.t:
            continue
        base = sig(term.j, n // term.t)
        if term.kind == "chi_sigma":
            base *= quadratic_character(term.chi)(n)
        if base:
            total = total + term.coeff * scale * base
    if isinstance(total, FieldElement):
        if total.b != 0:
            raise ValueError(f"{spec.ident}: closed form does not reduce to a rational at n={n}")
        total = total.a
    return Fraction(total)


def reference_verify(spec, n_max, tau):
    lhs = idn.lhs_sweep(spec, n_max)
    failures, passed = [], 0
    for n in range(1, n_max + 1):
        left, right = spec.lhs_scalar * lhs[n], reference_rhs(spec, n, tau)
        if left == right:
            passed += 1
        else:
            failures.append((n, left, right))
    return idn.Report(spec.ident, n_max, passed, tuple(failures))


def corrupted(spec):
    first = replace(spec.rhs[0], coeff=spec.rhs[0].coeff + F(1, 1000))
    return (replace(spec, ident=spec.ident + ".drop_last", rhs=spec.rhs[:-1]),
            replace(spec, ident=spec.ident + ".bump_first", rhs=(first,) + spec.rhs[1:]))


def outcome(fn, *args):
    """The value of fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("raised", str(exc))


@pytest.mark.parametrize("spec", idn.catalog(), ids=lambda spec: spec.ident)
def test_evaluate_rhs_matches_per_n_reference(spec, reg):
    for n in range(1, 61):
        got = idn.evaluate_rhs(spec, n, reg.tau)
        assert type(got) is Fraction and got == reference_rhs(spec, n, reg.tau)


def test_verify_matches_per_n_reference_on_corrupted_variants(reg):
    raised = 0
    for spec in idn.catalog():
        for variant in corrupted(spec):
            for n_max in (0, 1, 37, 60):
                want = outcome(reference_verify, variant, n_max, reg.tau)
                assert outcome(idn.verify, variant, n_max, reg.tau) == want
                raised += isinstance(want, tuple)
    assert raised == 3 * 3  # w11, w13 and absum.a5b lose a conjugate term (n_max 1, 37, 60)


def test_tau_terms_beyond_the_stored_precision(reg):
    # reg stores q^0..q^128: tau at m = 129 = 3*43 and 130 = 2*5*13 is extended multiplicatively
    specs = [spec for spec in idn.catalog() if any(t.kind == "tau" and t.d == 1 for t in spec.rhs)]
    assert len(specs) > 1 and reg.prec == 128
    for spec in specs:
        sweep = idn.rhs_sweep(spec, 130, reg.tau)
        assert [F(x, sweep.den) for x in sweep.num[120:]] == [reference_rhs(spec, n, reg.tau) for n in range(120, 131)]


def test_verify_below_the_bound_matches_reference(reg):
    for spec in idn.catalog():
        assert idn.verify(spec, 37, reg.tau) == reference_verify(spec, 37, reg.tau)
