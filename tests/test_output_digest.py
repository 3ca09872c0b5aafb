"""One sha256 over the engine's exact outputs, so that no change of
representation or speed-up can alter an answer unnoticed.

The digest covers the record of every catalog form at precisions 128 and
512, every newform record of the 512 registry, the pivots and series of
every space basis at 512, and every generator pool at 512 (a pool that is
not a basis contributes its error).  A second digest covers the verifier:
the report of every catalog identity at its bound, and of two corrupted
variants of each at n_max 60 (last term dropped; first coefficient raised
by 1/1000), where a variant that the verifier rejects contributes its error
message.  If an output changes on purpose, recompute the digest with
`output_digest` or `verify_digest` and say why in CHANGES.md.
"""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction

from qmforms import forms, identities

DIGEST = "b4b3defcbf805a2e302b57657374a93daac97e0a8c344823f1a62ae42780ede6"
VERIFY_DIGEST = "32b9288e424e7b32bdf869d3abbb0d5045eae24eeec892a5b202e2debc3e7738"


def output_items(reg512):
    items = []
    for prec in (128, 512):
        for label in forms.catalog_labels():
            expr, series = forms.named_form(label, prec)
            items.append(["form", label, prec, series.to_record(str(expr))])
    for label in reg512.labels():
        items.append(["newform", label, reg512.newform(label).to_record()])
    for (k, n) in sorted(forms.DIMENSIONS):
        for cuspidal in (False, True):
            basis = forms.space_basis(k, n, cuspidal, 512)
            items.append(["basis", k, n, cuspidal, list(basis.pivots),
                          [s.to_record() for s in basis.series()]])
            try:
                pool = forms.generator_pool(k, n, cuspidal, 512)
            except ValueError as exc:
                items.append(["pool", k, n, cuspidal, type(exc).__name__, str(exc)])
                continue
            items.append(["pool", k, n, cuspidal, [s.to_record(str(e)) for e, s in pool]])
    return items


def _sha256(items) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def output_digest(reg512) -> str:
    return _sha256(output_items(reg512))


def corrupted_variants(spec):
    """The spec with its last term dropped, and with its first coefficient + 1/1000."""
    first = replace(spec.rhs[0], coeff=spec.rhs[0].coeff + Fraction(1, 1000))
    return (replace(spec, ident=spec.ident + ".drop_last", rhs=spec.rhs[:-1]),
            replace(spec, ident=spec.ident + ".bump_first", rhs=(first,) + spec.rhs[1:]))


def verify_items(tau):
    items = []
    for spec in identities.catalog():
        items.append(identities.verify(spec, None, tau).to_record())
        for variant in corrupted_variants(spec):
            try:
                items.append(identities.verify(variant, 60, tau).to_record())
            except ValueError as exc:
                items.append([variant.ident, "error", str(exc)])
    return items


def verify_digest(tau) -> str:
    return _sha256(verify_items(tau))


def test_outputs_are_unchanged(reg512):
    assert output_digest(reg512) == DIGEST


def test_verify_reports_are_unchanged(reg512):
    assert verify_digest(reg512.tau) == VERIFY_DIGEST
