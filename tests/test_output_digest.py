"""One sha256 over the engine's exact outputs, so that no change of
representation or speed-up can alter an answer unnoticed.

The digest covers the record of every catalog form at precisions 128 and
512, every newform record of the 512 registry, the pivots and series of
every space basis at 512, and every generator pool at 512 (a pool that is
not a basis contributes its error).  If an output changes on purpose,
recompute the digest with `output_digest` and say why in CHANGES.md.
"""

import hashlib
import json

from qmforms import forms

DIGEST = "b4b3defcbf805a2e302b57657374a93daac97e0a8c344823f1a62ae42780ede6"


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
                pool = forms.generator_pool(k, n, cuspidal, 512, reg512)
            except ValueError as exc:
                items.append(["pool", k, n, cuspidal, type(exc).__name__, str(exc)])
                continue
            items.append(["pool", k, n, cuspidal, [s.to_record(str(e)) for e, s in pool]])
    return items


def output_digest(reg512) -> str:
    text = json.dumps(output_items(reg512), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_outputs_are_unchanged(reg512):
    assert output_digest(reg512) == DIGEST
