"""Spans around the engine's public functions, recorded from outside it.

Each wrapper is installed where callers look the name up, so every call
from inside the engine passes through it.  Spans stay in memory as
(id, name, start, end, parent id, operation id) and are written out when
the run ends.  A layer's self time is a span's duration minus the time its
child spans cover.
"""

import json
import time
from fractions import Fraction

# (module attribute, span name): the layers' public functions
FUNCTIONS = (
    ("forms.eta_quotient", "qseries.eta_quotient"),
    ("qseries.eta_quotient", "qseries.eta_quotient"),
    ("qseries.QSeries.root", "qseries.root"),
    ("qseries.QSeries.inverse", "qseries.inverse"),
    ("qseries.QSeries.hecke", "qseries.hecke"),
    ("forms.named_form", "forms.named_form"),
    ("forms.space_basis", "forms.space_basis"),
    ("forms.eisenstein", "forms.eisenstein"),
    ("forms.parse_expr", "forms.parse_expr"),
    ("forms.evaluate", "forms.evaluate"),
    ("forms.sigma_twisted", "characters.sigma_twisted"),
    ("forms.twist", "characters.twist"),
    ("heckeeigen.hecke_matrix", "heckeeigen.hecke_matrix"),
    ("heckeeigen.extract_newforms", "heckeeigen.extract_newforms"),
    ("heckeeigen.multiplicativity_solve", "heckeeigen.multiplicativity_solve"),
    ("heckeeigen.factor_small", "exactnum.factor_small"),
    ("heckeeigen.Newform.coefficient", "heckeeigen.Newform.coefficient"),
    ("linalg.charpoly", "linalg.charpoly"),
    ("linalg.nullspace", "linalg.nullspace"),
    ("linalg.rref", "linalg.rref"),
    ("linalg.solve", "linalg.solve"),
    ("linearize.decompose", "linearize.decompose"),
    ("linearize.named_qm_basis", "linearize.named_qm_basis"),
    ("linearize.build_H", "linearize.build_H"),
    ("identities.evaluate_rhs", "identities.evaluate_rhs"),
    ("identities.lhs_sweep", "identities.lhs_sweep"),
    ("oracle.w_range", "oracle.w_range"),
    ("oracle.smod_range", "oracle.smod_range"),
    ("oracle.lahiri_range", "oracle.lahiri_range"),
    ("cli.main", "cli.main"),
)

# lru caches whose hit and miss counts are reported: (module attribute, name)
CACHES = (
    ("forms.named_form", "forms.named_form"),
    ("forms.space_basis", "forms.space_basis"),
    ("oracle.sigma_table", "oracle.sigma_table"),
    ("heckeeigen.registry", "heckeeigen.registry"),
)

# per-layer metrics: (name, unit, how it is read from the span statistics)
METRICS = (
    ("qseries.mul.calls", "count", ("calls", "qseries.mul")),
    ("qseries.mul.self_s", "s", ("self", "qseries.mul")),
    ("qseries.mul.terms", "count", ("counter", "qseries.mul.terms")),
    ("qseries.mul.max_bits", "bits", ("counter", "qseries.mul.max_bits")),
    ("qseries.eta_quotient.s", "s", ("total", "qseries.eta_quotient")),
    ("qseries.root.s", "s", ("total", "qseries.root")),
    ("qseries.inverse.s", "s", ("total", "qseries.inverse")),
    ("qseries.hecke.s", "s", ("total", "qseries.hecke")),
    ("forms.named_form.self_s", "s", ("self", "forms.named_form")),
    ("forms.named_form.hits", "count", ("counter", "forms.named_form.hits")),
    ("forms.named_form.misses", "count", ("counter", "forms.named_form.misses")),
    ("forms.space_basis.self_s", "s", ("self", "forms.space_basis")),
    ("forms.space_basis.hits", "count", ("counter", "forms.space_basis.hits")),
    ("forms.space_basis.misses", "count", ("counter", "forms.space_basis.misses")),
    ("forms.eisenstein.s", "s", ("total", "forms.eisenstein")),
    ("forms.parse_expr.s", "s", ("total", "forms.parse_expr")),
    ("forms.evaluate.s", "s", ("total", "forms.evaluate")),
    ("characters.sigma_twisted.s", "s", ("total", "characters.sigma_twisted")),
    ("characters.twist.s", "s", ("total", "characters.twist")),
    ("heckeeigen.hecke_matrix.s", "s", ("total", "heckeeigen.hecke_matrix")),
    ("heckeeigen.extract_newforms.self_s", "s", ("self", "heckeeigen.extract_newforms")),
    ("heckeeigen.multiplicativity_solve.s", "s", ("total", "heckeeigen.multiplicativity_solve")),
    ("heckeeigen.registry.hits", "count", ("counter", "heckeeigen.registry.hits")),
    ("heckeeigen.registry.misses", "count", ("counter", "heckeeigen.registry.misses")),
    ("linalg.charpoly.s", "s", ("total", "linalg.charpoly")),
    ("linalg.nullspace.s", "s", ("total", "linalg.nullspace")),
    ("exactnum.factor_small.s", "s", ("total", "exactnum.factor_small")),
    ("linearize.decompose.self_s", "s", ("self", "linearize.decompose")),
    ("linearize.named_qm_basis.s", "s", ("total", "linearize.named_qm_basis")),
    ("linearize.build_H.s", "s", ("total", "linearize.build_H")),
    ("linalg.rref.calls", "count", ("calls", "linalg.rref")),
    ("linalg.rref.s", "s", ("total", "linalg.rref")),
    ("linalg.solve.s", "s", ("total", "linalg.solve")),
    ("identities.evaluate_rhs.calls", "count", ("calls", "identities.evaluate_rhs")),
    ("identities.evaluate_rhs.self_s", "s", ("self", "identities.evaluate_rhs")),
    ("identities.lhs_sweep.s", "s", ("total", "identities.lhs_sweep")),
    ("heckeeigen.Newform.coefficient.calls", "count", ("calls", "heckeeigen.Newform.coefficient")),
    ("oracle.w_range.s", "s", ("total", "oracle.w_range")),
    ("oracle.smod_range.s", "s", ("total", "oracle.smod_range")),
    ("oracle.lahiri_range.s", "s", ("total", "oracle.lahiri_range")),
    ("oracle.sigma_table.hits", "count", ("counter", "oracle.sigma_table.hits")),
    ("oracle.sigma_table.misses", "count", ("counter", "oracle.sigma_table.misses")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
)

# counts that must repeat exactly for a fixed seed
EXACT = tuple(name for name, unit, _ in METRICS if unit in ("count", "bits"))


def _bits(c):
    if isinstance(c, int):
        return c.bit_length()
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return max(_bits(c.a), _bits(c.b))


class Tracer:
    """Records spans and per-name statistics for one traced run."""

    def __init__(self, engine):
        self.engine = engine
        self.spans = []
        self.stack = []  # open spans: [id, name, start, child time]
        self.op = 0
        self.next_id = 0
        self.stats = {}  # name -> [calls, outermost inclusive s, self s]
        self.depth = {}
        self.counters = {"qseries.mul.terms": 0, "qseries.mul.max_bits": 0}
        self.saved = []
        self.caches = {}
        self.cache_start = {}

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        sid = self.next_id
        self.next_id += 1
        self.depth[name] = self.depth.get(name, 0) + 1
        frame = [sid, name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame, end, covered_until=None):
        sid, name, start, child = frame
        self.stack.pop()
        dur = end - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[2] += dur - child
        self.depth[name] -= 1
        if self.depth[name] == 0:
            st[1] += dur
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            # time spent by the tracer itself after `end` counts for no layer
            parent[3] += (covered_until or end) - start
        self.spans.append((sid, name, start, end, parent[0] if parent else None, self.op))

    def span(self, name, fn, *args, **kw):
        frame = self._open(name)
        try:
            return fn(*args, **kw)
        finally:
            self._close(frame, time.perf_counter())

    def wrap(self, name, fn):
        def traced(*args, **kw):
            return self.span(name, fn, *args, **kw)

        return traced

    def wrap_mul(self, fn):
        """QSeries products: series x series apart from scalar multiples."""
        tracer = self
        qseries = self.engine.qseries

        def traced(a, b):
            if not isinstance(b, qseries.QSeries):
                return tracer.span("qseries.scale", fn, a, b)
            frame = tracer._open("qseries.mul")
            out = NotImplemented
            try:
                out = fn(a, b)
                return out
            finally:
                end = time.perf_counter()
                if out is not NotImplemented:
                    p = min(a.prec, b.prec)
                    tracer.counters["qseries.mul.terms"] += (p + 1) * (p + 2) // 2
                    bits = max(_bits(c) for c in out.coeffs)
                    if bits > tracer.counters["qseries.mul.max_bits"]:
                        tracer.counters["qseries.mul.max_bits"] = bits
                tracer._close(frame, end, time.perf_counter())

        return traced

    # -- installation -----------------------------------------------------

    def _resolve(self, path):
        parts = path.split(".")
        owner = getattr(self.engine, parts[0])
        for p in parts[1:-1]:
            owner = getattr(owner, p)
        return owner, parts[-1]

    def _cache_counts(self):
        return {name: (fn.cache_info().hits, fn.cache_info().misses)
                for name, fn in self.caches.items()}

    def install(self):
        self.caches = {name: getattr(*self._resolve(path)) for path, name in CACHES}
        self.cache_start = self._cache_counts()
        cls = self.engine.qseries.QSeries
        for attr in ("__mul__", "__rmul__"):
            orig = getattr(cls, attr)
            self.saved.append((cls, attr, orig))
            setattr(cls, attr, self.wrap_mul(orig))
        for path, name in FUNCTIONS:
            owner, attr = self._resolve(path)
            orig = getattr(owner, attr)
            self.saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved = []
        for name, (h1, m1) in self._cache_counts().items():
            h0, m0 = self.cache_start[name]
            self.counters[f"{name}.hits"] = h1 - h0
            self.counters[f"{name}.misses"] = m1 - m0

    # -- results ----------------------------------------------------------

    def metrics(self):
        out = {}
        for name, unit, (kind, key) in METRICS:
            if kind == "counter":
                value = self.counters.get(key, 0)
            else:
                st = self.stats.get(key, [0, 0.0, 0.0])
                value = {"calls": st[0], "total": st[1], "self": st[2]}[kind]
            out[name] = {"value": value, "unit": unit}
        return out

    def top_self(self, n=5):
        """Span names with the largest self time, largest first."""
        ranked = sorted(((st[2], name) for name, st in self.stats.items()), reverse=True)
        return [(name, s) for s, name in ranked[:n]]

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
