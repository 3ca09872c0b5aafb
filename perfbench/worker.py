"""One benchmark process: imports the engine, sets up, runs one phase.

run.py starts this script once per process it needs and reads the JSON
object it prints last.  Every operation checks its answer against the pinned
data in golden.py; a mismatch or an exception is recorded as a failed
operation and never ends the run.

    python3 perfbench/worker.py --workload verify --mode run --seed 1 --seconds 10
"""

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import golden
from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PREC = 512
MIN_SAMPLES = 100       # operations a timed run completes at least
MODULES = ("qseries", "forms", "heckeeigen", "linalg", "linearize", "identities", "oracle",
           "cli")


def import_engine():
    """The engine under src/ of this checkout, never an installed copy."""
    pkg = SRC / "qmforms"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no engine source at {pkg}")
    sys.path.insert(0, str(SRC))
    import importlib

    mods = {m: importlib.import_module(f"qmforms.{m}") for m in MODULES}
    if Path(mods["forms"].__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"imported qmforms from {mods['forms'].__file__}, not {pkg}")
    return SimpleNamespace(**mods)


def same(got, want):
    """Exact equality with a pinned value; ("q", a, b, p, q) is a + b*t."""
    ext = getattr(got, "ext", None)
    if isinstance(want, tuple):
        _, a, b, p, q = want
        return ext is not None and (got.a, got.b, ext.p, ext.q) == (a, b, p, q)
    if ext is not None:
        return got.b == 0 and got.a == want
    return got == want


def check_coeffs(got, want, what):
    got = tuple(got)
    if len(got) != len(want) or not all(same(g, w) for g, w in zip(got, want)):
        raise AssertionError(f"{what}: got {got}, want {want}")


def parse_tables():
    """tables.txt as name -> {n: value}, read without the engine."""
    out = {}
    for line in (SRC / "qmforms" / "data" / "tables.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, n, v = line.split(None, 2)
        if "@" in v:
            ab, pq = v.split("*t@")
            a, b = ab.rsplit("+", 1) if "+" in ab[1:] else (ab, "0")
            p, q = pq.strip("()").split(",")
            v = ("q", Fraction(a), Fraction(b), Fraction(p), Fraction(q))
        else:
            v = Fraction(v)
        out.setdefault(name, {})[int(n)] = v
    return out


class Workload:
    """Setup and operations of one workload in this process."""

    def __init__(self, eng, name, seed):
        self.eng = eng
        self.name = name
        self.rng = random.Random(seed)
        self.reg = None
        self.expected = {}

    # -- the registry -----------------------------------------------------

    def build_registry(self):
        """Registry(512) with every newform label and catalog form built."""
        eng = self.eng
        reg = eng.heckeeigen.registry(PREC)
        labels = reg.labels()
        self.rng.shuffle(labels)
        for label in labels:
            reg.newform(label)
        forms = eng.forms.catalog_labels()
        self.rng.shuffle(forms)
        for label in forms:
            eng.forms.named_form(label, PREC)
        self.reg = reg
        return reg

    def check_registry(self):
        eng, reg = self.eng, self.reg
        tables = parse_tables()
        total = 0
        for name, entries in tables.items():
            nf = reg.newform(golden.TABLE_NEWFORMS[name])
            for n, want in entries.items():
                if not same(nf.series.coeff(n), want):
                    raise AssertionError(f"{name}[{n}]: got {nf.series.coeff(n)}, want {want}")
                total += 1
        if total != golden.TABLE_ENTRIES:
            raise AssertionError(f"{total} table entries, want {golden.TABLE_ENTRIES}")
        spaces = list(golden.ROUTE_SPACES)
        self.rng.shuffle(spaces)
        for k, lvl in spaces:
            space = eng.forms.space_basis(k, lvl, True, PREC)
            solved = eng.heckeeigen.multiplicativity_solve(space)
            extracted = reg.space_newforms(k, lvl)
            if [f.series.coeff_list(200) for f in solved] != \
                    [f.series.coeff_list(200) for f in extracted]:
                raise AssertionError(f"newform routes disagree on S_{k}({lvl})")
        for (k, lvl), wants in golden.CUSP_SOLVES.items():
            pool = eng.forms.generator_pool(k, lvl, True, PREC)
            basis = eng.linearize.QMBasis(tuple(pool), tuple(k for _ in pool), lvl)
            nfs = reg.space_newforms(k, lvl)
            for i, want in wants.items():
                dec = eng.linearize.decompose(nfs[i].series, basis)
                check_coeffs(dec.coefficients, want, f"newform {i} of S_{k}({lvl})")

    # -- operations: (label, function returning None or raising) ------------

    def passes(self):
        """Operations in passes; each pass is a fresh seeded order."""
        make = {"verify": self._verify_ops, "linearize": self._linearize_ops,
                "expand": self._expand_ops}[self.name]
        while True:
            ops = make()
            self.rng.shuffle(ops)
            yield ops

    def _verify_ops(self):
        idn = self.eng.identities

        def op(ident, bound):
            rep = idn.verify(idn.get_identity(ident), None, self.reg.tau)
            if not rep.ok or rep.passed != bound or rep.n_max != bound:
                raise AssertionError(f"{ident}: {rep.passed}/{rep.n_max} passed, "
                                     f"first failures {rep.failures[:2]}")
            return rep.passed

        return [(ident, lambda i=ident, b=bound: op(i, b))
                for ident, bound in golden.IDENTITY_BOUNDS.items()]

    def _linearize_ops(self):
        eng, reg = self.eng, self.reg
        lin, forms = eng.linearize, eng.forms

        def dec(target_fn, basis_fn, want, what):
            d = lin.decompose(target_fn(), basis_fn())
            check_coeffs(d.coefficients, want, what)
            return 1

        def e2_squared():
            e2 = forms.eisenstein(2, 1, PREC)
            return e2 * e2

        def product(f, g):
            return forms.eisenstein(*f, PREC) * forms.eisenstein(*g, PREC)

        def mixed(power):
            e2 = forms.eisenstein(2, 1, PREC)
            de2 = e2.derive()
            return (e2 - 1).power(power) * de2 * de2

        def cusp_basis(k, lvl):
            pool = forms.generator_pool(k, lvl, True, PREC)
            return lin.QMBasis(tuple(pool), tuple(k for _ in pool), lvl)

        ops = [("E2^2", lambda: dec(e2_squared, lambda: lin.named_qm_basis(4, 1, 2, PREC, reg),
                                     golden.E2_SQUARED, "E2^2"))]
        for lvl, want in golden.H_TUPLES.items():
            ops.append((f"H_{lvl}", lambda n=lvl, w=want: dec(
                lambda: lin.build_H(n, PREC), lambda: lin.named_qm_basis(4, n, 2, PREC, reg),
                w, f"H_{n}")))
        for f, g, k, lvl, want in golden.PRODUCTS:
            ops.append((f"E{f}*E{g}", lambda f=f, g=g, k=k, n=lvl, w=want: dec(
                lambda: product(f, g), lambda: lin.named_qm_basis(k, n, 1, PREC, reg),
                w, f"E{f}*E{g}")))
        for power, weights, want in ((1, [8, 10], golden.MIXED_T1),
                                     (3, [8, 10, 12, 14], golden.MIXED_T2)):
            ops.append((f"mixed{power}", lambda p=power, ws=weights, w=want: dec(
                lambda: mixed(p), lambda: lin.mixed_qm_basis(ws, 1, PREC, reg),
                w, f"mixed target {p}")))
        for (k, lvl), wants in golden.CUSP_SOLVES.items():
            for i, want in wants.items():
                ops.append((f"S_{k}({lvl}).{i}", lambda k=k, n=lvl, i=i, w=want: dec(
                    lambda: reg.space_newforms(k, n)[i].series, lambda: cusp_basis(k, n),
                    w, f"newform {i} of S_{k}({n})")))
        return ops

    def _expand_ops(self):
        """One request for every (expression, precision) pair."""
        exprs = golden.ZERO_EXPRS + golden.NONZERO_EXPRS
        return [(f"{e} @{p}", lambda e=e, p=p: self._expand(e, p))
                for e in exprs for p in golden.PREC_LADDER]

    def _expand(self, expr, prec):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.eng.cli.main(["expand", expr, "--prec", str(prec), "--format", "jsonl"])
        return rc, buf.getvalue()

    def check_expand(self, label, result):
        expr, prec = label.rsplit(" @", 1)
        prec = int(prec)
        rc, text = result
        if rc != 0:
            raise AssertionError(f"{label}: exit code {rc}")
        rec = json.loads(text)
        want_prec = prec - golden.PREC_LOSS.get(expr, 0)
        if rec["prec"] != want_prec or rec["field"] != "Q":
            raise AssertionError(f"{label}: prec {rec['prec']} field {rec['field']}")
        if expr not in self.expected:
            self.expected[expr] = golden.expected_strings(expr, max(golden.PREC_LADDER))
        if rec["coeffs"] != self.expected[expr][: want_prec + 1]:
            raise AssertionError(f"{label}: coefficients differ from the pinned values")


class Phase:
    """Timed operations with their latencies, failures and check counts."""

    def __init__(self, name):
        self.name = name
        self.probe = None       # a SpeedProbe while the phase is measured
        self.spans = []         # (label, start, end) of each timed operation
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.errors = []

    def run(self, label, fn, check=None, tracer=None):
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
        if self.probe is not None:
            self.probe.sample()
        t0 = time.perf_counter()
        try:
            out = tracer.span(f"op.{self.name}", fn) if tracer else fn()
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return
        self.spans.append((label, t0, time.perf_counter()))
        try:
            if check is not None:
                check(label, out)
            self.work += out if isinstance(out, int) else 1
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))

    def times(self, probe=None):
        """(label, seconds) of each operation: reference seconds with a probe, else wall."""
        return [(label, probe.reference_s(a, b) if probe else b - a)
                for label, a, b in self.spans]

    def result(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "work": self.work, "errors": self.errors[:5]}


def timed_phase(args, wl, phase, tracer):
    """The operations after set-up: one build, one pass, or a timed stream."""
    if wl.name == "registry":
        # one cold build per process: the engine's caches make a second free
        def build():
            wl.build_registry()
            wl.check_registry()

        phase.run(f"build {args.seed}", build, tracer=tracer)
        return
    check = wl.check_expand if wl.name == "expand" else None
    # whole passes, so every run times the same mix of operations, until the
    # run has measured `seconds` of reference time (wall time without a probe)
    for ops in wl.passes():
        for label, fn in ops:
            phase.run(label, fn, check, tracer)
        if args.mode == "fixed":
            break
        done = [t for _, t in phase.times(phase.probe)]
        if sum(done) >= args.seconds and len(done) >= MIN_SAMPLES:
            break


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=["registry", "verify", "linearize", "expand"])
    ap.add_argument("--mode", required=True, choices=["setup", "run", "fixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, default=None,
                    help="time.perf_counter() at which the parent started this process")
    args = ap.parse_args(argv)
    spawned = args.spawned if args.spawned is not None else time.perf_counter()

    phase = Phase(args.workload)
    tracer = None
    # the fixed work of a traced run is timed in wall seconds, without the probe
    with SpeedProbe() if args.mode != "fixed" else contextlib.nullcontext() as probe:
        eng = import_engine()
        wl = Workload(eng, args.workload, args.seed)
        if wl.name != "registry":
            wl.build_registry()
        ready = time.perf_counter()
        if args.mode != "setup":
            if args.trace:
                from spans import Tracer

                tracer = Tracer(eng)
                tracer.install()
            phase.probe = probe
            timed_phase(args, wl, phase, tracer)
            if tracer:
                tracer.uninstall()
    out = {"setup_s": probe.reference_s(spawned, ready) if probe else ready - spawned,
           "wall_setup_s": ready - spawned}
    if args.mode != "setup":
        out["timed_s"] = sum(t for _, t in phase.times())
        out["ops"] = phase.times(probe)
    if probe is not None:
        out["kernel_median_s"] = probe.kernel_median_s()
    out.update(phase.result())
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        out["layers"] = tracer.metrics()
        out["top_self"] = tracer.top_self()
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        out["spans"] = str(path.relative_to(ROOT))
        out["span_count"] = len(tracer.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
