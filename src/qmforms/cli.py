"""Command-line front end: expansions, bases, newforms, linearization,
convolution sums, table checks and full verification runs."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

from . import forms, identities, linearize, oracle
from .exactnum import IntegrityError, format_element
from .heckeeigen import registry
from .qseries import series_str


class UsageError(Exception):
    pass


# the least working precision; expand takes a lower value as its output precision
MIN_PREC = 64
# the argument parser: built by the first main() call, reused by every later one
_parser = None


@dataclass(frozen=True)
class RunConfig:
    precision: int = 256
    n_max: int | None = None
    fmt: str = "human"
    catalog_path: str | None = None

    def __post_init__(self):
        if self.precision < 0:
            raise UsageError(f"precision must be nonnegative, got {self.precision}")
        if self.fmt not in ("human", "jsonl", "csv"):
            raise UsageError(f"unknown output format {self.fmt!r}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from None
    out = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


# config-file key -> (RunConfig field, conversion)
_CONFIG_KEYS = {
    "precision": ("precision", int),
    "nmax": ("n_max", int),
    "format": ("fmt", str),
    "catalog": ("catalog_path", str),
}


def _config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        kw = {}
        for key, val in _load_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            field, conv = _CONFIG_KEYS[key]
            kw[field] = conv(val)
        cfg = replace(cfg, **kw)
    if getattr(args, "prec", None) is not None:
        cfg = replace(cfg, precision=args.prec)
    if cfg.precision < MIN_PREC and args.fn is not _cmd_expand:
        raise UsageError(f"precision must be at least {MIN_PREC} for {args.command}")
    if getattr(args, "nmax", None) is not None:
        cfg = replace(cfg, n_max=args.nmax)
    if getattr(args, "format", None) is not None:
        cfg = replace(cfg, fmt=args.format)
    if getattr(args, "catalog", None) is not None:
        cfg = replace(cfg, catalog_path=args.catalog)
    return cfg


def _emit(records, cfg: RunConfig, human_fn):
    if cfg.fmt == "jsonl":
        for r in records:
            print(json.dumps(r, sort_keys=True))
    elif cfg.fmt == "csv":
        if not records:
            return
        buf = io.StringIO()
        keys = list(records[0])
        w = csv.DictWriter(buf, fieldnames=keys)
        w.writeheader()
        for r in records:
            w.writerow({k: json.dumps(v) if isinstance(v, (list, dict)) else v
                        for k, v in r.items()})
        sys.stdout.write(buf.getvalue())
    else:
        for r in records:
            print(human_fn(r))


# -- subcommands -------------------------------------------------------------


def _cmd_expand(args, cfg: RunConfig) -> int:
    expr = forms.parse_expr(args.expr)
    series = forms.evaluate(expr, max(MIN_PREC, cfg.precision))
    if cfg.precision < series.prec:
        series = series.truncate(cfg.precision)
    if cfg.fmt == "human":  # series_str formats the coefficients; a record would do it twice
        print(f"{expr} = {series_str(series)}")
    else:
        _emit([series.to_record(str(expr))], cfg, None)
    return 0


def _cmd_basis(args, cfg: RunConfig) -> int:
    sb = forms.space_basis(args.weight, args.level, args.cuspidal, cfg.precision)
    records = []
    for (expr, series), piv in zip(sb.elements, sb.pivots):
        records.append({
            "pivot": piv,
            "expr": str(expr),
            "coeffs": series.strings(min(12, series.prec)),
        })
    name = f"{'S' if args.cuspidal else 'M'}_{args.weight}(Gamma0({args.level}))"
    if cfg.fmt == "human":
        print(f"{name}: dimension {len(sb.elements)}")
    _emit(records, cfg,
          lambda r: f"  q^{r['pivot']} + ...  [{', '.join(r['coeffs'][:8])}]  =  {r['expr']}")
    return 0


def _cmd_newforms(args, cfg: RunConfig) -> int:
    reg = registry(cfg.precision)
    nfs = reg.space_newforms(args.weight, args.level)
    records = [nf.to_record() for nf in nfs]
    for r in records:
        r["coeffs"] = r["coeffs"][: min(23, len(r["coeffs"]))]
    _emit(records, cfg, lambda r: (
        f"{r['label']} over {'Q' if r['field'] == 'Q' else 'Q(t), t^2=%st%+d' % (r['field'][0], Fraction(r['field'][1]))}: "
        + " ".join(r["coeffs"][1:13])))
    return 0


def _cmd_linearize(args, cfg: RunConfig) -> int:
    expr = forms.parse_expr(args.expr)
    prec = cfg.precision
    target = forms.evaluate(expr, prec)
    if args.weights:
        weights = [int(w) for w in args.weights.split(",")]
        basis = linearize.mixed_qm_basis(weights, args.level, prec)
    else:
        weight = args.weight if args.weight else expr.weight
        basis = linearize.named_qm_basis(weight, args.level, args.depth, prec)
    dec = linearize.decompose(target, basis)
    rec = dec.to_record()
    rec["expr"] = str(expr)
    _emit([rec], cfg, lambda r: "\n".join(
        [f"{r['expr']} ="]
        + [f"  {c} * {b}" for b, c in zip(r["basis_exprs"], r["coefficients"]) if c != "0"]
        + [f"  (verified through q^{r['verified_to']})"]))
    return 0


def _parse_vec(s: str):
    return tuple(int(x) for x in s.split(","))


def _cmd_convolve(args, cfg: RunConfig) -> int:
    parts = args.n.split(":")
    try:
        lo, hi = map(int, parts * 2 if len(parts) == 1 else parts)
    except ValueError:
        raise UsageError(f"--n must be n or lo:hi, got {args.n!r}") from None
    if min(lo, hi) < 0:
        raise UsageError(f"n must be >= 0, got {args.n}")
    if lo > hi:
        raise UsageError(f"--n range is reversed, got {args.n!r}")
    if args.kind == "W":
        if args.N is None:
            raise UsageError("--N is required for kind W")
        fn, name = partial(oracle.W, args.N), f"W_{args.N}"
    elif args.kind == "Smod":
        if args.a is None or args.b is None:
            raise UsageError("--a and --b are required for kind Smod")
        fn, name = partial(oracle.S_mod, args.a, args.b), f"S[{args.a},{args.b}]"
    else:  # lahiri; argparse's choices admit no other kind
        if not (args.avec and args.bvec and args.Nvec):
            raise UsageError("--avec, --bvec, --Nvec are required for kind lahiri")
        a, b, N = _parse_vec(args.avec), _parse_vec(args.bvec), _parse_vec(args.Nvec)
        fn, name = partial(oracle.lahiri, a, b, N), f"S[{list(a)},{list(b)},{list(N)}]"
    records = [{"kind": args.kind, "n": n, "value": fn(n), "desc": f"{name}({n})"}
               for n in range(lo, hi + 1)]
    _emit(records, cfg, lambda r: f"{r['desc']} = {r['value']}")
    return 0


def _cmd_tables(args, cfg: RunConfig) -> int:
    if args.name:
        names = [args.name]
    else:
        names = oracle.table_names()
    exit_code = 0
    records = []
    reg = registry(cfg.precision) if args.check else None
    for name in names:
        entries = oracle.table_entries(name)
        if args.check:
            ok = 0
            mismatches = []
            nf = reg.tau(name)
            for n, want in sorted(entries.items()):
                got = nf.coefficient(n)
                if got == want:
                    ok += 1
                else:
                    mismatches.append({"n": n, "table": str(want), "computed": str(got)})
            rec = {"name": name, "entries": len(entries), "matched": ok,
                   "mismatches": mismatches}
            if mismatches:
                exit_code = 1
            records.append(rec)
        else:
            records.append({"name": name,
                            "values": {n: format_element(v) for n, v in sorted(entries.items())}})
    if args.check:
        _emit(records, cfg, lambda r: f"{r['name']}: {r['matched']}/{r['entries']} match"
              + ("" if not r["mismatches"] else f"  MISMATCH {r['mismatches']}"))
    else:
        _emit(records, cfg, lambda r: f"{r['name']}: " + " ".join(
            f"{n}:{v}" for n, v in list(r["values"].items())[:12]))
    return exit_code


def _cmd_verify(args, cfg: RunConfig) -> int:
    if not (args.all or args.id):
        raise UsageError("verify needs --id or --all")
    try:
        specs = identities.load_catalog(cfg.catalog_path)
    except OSError as exc:
        raise UsageError(f"cannot read catalog file {cfg.catalog_path!r}: {exc.strerror}") from None
    if not args.all:
        specs = [s for s in specs if s.ident == args.id]
        if not specs:
            raise UsageError(f"no identity with id {args.id!r}")
    needed = max(cfg.n_max or 0, max(s.nmax for s in specs))
    reg = registry(max(cfg.precision, needed))
    records = []
    failed = False
    for spec in specs:
        rep = identities.verify(spec, cfg.n_max, reg.tau)
        records.append(rep.to_record())
        if not rep.ok:
            failed = True
    _emit(records, cfg, lambda r: (
        f"{r['id']}: {r['passed']}/{r['n_max']} pass"
        + ("" if not r["failures"] else f"  FAILURES {r['failures'][:3]}")))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qmforms",
        description="Exact q-expansion engine for divisor-sum convolution identities",
    )
    common = argparse.ArgumentParser(add_help=False)
    for parser, default in ((ap, None), (common, argparse.SUPPRESS)):
        parser.add_argument("--config", default=default, help="key=value configuration file")
        parser.add_argument("--format", choices=["human", "jsonl", "csv"], default=default,
                            help="output format")
        parser.add_argument("--prec", type=int, default=default,
                            help="working precision (coefficients 0..prec)")
        parser.add_argument("--catalog", default=default,
                            help="path to an identity catalog JSON file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="expand a form expression")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("basis", parents=[common],
                       help="echelon basis of a space of modular forms")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--cuspidal", action="store_true")
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("newforms", parents=[common],
                       help="primitive eigenforms of a cusp space")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(fn=_cmd_newforms)

    p = sub.add_parser("linearize", parents=[common],
                       help="decompose an expression in a graded basis")
    p.add_argument("expr")
    p.add_argument("--weight", type=int)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weights", help="comma-separated weights for mixed targets")
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(fn=_cmd_linearize)

    p = sub.add_parser("convolve", parents=[common], help="brute-force convolution sums")
    p.add_argument("--kind", choices=["W", "Smod", "lahiri"], required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--avec")
    p.add_argument("--bvec")
    p.add_argument("--Nvec")
    p.add_argument("--n", required=True, help="single n or range lo:hi")
    p.set_defaults(fn=_cmd_convolve)

    p = sub.add_parser("tables", parents=[common], help="golden coefficient tables")
    p.add_argument("--name")
    p.add_argument("--check", action="store_true",
                   help="recompute each entry with the engine")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("verify", parents=[common],
                       help="verify identities against the oracle")
    p.add_argument("--id")
    p.add_argument("--all", action="store_true")
    p.add_argument("--nmax", type=int)
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
        cfg = _config(args)
        return args.fn(args, cfg)
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
