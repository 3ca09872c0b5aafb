import json
import time
from importlib import resources

import pytest

from qmforms import oracle
from qmforms.cli import main
from qmforms.qseries import QSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_convolve_w(capsys):
    code, out = run(capsys, "convolve", "--kind", "W", "--N", "2", "--n", "3")
    assert code == 0
    assert "W_2(3) = 1" in out


def test_convolve_range_jsonl(capsys):
    code, out = run(capsys, "convolve", "--kind", "W", "--N", "1", "--n", "1:4",
                    "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["value"] for r in rows] == [0, 1, 6, 17]


def test_convolve_smod(capsys):
    code, out = run(capsys, "convolve", "--kind", "Smod", "--a", "1", "--b", "3",
                    "--n", "2")
    assert code == 0 and "= 1" in out


LAHIRI = ("--kind", "lahiri", "--avec", "0,1", "--bvec", "1,1", "--Nvec", "2,5")


def test_convolve_lahiri_range_matches_the_oracle(capsys):
    code, out = run(capsys, "convolve", *LAHIRI, "--n", "0:20", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in rows] == list(range(21))
    assert [r["value"] for r in rows] == [oracle.lahiri((0, 1), (1, 1), (2, 5), n)
                                          for n in range(21)]
    assert all(type(r["value"]) is int for r in rows)


@pytest.mark.parametrize("argv, sweep", [
    (["--kind", "W", "--N", "2"], lambda: oracle.w_range(2, 200)),
    (["--kind", "Smod", "--a", "1", "--b", "3"], lambda: oracle.smod_range(1, 3, 200)),
    (list(LAHIRI), lambda: oracle.lahiri_range((0, 1), (1, 1), (2, 5), 200)),
])
def test_convolve_keeps_no_table_per_n(capsys, argv, sweep):
    oracle.sigma_table.cache_clear()
    code, out = run(capsys, "convolve", *argv, "--n", "1:200", "--format", "jsonl")
    assert code == 0
    assert oracle.sigma_table.cache_info().currsize == 0
    assert [json.loads(line)["value"] for line in out.splitlines()] == sweep()[1:]


@pytest.mark.parametrize("argv, named", [
    (["--kind", "lahiri", "--avec", "0,0", "--bvec", "1,-1", "--Nvec", "1,1", "--n", "4"],
     "bvec entry must be >= 0, got -1"),
    (["--kind", "lahiri", "--avec=-1,0", "--bvec", "1,1", "--Nvec", "1,1", "--n", "4"],
     "avec entry must be >= 0, got -1"),
    (["--kind", "lahiri", "--avec", "0,0", "--bvec", "1,1", "--Nvec=-1,1", "--n", "4"],
     "Nvec entry must be >= 1, got -1"),
    (["--kind", "lahiri", "--avec", "0,0", "--bvec", "1,1", "--Nvec", "1,0", "--n", "4"],
     "Nvec entry must be >= 1, got 0"),
    (["--kind", "W", "--N", "0", "--n", "4"], "N must be >= 1, got 0"),
    (["--kind", "W", "--N", "-1", "--n", "4"], "N must be >= 1, got -1"),
    (["--kind", "W", "--N", "1", "--n=-3"], "n must be >= 0, got -3"),
    (["--kind", "W", "--N", "1", "--n=-3:4"], "n must be >= 0, got -3:4"),
    (["--kind", "Smod", "--a", "1", "--b", "3", "--n", "2:-1"], "n must be >= 0, got 2:-1"),
    (["--kind", "W", "--N", "1", "--n", "5:3"], "--n range is reversed, got '5:3'"),
    (["--kind", "W", "--N", "1", "--n", "1:2:3"], "--n must be n or lo:hi, got '1:2:3'"),
    (["--kind", "W", "--N", "1", "--n", "x"], "--n must be n or lo:hi, got 'x'"),
])
def test_convolve_rejects_bad_descriptors(capsys, argv, named):
    assert main(["convolve", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and named in err


def test_expand(capsys):
    code, out = run(capsys, "expand", "E(4)", "--prec", "3")
    assert code == 0
    assert "240*q" in out


def test_expand_jsonl_roundtrip(capsys):
    code, out = run(capsys, "expand", "phi(1,5)", "--prec", "4", "--format", "jsonl")
    rec = json.loads(out)
    assert rec["coeffs"] == ["1", "6", "18", "24", "42"]
    assert rec["field"] == "Q"


def test_expand_formats_the_coefficients_once(capsys, monkeypatch):
    calls = []
    to_record = QSeries.to_record
    monkeypatch.setattr(QSeries, "to_record", lambda self, *a: calls.append(1) or to_record(self, *a))
    code, out = run(capsys, "expand", "E(2)*phi(1,5)", "--prec", "5")
    assert (code, len(calls)) == (0, 0)
    assert out == "E(2)*phi(1,5) = 1 + -18*q + -198*q^2 + -936*q^3 + -2574*q^4 + -5610*q^5 (prec 5, field Q)\n"
    code, out = run(capsys, "expand", "E(2)*phi(1,5)", "--prec", "5", "--format", "jsonl")
    assert (code, len(calls)) == (0, 1)
    assert json.loads(out)["coeffs"] == ["1", "-18", "-198", "-936", "-2574", "-5610"]


def test_basis(capsys):
    code, out = run(capsys, "basis", "--weight", "4", "--level", "6", "--prec", "64")
    assert code == 0
    assert "dimension 5" in out


def test_newforms(capsys):
    code, out = run(capsys, "newforms", "--weight", "4", "--level", "14", "--prec", "64")
    assert code == 0
    assert "4.14.1" in out and "4.14.2" in out


def test_newforms_reuse_the_stored_registry(capsys, monkeypatch):
    from functools import lru_cache

    from qmforms import cli, heckeeigen

    calls = []
    extract = heckeeigen.extract_newforms
    monkeypatch.setattr(cli, "registry", lru_cache(maxsize=None)(heckeeigen.Registry))
    monkeypatch.setattr(heckeeigen, "extract_newforms",
                        lambda *a: calls.append(1) or extract(*a))
    first = run(capsys, "newforms", "--weight", "4", "--level", "11")
    assert run(capsys, "newforms", "--weight", "4", "--level", "11") == first
    assert first[0] == 0 and "4.11.1" in first[1]
    assert len(calls) == 1


def test_linearize(capsys):
    code, out = run(capsys, "linearize", "E(2)*E(2,2)", "--level", "2", "--prec", "64")
    assert code == 0
    assert "1/5 * E(4)" in out and "6 * D(E(2))" in out


def test_tables_check(capsys):
    code, out = run(capsys, "tables", "--name", "tau_4_10", "--check", "--prec", "64")
    assert code == 0
    assert "tau_4_10: 22/22 match" in out


def test_tables_check_reports_a_mismatch(monkeypatch, capsys):
    entries = oracle.table_entries("tau_4_10")
    entries[3] += 1
    monkeypatch.setattr(oracle, "table_entries", lambda name: dict(entries))
    code, out = run(capsys, "tables", "--name", "tau_4_10", "--check", "--prec", "64")
    assert code == 1
    assert "tau_4_10: 21/22 match" in out
    assert "MISMATCH [{'n': 3, 'table': '-7', 'computed': '-8'}]" in out


def test_verify_pass_and_exit_codes(capsys):
    code, out = run(capsys, "verify", "--id", "w3", "--nmax", "40", "--prec", "64")
    assert code == 0
    assert "w3: 40/40 pass" in out
    code, _ = run(capsys, "verify", "--id", "nope", "--nmax", "10")
    assert code == 2


def test_verify_jsonl_schema(capsys):
    code, out = run(capsys, "verify", "--id", "w2", "--nmax", "30", "--prec", "64",
                    "--format", "jsonl")
    rec = json.loads(out)
    assert rec == {"id": "w2", "n_max": 30, "passed": 30, "failures": []}


def test_usage_error(capsys):
    code = main(["convolve", "--kind", "W", "--n", "3"])
    assert code == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("precision=64\nformat=jsonl\n")
    code, out = run(capsys, "--config", str(cfg), "verify", "--id", "w1", "--nmax", "20")
    assert code == 0
    assert json.loads(out)["passed"] == 20


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("precision=64\nfixtures=tables.txt\n")
    code = main(["--config", str(cfg), "verify", "--id", "w1", "--nmax", "20"])
    assert code == 2
    assert "unknown config key 'fixtures'" in capsys.readouterr().err


def test_nmax_zero_is_read_as_zero(tmp_path, capsys):
    assert run(capsys, "verify", "--id", "w1", "--nmax", "0", "--prec", "64") == \
        (0, "w1: 0/0 pass\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nmax=0\n")
    assert run(capsys, "--config", str(cfg), "verify", "--id", "w1", "--prec", "64") == \
        (0, "w1: 0/0 pass\n")


@pytest.mark.parametrize("argv, what, name", [
    (["--config", "{missing}", "verify", "--id", "w1"], "config", "{missing}"),
    (["verify", "--config", "{missing}", "--id", "w1"], "config", "{missing}"),
    (["verify", "--catalog", "{missing}", "--id", "w1"], "catalog", "{missing}"),
    (["verify", "--catalog", "", "--all"], "catalog", ""),  # not the built-in catalog
    (["--config", "", "expand", "E(4)"], "config", ""),
])
def test_a_missing_file_is_a_usage_error(tmp_path, capsys, argv, what, name):
    missing = str(tmp_path / "missing")
    assert main([a.format(missing=missing) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: cannot read {what} file {name.format(missing=missing)!r}: "
                   "No such file or directory\n")


def test_verify_all_deterministic(capsys):
    args = ("verify", "--all", "--nmax", "12", "--prec", "64", "--format", "jsonl")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 27


def test_csv_output(capsys):
    code, out = run(capsys, "convolve", "--kind", "W", "--N", "3", "--n", "4:6",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("kind,n,value")
    assert len(lines) == 4


def test_integrity_error_exit_code(tmp_path, capsys):
    # a Q(t) coefficient whose t-part no longer cancels against its conjugate
    records = json.loads(resources.files("qmforms.data").joinpath("identities.json").read_text())
    w11 = next(r for r in records if r["id"] == "w11")
    w11["rhs"][-1]["c"]["b"] = "2/2013"
    path = tmp_path / "identities.json"
    path.write_text(json.dumps(records))
    code = main(["verify", "--catalog", str(path), "--id", "w11", "--nmax", "20", "--prec", "64"])
    assert code == 3
    assert "closed form does not reduce to a rational at n=1" in capsys.readouterr().err
    # the unchanged catalog passes, and usage errors keep exit code 2
    assert main(["verify", "--id", "w11", "--nmax", "20", "--prec", "64"]) == 0
    assert main(["verify", "--catalog", str(path)]) == 2


def test_a_fractional_descriptor_in_a_catalog_is_a_usage_error(tmp_path, capsys):
    records = json.loads(resources.files("qmforms.data").joinpath("identities.json").read_text())
    w11 = next(r for r in records if r["id"] == "w11")
    w11["rhs"][-2]["c"]["p"] = "1/2"
    path = tmp_path / "identities.json"
    path.write_text(json.dumps(records))
    assert main(["verify", "--all", "--catalog", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: descriptor (1/2,2) is not integral\n"


@pytest.mark.parametrize("text, named", [
    ("eta(0^24)", "d >= 1"),
    ("root(E(4),0)", "argument 2 of root"),
    ("1/0", "zero denominator"),
    ("chareis(2,one,chi13,0)", "argument 4 of chareis"),
    ("twist(E(4),", "unexpected end"),
    ("E(", "unexpected end"),
])
def test_expand_rejects_bad_arguments(capsys, text, named):
    code = main(["expand", text, "--prec", "64"])
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, expect", [
    # expand: a precision below 64 is the output precision, evaluated at 64
    (["expand", "E(4)", "--prec", "0"], 0, 0),
    (["expand", "E(4)", "--prec", "8"], 0, 8),
    (["expand", "E(4)", "--prec", "64"], 0, 64),
    (["expand", "E(4)", "--prec", "-1"], 2, "nonnegative"),
    # every other command: below 64 is a usage error that names the minimum
    (["basis", "--weight", "4", "--level", "5", "--prec", "8"], 2, "at least 64"),
    (["newforms", "--weight", "4", "--level", "5", "--prec", "0"], 2, "at least 64"),
    (["verify", "--id", "w1", "--nmax", "10", "--prec", "63"], 2, "at least 64"),
    (["basis", "--weight", "4", "--level", "5", "--prec", "-5"], 2, "nonnegative"),
])
def test_one_precision_rule_for_the_flag(capsys, argv, code, expect):
    assert main(argv + ["--format", "jsonl"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["prec"] == expect
    else:
        assert expect in err


@pytest.mark.parametrize("command, value, code", [
    (["expand", "E(4)"], "8", 0),
    (["expand", "E(4)"], "-1", 2),
    (["basis", "--weight", "4", "--level", "5"], "8", 2),
    (["basis", "--weight", "4", "--level", "5"], "64", 0),
])
def test_one_precision_rule_for_the_config_key(tmp_path, capsys, command, value, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"precision={value}\n")
    assert main(["--config", str(cfg)] + command) == code
    out = capsys.readouterr().out
    if command[0] == "expand" and code == 0:
        assert "(prec 8, field Q)" in out


def test_precision_flag_wins_over_the_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("precision=8\n")
    assert main(["--config", str(cfg), "basis", "--weight", "4", "--level", "5",
                 "--prec", "64"]) == 0
    assert main(["--config", str(cfg), "expand", "E(4)", "--prec", "3"]) == 0
    assert "(prec 3, field Q)" in capsys.readouterr().out


def test_one_parser_serves_every_call_without_leaking_state(monkeypatch, capsys):
    from qmforms import cli

    calls = [
        ["expand", "E(2)+"],                                                # a bad expression
        ["frobnicate", "E(2)"],                                             # an unknown subcommand
        ["expand", "E(2)*E(2,3)", "--format", "jsonl", "--prec", "8"],
        ["expand", "E(2)*E(2,3)"],                                          # human, default precision
    ]

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        return (code, *capsys.readouterr())

    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(outcome(argv))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    assert [outcome(argv) for argv in calls] == fresh
    assert len(built) == 1

    (bad, _, bad_err), (unknown, _, unknown_err), (jl, jl_out, _), (human, human_out, _) = fresh
    assert bad == 2 and "unexpected end of input" in bad_err
    assert unknown == ("SystemExit", 2) and "frobnicate" in unknown_err
    assert jl == 0 and json.loads(jl_out)["prec"] == 8
    prec = cli.RunConfig().precision
    assert human == 0 and human_out.startswith("E(2)*E(2,3) = 1 + -24*q + -72*q^2 + ")
    assert human_out.endswith(f"*q^{prec} (prec {prec}, field Q)\n")


@pytest.mark.parametrize("expr", ["41^24999999", "41^24999", "(1/41)^24999"])
def test_a_constant_power_past_4300_digits_is_refused_quickly(capsys, expr):
    t0 = time.perf_counter()
    code = main(["expand", expr, "--prec", "8"])
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert capsys.readouterr().err == f"error: constant power {expr} has more than 4300 digits\n"


@pytest.mark.parametrize("expr", ["41^2499*41^2499", "(1/41)^2499*(1/41)^2499", "3*41^2499*41^2499*E(4)"])
def test_a_constant_product_past_4300_digits_is_refused_quickly(capsys, expr):
    t0 = time.perf_counter()
    code = main(["expand", expr, "--prec", "2"])
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    written = expr.removesuffix("*E(4)")  # the term as written up to the factor that passes the limit
    assert capsys.readouterr().err == f"error: constant product {written} has more than 4300 digits\n"


ONES = "1" * 4400


@pytest.mark.parametrize("expr", [ONES, f"E(4)^{ONES}", f"eta(1^{ONES})"],
                         ids=["literal", "exponent", "eta-spec"])
def test_an_integer_literal_past_4300_digits_is_refused_quickly(capsys, expr):
    t0 = time.perf_counter()
    code = main(["expand", expr, "--prec", "2"])
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert capsys.readouterr().err == "error: integer literal of 4400 digits is past the 4300-digit limit\n"


def test_an_integer_literal_of_4300_digits_still_expands(capsys):
    code, out = run(capsys, "expand", "9" * 4300, "--prec", "2", "--format", "jsonl")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["9" * 4300, "0", "0"]


@pytest.mark.parametrize("expr, constant", [("41^2499", 41**2499), ("2^14000*E(4)", 2**14000),
                                             ("41^1000*41^1000", 41**2000), ("1728*delta", 1728),
                                             ("(1/41)^2499*41^2499*E(4)", 1)])
def test_constant_powers_within_4300_digits_still_expand(capsys, expr, constant):
    code, out = run(capsys, "expand", expr, "--prec", "4", "--format", "jsonl")
    assert code == 0
    assert next(c for c in json.loads(out)["coeffs"] if c != "0") == str(constant)
