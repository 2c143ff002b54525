import csv
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from sturmjsr import cli
from sturmjsr.cli import main
from sturmjsr.family import MatrixFamily, builtin_bousch_mairesse, builtin_hmst
from sturmjsr.rational_preimage import preimage_interval


def test_cli_runs_without_sympy():
    # sympy is a test-only dependency: a fresh interpreter that imports the
    # CLI and serves an exact request (which factors discriminants) never loads it
    import sturmjsr

    src = os.path.dirname(os.path.dirname(os.path.abspath(sturmjsr.__file__)))
    code = (
        "import sys, sturmjsr.cli\n"
        "assert 'sympy' not in sys.modules\n"
        "assert sturmjsr.cli.main(['interval', '3/7', '--exact']) == 0\n"
        "assert 'sympy' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_interval_text(capsys):
    code, out, _ = run(capsys, "interval", "1/2", "--family", "hmst")
    assert code == 0
    assert out.startswith("[0.8, 1.25]")


def test_interval_exact(capsys):
    code, out, _ = run(capsys, "interval", "1/3", "--family", "hmst", "--exact")
    assert code == 0
    assert "sqrt(3)" in out


def test_interval_json_schema(capsys):
    code, out, _ = run(capsys, "interval", "1/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 1 and payload["q"] == 2
    assert payload["u"] == "0" and payload["v"] == "1"
    assert "dec" in payload["lo"] and "exact" in payload["lo"]


def test_interval_degenerate_and_domain_error(capsys):
    code, out, _ = run(capsys, "interval", "0/1", "--family", "hmst")
    assert code == 0 and out.strip() == "{0}"
    code, _, err = run(capsys, "interval", "3/2")
    assert code == 2 and "error" in err


def test_alpha_quadratic(capsys):
    code, out, _ = run(capsys, "alpha", "--quadratic", "3/2,-1/2,5", "--digits", "29")
    assert code == 0
    assert "0.74932654633036755794396194809" in out
    assert "rigorous" in out


def test_alpha_cf_stream(capsys):
    code, out, _ = run(capsys, "alpha", "--cf", "4;period=1", "--digits", "10")
    assert code == 0
    assert "0.4596704785" in out


def test_alpha_star_command(capsys):
    code, out, _ = run(capsys, "alpha-star")
    assert code == 0
    assert "0.74932654633036755794396194809" in out


def test_alpha_insufficient_terms_exit_3(capsys):
    code, _, err = run(capsys, "alpha", "--cf", "2,1,1", "--digits", "40")
    assert code == 3
    assert "error" in err
    code, _, err = run(capsys, "alpha", "--cf", "2,1,1,1", "--terms", "9")
    assert code == 3


def test_alpha_reads_a_finite_cf_list_as_a_prefix(capsys):
    # the list is a prefix of gamma, not the rational 144/377: no coefficient
    # bound covers the unknown tail, so the point cannot be certified
    code, out, _ = run(capsys, "alpha", "--cf", ",".join(["2"] + ["1"] * 11),
                       "--digits", "5", "--format", "json")
    assert code == 0
    res = json.loads(out)
    assert res["rigorous"] is False and res["certificate"] is None


def test_alpha_decimal_with_radius(capsys):
    code, out, _ = run(
        capsys, "alpha", "--decimal", "0.2360679774997896964091736687747±1e-25",
        "--digits", "8",
    )
    assert code == 0
    assert "0.45967048" in out  # sqrt(5)-2 to 8 digits


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_alpha_decimal_certifies_what_a_truncation_reads(capsys, fmt):
    # the truncation at index 3 reads 5 coefficients of [0; 3, 1, 5, 1, 1, ...]
    want = run(capsys, "alpha", "--cf", "3,1,5,1,1", "--terms", "3", "--format", fmt)
    got = run(capsys, "alpha", "--decimal", "0.2599210498948731647672106072782",
              "--terms", "3", "--format", fmt)
    assert want[0] == 0 and got == want


@pytest.mark.parametrize("terms", ["-1", "-5"])
def test_alpha_negative_terms_fail_alike_for_every_input(capsys, terms):
    # --decimal used to ask for N + 2 < 0 coefficients before N was checked
    want = run(capsys, "alpha", "--cf", "3,1,5,1,1", "--terms", terms)
    got = run(capsys, "alpha", "--decimal", "0.2599210498948731647672106072782", "--terms", terms)
    assert want == (2, "", "error: need terms >= 0\n") and got == want


def test_alpha_echoes_a_gamma_prefix_fixed_by_the_input(capsys):
    # 24 terms of an unbounded stream, however many the computation read
    code, out, _ = run(capsys, "alpha", "--cf", "5;period=1", "--format", "json")
    assert code == 0
    assert json.loads(out)["gamma"] == {"cf": [5] * 24, "period": 1}
    # every term of a shorter one
    code, out, _ = run(capsys, "alpha", "--cf", "3,3,3,3,3,3,3,3", "--digits", "5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["gamma"] == {"cf": [3] * 8}


def test_main_reuses_one_parser(capsys, monkeypatch):
    # the parsers are built once per process: the full parser and one per
    # subcommand at the first request, none at the next
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli._parsers.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert run(capsys, "ratio", "1.0")[0] == 0
    assert len(built) == 8
    assert run(capsys, "interval", "1/2")[0] == 0
    assert len(built) == 8 and cli.build_parser() is built[0]


# argv over every subcommand: valid requests, an abbreviated option, help
# and version, and each kind of parse error
_ARGVS = [
    ["interval", "1/2"],
    ["interval", "137/350", "--exact", "--format", "json", "--prec", "300"],
    ["interval", "1/2", "--fam", "kozyakin"],
    ["alpha", "--cf", "2,1;period=1", "--digits", "40"],
    ["alpha", "--quadratic=3/2,-1/2,5", "--terms", "6"],
    ["alpha-star", "--digits", "50", "--format", "json"],
    ["staircase", "--qmax", "12", "--gaps", "0.2,0.8", "--midpoints", "--fam=bousch-mairesse"],
    ["ratio", "1.3", "--depth", "5"],
    ["ratio", "-0.5"],
    ["oracle", "1.234", "--maxlen", "13", "--format", "csv"],
    ["check", "kozyakin", "--spot-check"],
    ["check", "--family", "hmst", "--depth-check", "4"],
    [],
    ["-h"],
    ["--version"],
    ["interval", "-h"],
    ["oracle", "--help"],
    ["interval", "--version"],
    ["bogus", "1/2"],
    ["interval"],
    ["ratio", "1", "--format", "xml"],
    ["oracle", "1", "--maxlen", "x"],
    ["ratio", "1", "--bogus"],
    ["staircase", "extra"],
    ["check", "hmst", "kozyakin"],
    ["--prec", "64", "interval", "1/2"],
]


def _parsed(capsys, parse, argv):
    try:
        result = vars(parse(argv))
    except SystemExit as e:
        result = e.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", _ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_parse_matches_the_full_parser(capsys, argv):
    # the same Namespace, or the same exit code, stdout and stderr
    want = _parsed(capsys, cli.build_parser().parse_args, argv)
    assert _parsed(capsys, cli.parse, argv) == want


def test_alpha_rejects_multiple_gammas(capsys):
    code, _, err = run(capsys, "alpha", "--cf", "2,1", "--quadratic", "3/2,-1/2,5")
    assert code == 2


def test_ratio_command(capsys):
    code, out, _ = run(capsys, "ratio", "1.0")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run(capsys, "ratio", "0.74932654633", "--depth", "5")
    assert code == 0 and "cf prefix [2, 1]" in out


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "1.0", "--maxlen", "8")
    assert code == 0
    assert "word 01 slope 1/2" in out
    assert "gap" in out


def test_oracle_cost_warning_is_one_line(capsys, monkeypatch):
    # past maxlen 16 the library warns; the CLI prints that as one line, not
    # as Python's warning with its source line (a stub warns, so that no
    # 2^17 enumeration runs)
    true_bounds = cli.jsr_bounds

    def warning_bounds(fam, alpha, max_len, prec):
        warnings.warn(f"enumerating 2^{max_len} products; this is a desk-scale oracle",
                      stacklevel=2)
        return true_bounds(fam, alpha, 6, prec)

    monkeypatch.setattr(cli, "jsr_bounds", warning_bounds)
    code, out, err = run(capsys, "oracle", "1", "--maxlen", "17")
    assert code == 0 and "word 01 slope 1/2" in out
    assert err == "warning: enumerating 2^17 products; this is a desk-scale oracle\n"


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "hmst")
    assert code == 0
    assert "overall: PASS" in out


@pytest.mark.parametrize("family", ["hmst", "kozyakin", "bousch-mairesse"])
def test_check_spot_check_json(capsys, family):
    code, out, _ = run(capsys, "check", family, "--spot-check", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["condition_v_spot"] is True and payload["overall"] == "pass"


def test_interval_of_ratio_one(capsys):
    # hmst's ratio-1 set is empty; kozyakin's runs from 5/2 to +inf
    code, out, _ = run(capsys, "interval", "1")
    assert code == 0 and out.strip() == "{} (empty)"
    code, out, _ = run(capsys, "interval", "1", "--family", "kozyakin")
    assert code == 0 and out.startswith("[2.5, +inf]")
    code, out, _ = run(capsys, "interval", "1", "--family", "kozyakin", "--format", "json")
    payload = json.loads(out)
    assert payload["lo"]["exact"]["a"] == "5/2" and payload["hi"] == {"dec": "+inf"}


def test_interval_zero_labels_its_exact_endpoint(capsys):
    # the ratio-0 step has only an upper endpoint, and its label follows it
    for extra, shown in (((), "0.4"), (("--exact",), "(2/5)")):
        code, out, _ = run(capsys, "interval", "0", "--family", "kozyakin", *extra)
        assert code == 0 and out == f"[0, {shown}]  (prec=256 bits, exact=yes)\n"
    code, out, _ = run(capsys, "interval", "0", "--family", "bousch-mairesse")
    assert code == 0 and out.endswith("(prec=256 bits, exact=no)\n")


def test_check_takes_the_family_once(capsys, tmp_path):
    # a failing config shows which family was checked
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "label": "bad",
        "A0": [["2", "0"], ["0", "1"]],
        "A1": [["3", "0"], ["0", "1"]],
    }))
    for argv in ((str(path), "--family", "hmst"), ("hmst", "--family", str(path))):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2 and out == "" and "once" in err
    assert run(capsys, "check", "--family", str(path))[0] == 4
    assert run(capsys, "check") == run(capsys, "check", "hmst")


def test_check_failing_family_exit_4(capsys, tmp_path):
    cfg = {
        "label": "bad",
        "A0": [["2", "0"], ["0", "1"]],
        "A1": [["3", "0"], ["0", "1"]],
        "asserted_sturmian": False,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 4
    assert "overall: FAIL" in out


def test_staircase_csv_to_file(capsys, tmp_path):
    out_path = tmp_path / "st.csv"
    code, out, _ = run(capsys, "staircase", "--qmax", "6", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("alpha_lo,alpha_hi")
    assert len(lines) == 1 + 11 + 1  # header + interior fractions + {0} row


def test_staircase_gaps_flag(capsys):
    code, out, _ = run(capsys, "staircase", "--qmax", "6", "--gaps", "0.5,0.8")
    assert code == 0
    assert "# uncovered in [0.5,0.8]" in out


@pytest.mark.parametrize("flag,value", [
    ("--range", "x"), ("--gaps", "1"), ("--gaps", "0.5,y"), ("--range", "1,2,3"),
    ("--gaps", "0.8,0.5"), ("--range", "0.8,0.5"), ("--range", "0.5,0.5"), ("--gaps", "-0.1,0.5"),
])
def test_staircase_rejects_a_malformed_window_before_building(capsys, flag, value):
    code, out, err = run(capsys, "staircase", "--qmax", "6", f"{flag}={value}")
    assert code == 2
    assert out == ""  # nothing printed before the error
    assert flag in err and "lo,hi" in err


def test_ratio_rejects_a_negative_depth(capsys):
    from sturmjsr.family import builtin_hmst
    from sturmjsr.staircase import StaircaseError, ratio_at

    with pytest.raises(StaircaseError):
        ratio_at(builtin_hmst(), Fraction(1, 2), depth=-3)
    code, out, err = run(capsys, "ratio", "0.5", "--depth", "-3")
    assert code == 2 and out == ""
    assert "depth" in err


@pytest.mark.parametrize("command", ["alpha", "alpha-star"])
@pytest.mark.parametrize("digits", ["0", "-5"])
def test_digits_below_one_rejected(capsys, command, digits):
    argv = [command, "--digits", digits] + (["--cf", "2,1;period=1"] if command == "alpha" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--digits must be at least 1" in err


# one request per failure path: its exit code, and one "error:" line on
# stderr (none for a failing check, which reports on stdout)
_EXIT_PATHS = {
    "bad fraction": (("interval", "1/0"), 2),
    "ratio above 1": (("interval", "3/2"), 2),
    "missing config": (("interval", "1/2", "--family", "{missing}"), 2),
    "invalid JSON config": (("interval", "1/2", "--family", "{broken}"), 2),
    "config of the wrong shape": (("interval", "1/2", "--family", "{misshapen}"), 2),
    "config prec below 64": (("interval", "1/2", "--family", "{low_prec}"), 2),
    "unwritable --out": (("staircase", "--qmax", "3", "--out", "{unwritable}"), 2),
    "--digits 0": (("alpha", "--cf", "2,1;period=1", "--digits", "0"), 2),
    "family given twice": (("check", "hmst", "--family", "kozyakin"), 2),
    "--prec above its bound": (("interval", "1/2", "--prec", "100000000000"), 2),
    "dry --cf stream": (("alpha", "--cf", "2,1,1", "--digits", "40"), 3),
    "uncertifiable --decimal": (("alpha", "--decimal", "0.5±0.001"), 3),
    "failing check": (("check", "--family", "{failing}"), 4),
}


@pytest.mark.parametrize("name", sorted(_EXIT_PATHS))
def test_exit_paths(capsys, tmp_path, name):
    paths = {
        "missing": tmp_path / "missing.json",
        "broken": tmp_path / "broken.json",
        "misshapen": tmp_path / "misshapen.json",
        "low_prec": tmp_path / "low-prec.json",
        "failing": tmp_path / "failing.json",
        "unwritable": tmp_path / "no-such-dir" / "steps.csv",
    }
    paths["broken"].write_text("{")
    paths["misshapen"].write_text(json.dumps({"A0": [["1", "1"], ["0"]], "A1": 5}))
    paths["low_prec"].write_text(json.dumps({**builtin_hmst().to_config(), "prec": -5}))
    paths["failing"].write_text(json.dumps({
        "label": "bad",
        "A0": [["2", "0"], ["0", "1"]],
        "A1": [["3", "0"], ["0", "1"]],
    }))
    argv, want = _EXIT_PATHS[name]
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == want, err
    if want == 4:
        assert err == "" and "overall: FAIL" in out
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_custom_family_config(capsys, tmp_path):
    cfg = {
        "label": "koz-custom",
        "A0": [["1/2", "1"], ["0", "1"]],
        "A1": [["1", "0"], ["1", "1/2"]],
        "asserted_sturmian": True,
    }
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "interval", "1/2", "--family", str(path))
    assert code == 0


def _config(path, a, d, label="koz-custom"):
    path.write_text(json.dumps({
        "label": label, "A0": [[a, "1"], ["0", "1"]], "A1": [["1", "0"], ["2", d]], "asserted_sturmian": True,
    }))


def test_config_family_is_read_on_every_request(capsys, tmp_path):
    # a rewrite between two requests gives the new family's steps; a
    # malformed rewrite and a removed file exit 2
    path = tmp_path / "fam.json"
    _config(path, "2/3", "1/2")
    first = run(capsys, "interval", "5/13", "--family", str(path), "--format", "json")
    _config(path, "1/2", "1/3")
    second = run(capsys, "interval", "5/13", "--family", str(path), "--format", "json")
    fresh = preimage_interval(MatrixFamily.from_config_file(str(path)), Fraction(5, 13))
    assert first[0] == second[0] == 0 and first[1] != second[1]
    assert json.loads(second[1]) == fresh.as_json()
    path.write_text("{")
    code, out, err = run(capsys, "interval", "5/13", "--family", str(path))
    assert code == 2 and out == "" and err.startswith("error: Expecting property name")
    path.unlink()
    code, out, err = run(capsys, "interval", "5/13", "--family", str(path))
    assert code == 2 and out == "" and "No such file" in err


def test_config_family_is_built_once_per_content(tmp_path):
    from sturmjsr import family

    one, other = tmp_path / "one.json", tmp_path / "other.json"
    _config(one, "2/3", "1/2")
    _config(other, "2/3", "1/2")
    fam = family.resolve_family(str(one))
    assert family.resolve_family(str(one)) is fam
    assert family.resolve_family(str(other)) is fam  # the same bytes
    _config(one, "2/3", "1/2", label="renamed")
    assert family.resolve_family(str(one)).label == "renamed"
    for i in range(40):  # bounded: old contents are dropped
        _config(one, "2/3", "1/2", label=f"config {i}")
        family.resolve_family(str(one))
    info = family._config_family.cache_info()
    assert info.currsize == info.maxsize == 32


def test_interval_reads_the_staircase_memo_without_filling_it(capsys, monkeypatch):
    # before a build, a step is built and nothing is stored, not even the
    # family's root; after it, a step is printed from the memo, and a step
    # not in it is built, printed alike and not stored; the memo's order
    # (which entry goes first when it is full) does not move
    from sturmjsr import staircase
    from sturmjsr.rational_preimage import SternBrocotNode

    monkeypatch.setattr(staircase, "_memo", {})
    fresh = {argv: run(capsys, *argv) for argv in (
        ("interval", "7/16", "--format", "json"), ("interval", "7/16", "--exact"),
        ("interval", "5/13", "--family", "kozyakin", "--exact", "--format", "json"),
        ("interval", "61/140", "--exact", "--format", "json"),
    )}
    assert staircase._memo == {}
    assert run(capsys, "staircase", "--qmax", "16", "--format", "json")[0] == 0
    assert run(capsys, "staircase", "--qmax", "16", "--family", "kozyakin", "--format", "json")[0] == 0
    built = []
    interval = SternBrocotNode.interval
    monkeypatch.setattr(SternBrocotNode, "interval", lambda node, prec: built.append(node.fraction) or interval(node, prec))
    order = list(staircase._memo)
    for argv, want in fresh.items():
        assert run(capsys, *argv) == want
    assert built == [Fraction(61, 140)] and list(staircase._memo) == order
    step = staircase.step_of(builtin_hmst(), Fraction(7, 16))
    assert all(ep.exact._text is None for ep in (step.lo, step.hi))  # printed, not kept


def test_determinism(capsys):
    _, out1, _ = run(capsys, "alpha", "--cf", "2,1;period=1", "--digits", "25")
    _, out2, _ = run(capsys, "alpha", "--cf", "2,1;period=1", "--digits", "25")
    assert out1 == out2
    _, s1, _ = run(capsys, "staircase", "--qmax", "5")
    _, s2, _ = run(capsys, "staircase", "--qmax", "5")
    assert s1 == s2


def test_prec_floor(capsys):
    code, _, err = run(capsys, "interval", "1/2", "--prec", "32")
    assert code == 2


def test_interval_exact_beyond_int_digit_limit(capsys):
    # the endpoints of 53/150 have more digits than CPython's default
    # int-to-str limit; the CLI lifts it only while formatting its output
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        code, out, _ = run(capsys, "interval", "53/150", "--exact", "--format", "json")
        assert code == 0
        assert sys.get_int_max_str_digits() == 4300
        # user input is still parsed under the limit
        code, _, err = run(capsys, "ratio", "1" * 5000)
        assert code == 2 and "error" in err
        lo = preimage_interval(builtin_hmst(), Fraction(53, 150)).lo.exact
        sys.set_int_max_str_digits(0)
        assert Fraction(json.loads(out)["lo"]["exact"]["a"]) == lo.a
    finally:
        sys.set_int_max_str_digits(limit)


def test_alpha_beyond_int_digit_limit(capsys):
    # a 4300-digit alpha is formatted under the lifted limit, as JSON and text
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        code, out, _ = run(capsys, "alpha-star", "--digits", "4300", "--format", "json")
        assert code == 0
        assert json.loads(out)["alpha"].startswith("0.74932654633036755794396194809")
        code, out, _ = run(capsys, "alpha-star", "--digits", "4300")
        assert code == 0 and out.startswith("alpha = 0.74932654633036755794396194809")
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_prec_sets_float_builtin_generators(capsys):
    # at --prec 1024 the bousch-mairesse generators are built at 1024 bits,
    # so the 307 printed digits agree with a 2048-bit reference within
    # the radius the interval claims
    argv = ("interval", "1/97", "--family", "bousch-mairesse", "--prec", "1024")
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    ref = preimage_interval(
        builtin_bousch_mairesse(1, "0.5", "0.5", prec=2048), Fraction(1, 97), 2048
    )
    lo_s, hi_s = text[1:text.index("]")].split(", ")
    with mp.workprec(2048):
        for printed, key, end in ((lo_s, "lo", ref.lo), (hi_s, "hi", ref.hi)):
            assert abs(mpf(printed) - end.value) <= mpf(payload[key]["radius"]), key


def test_staircase_unresolved_float_order_exit_3(capsys):
    # at 64 bits the radii of neighbouring bousch-mairesse steps overlap
    # once q reaches 20
    code, _, err = run(capsys, "staircase", "--family", "bousch-mairesse",
                       "--qmax", "20", "--prec", "64")
    assert code == 3 and "radii" in err


# sha256 of stdout, captured before the step endpoints moved from Perron
# projections in Q(sqrt(D)) to the trace form on integers
_PINNED_OUTPUTS = {
    "hmst-staircase-45": (
        ("staircase", "--qmax", "45", "--format", "json"),
        "5f27175f358f08e2e630328da5913757884d6831f5364456ccb5a65abaf5835e",
    ),
    "kozyakin-type-staircase-16": (
        ("staircase", "--family", "{config}", "--qmax", "16", "--format", "json"),
        "5f196c1819c1984822bb0684470cd5edd3cb732850ac9269687341b13e1566f1",
    ),
    "hmst-137/350": (
        ("interval", "137/350", "--exact", "--format", "json"),
        "694d6527851e10df33191c38a3cf114b534e7e3608b48817c2eea3f10c451f61",
    ),
    "kozyakin-70/143": (
        ("interval", "70/143", "--family", "kozyakin", "--exact", "--format", "json"),
        "91b9d8610d7dbaed299e355dcbb93fc1b0b32a2f62bc4340eabe42d9a1c721d9",
    ),
    # ends past the replay gate: both ends of hmst 213/350, a builtin
    # Kozyakin step whose reductions cancel mostly powers of two, and a
    # step of the config (unequal dets) whose ladder is split
    "hmst-213/350": (
        ("interval", "213/350", "--exact", "--format", "json"),
        "541f4f03903a801c2d43ce15386fc9e0db738fd1a83f856d5696b9dc998cd539",
    ),
    "kozyakin-77/135": (
        ("interval", "77/135", "--family", "kozyakin", "--exact", "--format", "json"),
        "d235734bac7087b27ff939ae03de37e1db9f3e9c9ca3f9e0930fe41e735c84d6",
    ),
    "kozyakin-type-61/140": (
        ("interval", "61/140", "--family", "{config}", "--exact", "--format", "json"),
        "c1b992a788a793f8bcd06cec14a52694d27fee6f0fdba731a3b10686e3fb4ec2",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_OUTPUTS))
def test_output_byte_identical(capsys, tmp_path, name):
    import hashlib

    cfg = {
        "label": "kozyakin-type",
        "A0": [["2/3", "2"], ["0", "1"]],
        "A1": [["1", "0"], ["1", "1/3"]],
        "asserted_sturmian": True,
    }
    path = tmp_path / "kozyakin-type.json"
    path.write_text(json.dumps(cfg))
    argv, digest = _PINNED_OUTPUTS[name]
    code, out, _ = run(capsys, *(a.format(config=path) for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("interval", "3/7", "--exact"),
    ("interval", "0", "--family", "kozyakin"),
    ("interval", "1"),
    ("interval", "1/5", "--family", "bousch-mairesse"),
    ("alpha", "--cf", "1,2,3;period=2", "--digits", "40"),
    ("alpha", "--quadratic=-1,1,2", "--family", "kozyakin"),
    ("alpha-star", "--digits", "60"),
    ("staircase", "--qmax", "9"),
    ("staircase", "--family", "bousch-mairesse", "--qmax", "7", "--range", "0.5,2"),
    ("ratio", "1.3"),
    ("ratio", "1.3", "--depth", "1"),  # a bracket
    ("oracle", "1.234", "--maxlen", "8"),
    ("check", "bousch-mairesse", "--spot-check"),
    ("check", "kozyakin"),
], ids="_".join)
def test_json_output_is_what_json_dumps_writes(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code in (0, 4)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_float_endpoints_print_only_digits_the_radius_supports(capsys):
    # text and CSV print a float-family endpoint down to the decade of its
    # radius; every printed endpoint is then within 1.5 units of its last
    # digit of the same step evaluated at 2048 bits from the same
    # (256-bit) generators
    from decimal import Decimal

    from sturmjsr.family import MatrixFamily
    from sturmjsr.rational_preimage import preimage_one, preimage_zero

    code, out, _ = run(capsys, "staircase", "--family", "bousch-mairesse", "--qmax", "20", "--format", "csv")
    assert code == 0
    bm = builtin_bousch_mairesse(1, "0.5", "0.5")
    ref_fam = MatrixFamily(bm.a0, bm.a1, asserted_sturmian=True, prec=2048)
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 129  # 127 interior steps and the two boundary steps
    checked = 0
    with mp.workprec(2048):
        for lo_s, hi_s, p, q, *_ in rows:
            pq = Fraction(int(p), int(q))
            if pq == 0:
                ends = ((hi_s, preimage_zero(ref_fam, 2048).hi),)
            elif pq == 1:
                ends = ((lo_s, preimage_one(ref_fam, 2048).lo),)
            else:
                ref = preimage_interval(ref_fam, pq, 2048)
                ends = ((lo_s, ref.lo), (hi_s, ref.hi))
            for printed, want in ends:
                unit = mpf(10) ** Decimal(printed).as_tuple().exponent
                assert abs(mpf(printed) - want.value) <= 1.5 * unit, (pq, printed)
                checked += 1
    assert checked == 256
