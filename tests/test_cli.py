"""Command line behaviour: exit codes, payload shapes, reproducibility."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import inf, nan
from operator import mul
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloperiods import cli, intlat, periods, stcurve, suite
from cycloperiods.report import dumps_json
from cycloperiods.exactfield import (
    HALF, INV_ROOT4_3, IUNIT, ONE, RHO, SQRT3, ZERO, TowerElem, cyclo,
    zeta_power,
)


@pytest.fixture()
def runner():
    return CliRunner()


def _text(result):
    out = result.output
    try:
        out += result.stderr
    except (ValueError, AttributeError):
        pass
    return out


# -- tower literals ---------------------------------------------------------

def test_parse_tower_literals():
    assert cli.parse_tower("i") == IUNIT
    assert cli.parse_tower("rho") == RHO
    assert cli.parse_tower("(1/2)+(-1)*zeta^3") == HALF - IUNIT
    assert cli.parse_tower("alpha^-1") == INV_ROOT4_3
    assert cli.parse_tower("2**3") == TowerElem.coerce(8)
    assert cli.parse_tower("0.25") == TowerElem.coerce(Fraction(1, 4))
    assert cli.parse_tower("1,2") == ONE + IUNIT * 2
    assert cli.parse_tower("0.5, -0.5") == HALF - HALF * IUNIT
    # a name may end in digits: sqrt3 is one token, not sqrt times 3
    assert cli.parse_tower("sqrt3") == SQRT3
    assert cli.parse_tower("sqrt3^2") == TowerElem.coerce(3)


def test_emit_reads_the_sqrt3_name(runner):
    result = runner.invoke(cli.main, ["emit", "genus4", "--tau", "i+sqrt3"])
    assert result.exit_code == 0, _text(result)
    got = [[TowerElem.from_json(x) for x in row]
           for row in json.loads(result.output)["entries"]]
    exact = stcurve.GENUS4.evaluate({"tau": IUNIT + SQRT3})
    assert got == [list(r) for r in exact]


@pytest.mark.parametrize("bad", [
    "", "1+", "(1", "zeta^x", "1$", "1/0", "0^-1", "frob",
    "3^200000", "2^-1025", "zeta**99999999999999999999",
])
def test_parse_tower_rejects(bad):
    with pytest.raises((cli.LiteralError, ZeroDivisionError)):
        cli.parse_tower(bad)


def test_parse_tower_exponent_bound(runner):
    bound = cli.MAX_EXPONENT
    assert cli.parse_tower(f"zeta^{bound}") == zeta_power(bound)
    assert cli.parse_tower(f"2^-{bound}") == TowerElem.coerce(Fraction(1, 2 ** bound))
    with pytest.raises(cli.LiteralError, match="out of range"):
        cli.parse_tower(f"2^{bound + 1}")
    result = runner.invoke(cli.main, ["emit", "genus4", "--tau", "i + 3^200000"])
    assert result.exit_code == 2
    assert "out of range" in _text(result)


def test_parse_tower_bounds_nesting_and_power_size(runner):
    deep = "(" * 3000 + "1" + ")" * 3000
    with pytest.raises(cli.LiteralError, match="nested deeper"):
        cli.parse_tower(deep)
    nested = "(" * cli.MAX_NESTING + "i" + ")" * cli.MAX_NESTING
    assert cli.parse_tower(nested) == IUNIT
    # signs are read in a loop, so a long run of them is no deeper
    assert cli.parse_tower("-" * 5000 + "1") == ONE
    assert cli.parse_tower("-" * 5001 + "1") == -ONE
    # (2^1024)^1024 would have 2^20 bits: refused before it is computed
    with pytest.raises(cli.LiteralError, match="power too large"):
        cli.parse_tower("(2^1024)^1024")
    assert cli.parse_tower("(2^1024)^60") == TowerElem.coerce(2 ** 61440)
    with pytest.raises(cli.LiteralError, match="number too long"):
        cli.parse_tower("9" * 5000)
    with pytest.raises(cli.LiteralError, match="out of range"):
        cli.parse_tower("2^" + "9" * 5000)
    for tau in (deep, "-" * 5000 + "(" * 100 + "i" + ")" * 100,
                "i + (2^1024)^1024", "i + ((2^1024)^1024)^1024"):
        result = runner.invoke(cli.main, ["emit", "genus4", "--tau", tau])
        assert result.exit_code == 2
        assert "Traceback" not in _text(result)


def test_emit_refuses_values_past_the_digit_limit(runner):
    # 2^15360 has 4,624 digits, past what Python turns into a string
    for args in (["emit", "genus4", "--tau", "i + (2^1024)^15"],
                 ["emit", "genus4", "--tau", "i", "--format", "decimal",
                  "--digits", "5000"],
                 ["emit", "prym", "--z1", "(2^1024)^15", "--z2", "0"]):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in _text(result)


_LITERAL_TEXT = st.text(alphabet="0123456789.()+-*/^, izetalphrsq$", max_size=40)
_ATOMS = ("0", "1", "2", "3", "0.5", "i", "zeta", "alpha", "rho", "sqrt3")


@st.composite
def _literals(draw):
    """Well-formed-looking literals with deep nesting and large powers."""
    atom = draw(st.sampled_from(_ATOMS))
    node = atom
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
        if op == "^":
            node = f"({node})^{draw(st.integers(-1100, 1100))}"
        else:
            node = f"{node}{op}{draw(st.sampled_from(['1', '2^1024', 'i', '0']))}"
        depth = draw(st.integers(0, 80))
        node = draw(st.sampled_from(["", "-", "--"])) + "(" * depth + node + ")" * depth
    return node


@pytest.mark.parametrize("atom", _ATOMS)
def test_every_fuzz_atom_parses_on_its_own(atom):
    # the fuzz below swallows LiteralError, so an atom that never parses
    # would go unseen there
    assert isinstance(cli.parse_tower(atom), TowerElem)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_LITERAL_TEXT, _literals()))
def test_parse_tower_fuzz(text):
    try:
        value = cli.parse_tower(text)
    except cli.LiteralError:
        return
    assert isinstance(value, TowerElem)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_LITERAL_TEXT, _literals()))
def test_emit_tau_fuzz_exits_0_or_2(text):
    result = CliRunner().invoke(cli.main, ["emit", "genus4", "--tau", text])
    assert result.exit_code in (0, 2), (text, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit)


# -- verify -----------------------------------------------------------------

def test_verify_all_json(runner):
    result = runner.invoke(cli.main, ["verify", "--all", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    checks = payload["checks"]
    assert len(checks) == 13
    assert all(c["verdict"] == "pass" for c in checks)
    ids = [c["id"] for c in checks]
    assert ids == [
        "lattice-type", "cycle-basis", "cover-table", "split-product",
        "riemann-symbolic", "riemann-positive", "deck-twist",
        "module-form", "form-diagonal", "ball-point", "special-fiber",
        "module-endo", "display-audit"]
    conv = payload["conventions"]
    assert conv["positivity_sign"] == 1
    assert conv["embedding"] == "sigma"
    assert conv["deck_weight_exponents"] == [6, 4, 2, 2]


def test_verify_single_tag_renders_a_line(runner):
    result = runner.invoke(cli.main, ["verify", "--only", "snf"])
    assert result.exit_code == 0
    assert "PASS" in result.output
    assert "lattice-type" in result.output
    assert "1 passed, 0 failed, 0 inconclusive" in result.output


def test_verify_unexpected_error_keeps_a_traceback(runner, monkeypatch):
    def broken(pm):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(periods, "first_relation_holds", broken)
    result = runner.invoke(cli.main, ["verify", "--only", "riemann", "--json"])
    assert result.exit_code == 1
    (check,) = json.loads(result.output)["checks"]
    assert (check["anchor"], check["verdict"]) == ("unexpected error", "fail")
    assert check["evidence"]["error"] == "ZeroDivisionError: injected"
    frames = check["evidence"]["traceback"]
    assert 1 <= len(frames) <= suite.TRACEBACK_FRAMES
    assert all(isinstance(f, str) for f in frames)
    assert frames[-2].startswith("suite.py:")
    assert "_check_riemann" in frames[-2] and "first_relation_holds" in frames[-2]
    assert "in broken" in frames[-1]
    # a passing check carries no traceback
    monkeypatch.undo()
    result = runner.invoke(cli.main, ["verify", "--only", "riemann", "--json"])
    (check,) = json.loads(result.output)["checks"]
    assert check["verdict"] == "pass" and "traceback" not in check["evidence"]


@pytest.mark.parametrize("strict", [False, True])
def test_every_only_run_matches_the_full_run(strict):
    # a partial run builds only the stages its checks read (--only endo
    # builds deck_hits without deck-twist), and must read them the same
    full = {c.id: dumps_json(c.to_json())
            for c in suite.run_all(prec=128, strict=strict).checks}
    for x in sorted({x for pair in suite.check_tags() for x in pair}):
        part = suite.run_all(prec=128, only=x, strict=strict).checks
        assert part and all(dumps_json(c.to_json()) == full[c.id] for c in part), x


def test_verify_low_precision_is_inconclusive(runner):
    result = runner.invoke(cli.main,
                           ["verify", "--only", "positivity", "--prec", "16"])
    assert result.exit_code == 3
    assert "INCONCLUSIVE" in result.output


def test_verify_strict_flags_display_divergences(runner):
    result = runner.invoke(cli.main,
                           ["verify", "--only", "errata", "--strict"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_strict_json_sees_a_slip_in_the_displayed_cycle_combos(
        runner, monkeypatch):
    before = runner.invoke(cli.main, ["verify", "--strict", "--json"])
    mutant = [list(row) for row in stcurve.REF_CYCLE_COMBOS]
    mutant[0][0] += 1       # e1 = 2 * loop 1 instead of loop 1
    monkeypatch.setattr(stcurve, "REF_CYCLE_COMBOS", mutant)
    after = runner.invoke(cli.main, ["verify", "--strict", "--json"])
    assert after.output != before.output
    assert after.exit_code == before.exit_code == 1
    old, new = (json.loads(r.output)["checks"] for r in (before, after))
    assert [c["verdict"] for c in old] == [c["verdict"] for c in new]
    (audit,) = [c for c in new if c["id"] == "display-audit"]
    combos = audit["evidence"]["divergences"]["cycle_combos"]
    assert [0, 0, 2] in combos      # the slipped entry, at its displayed value
    assert sorted({j for _, j, _ in combos}) == [0, 2, 3, 6, 7]


def test_prec_is_bounded_above(runner, tmp_path):
    # paths that never embed at the full precision, so the accepted side
    # is as quick as the refused one
    top, over = str(cli.MAX_PREC), str(cli.MAX_PREC + 1)
    result = runner.invoke(cli.main, ["verify", "--only", "snf", "--prec", top])
    assert result.exit_code == 0
    result = runner.invoke(cli.main, ["verify", "--only", "snf", "--prec", over])
    assert result.exit_code == 2 and "--prec" in _text(result)
    result = runner.invoke(cli.main, ["emit", "prym", "--special", "--prec", top])
    assert result.exit_code == 0
    result = runner.invoke(cli.main, ["emit", "prym", "--special", "--prec", over])
    assert result.exit_code == 2 and "--prec" in _text(result)
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(stcurve.GENUS4.to_json()))
    result = runner.invoke(cli.main, ["tools", "riemann-check", "--file", str(path),
                                      "--at", "tau=i", "--prec", over])
    assert result.exit_code == 2 and "--prec" in _text(result)


def test_verify_usage_errors(runner):
    result = runner.invoke(cli.main, ["verify", "--prec", "8"])
    assert result.exit_code == 2
    for tag in ("nonsense", ""):
        result = runner.invoke(cli.main, ["verify", "--only", tag])
        assert result.exit_code == 2
        assert "known:" in _text(result)
    result = runner.invoke(cli.main, ["verify", "--all", "--only", "snf"])
    assert result.exit_code == 2


# -- emit ---------------------------------------------------------------------

def test_emit_special_fiber_exact(runner):
    result = runner.invoke(cli.main,
                           ["emit", "prym", "--special"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["format"] == "exact-json"
    sp = stcurve.PRYM_SPECIAL
    got = [[TowerElem.from_json(x) for x in row]
           for row in payload["entries"]]
    assert got == [list(row) for row in sp]
    assert payload["polarization"] == intlat.mat_to_json(
        stcurve.PRYM_POLARIZATION)


def test_emit_is_reproducible(runner):
    args = ["emit", "prym", "--special", "--format", "decimal",
            "--prec", "64", "--digits", "12"]
    first = runner.invoke(cli.main, args)
    second = runner.invoke(cli.main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_emit_decimal_with_no_digits_prints_whole_parts(runner):
    args = ["emit", "prym", "--special", "--format", "decimal"]
    whole, one = (runner.invoke(cli.main, args + ["--digits", d])
                  for d in ("0", "1"))
    assert whole.exit_code == one.exit_code == 0
    entries = json.loads(whole.output)["entries"]
    parts = {s for row in entries for pair in row for s in pair}
    assert {"0", "-0", "1"} <= parts and not any("." in s for s in parts)
    # truncation toward zero drops the one fractional digit and its point
    assert entries == [[[s[:-2] for s in pair] for pair in row]
                       for row in json.loads(one.output)["entries"]]


def test_emit_family_point_decimal(runner):
    result = runner.invoke(cli.main,
                           ["emit", "prym", "--z1", "0", "--z2", "0",
                            "--format", "decimal", "--prec", "64",
                            "--digits", "8"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["precision_bits"] == 64
    assert payload["point"] == {"z1": "0", "z2": "0"}
    entries = payload["entries"]
    assert len(entries) == 3 and all(len(r) == 6 for r in entries)
    for row in entries:
        for re_s, im_s in row:
            float(re_s), float(im_s)


def test_emit_rejects_points_outside_the_ball(runner):
    result = runner.invoke(cli.main,
                           ["emit", "prym", "--z1", "1", "--z2", "0"])
    assert result.exit_code == 2
    assert "outside the unit ball" in _text(result)


def test_emit_genus4_point(runner):
    result = runner.invoke(cli.main,
                           ["emit", "genus4", "--tau", "i"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    row0 = [TowerElem.from_json(x) for x in payload["entries"][0]]
    assert row0[0] == IUNIT and row0[1] == IUNIT
    assert row0[2].is_zero()
    assert row0[3] == -ONE - IUNIT
    exact = stcurve.GENUS4.evaluate({"tau": IUNIT})
    got = [[TowerElem.from_json(x) for x in row]
           for row in payload["entries"]]
    assert got == [list(r) for r in exact]


# (arguments, the usage error that must win); the cases that combine two
# faults pin the order in which emit checks its options
EMIT_USAGE_ERRORS = [
    (["genus4"], "genus4 needs --tau"),
    (["genus4", "--tau=-i"], "tau must have positive imaginary part"),
    (["prym", "--tau", "i"], "prym takes no --tau"),
    (["prym", "--special", "--z1", "0", "--z2", "0"],
     "--special excludes --z1/--z2"),
    (["prym", "--z1", "0"], "need both --z1 and --z2"),
    (["prym", "--z1", "bogus", "--z2", "0"],
     "bad --z1 literal 'bogus': unexpected token 'bogus'"),
    (["prym", "--tau", "i", "--z1", "("], "need both --z1 and --z2"),
    (["prym", "--tau", "i", "--special"], "prym takes no --tau"),
    (["prym", "--special", "--z1", "("], "--special excludes --z1/--z2"),
    (["prym", "--z1", "1", "--z2", "("],
     "bad --z2 literal '(': expected a token, got None"),
    (["prym", "--prec", "8", "--tau", "i"], "--prec must be between 16 and"),
    (["genus4", "--z1", "0", "--z2", "0"], "genus4 needs --tau"),
    (["genus4", "--tau", "(", "--z1", "bogus", "--z2", "0"],
     "bad --tau literal '(': expected a token, got None"),
    (["genus4", "--tau", "-i", "--z1", "bogus", "--z2", "0"],
     "tau must have positive imaginary part"),
    (["genus4", "--tau", "-i", "--z1", "("], "need both --z1 and --z2"),
    (["genus4", "--tau", "i", "--z1", "0", "--z2", "bogus"],
     "bad --z2 literal 'bogus': unexpected token 'bogus'"),
    (["genus4", "--tau", "i", "--z1", "1", "--z2", "1"],
     "point outside the unit ball: |z1|^2 + |z2|^2 = 2.0000"),
    (["genus4", "--special", "--z1", "0"], "--special excludes --z1/--z2"),
    (["genus4", "--digits", "-1", "--tau", "-i"], "--digits must be between"),
]


def test_emit_usage_errors(runner):
    for args, message in EMIT_USAGE_ERRORS:
        result = runner.invoke(cli.main, ["emit", *args])
        assert result.exit_code == 2, args
        assert f"Error: {message}" in _text(result), args


def test_digits_is_bounded(runner):
    top = str(cli.MAX_DIGITS)
    result = runner.invoke(cli.main, ["emit", "prym", "--special", "--format",
                                      "decimal", "--prec", "16", "--digits", top])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["entries"][0][0][0]) > cli.MAX_DIGITS
    for bad in ("-1", str(cli.MAX_DIGITS + 1), str(10 ** 8)):
        result = runner.invoke(cli.main, ["emit", "prym", "--special",
                                          "--format", "decimal", "--digits", bad])
        assert result.exit_code == 2, bad
        assert (f"--digits must be between 0 and {cli.MAX_DIGITS}"
                in _text(result)), bad


# -- tools --------------------------------------------------------------------

def test_tools_snf(runner):
    blob = json.dumps(stcurve.PRYM_POLARIZATION)
    result = runner.invoke(cli.main, ["tools", "snf", "--matrix", blob])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["divisors"] == [1, 1, 1, 1, 3, 3]
    U, D, V = payload["U"], payload["D"], payload["V"]
    assert intlat.matmul(U, intlat.matmul(stcurve.PRYM_POLARIZATION, V)) == D


def test_tools_snf_computes_the_smith_form_once(runner, monkeypatch):
    calls = []
    real = intlat.smith_normal_form

    def counting(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(intlat, "smith_normal_form", counting)
    blob = json.dumps(stcurve.PRYM_POLARIZATION)
    result = runner.invoke(cli.main, ["tools", "snf", "--matrix", blob])
    assert result.exit_code == 0
    assert json.loads(result.output)["divisors"] == [1, 1, 1, 1, 3, 3]
    assert len(calls) == 1


def test_tools_snf_from_file(runner, tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps([[4, 0], [0, 6]]))
    result = runner.invoke(cli.main, ["tools", "snf", "--file", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["divisors"] == [2, 12]
    result = runner.invoke(cli.main,
                           ["tools", "snf", "--matrix", "@" + str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["divisors"] == [2, 12]


def test_tools_snf_usage_errors(runner):
    result = runner.invoke(cli.main, ["tools", "snf"])
    assert result.exit_code == 2
    result = runner.invoke(cli.main, ["tools", "snf", "--matrix", "not json"])
    assert result.exit_code == 2
    result = runner.invoke(cli.main,
                           ["tools", "snf", "--matrix", "[[0,2],[-2]]"])
    assert result.exit_code == 2
    result = runner.invoke(cli.main,
                           ["tools", "snf", "--file", "/no/such/file"])
    assert result.exit_code == 2


@pytest.mark.parametrize("source", ["--matrix", "--file"])
def test_tools_refuse_json_text_past_the_cap_before_parsing(runner, tmp_path,
                                                            monkeypatch, source):
    def given(text):
        if source == "--matrix":
            return ["--matrix", text]
        path = tmp_path / "mat.json"
        path.write_text(text)
        return ["--file", str(path)]

    at_cap = "[[1]]" + " " * (cli.MAX_JSON_TEXT - 5)
    result = runner.invoke(cli.main, ["tools", "snf", *given(at_cap)])
    assert result.exit_code == 0 and json.loads(result.output)["divisors"] == [1]
    parsed, real = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or real(text))
    result = runner.invoke(cli.main, ["tools", "snf", *given(at_cap + " ")])
    assert result.exit_code == 2
    assert "longer than" in _text(result) and parsed == []


def _child_exit_and_maxrss_kb(args):
    """Exit code and peak RSS (KB) of the CLI on args in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "cycloperiods.cli", *args],
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def test_a_huge_json_file_is_refused_in_little_memory(tmp_path):
    # 10^7 zeros in one list, 20 MB: parsed, it peaked at about 150 MB
    path = tmp_path / "zeros.json"
    path.write_text("[" + ",".join("0" * 10 ** 7) + "]")
    code, trivial = _child_exit_and_maxrss_kb(["tools", "snf", "--matrix", "[[1]]"])
    assert code == 0
    code, huge = _child_exit_and_maxrss_kb(["tools", "snf", "--file", str(path)])
    assert code == 2
    assert huge - trivial <= 12 * 1024


def test_riemann_check_accepts_the_largest_input_its_bounds_allow(runner, tmp_path):
    # a dense g = 4 matrix with 8 parameters, every entry over one 512-bit
    # denominator: the longest JSON inside the genus, parameter and height bounds
    rng = random.Random(4)
    d = (1 << 511) | 1

    def entry():
        q = [Fraction(rng.getrandbits(511), d) for _ in range(8)]
        return TowerElem(q[:4], q[4:])
    names = [f"t{k}" for k in range(cli.MAX_RIEMANN_PARAMS)]
    pm = periods.PeriodMatrix(4, names, [[[entry() for _ in range(8)] for _ in range(4)]
                                         for _ in range(1 + len(names))],
                              intlat.standard_symplectic(4))
    path = tmp_path / "largest.json"
    path.write_text(dumps_json(pm.to_json()))
    assert 800_000 < len(path.read_text()) < cli.MAX_JSON_TEXT
    result = runner.invoke(cli.main, ["tools", "riemann-check", "--file", str(path),
                                      *[a for p in names for a in ("--at", f"{p}=1")]])
    # read and bounded like any other input; a random matrix fails the relation
    assert result.exit_code == 1, _text(result)
    assert json.loads(result.output)["first_relation"] is False


_HUGE = "9" * 5001
_TOO_WIDE = json.dumps([[0] * 33])
_TOO_TALL = json.dumps([[0]] * 33)


@pytest.mark.parametrize("command", ["snf", "symplectic-basis"])
@pytest.mark.parametrize("blob", [
    "[[0,1.5],[-1.5,0]]",                     # floats are not truncated
    '[[true,"7"],[2.9,4]]',                   # nor booleans and strings
    "[[0,%s],[-1,0]]" % _HUGE,                # past Python's digit limit
    _TOO_WIDE,
    _TOO_TALL,
    '{"rows": 1, "cols": 1, "data": [[[3, 2]]]}',     # not an integer
    '{"rows": 1, "cols": 1, "data": [[[1, 0]]]}',     # zero denominator
    '{"rows": 1, "cols": 1, "data": [[true]]}',
    '{"rows": 33, "cols": 1, "data": %s}' % _TOO_TALL,
    # 4,000-digit entries, past the height bound
    "[[%s,%s],[%s,1]]" % ("9" * 4000, "7" * 4000, "3" * 3999),
])
def test_tools_reject_hostile_matrices(runner, command, blob):
    result = runner.invoke(cli.main, ["tools", command, "--matrix", blob])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in _text(result)


def test_tools_accept_the_largest_matrices(runner):
    blob = json.dumps([[0] * 32 for _ in range(32)])
    result = runner.invoke(cli.main, ["tools", "snf", "--matrix", blob])
    assert result.exit_code == 0
    assert json.loads(result.output)["divisors"] == [0] * 32


@pytest.mark.parametrize("command", ["snf", "symplectic-basis"])
def test_tools_bound_the_matrix_height(runner, command):
    bound = cli.MAX_MATRIX_HEIGHT_BITS
    # two rows, so the largest entry may have bound / 2 bits
    for bits, code in ((bound // 2, 0), (bound // 2 + 1, 2)):
        x = 1 << (bits - 1)
        blob = json.dumps([[0, x], [-x, 0]])
        result = runner.invoke(cli.main, ["tools", command, "--matrix", blob])
        assert result.exit_code == code, _text(result)
        assert (f"passes {bound}" in _text(result)) == (code == 2)


def test_tools_symplectic_basis(runner):
    blob = json.dumps(stcurve.PRYM_POLARIZATION)
    result = runner.invoke(cli.main,
                           ["tools", "symplectic-basis", "--matrix", blob])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["divisors"] == [1, 1, 3]
    result = runner.invoke(cli.main,
                           ["tools", "symplectic-basis", "--matrix",
                            "[[0,0],[0,0]]"])
    assert result.exit_code == 2
    assert "degenerate" in _text(result)
    result = runner.invoke(cli.main,
                           ["tools", "symplectic-basis", "--matrix",
                            "[[1,0],[0,1]]"])
    assert result.exit_code == 2


def test_tools_riemann_check(runner, tmp_path):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(stcurve.GENUS4.to_json()))
    result = runner.invoke(cli.main,
                           ["tools", "riemann-check", "--file", str(path),
                            "--at", "tau=i"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["first_relation"] is True
    assert payload["positivity"] == "positive"
    assert len(payload["minor_ranges"]) == 4

    result = runner.invoke(cli.main,
                           ["tools", "riemann-check", "--file", str(path),
                            "--at", "tau=0-i"])
    assert result.exit_code == 1
    assert json.loads(result.output)["positivity"] == "not-positive"

    result = runner.invoke(cli.main,
                           ["tools", "riemann-check", "--file", str(path)])
    assert result.exit_code == 2
    assert "missing --at" in _text(result)

    result = runner.invoke(cli.main,
                           ["tools", "riemann-check", "--file", str(path),
                            "--at", "tau"])
    assert result.exit_code == 2

    result = runner.invoke(cli.main,
                           ["tools", "riemann-check", "--matrix", "{}"])
    assert result.exit_code == 2


def test_tools_riemann_check_refuses_a_repeated_or_undeclared_name(runner, tmp_path):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(stcurve.GENUS4.to_json()))
    for extra, why in ((["--at", "tau=-i"], "--at tau is given twice"),
                       (["--at", "bogus=1"], "--at bogus is not a parameter")):
        result = runner.invoke(cli.main, ["tools", "riemann-check", "--file", str(path),
                                          "--at", "tau=i", *extra])
        assert result.exit_code == 2, _text(result)
        assert f"{why}; the matrix declares ['tau']" in _text(result)
        assert "Traceback" not in _text(result)


def test_tools_riemann_check_is_exact_near_the_real_axis(runner, tmp_path):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(stcurve.GENUS4.to_json()))
    result = runner.invoke(cli.main,
                           ["tools", "riemann-check", "--file", str(path),
                            "--at", "tau=(1/2)^200*i"])
    assert result.exit_code == 0
    assert json.loads(result.output)["positivity"] == "positive"


def test_tools_riemann_check_reports_minors_past_the_double_range(runner, tmp_path):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(stcurve.GENUS4.to_json()))
    result = runner.invoke(cli.main,
                           ["tools", "riemann-check", "--file", str(path),
                            "--at", "tau=i*(2^1024)"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["positivity"] == "positive"
    # each bound is rounded outward: the largest double below, infinity above
    assert payload["minor_ranges"] == [[k, 1.7976931348623157e308, float("inf")]
                                       for k in range(1, 5)]
    result = runner.invoke(cli.main,
                           ["tools", "riemann-check", "--file", str(path),
                            "--at", "tau=-i*(2^1024)"])
    assert result.exit_code == 1
    assert json.loads(result.output)["minor_ranges"] == [
        [1, float("-inf"), -1.7976931348623157e308]]


def test_tools_riemann_check_refuses_a_degenerate_polarization(runner, tmp_path):
    obj = stcurve.GENUS4.to_json()
    obj["polarization"]["data"] = [[0] * 8 for _ in range(8)]
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(cli.main,
                           ["tools", "riemann-check", "--file", str(path),
                            "--at", "tau=i"])
    assert result.exit_code == 2
    assert "polarization is degenerate" in _text(result)
    assert "Traceback" not in _text(result)


# (1 | a) with a second, unused parameter b: the genus-1 matrix that the
# truncating reads of 1.7, true, [3, 2], [true, 1] and "ab" reproduce
_GENUS1 = periods.PeriodMatrix(1, ["a", "b"], [[[1, 0]], [[0, 1]], [[0, 0]]],
                               intlat.standard_symplectic(1)).to_json()


def _edited(path, value):
    """The JSON text of _GENUS1 with the entry at path set to value."""
    root = obj = json.loads(json.dumps(_GENUS1))
    *keys, last = path
    for k in keys:
        obj = obj[k]
    obj[last] = value
    return json.dumps(root)


_COORD = ("entries", 0, 0, "const", "c", 0)


_ONE = ONE.to_json()


@pytest.mark.parametrize("blob, message", [
    (_edited(_COORD, [1, 0]), "malformed tower element"),
    (_edited(_COORD, [True, 1]), "malformed tower element"),
    (_edited(("polarization", "data", 0, 1), [3, 2]), "polarization integral"),
    (json.dumps(_GENUS1).replace('"g": 1,', '"g": 1.7,'), "g must be an int"),
    (json.dumps(_GENUS1).replace('"g": 1,', '"g": true,'), "g must be an int"),
    (json.dumps(_GENUS1).replace('"g": 1,', '"g": 1e999,'), "g must be an int"),
    (_edited(("params",), "ab"), "params strings"),
    (_edited(("entries", 0, 1), {"a": _ONE}), "needs a 'const' entry"),
    (_edited(("entries", 0, 0, "c"), _ONE), "undeclared parameters ['c']"),
    (_edited(("entries", 0, 0), 1), "malformed period matrix object"),
    (_edited(("entries", 0, 0), "const"), "malformed period matrix object"),
    (_edited(("entries", 0, 0), []), "needs a 'const' entry"),
], ids=["zero-denominator", "boolean-coordinate", "fractional-polarization",
        "float-g", "boolean-g", "overflowing-g", "string-params",
        "entry-without-const", "undeclared-parameter", "int-entry",
        "string-entry", "list-entry"])
def test_tools_riemann_check_rejects_malformed_json(runner, blob, message):
    result = runner.invoke(cli.main, ["tools", "riemann-check", "--matrix", blob,
                                      "--at", "a=-i", "--at", "b=0"])
    assert result.exit_code == 2, _text(result)
    assert "malformed period matrix" in _text(result)
    assert message in _text(result)
    assert "Traceback" not in _text(result)


def test_tools_riemann_check_drops_an_undeclared_zero_coefficient(runner):
    blob = _edited(("entries", 0, 0, "c"), ZERO.to_json())
    args = ["tools", "riemann-check", "--at", "a=-i", "--at", "b=0", "--matrix"]
    result = runner.invoke(cli.main, args + [blob])
    assert result.exit_code == 0, _text(result)
    assert result.output == runner.invoke(cli.main, args + [json.dumps(_GENUS1)]).output


@pytest.mark.parametrize("g, p, code", [
    (cli.MAX_RIEMANN_GENUS, 1, 0), (cli.MAX_RIEMANN_GENUS + 1, 1, 2),
    (1, cli.MAX_RIEMANN_PARAMS, 0), (1, cli.MAX_RIEMANN_PARAMS + 1, 2)])
def test_tools_riemann_check_bounds_genus_and_parameters(runner, tmp_path, g, p, code):
    # (I | tau I) plus unused parameters t1, t2, ...
    names = ["tau"] + [f"t{k}" for k in range(1, p)]
    eye = [[int(j == i) for j in range(2 * g)] for i in range(g)]
    tau = [[int(j == g + i) for j in range(2 * g)] for i in range(g)]
    zero = [[0] * (2 * g) for _ in range(g)]
    pm = periods.PeriodMatrix(g, names, [eye, tau] + [zero] * (p - 1),
                              intlat.standard_symplectic(g))
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(pm.to_json()))
    result = runner.invoke(cli.main, ["tools", "riemann-check", "--file", str(path),
                                      *[a for n in names for a in ("--at", f"{n}=-i")]])
    assert result.exit_code == code, _text(result)
    assert ("at most genus" in _text(result)) == (code == 2)


@pytest.mark.parametrize("extra, code", [(0, 1), (1, 2)])
def test_tools_riemann_check_bounds_the_polarization_height(runner, extra, code):
    # (I | -i I) at g = 8 with a seeded 16 x 16 polarization whose largest
    # entry has MAX_MATRIX_HEIGHT_BITS / 16 bits, then one bit more
    rng, bits = random.Random(8), cli.MAX_MATRIX_HEIGHT_BITS // 16 + extra
    E = [[0] * 16 for _ in range(16)]
    for i in range(16):
        for j in range(i + 1, 16):
            E[i][j] = 2 ** (bits - 1) if j == i + 1 else rng.randint(-2 ** 20, 2 ** 20)
            E[j][i] = -E[i][j]
    pm = periods.PeriodMatrix(8, [], [[[int(j == i) - IUNIT * (j == 8 + i)
                                        for j in range(16)] for i in range(8)]], E)
    result = runner.invoke(cli.main, ["tools", "riemann-check", "--matrix",
                                      json.dumps(pm.to_json())])
    # a random polarization fails the first relation (exit 1) once accepted
    assert result.exit_code == code, _text(result)
    assert ("passes 2048" in _text(result)) == (code == 2)


_MATRIX_BITS, _POINT_BITS = cli.MAX_RIEMANN_MATRIX_BITS, cli.MAX_RIEMANN_POINT_BITS


@pytest.mark.parametrize("consts, tau, code", [
    ([Fraction(1, 2 ** (_MATRIX_BITS - 1))], "-i", 0),
    ([Fraction(1, 2 ** _MATRIX_BITS)], "-i", 2),
    ([0], f"-i+1/{2 ** (_POINT_BITS - 1)}", 0),
    ([0], f"-i+1/{2 ** _POINT_BITS}", 2),
    # both bounds halve with each genus above 4
    ([Fraction(1, 2 ** ((_MATRIX_BITS >> 4) - 1))] + [0] * 7, "-i", 0),
    ([Fraction(1, 2 ** (_MATRIX_BITS >> 4))] + [0] * 7, "-i", 2),
    ([0] * 8, f"-i+1/{2 ** ((_POINT_BITS >> 4) - 1)}", 0),
    ([0] * 8, f"-i+1/{2 ** (_POINT_BITS >> 4)}", 2),
    # 21 bits each, 41 over their common denominator
    ([Fraction(1, 3 ** 13), Fraction(1, 2 ** 20)] + [0] * 6, "-i", 2)])
def test_tools_riemann_check_bounds_heights(runner, tmp_path, consts, tau, code):
    # (I | diag(tau + c_1, ..., tau + c_g))
    g = len(consts)
    const = [[1 if j == i else consts[i] if j == g + i else 0
              for j in range(2 * g)] for i in range(g)]
    slope = [[int(j == g + i) for j in range(2 * g)] for i in range(g)]
    pm = periods.PeriodMatrix(g, ["tau"], [const, slope], intlat.standard_symplectic(g))
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(pm.to_json()))
    result = runner.invoke(cli.main, ["tools", "riemann-check", "--file", str(path),
                                      "--at", f"tau={tau}"])
    assert result.exit_code == code, _text(result)
    assert ("height over one common denominator" in _text(result)) == (code == 2)


def test_tools_covers(runner):
    result = runner.invoke(cli.main,
                           ["tools", "covers", "--n", "6",
                            "--exponents", "1,1,1,3"])
    assert result.exit_code == 0
    assert "genus 4" in result.output
    rows = [line.split() for line in result.output.splitlines()[1:6]]
    assert [[int(x) for x in r] for r in rows] == [
        [1, 2, 0], [2, 1, 0], [3, 2, 1], [4, 1, 1], [5, 2, 2]]

    result = runner.invoke(cli.main,
                           ["tools", "covers", "--n", "6",
                            "--exponents", "1,1,1"])
    assert result.exit_code == 2
    result = runner.invoke(cli.main,
                           ["tools", "covers", "--n", "6",
                            "--exponents", "x"])
    assert result.exit_code == 2


def test_tools_covers_bounds_the_degree(runner):
    top = cli.MAX_COVER_DEGREE
    result = runner.invoke(cli.main, ["tools", "covers", "--n", str(top),
                                      "--exponents", f"1,1,1,{top - 3}"])
    assert result.exit_code == 0
    assert len(result.output.splitlines()) == top + 1
    # valid branch data one past the bound; then a degree far past it,
    # refused before its branch data is read
    for n, exponents in ((top + 1, f"1,1,1,{top - 2}"), (10 ** 30, "x")):
        result = runner.invoke(cli.main, ["tools", "covers", "--n", str(n),
                                          "--exponents", exponents])
        assert result.exit_code == 2
        assert f"x<={top}" in _text(result)
        assert "Traceback" not in _text(result)


def test_tools_covers_bounds_the_exponent_list(runner):
    top = cli.MAX_COVER_EXPONENTS
    for count, code in ((top, 0), (top + 1, 2)):
        # count - 1 ones and the exponent that closes the sum mod 100
        data = ",".join(["1"] * (count - 1) + [str(101 - count)])
        result = runner.invoke(cli.main, ["tools", "covers", "--n", "100",
                                          "--exponents", data])
        assert result.exit_code == code, _text(result)
    assert f"at most {top}" in _text(result)
    assert "Traceback" not in _text(result)


# values for the JSON writer: ints up to and past Python's 4,300-digit
# limit for int-to-str conversion, floats with NaN and +-inf, non-ASCII
# strings, bools, None and Fractions (written through default=str), in
# nested lists, tuples and dicts, empty ones and ones with non-string keys;
# rows of ints, alone and mixed with bools, which are ints to isinstance
_digits = st.integers(4290, 4310).map(lambda d: 10 ** (d - 1))
_scalars = st.one_of(st.integers(),
                     st.builds(mul, st.sampled_from((-1, 1)), _digits),
                     st.floats(), st.sampled_from((nan, inf, -inf)),
                     st.text(), st.booleans(), st.none(), st.fractions())
_keys = st.one_of(st.text(), st.integers(-3, 3), st.floats(), st.booleans(),
                  st.none())
_json_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple), st.lists(st.integers()),
    st.lists(st.integers() | st.booleans()),
    st.dictionaries(st.text(), inner), st.dictionaries(_keys, inner)),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_dumps_json_matches_json_dumps_byte_for_byte(obj):
    try:
        want = json.dumps(obj, indent=2, sort_keys=True, default=str)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as err:
            dumps_json(obj)
        assert type(err.value) is type(exc)
    else:
        assert dumps_json(obj) == want
