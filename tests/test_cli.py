"""CLI behavior: flag grammar, exit codes, determinism of rendered output."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import etaq
import etaq.cli
from etaq.cli import EXIT_CLOSED_PIPE, MAX_COUNT, MAX_WEIGHT, _json, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_eta(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--eta", "eta(2)^20*eta(1)^-8*eta(4)^-8", "--prec", "5", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["weight"] == "2"
    assert [8, 1, 24] in data["coeffs"]  # coefficient 8 at q^(24/24)


def test_expand_eta_o_term_in_lowest_terms(capsys):
    code, out, _ = run_cli(capsys, "expand", "--eta", "eta(1)^24", "--prec", "3")
    assert code == 0
    series = next(line for line in out.splitlines() if line.startswith("series: "))
    assert series.endswith("252*q^3 + O(q^4)")


PREC_COMMANDS = [
    (["expand", "--eta", "eta(1)^-1"], "q-exponent"),
    (["cusp-expand", "--element", "E4(1)", "--level", "4", "--cusp", "1/2"], "local-variable exponent"),
    (["verify", "--suite", "identities"], "q-exponent"),
]


def test_prec_must_be_positive(capsys):
    for sub, unit in PREC_COMMANDS:
        for prec in ("0", "-3"):
            code, out, err = run_cli(capsys, *sub, "--prec", prec)
            assert code == 2 and out == ""
            assert f"at least 1 {unit}, got {prec}" in err
            assert "offset" not in err


def test_counts_are_bounded(capsys):
    # the limit itself parses (and is not run); one more is a usage error
    # in the flag's own unit
    limit = str(MAX_COUNT)
    over = str(MAX_COUNT + 1)
    for sub, unit in PREC_COMMANDS:
        assert build_parser().parse_args([*sub, "--prec", limit]).prec == MAX_COUNT
        code, out, err = run_cli(capsys, *sub, "--prec", over)
        assert code == 2 and out == ""
        assert f"argument --prec: must be at most {limit} {unit}s, got {over}" in err
    maingen = ["verify", "--suite", "maingen", "--samples"]
    assert build_parser().parse_args([*maingen, limit]).samples == MAX_COUNT
    code, out, err = run_cli(capsys, *maingen, over)
    assert code == 2 and out == ""
    assert f"argument --samples: must be at most {limit} samples, got {over}" in err


def test_weights_are_bounded(capsys):
    # the limit itself parses (and runs, for an element to 2 exponents);
    # the next even weight is a usage error in weights, in every place a
    # weight is given; parse_element itself takes any weight
    from etaq.eisenstein import parse_element

    limit, over = str(MAX_WEIGHT), str(MAX_WEIGHT + 2)
    search = ["search", "--level", "2", "--weight"]
    assert build_parser().parse_args([*search, limit]).weight == MAX_WEIGHT
    code, out, err = run_cli(capsys, *search, over)
    assert code == 2 and out == ""
    assert f"argument --weight: a weight must be at most {limit}, got {over}" in err
    maingen = ["verify", "--suite", "maingen", "--weights"]
    assert build_parser().parse_args([*maingen, f"2,{limit}"]).weights == [2, MAX_WEIGHT]
    code, out, err = run_cli(capsys, *maingen, f"2,{over}")
    assert code == 2 and out == ""
    assert f"argument --weights: every weight must be at most {limit}, got {over}" in err
    for sub in (["expand"], ["cusp-expand", "--level", "1", "--cusp", "1/1"]):
        code, out, err = run_cli(capsys, *sub, "--element", f"E{over}(1)", "--prec", "2")
        assert code == 2 and out == ""
        assert err == f"error: the weight of --element must be at most {limit}, got {over}\n"
        code, out, err = run_cli(capsys, *sub, "--element", f"E{limit}(1)", "--prec", "2")
        assert code == 0 and out and err == ""
    assert parse_element(f"E{over}(1)").k == MAX_WEIGHT + 2


def test_expand_element(capsys):
    code, out, _ = run_cli(capsys, "expand", "--element", "8*E2(1)-32*E2(4)", "--level", "4", "--prec", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == [[1, 1, 0], [8, 1, 1], [24, 1, 2], [32, 1, 3]]


def test_expand_requires_input(capsys):
    code, _, err = run_cli(capsys, "expand", "--prec", "4")
    assert code == 2
    assert "expand needs" in err


def test_expand_input_errors(capsys):
    # a sign that begins no term is named; two inputs are refused at parse time
    code, out, err = run_cli(capsys, "expand", "--element", "+")
    assert (code, out) == (2, "")
    assert err == "error: sign '+' begins no term at '+'\n"
    code, out, err = run_cli(capsys, "expand", "--eta", "eta(1)^24", "--element", "E4(1)")
    assert (code, out) == (2, "")
    assert "argument --element: not allowed with argument --eta" in err


def test_eta_order(capsys):
    code, out, _ = run_cli(capsys, "eta-order", "--eta", "eta(2)^20*eta(1)^-8*eta(4)^-8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["orders"] == {"1": "0", "2": "1", "4": "0"}
    assert data["modular"] is True
    assert data["total_cusp_order"] == "1"


def test_cusp_expand_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "cusp-expand",
        "--element",
        "8*E2(1)-32*E2(4)",
        "--level",
        "4",
        "--cusp",
        "1/2",
        "--prec",
        "10",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 1
    assert data["leading_coeff"] == "16"
    assert data["width"] == 1


def test_cusp_expand_bad_cusp(capsys):
    code, _, err = run_cli(
        capsys, "cusp-expand", "--element", "E4(1)", "--level", "4", "--cusp", "1/3", "--prec", "4"
    )
    assert code == 2


def test_cusp_expand_bad_cusp_names_the_format(capsys):
    for text in ("1/2/3", "x/2", "12"):
        code, out, err = run_cli(
            capsys, "cusp-expand", "--element", "E4(1)", "--level", "4", "--cusp", text
        )
        assert code == 2 and out == ""
        assert err == f"error: bad cusp {text!r}: expected a/c with integers a and c\n"
    code, _, err = run_cli(
        capsys, "cusp-expand", "--element", "E4(1)", "--level", "4", "--cusp", "1/3"
    )
    assert code == 2
    assert err == "error: bad cusp '1/3': denominator 3 must be a positive divisor of 4\n"


@pytest.mark.parametrize("argv", [
    ["expand", "--element", "E4(1)"],
    ["eta-order", "--eta", "eta(1)^24"],
    ["cusp-expand", "--element", "E4(1)", "--cusp", "1/2"],
])
def test_level_must_be_positive_everywhere(capsys, argv):
    for level in ("0", "-4"):
        code, out, err = run_cli(capsys, *argv, "--level", level)
        assert code == 2 and out == ""
        assert f"argument --level: a level must be at least 1, got {level}" in err


def test_malformed_eta_names_token(capsys):
    code, _, err = run_cli(capsys, "expand", "--eta", "eta(2)^^3")
    assert code == 2
    assert "eta(2)^^3" in err


def test_malformed_element_names_token(capsys):
    code, _, err = run_cli(capsys, "expand", "--element", "3*G2(1)", "--level", "4")
    assert code == 2
    assert "G2(1)" in err


def test_element_zero_denominator_names_term(capsys):
    code, out, err = run_cli(capsys, "expand", "--element", "1/0*E4(1)")
    assert code == 2 and out == ""
    assert err == "error: zero denominator in coefficient of '1/0*E4(1)'\n"
    code, _, err = run_cli(capsys, "expand", "--element", "E4(1)-3/0*E4(2)", "--level", "2")
    assert code == 2
    assert "zero denominator in coefficient of '-3/0*E4(2)'" in err


def test_element_zero_t_names_term(capsys):
    for argv in (
        ["expand", "--element", "E4(0)"],
        ["expand", "--element", "E4(0)", "--level", "4"],
        ["cusp-expand", "--element", "E4(0)", "--level", "5", "--cusp", "1/5"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: the t in Ek(t) must be at least 1 in 'E4(0)'\n"


GOLDEN = Path(__file__).parent / "data" / "cusp_expand_golden.json"


@pytest.mark.parametrize("case", json.loads(GOLDEN.read_text()), ids=lambda c: " ".join(c["argv"][1:]))
def test_cusp_expand_golden(capsys, case):
    """Byte-stable cusp expansions at levels 27, 32, 49 and 125, in text
    and JSON: mixed t, cyclotomic orders 3 to 27 whose reduction mod Phi_L
    wraps exponents, and one expansion that is zero to precision."""
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == 0
    assert out == case["stdout"]


SEARCH_GOLDEN = Path(__file__).parent / "data" / "search_golden.json"


@pytest.mark.parametrize("case", json.loads(SEARCH_GOLDEN.read_text()), ids=lambda c: " ".join(c["argv"]))
def test_search_golden(capsys, case):
    """Byte-stable search output for all 19 classification cells and the
    level-4 second-derivative search, in text and JSON."""
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == 0
    assert out == case["stdout"]


CLI_GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


@pytest.mark.parametrize("case", json.loads(CLI_GOLDEN.read_text()), ids=lambda c: " ".join(c["argv"]))
def test_cli_golden(capsys, case):
    """Byte-stable output of expand (six eta quotients at 30 and one at
    200 q-exponents, three Eisenstein combinations), eta-order, dual-pairs
    and every verify suite, in text and JSON, with their exit codes."""
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["code"]
    assert out == case["stdout"]


def test_search_level9(capsys):
    code, out, _ = run_cli(capsys, "search", "--weight", "2", "--level", "9", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["pairs"][0]["eta"]["exponents"] == {"1": -3, "3": 10, "9": -3}


def test_search_rejects_composite_level(capsys):
    code, _, err = run_cli(capsys, "search", "--weight", "2", "--level", "12")
    assert code == 2


def test_search_level_must_be_positive(capsys):
    for level in ("0", "-4"):
        code, out, err = run_cli(capsys, "search", "--weight", "2", "--level", level)
        assert code == 2 and out == ""
        assert f"argument --level: a level must be at least 1, got {level}" in err
        assert "factorize" not in err


@pytest.mark.parametrize("flag, value, message", [
    ("--samples", "-1", "argument --samples: must be at least 1 sample, got -1"),
    ("--samples", "0", "argument --samples: must be at least 1 sample, got 0"),
    ("--levels", "", "argument --levels: must name at least one level, got ''"),
    ("--levels", ",", "argument --levels: must name at least one level, got ','"),
    ("--levels", "4,0", "argument --levels: every level must be at least 1, got 0"),
    ("--levels", "4,x", "argument --levels: expected comma-separated levels, got '4,x'"),
    ("--weights", "", "argument --weights: must name at least one weight, got ''"),
    ("--weights", "2,0", "argument --weights: every weight must be at least 2, got 0"),
    ("--levels", "6", "argument --levels: every level must be a prime power, got 6"),
    ("--levels", "4,9,12", "argument --levels: every level must be a prime power, got 12"),
    ("--weights", "3", "argument --weights: every weight must be even, got 3"),
    ("--weights", "2,4,5", "argument --weights: every weight must be even, got 5"),
])
def test_verify_rejects_empty_runs(capsys, flag, value, message):
    argv = ["verify", "--suite", "maingen", "--samples", "2", "--levels", "4",
            "--weights", "2", flag, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("suite", ["maingen", "all"])
def test_verify_rejects_weight2_at_level1_before_any_suite(capsys, monkeypatch, suite):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(etaq.eisenstein, "verify_identities", refuse)
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--weights", "4,2",
                             "--levels", "4,1")
    assert code == 2 and out == ""
    assert err == "error: --weights 2 with --levels 1: the weight-2 space at level 1 is trivial\n"


@pytest.mark.parametrize("value, message", [
    ("3", "argument --weight: a weight must be even and at least 2, got 3"),
    ("0", "argument --weight: a weight must be even and at least 2, got 0"),
    ("-2", "argument --weight: a weight must be even and at least 2, got -2"),
    ("x", "argument --weight: expected a weight, got 'x'"),
])
def test_search_weight_must_be_even_and_positive(capsys, value, message):
    code, out, err = run_cli(capsys, "search", "--weight", value, "--level", "4")
    assert code == 2 and out == ""
    assert message in err


def test_certificate_failure_is_internal_error(capsys, monkeypatch):
    from etaq.series import QSeries

    monkeypatch.setattr(QSeries, "is_zero_to_prec", lambda self: False)
    code, out, err = run_cli(capsys, "second-derivative")
    assert code == 3 and out == ""
    assert err == "internal error: second-derivative ratio certification failed for r = (-4, 2, 0)\n"
    code, out, err = run_cli(capsys, "dual-pairs")
    assert code == 3 and out == ""
    assert err.startswith("internal error: antiderivative certification failed for g = eta(")


def test_precision_exhaustion_is_internal_error(capsys, monkeypatch):
    # a series check that runs out of known precision inside a
    # certification is the program's failure, not the user's
    from etaq.series import QSeries, SeriesDomainError

    def exhausted(self):
        raise SeriesDomainError("precision-exhausted", "operands share no known window")

    monkeypatch.setattr(QSeries, "is_zero_to_prec", exhausted)
    for argv in (["second-derivative"], ["dual-pairs", "--json"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err == "internal error: precision-exhausted: operands share no known window\n"


def test_other_arithmetic_errors_are_internal_errors(capsys, monkeypatch):
    # no input the parsers accept reaches a bare ArithmeticError: one is
    # always the program's fault
    from etaq.series import QSeries

    def fails(self):
        raise ArithmeticError("no such thing")

    monkeypatch.setattr(QSeries, "is_zero_to_prec", fails)
    code, out, err = run_cli(capsys, "second-derivative")
    assert code == 3 and out == "" and err == "internal error: no such thing\n"


def test_expansion_faults_are_internal_errors(capsys, monkeypatch):
    from etaq.eta import EtaQuotient

    for exc in (ArithmeticError("log-derivative recurrence: 5 does not divide 7"),
                ZeroDivisionError("division by zero")):
        def fails(self, prec, exc=exc):
            raise exc

        monkeypatch.setattr(EtaQuotient, "expansion", fails)
        code, out, err = run_cli(capsys, "expand", "--eta", "eta(1)^24", "--prec", "5")
        assert code == 3 and out == ""
        assert err == f"internal error: {exc}\n"


def test_verify_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--prec", "60", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    statuses = {c["identity"]: c["status"] for c in data["identities"]}
    assert statuses["jacobi-four-squares"] == "ok"
    assert statuses["theta-power-eisenstein-part-2k2"] == "remainder"


def test_verify_identities_at_every_prec(capsys):
    # agreement below the largest Sturm bound of the equalities, 4 at
    # level 12 in weight 2, proves nothing: a usage error
    for prec in ("1", "2", "3"):
        code, out, err = run_cli(capsys, "verify", "--suite", "identities", "--prec", prec, "--json")
        assert (code, out) == (2, "")
        assert err == (f"error: prec {prec} lies below the Sturm bound of "
                       "williams-table-no24, 4 q-exponents\n")
    code, out, err = run_cli(capsys, "verify", "--suite", "identities", "--prec", "4", "--json")
    assert (code, err) == (0, "")
    checks = json.loads(out)["identities"]
    assert {c["status"] for c in checks} <= {"ok", "remainder"}
    assert {c["bound"] for c in checks if c["status"] == "ok"} == {4}


def test_verify_order_bounds_small(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "maingen",
        "--samples",
        "5",
        "--seed",
        "3",
        "--levels",
        "2,4,9",
        "--weights",
        "2,4",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["checked"] == 30
    assert data["failures"] == []


def test_unknown_command_exit_2(capsys):
    assert main(["no-such-command"]) == 2


def test_deterministic_output(capsys):
    argv = ["search", "--weight", "4", "--level", "4", "--json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_deterministic_seeded_verify(capsys):
    argv = [
        "verify", "--suite", "maingen", "--samples", "3", "--seed", "11",
        "--levels", "4,9", "--weights", "2", "--json",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_one_parser_per_process_keeps_no_state(capsys, monkeypatch):
    """The cached parser serves a usage error, a maingen run on the
    default --levels and --weights, then a search, twice over, and each
    call prints byte for byte what a fresh process prints."""
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at this width
    src = str(Path(etaq.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    runs = [
        ["verify", "--samples", "0"],
        ["verify", "--suite", "maingen", "--samples", "1"],
        ["search", "--weight", "2", "--level", "9"],
    ]
    fresh = []
    for argv in runs:
        done = subprocess.run([sys.executable, "-m", "etaq", *argv], capture_output=True,
                              text=True, env=env, check=False)
        fresh.append((done.returncode, done.stdout, done.stderr))
    # twice, so that state one call leaves behind would show in the next
    for argv, expect in zip(runs + runs, fresh + fresh):
        assert run_cli(capsys, *argv) == expect, argv
    assert build_parser() is build_parser()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_option_is_documented():
    """Each option string of each subcommand, besides -h/--help, appears
    in README's "Command line" section as a whole flag."""
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (subparsers,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            for option in set(action.option_strings) - {"-h", "--help"}:
                assert re.search(re.escape(option) + r"(?![\w-])", section), (name, option)


def reference_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# strings that would break a textual layout, or need escapes
AWKWARD = ["", "],[", '","', "[", "]", ",", '"', "\\", "\x00\x1f\x7f", "\n\t", "é", "\u2028", "𝔼₂"]
texts = st.text() | st.sampled_from(AWKWARD)
ints = st.integers() | st.integers(-(2**200), 2**200)
int_lists = st.lists(ints | st.booleans(), max_size=5)
leaves = (st.none() | st.booleans() | ints | texts | st.floats()
          | int_lists | st.lists(int_lists, max_size=5) | st.lists(int_lists.map(tuple), max_size=3))
payloads = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(payloads)
def test_json_encoder_matches_indented_dumps(payload):
    """The --json encoder against the json module's own indent=2 output:
    escapes, bools beside ints, empty containers at every depth, tuples,
    and lists of int lists with empty or mixed rows."""
    assert _json(payload) == reference_json(payload)


@pytest.mark.parametrize("exps", [
    {1: -8, 2: 20, 4: -8},
    {1: -16, 2: 40, 4: -16},
    {1: 24},
    {1: -1},
    {1: 2, 2: -5, 4: 10, 8: -5, 16: 2},
    {1: -2, 2: 2, 3: -2, 4: 4, 6: 6, 12: -4},
], ids=str)
def test_expand_json_is_indented_dumps(capsys, monkeypatch, exps):
    """The six quotients the expand-deep benchmark expands, at 200
    q-exponents: stdout is json.dumps(indent=2, sort_keys=True) of the
    payload, byte for byte."""
    seen = []
    emit = etaq.cli._emit
    monkeypatch.setattr(etaq.cli, "_emit", lambda payload, args: (seen.append(payload), emit(payload, args)))
    text = "*".join(f"eta({t})^{r}" for t, r in exps.items())
    code, out, _ = run_cli(capsys, "expand", "--eta", text, "--prec", "200", "--json")
    assert code == 0 and len(seen[0]["coeffs"]) > 100
    assert out == reference_json(seen[0]) + "\n"


def test_closed_stdout_pipe_exits_quietly():
    """A reader that closes stdout early (etaq ... | head -1) ends the
    run with the documented status and no traceback.  The output, about
    1.5 MB, outgrows any pipe buffer, so the writer meets the closed end."""
    src = str(Path(etaq.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    argv = ["expand", "--element", "E4(1)", "--level", "1", "--prec", "20000", "--json"]
    proc = subprocess.Popen([sys.executable, "-m", "etaq", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (EXIT_CLOSED_PIPE, b"")
    assert EXIT_CLOSED_PIPE == 141
