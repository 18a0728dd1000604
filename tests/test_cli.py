"""CLI behavior: flag grammar, exit codes, determinism of rendered output."""

import json

from etaq.cli import main


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


def test_prec_must_be_positive(capsys):
    for sub in (
        ["expand", "--eta", "eta(1)^-1"],
        ["cusp-expand", "--element", "E4(1)", "--level", "4", "--cusp", "1/2"],
        ["verify", "--suite", "identities"],
    ):
        for prec in ("0", "-3"):
            code, out, err = run_cli(capsys, *sub, "--prec", prec)
            assert code == 2 and out == ""
            assert f"at least 1 q-exponent, got {prec}" in err
            assert "offset" not in err


def test_expand_element(capsys):
    code, out, _ = run_cli(capsys, "expand", "--element", "8*E2(1)-32*E2(4)", "--level", "4", "--prec", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == [[1, 1, 0], [8, 1, 1], [24, 1, 2], [32, 1, 3]]


def test_expand_requires_input(capsys):
    code, _, err = run_cli(capsys, "expand", "--prec", "4")
    assert code == 2
    assert "expand needs" in err


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


def test_search_level9(capsys):
    code, out, _ = run_cli(capsys, "search", "--weight", "2", "--level", "9", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["pairs"][0]["eta"]["exponents"] == {"1": -3, "3": 10, "9": -3}


def test_search_rejects_composite_level(capsys):
    code, _, err = run_cli(capsys, "search", "--weight", "2", "--level", "12")
    assert code == 2


def test_verify_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--prec", "60", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    statuses = {c["identity"]: c["status"] for c in data["identities"]}
    assert statuses["jacobi-four-squares"] == "ok"
    assert statuses["theta-power-eisenstein-part-2k2"] == "remainder"


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
