"""End-to-end command-line checks: formats, exit codes, determinism."""

import dataclasses
import json
from fractions import Fraction

import pytest

from kronrec import cli
from kronrec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, (out, err)
    return json.loads(out)


def test_mahler_cyclotomic(capsys):
    doc = run_json(capsys, "mahler", "1,0,1")
    assert doc["schema"] == "kronrec/1"
    assert doc["value"] == pytest.approx(1.0, abs=1e-10)
    assert doc["error"] <= 1e-10
    assert doc["polynomial"]["display"] == "x^2 + 1"


def test_certify_nondense_worked_example(capsys):
    doc = run_json(capsys, "certify-nondense", "--m", "8", "--eps", "0.4", "-2,1")
    assert doc["certified"] is True
    assert doc["eps"] == "2/5"
    assert doc["volume_bound"] == pytest.approx(0.41844736)
    assert doc["volume_bound_exact"] == "163456/390625"


def test_basis_golden_rows(capsys):
    doc = run_json(capsys, "basis", "--p", "3", "--m", "10", "3,-2,-9,-3,9")
    assert doc["pivot_segment"] == 2
    assert doc["matrix"][0] == [
        1, "480/887", "4203/16853", "3861/33706", "2511/33706",
        "243/16853", "729/33706", 0, 0, 0,
    ]
    assert doc["valuations"][0] == [0, 1, 2, 3, 4, 5, 6, "inf", "inf", "inf"]
    assert doc["valuations"][3] == ["inf", "inf", "inf", 6, 5, 4, 3, 2, 1, 0]
    assert [seg["det_valuation"] for seg in doc["segments"]] == [6, 6, 6]


def test_basis_matrix_round_trips(capsys):
    from kronrec.lattice_structure import canonical_basis_M
    from kronrec.poly_core import IntPolynomial

    doc = run_json(capsys, "basis", "--p", "3", "--m", "7", "3,-2,-9,-3,9")
    want = canonical_basis_M(IntPolynomial((3, -2, -9, -3, 9)), 3, 7).matrix
    got = [[Fraction(str(entry)) for entry in row] for row in doc["matrix"]]
    assert got == [list(row) for row in want]


def test_newton_golden(capsys):
    doc = run_json(capsys, "newton", "--p", "3", "3,-2,-9,-3,9")
    assert doc["vertices"] == [[0, 1], [1, 0], [3, 1], [4, 2]]
    assert doc["slopes"] == [-1, "1/2", 1]
    assert doc["lengths"] == [1, 2, 1]
    assert doc["pivot_nonnegative"] == 2


def test_index_subcommand(capsys):
    doc = run_json(capsys, "index", "--m", "3", "-3,2")
    assert doc["index"] == 4
    assert doc["leading_power"] == 4
    assert doc["matches"] is True
    assert doc["z_basis"] == [[4, 6, 9]]


def test_witness_hand_target(capsys):
    doc = run_json(capsys, "witness", "--m", "3", "--target", "0.3,0.9,0.1", "-2,1")
    assert doc["k"] == [0, -2]
    assert doc["w"] == pytest.approx([0.225, 0.15, 0.0])
    assert doc["residual"] <= 1e-12
    assert doc["sup_norm"] <= doc["eps_used"] / 2 + 1e-9


def test_witness_seeded_target_is_deterministic(capsys):
    first = run_json(capsys, "witness", "--m", "4", "--seed", "5", "-2,1")
    second = run_json(capsys, "witness", "--m", "4", "--seed", "5", "-2,1")
    assert first == second


@pytest.mark.parametrize("target", ["nan,0,0", "inf,0,0", "1e308,0,0"])
def test_witness_rejects_non_finite_target(capsys, target):
    # 1e308 is finite, but its row -2 * 1e308 overflows a float
    code, out, err = run(capsys, "witness", "--m", "3", "--target", target, "-2,1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_trench_autocorrelate(capsys):
    doc = run_json(capsys, "trench", "--n", "3", "--autocorrelate", "-2,1")
    assert doc["trench"] == 85
    assert doc["direct"] == 85
    assert doc["relative_difference"] == 0.0
    assert doc["exact"] is True
    assert doc["matrix_size"] == 3


def test_trench_rejects_disagreeing_closed_form(capsys, monkeypatch):
    real = cli.trench_data

    def off_by(delta):
        def patched(symbol, n):
            data = real(symbol, n)
            return dataclasses.replace(data, determinant=data.determinant + delta)

        return patched

    # the closed form is exact for every symbol, so it may not differ at all,
    # whether the symbol's roots are rational or not
    monkeypatch.setattr(cli, "trench_data", off_by(Fraction(1, 10**30)))
    for argv in (("--n", "3", "-2,1"), ("--n", "20", "1,1,-1")):
        code, out, err = run(capsys, "trench", "--autocorrelate", *argv)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "CertificateError"


def test_trench_raw_symbol(capsys):
    doc = run_json(capsys, "trench", "--n", "2", "--r", "1", "-2,5,-2")
    assert doc["trench"] == 21
    assert doc["r"] == 1 and doc["s"] == 1


def test_trench_raw_symbol_needs_r(capsys):
    code, out, err = run(capsys, "trench", "--n", "2", "-2,5,-2")
    assert code == 2
    assert "--r" in err


def test_lyons_report(capsys):
    doc = run_json(capsys, "lyons", "--s", "1", "--ell-max", "2", "-2,1")
    assert doc["values"] == ["1/5", "1/21"]
    assert doc["indices"] == [1]
    assert doc["max_tail_fluctuation"] >= 0


def test_lyons_rejects_empty_range_and_bad_index(capsys):
    for argv in (("--s", "1", "--ell-max", "0"), ("--s", "5", "--ell-max", "0")):
        code, out, _ = run(capsys, "lyons", *argv, "-2,1")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "DomainError"


def test_gram_growth_report(capsys):
    doc = run_json(capsys, "gram-growth", "--ell-max", "3", "-2,1")
    assert doc["determinants"] == [5, 21, 85]
    assert doc["ratios"] == ["21/5", "85/21"]
    assert doc["mahler_squared"]["lo"] <= 4 <= doc["mahler_squared"]["hi"]


def test_critical_eps_report_and_stderr_progress(capsys):
    code, out, err = run(
        capsys, "critical-eps", "--m", "2", "--grid-n", "4", "--tol", "1/100", "-2,1"
    )
    assert code == 0
    assert "exact threshold of a 4^1 residue grid" in err
    doc = json.loads(out)  # stdout stays machine-clean
    assert doc["estimate"] == "1/3"
    estimate = Fraction(str(doc["estimate"]))
    assert Fraction(str(doc["lower"])) <= estimate <= Fraction(str(doc["upper"]))


def test_bound_subcommand(capsys):
    doc = run_json(capsys, "bound", "-2,1")
    assert doc["eps_stated"]["lo"] <= 0.5 <= doc["eps_stated"]["hi"]
    assert doc["eps_refined"]["hi"] < 0.5 + 1e-9


def test_bound_certifies_imaginary_pair(capsys):
    # 4x^4 - 2x^3 + 3x^2 - 2x - 1 has the roots +-i
    doc = run_json(capsys, "bound", " -1,-2,3,-2,4")
    assert doc["eps_stated"]["lo"] <= doc["eps_stated"]["hi"]


def test_byte_determinism(capsys):
    args = ("basis", "--p", "3", "--m", "10", "3,-2,-9,-3,9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("bound", "-1,-1,1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_csv_format(capsys):
    code, out, err = run(capsys, "--format", "csv", "index", "--m", "3", "-3,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "index,4" in lines
    assert "matches,True" in lines


def test_pretty_format(capsys):
    code, out, _ = run(capsys, "--format", "pretty", "bound", "-2,1")
    assert code == 0
    assert "eps_stated:" in out
    assert "schema: kronrec/1" in out


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "--output", str(path), "mahler", "1,0,1"
    )
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["command"] == "mahler"


def test_exit_code_domain_error(capsys):
    code, out, err = run(capsys, "bound", "-2,2")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "DomainError"
    assert "primitive" in doc["error"]["message"]


def test_precision_environment_variable(capsys, monkeypatch):
    from kronrec import poly_core

    real = poly_core._aberth
    dps_seen = []

    def recording(cs, dps):
        dps_seen.append(dps)
        return real(cs, dps)

    monkeypatch.setattr(poly_core, "_aberth", recording)
    argv = ("mahler", "-1,-1,1")
    monkeypatch.delenv("KRONREC_PRECISION", raising=False)
    run_json(capsys, *argv)
    assert dps_seen[0] == 30
    dps_seen.clear()
    monkeypatch.setenv("KRONREC_PRECISION", "240")
    run_json(capsys, *argv)
    assert dps_seen[0] == 240
    monkeypatch.setenv("KRONREC_PRECISION", "abc")
    code, out, err = run(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "DomainError"
    assert "KRONREC_PRECISION" in doc["error"]["message"]


def test_exit_code_parse_error(capsys):
    code, out, err = run(capsys, "mahler", "xyz")
    assert code == 2
    assert out == ""
    assert "coefficient" in err


def test_exit_code_usage_errors(capsys):
    assert run(capsys, "no-such-command", "1,1")[0] == 2
    assert run(capsys, "basis", "1,1")[0] == 2  # missing --p/--m
    assert run(capsys, "certify-nondense", "--m", "3", "--eps", "zz", "-2,1")[0] == 2


def test_bad_target_is_usage_error(capsys):
    code, out, err = run(
        capsys, "witness", "--m", "2", "--target", "0.1,oops", "-2,1"
    )
    assert code == 2
    assert out == ""


def test_parser_built_once_and_reused(capsys):
    commands = [
        ("mahler", "--variant", "half_scaled", "-1,-1,1"),
        ("--format", "csv", "bound", "3,-2,-9,-3,9"),
        ("critical-eps", "--m", "4", "--grid-n", "4", "-1,-1,1"),
        ("trench", "--n", "3", "--autocorrelate", "-2,1"),
        ("basis", "1,1"),  # usage error: missing --p/--m
        ("mahler", "--variant", "half_scaled", "-1,-1,1"),
    ]
    cli._build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in commands]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0]
    for argv, (code, out, err) in zip(commands, reused):
        cli._build_parser.cache_clear()
        assert run(capsys, *argv) == (code, out, err)
