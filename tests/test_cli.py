"""End-to-end command-line checks: formats, exit codes, determinism."""

import hashlib
import json
import math
import shlex
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import test_golden_bytes
import test_golden_critical
import test_golden_exact
import test_golden_gram
import test_golden_nondense
import test_golden_roots
from kronrec import cli
from kronrec.cli import main
from kronrec.errors import DomainError

OVERLAPPING_ROOTS = "10239999999999999999999999,-640000000000000000000000,10000000000000000000000"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN, which strict JSON cannot spell."""
    return json.loads(text, parse_constant=_no_constant)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, (out, err)
    return strict_json(out)


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() bare; a data token with a leading "-" included
    argv = ["--format", "pretty", "bound", "-4,-4,0,-2,1"]
    want = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["kronrec", *argv])
    assert (main(), *capsys.readouterr()) == want
    assert want[0] == 0 and want[1]


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


@pytest.mark.parametrize("subcommand", [("newton",), ("basis", "--m", "4")])
def test_strong_pseudoprime_p_is_refused(capsys, subcommand):
    # 399165290221 * 798330580441, a strong pseudoprime to every prime base up to 37
    code, out, _ = run(capsys, *subcommand, "--p", "318665857834031151167461", "3,1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


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


def test_index_subcommand_at_large_m(capsys):
    # the lattice is computed in dimension d, so m = 200 stays cheap
    doc = run_json(capsys, "index", "--m", "200", "-3,-1,-3")
    assert doc["matches"] is True
    assert doc["index"] == 3**198
    assert len(doc["z_basis"]) == 2 and all(len(row) == 200 for row in doc["z_basis"])


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
            return data._replace(determinant=data.determinant + delta)

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


def test_trench_rejects_a_bad_symbol(capsys):
    code, out, err = run(capsys, "trench", "--r", "1", "--n", "3", "1,x,2")
    assert code == 2
    assert out == ""
    assert err.startswith("kronrec: bad symbol coefficient list: ")


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


def test_lyons_rejects_a_bad_index_list(capsys):
    code, out, err = run(capsys, "lyons", "--s", "1,a", "--ell-max", "4", "-1,-1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("kronrec: bad --s index list: ")


def test_lyons_refuses_an_empty_index_list(capsys):
    # the ratio of an empty index set is 1 for every A, so it says nothing about A
    for indices in ("", " "):
        code, out, err = run(capsys, "lyons", "--s", indices, "--ell-max", "4", "-1,-1,1")
        assert code == 2
        assert out == ""
        assert err.startswith("kronrec: bad --s index list: ")


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


@pytest.mark.parametrize(
    "argv",
    [
        ("critical-eps", "--m", "1", "-1,-1,1"),
        ("critical-eps", "--m", "2", "-1,-1,1"),
        ("gram-growth", "--ell-max", "0", "-1,-1,1"),
        ("lyons", "--ell-max", "0", "-1,-1,1"),
    ],
    ids=["critical-eps-m1", "critical-eps-m2", "gram-growth", "lyons"],
)
def test_refused_input_writes_no_stderr_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"
    assert err == ""


def test_accepted_input_writes_its_stderr_line(capsys):
    for argv, line in (
        (("gram-growth", "--ell-max", "2", "-1,-1,1"), "gram determinants up to ell = 2\n"),
        (("lyons", "--ell-max", "2", "-1,-1,1"), "lyons ratios for S=[1] up to ell = 2\n"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert err == line


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


def test_pretty_format_walks_a_list_of_records(capsys):
    """`segments` is a list of records: each opens with a "-" line at the list's
    indent and its keys go one level deeper; `matrix`'s rows keep one line each."""
    code, out, _ = run(capsys, "--format", "pretty", "basis", "--p", "3", "--m", "6", "3,-2,-9,-3,9")
    assert code == 0
    assert out.count("segments:\n  -\n    det_valuation: 2\n") == 1
    assert out.count("\n  -\n    det_valuation: 2\n") == 3
    assert "matrix:\n  1  6/31  9/31  0  0  0\n" in out
    digest = "f5b2e85c589ab3556d9490b4ca6001a8f7b066ecaef2b4156edc8ecca9693549"
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "--output", str(path), "mahler", "1,0,1"
    )
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["command"] == "mahler"


def test_output_path_with_leading_dash(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (("--output", "-r.json"), ("--output=-r.json",), ("--out", "-r.json")):
        code, out, _ = run(capsys, *argv, "mahler", "1,1")
        assert code == 0
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["-r.json"]
        assert json.loads((tmp_path / "-r.json").read_text())["command"] == "mahler"
        (tmp_path / "-r.json").unlink()
    # an option after --output is not its path
    code, _, err = run(capsys, "--output", "--format", "csv", "mahler", "1,1")
    assert code == 2
    assert "--output: expected one argument" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", [".", "missing/report.json"], ids=["directory", "missing-parent"])
def test_output_path_that_cannot_be_written(tmp_path, capsys, name):
    path = tmp_path / name
    code, out, err = run(capsys, "--output", str(path), "mahler", "1,1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"kronrec: cannot write the report to {path}: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_exit_code_domain_error(capsys):
    code, out, err = run(capsys, "bound", "-2,2")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "DomainError"
    assert "primitive" in doc["error"]["message"]


def test_negative_values_of_any_float_form_are_data(capsys):
    doc = run_json(capsys, "witness", "--m", "3", "--target", "-1e-3,0.5,0.25", "-2,1")
    assert doc["target"][0] == -0.001
    code, out, err = run(capsys, "witness", "--m", "3", "--target", "-inf,0,0", "-2,1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_help_flag_still_prints_help(capsys):
    code, out, err = run(capsys, "-h")
    assert code == 0
    assert out.startswith("usage: kronrec")


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("certify-nondense", "--m", "3", "--eps", "-zz", "-2,1"),
         "--eps must be a rational like 0.4 or 2/5, got '-zz'"),
        (("critical-eps", "--m", "3", "--tol", "-zz", "-2,1"),
         "--tol must be a rational like 0.4 or 2/5, got '-zz'"),
        (("witness", "--m", "3", "--target", "-x,0,0", "-2,1"),
         "bad --target list: could not convert string to float: '-x'"),
        (("lyons", "--s", "-x", "--ell-max", "3", "-2,1"),
         "bad --s index list: invalid literal for int() with base 10: '-x'"),
    ],
    ids=["eps", "tol", "target", "s"],
)
def test_parse_error_quotes_the_token_as_typed(capsys, argv, message):
    # main space-prefixes a value that starts with "-" for argparse; the message drops it
    assert run(capsys, *argv) == (2, "", f"kronrec: {message}\n")


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


# ----- the float range at the command-line edge -----


def test_mahler_near_the_top_of_the_float_range_is_finite(capsys):
    # lo + hi of the enclosure overflows; the measure itself, 1e308, does not
    doc = run_json(capsys, "mahler", f"1,{10**308}")
    assert doc["value"] == pytest.approx(1e308, rel=1e-12)
    assert 0 < doc["error"] <= 1e308 * 1e-12


@pytest.mark.parametrize("c", [20000000, 1000000000001])
def test_mahler_of_a_large_irrational_root_pair(capsys, c):
    # x^2 - c has the roots +-sqrt(c), so M = c; the radius target is relative
    doc = run_json(capsys, "mahler", f"-{c},0,1")
    value, error = Fraction(doc["value"]), Fraction(doc["error"])
    assert value - error <= c <= value + error
    assert doc["error"] <= 1e-12 * c


def test_mahler_of_overlapping_root_enclosures_is_refused(capsys):
    """10^22 (x - 32)^2 - 1 has the roots 32 +- 10^-11, whose disks are not certified apart."""
    code, out, _ = run(capsys, "mahler", OVERLAPPING_ROOTS)
    assert code == 1
    assert json.loads(out)["error"] == {
        "message": "root enclosures overlap",
        "type": "RootCertificationError",
    }


def test_mahler_whose_derivative_coefficients_overflow(capsys):
    # every coefficient is a float, but the derivative's 3 * 16k is past the largest one
    k = int(sys.float_info.max) // 40 // 2 * 2
    code, out, err = run(capsys, "mahler", f"{-9 * k - 1},{36 * k},{-4 * k},{16 * k}")
    doc = strict_json(out)
    assert code in (0, 1), (out, err)
    assert doc["value"] > 0 if code == 0 else set(doc["error"]) == {"type", "message"}


@pytest.mark.parametrize(
    "argv",
    [
        ("mahler",),
        ("bound",),
        ("witness", "--m", "3"),
        ("critical-eps", "--m", "3", "--grid-n", "2"),
        ("gram-growth", "--ell-max", "3"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("poly", [f"1,{2**1024}", f"{2**1024},1"], ids=["lead", "constant"])
def test_coefficient_beyond_the_float_range_is_domain_error(capsys, argv, poly):
    code, out, err = run(capsys, *argv, poly)
    assert code == 1, (out, err)
    assert strict_json(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize(
    "argv",
    [
        ("witness", "--m", "3", "--eps", "1e400", "-2,1"),
        ("certify-nondense", "--m", "3", "--eps", "1/2", f"1,{10**400}"),
        ("gram-growth", "--ell-max", "3", f"1,{10**308}"),
    ],
    ids=["witness-eps", "certify-nondense-volume", "gram-growth-mahler-squared"],
)
def test_value_beyond_the_float_range_is_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1, (out, err)
    assert strict_json(out)["error"]["type"] == "DomainError"


GOLDEN_COMMANDS = [
    command
    for module in (
        test_golden_bytes,
        test_golden_critical,
        test_golden_exact,
        test_golden_gram,
        test_golden_nondense,
    )
    for command, _ in module.GOLDEN
] + [command for command, _ in test_golden_roots.GOLDEN_ROOTS]
GOLDEN_COMMANDS += [command for command, _, _ in test_golden_critical.DECIDE_SHAPED]


def test_every_golden_command_prints_strict_json(capsys):
    for command in GOLDEN_COMMANDS:
        code, out, err = run(capsys, *shlex.split(command))
        assert code == 0, (command, out, err)
        strict_json(out)


@pytest.mark.parametrize(
    "command", [c for c, _ in test_golden_bytes.GOLDEN if c.startswith("mahler --variant plain")]
)
def test_conjugate_measure_prints_the_plain_report(capsys, command):
    plain = run_json(capsys, *shlex.split(command))
    conj = run_json(capsys, *shlex.split(command.replace("plain", "conjugate")))
    assert (plain.pop("variant"), conj.pop("variant")) == ("plain", "conjugate")
    assert conj == plain


# ----- the JSON writer -----

# brackets, quotes, backslashes, control and non-ASCII characters, with plain text
tricky_text = st.text(st.sampled_from('az[]{}"\\\x00\x1f\x7f\n\té€\U0001f600 ')) | st.text()
special_floats = st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan])
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200)
    | st.floats()
    | special_floats
    | tricky_text
)
# runs of one type, which the writer joins in one call, and bools mixed with ints
runs = (
    st.lists(st.integers(-(2**70), 2**70))
    | st.lists(st.floats(allow_nan=False, allow_infinity=False))
    | st.lists(st.floats() | special_floats)
    | st.lists(tricky_text)
    | st.lists(st.integers(-3, 3) | st.booleans())
)
documents = st.recursive(
    scalars | runs,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(tricky_text, inner, max_size=4)
    ),
    max_leaves=24,
)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(documents)
@example({})
@example({"": [], "a": {}, "b": ((), [[]], {"c": {}})})
@example([True, 1, False, 0, 2**64 + 1, None])
@example([-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan])
@example({'[]{}"\\\x01é': ["\u20ac\x00", '"', "\\"]})
def test_writer_equals_json_dumps(obj):
    assert cli._json(obj) == json.dumps(obj, sort_keys=True, indent=2)


EVERY_GOLDEN_COMMAND = [
    pin[0]
    for pins in (
        test_golden_bytes.GOLDEN,
        test_golden_bytes.RENDERINGS,
        test_golden_critical.GOLDEN,
        test_golden_critical.DECIDE_SHAPED,
        test_golden_exact.GOLDEN,
        test_golden_gram.GOLDEN,
        test_golden_nondense.GOLDEN,
        test_golden_roots.GOLDEN_ROOTS,
    )
    for pin in pins
]


def test_writer_equals_json_dumps_on_every_golden_payload(monkeypatch, capsys):
    payloads = []
    render = cli._render

    def recording(payload, fmt):
        payloads.append(payload)
        return render(payload, fmt)

    monkeypatch.setattr(cli, "_render", recording)
    for command in EVERY_GOLDEN_COMMAND:
        main(shlex.split(command))
    capsys.readouterr()
    assert len(payloads) == len(EVERY_GOLDEN_COMMAND)
    for payload in payloads:
        assert cli._json(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_writer_refuses_what_json_dumps_refuses_with_its_message():
    payload = {"ratio": [1, Fraction(1, 2)]}
    with pytest.raises(TypeError) as ours:
        cli._json(payload)
    with pytest.raises(TypeError) as theirs:
        json.dumps(payload, sort_keys=True, indent=2)
    assert str(ours.value) == str(theirs.value) == "Object of type Fraction is not JSON serializable"


def test_pretty_format_writes_a_scalar_beside_a_record_at_the_list_indent():
    assert cli._render({"rows": [{"a": 1}, 7]}, "pretty") == "rows:\n  -\n    a: 1\n  7\n"


# ----- the integer report writer -----

# both signs, up to about 1000 digits, so quotients past the float range come up
huge = st.integers(-(10**1000), 10**1000)
sized = st.integers(0, 1000).flatmap(lambda k: st.integers(-(10**k), 10**k))


@seed(20261022)
@settings(max_examples=400, deadline=None)
@given(huge | sized | st.integers(-50, 50), (huge | sized | st.integers(-50, 50)).filter(bool))
@example(10**400, 3)
@example(-(10**400), -7)
@example(1, 10**400)
@example(0, -5)
@example(-6, -4)
@example(2**1024 - 2**970, 1)  # just below the float range: rounds to the largest float
def test_quotient_renders_the_fraction_of_its_pair(n, d):
    exact = cli._rat(Fraction(n, d))
    try:
        expected = exact, cli._float(Fraction(n, d))
    except DomainError as exc:
        with pytest.raises(DomainError) as refused:
            cli._quotient(n, d)
        assert str(refused.value) == str(exc) == "a value to report lies beyond the float range"
    else:
        written = cli._quotient(n, d)
        assert written == expected
        assert type(written[0]) is type(exact) and math.copysign(1, written[1]) == math.copysign(1, expected[1])

