"""The table route of `kronrec.cli.main` (`_quick_args`) against argparse, its reference.

`_quick_args` reads plain argv off the Actions that `_build_parser` collects
and returns None for anything else; argparse then parses or refuses it.
"""

import ast
import contextlib
import io
import shlex
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from kronrec import cli

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = cli._build_parser().commands


def reference(parser, toks):
    """parser.parse_args(toks), or None where it exits: help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(toks)
        except SystemExit:
            return None


def values(action):
    """Good and bad values for one action, as main hands them on (data space-prefixed)."""
    if action.choices is not None:
        return list(action.choices), ["bogus"]
    if action.type is int:
        return ["3", "0", "12", " -1"], ["x", "2.5", ""]
    return ["1,1", " -2,1", "3,-2,-9,-3,9", "1/1000", "0.4", " -zz", "x", ""], []


FLAGS = sorted({flag for acts, _ in COMMANDS.values() for a in acts for flag in a.option_strings})
# abbreviations, --flag=value, help, --, top-level flags and stray data
ODD = ["--ell", "--grid", "--m=3", "--ell-max=4", "--", "-h", "--help", "--format", "csv",
       "--output", "--output=r.json", "-x", "3", "1,1", " -2,1", "x"]
VOCAB = sorted(COMMANDS) + FLAGS + ODD


@st.composite
def shaped_argv(draw):
    """A subcommand and its own actions in any order.  Most draws are plain: each
    required action once, each optional one at most once, good values.  The rest are noisy:
    any action omitted or given twice, bad values, a top-level prefix, stray tokens."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    noisy = draw(st.sampled_from([False, False, True]))
    chunks = []
    for action in COMMANDS[name][0]:
        counts = [1, 1, 0, 2] if noisy else [1] if action.required else [0, 1]
        for _ in range(draw(st.sampled_from(counts))):
            good, bad = values(action)
            value = [draw(st.sampled_from(good + bad if noisy else good))]
            chunks.append(action.option_strings[:1] + (value if action.nargs != 0 else []))
    toks = [name] + [tok for chunk in draw(st.permutations(chunks)) for tok in chunk]
    if noisy:
        for _ in range(draw(st.integers(0, 2))):
            toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(VOCAB)))
        toks = draw(st.sampled_from([[], ["--format", "csv"], ["--output=r.json"]])) + toks
    return toks


@seed(20261019)
@settings(max_examples=800, deadline=None)
@given(shaped_argv() | st.lists(st.sampled_from(VOCAB), max_size=6))
@example([])
@example(["gram-growth", "--ell", "4", " -2,1"])
@example(["index", "--m=3", " -3,2"])
@example(["mahler", "--", "1,1"])
@example(["basis", "--m", "3", "1,1"])
@example(["trench", "--autocorrelate", "--autocorrelate", "--n", "3", "--n", "4", "1,1"])
def test_quick_args_equals_parse_args(toks):
    parser = cli._build_parser()
    quick = cli._quick_args(parser, toks)
    if quick is not None:
        expected = reference(parser, toks)
        assert expected is not None and vars(quick) == vars(expected)


README_EXAMPLES = [
    shlex.split(line)[1:]
    for line in (ROOT / "README.md").read_text(encoding="utf-8")
    .split("## Command line", 1)[1].split("```", 2)[1].splitlines()
    if line.startswith("kronrec ")
]


def argv_in_test_cli():
    """Every all-string argv in tests/test_cli.py: the calls to run and run_json, and the
    tuples that open with a subcommand or a flag."""
    found = []
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("run", "run_json"):
            items = node.args[1:]
        elif isinstance(node, ast.Tuple):
            items = node.elts
        else:
            continue
        if items and all(isinstance(n, ast.Constant) and isinstance(n.value, str) for n in items):
            argv = [n.value for n in items]
            if isinstance(node, ast.Call) or argv[0] in COMMANDS or argv[0].startswith("-"):
                found.append(argv)
    return found


def test_both_routes_print_the_same(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # an --output path among the argv lands here
    every = README_EXAMPLES + argv_in_test_cli()
    assert len(every) > 40

    def run_all():
        results = []
        for argv in every:
            code = cli.main(list(argv))
            results.append((code, *capsys.readouterr()))
        return results

    table = run_all()
    monkeypatch.setattr(cli, "_quick_args", lambda parser, toks: None)
    assert run_all() == table


def route(monkeypatch, capsys, argv):
    """What `_quick_args` returned inside one `main(argv)`."""
    returned = []
    quick = cli._quick_args
    monkeypatch.setattr(
        cli, "_quick_args", lambda parser, toks: returned.append(quick(parser, toks)) or returned[0]
    )
    cli.main(list(argv))
    capsys.readouterr()
    assert len(returned) == 1
    return returned[0]


# shaped like the kronbench tasks: one argv of every subcommand on the table route
BENCH_SHAPED = [
    ["gram-growth", "--ell-max", "40", "1,-2,1,2"],
    ["lyons", "--s", "1", "--ell-max", "20", "-1,-1,1"],
    ["trench", "--autocorrelate", "--n", "20", "-1,-1,1"],
    ["witness", "--m", "5", "--seed", "123456", "-1,-1,1"],
    ["mahler", "--variant", "half_scaled", "-1,-1,1"],
    ["bound", "3,-2,-9,-3,9"],
    ["critical-eps", "--m", "4", "--grid-n", "4", "--tol", "1/1000", "-1,-1,1"],
    ["certify-nondense", "--m", "6", "--eps", "2/5", "-2,1"],
    ["index", "--m", "5", "-3,2"],
    ["basis", "--p", "3", "--m", "6", "3,-2,-9,-3,9"],
    ["newton", "--p", "3", "3,-2,-9,-3,9"],
]


@pytest.mark.parametrize("argv", README_EXAMPLES + BENCH_SHAPED, ids=shlex.join)
def test_plain_argv_takes_the_table_route(monkeypatch, capsys, argv):
    assert route(monkeypatch, capsys, argv) is not None


def test_every_subcommand_has_a_table_route_case():
    for argvs in (README_EXAMPLES, BENCH_SHAPED):
        assert {argv[0] for argv in argvs} == set(COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--format", "csv", "index", "--m", "3", "-3,2"],
        ["--output", "r.json", "mahler", "1,1"],
        ["-h"],
        ["mahler", "-h"],
        ["mahler", "--help"],
        ["mahler", "--", "1,1"],
        ["gram-growth", "--ell", "4", "-2,1"],
        ["index", "--m=3", "-3,2"],
        ["witness", "--eps", "--m", "3", "-2,1"],
        ["index", "--m", "x", "-3,2"],
        ["mahler", "--variant", "bogus", "1,1"],
        ["basis", "--p", "3", "1,1"],
        ["mahler"],
        ["mahler", "1,1", "2,2"],
    ],
    ids=shlex.join,
)
def test_other_argv_goes_to_argparse(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert route(monkeypatch, capsys, argv) is None


@pytest.mark.parametrize(
    "argv, line",
    [
        (["index", "--m", "-x", "1,1"],
         "kronrec index: error: argument --m: invalid int value: '-x'"),
        (["mahler", "--variant", "-x", "1,1"],
         "kronrec mahler: error: argument --variant: invalid choice: '-x' "
         "(choose from 'plain', 'half_scaled', 'double_scaled', 'conjugate')"),
    ],
    ids=["int", "choice"],
)
def test_usage_errors_quote_data_as_typed(capsys, argv, line):
    # main hides data starting with "-" from argparse behind a space; the message drops it
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == line
