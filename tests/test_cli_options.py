"""The CLI's option sets, and every command line the benchmark runs parses."""

import argparse
import importlib.util
import os

import pytest

from nodalcurves import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_workloads():
    """perfbench/workloads.py, read from its file: perfbench is not a package."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()

BENCHMARK_ARGV = [
    argv
    for name in workloads.WORKLOADS
    for choice in range(workloads.N_CHOICES)
    for kind, argv in workloads.steps(name, choice, "cache.jsonl")
    if kind == "cli"
]


@pytest.mark.parametrize("argv", BENCHMARK_ARGV, ids=" ".join)
def test_benchmark_command_line_parses(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_every_benchmark_workload_runs_the_cli():
    assert {argv[0] for argv in BENCHMARK_ARGV} == {
        "fit", "genus-series", "forms", "severi-table", "validate",
    }


TABLE = ["--no-timestamp", "--cache"]  # every subcommand that opens a Severi table
FIT = TABLE + ["--order", "--degrees", "--k3"]  # fit, evaluate and validate

OPTIONS = {
    "severi": ["--d", "--delta", "--alpha", "--beta", "--output"] + TABLE,
    "severi-table": ["--dmax", "--deltamax", "--output", "--threads"] + TABLE,
    "fit": ["--threads"] + FIT,
    "evaluate": ["--L2", "--LK", "--c1sq", "--c2", "--output"] + FIT,
    "decompose": ["--L2", "--LK", "--c1sq", "--c2", "--alt", "--output", "--no-timestamp"],
    "close-relation": ["--v1", "--v2", "--gD", "--degLD", "--no-timestamp"],
    "genus-series": ["--r", "--Ksq", "--m", "--chiO", "--order", "--output"] + TABLE,
    "validate": ["--d"] + FIT,
    "forms": ["--order", "--no-timestamp"],
}


def subcommand_options() -> dict:
    """Each subcommand's option strings, without -h/--help."""
    (subparsers,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: sorted(
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        for name, parser in subparsers.choices.items()
    }


def test_each_subcommand_offers_exactly_its_options():
    assert subcommand_options() == {name: sorted(flags) for name, flags in OPTIONS.items()}
    assert sum(map(len, OPTIONS.values())) == 57


# ----------------------------------------------------------------------
# main builds only the subcommand it runs; it must parse like the full parser
# ----------------------------------------------------------------------

# argv[1] is a required flag taking one value in every entry
VALID_ARGV = {
    "severi": ["severi", "--d", "3", "--delta", "1", "--alpha", "1^1", "--output", "pretty"],
    "severi-table": ["severi-table", "--dmax", "3", "--deltamax", "1", "--output", "json",
                     "--threads", "2", "--cache", "t.jsonl"],
    "fit": ["fit", "--order", "2", "--k3", "2,6", "--degrees", "3,4", "--threads", "1",
            "--no-timestamp"],
    "evaluate": ["evaluate", "--L2", "1", "--LK", "-3", "--c1sq", "9", "--c2", "3",
                 "--order", "1", "--output", "pretty"],
    "decompose": ["decompose", "--L2", "1", "--LK", "-3", "--c1sq", "9", "--c2", "3", "--alt"],
    "close-relation": ["close-relation", "--v1", "1,-3,8,4", "--v2", "0,0,9,3", "--gD", "0",
                       "--degLD", "0"],
    "genus-series": ["genus-series", "--r", "0", "--Ksq", "0", "--m", "0", "--chiO", "2",
                     "--order", "5", "--cache", "t.jsonl"],
    "validate": ["validate", "--d", "5", "--order", "2", "--k3", "4,6"],
    "forms": ["forms", "--order", "4", "--no-timestamp"],
}


def parse_outcome(parse, argv, capsys):
    """(Namespace or exit code, stdout, stderr) of parse(argv)."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


def test_main_builds_only_the_subcommand_it_runs(monkeypatch, capsys):
    assert list(VALID_ARGV) == list(OPTIONS)
    for name, argv in VALID_ARGV.items():
        (subparsers,) = cli._parser_for(argv)._subparsers._group_actions
        assert list(subparsers.choices) == [name]

    def full_parser():
        raise AssertionError("main built the parser of all nine subcommands")

    monkeypatch.setattr(cli, "build_parser", full_parser)
    assert cli.main(["forms", "--order", "2", "--no-timestamp"]) == 0
    assert '"command": "forms"' in capsys.readouterr().out


@pytest.mark.parametrize("name", list(VALID_ARGV))
def test_one_subcommand_parser_gives_the_full_parsers_namespace_and_help(name, capsys):
    argv = VALID_ARGV[name]
    full = parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert isinstance(full[0], argparse.Namespace) and full[0].command == name
    assert parse_outcome(cli._parser_for(argv).parse_args, argv, capsys) == full
    help_argv = [name, "-h"]
    full_help = parse_outcome(cli.build_parser().parse_args, help_argv, capsys)
    assert full_help[0] == 0 and full_help[1].startswith(f"usage: nodalcurves {name} ")
    assert parse_outcome(cli.main, help_argv, capsys) == full_help


@pytest.mark.parametrize("error", ["missing-flag", "unknown-option", "extra-argument"])
@pytest.mark.parametrize("name", list(VALID_ARGV))
def test_one_subcommand_parser_fails_like_the_full_parser(name, error, capsys):
    valid = VALID_ARGV[name]
    argv = {
        "missing-flag": valid[:1] + valid[3:],
        "unknown-option": valid + ["--bogus"],
        "extra-argument": valid + ["extra"],
    }[error]
    full = parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert full[0] == 2 and full[1] == ""
    assert full[2].startswith("usage: nodalcurves ")
    assert parse_outcome(cli.main, argv, capsys) == full


@pytest.mark.parametrize("argv", [[], ["-h"], ["nosuch", "--order", "2"]],
                         ids=["empty", "help", "unknown-command"])
def test_argv_naming_no_subcommand_gets_the_full_parser(argv, capsys):
    (subparsers,) = cli._parser_for(argv)._subparsers._group_actions
    assert list(subparsers.choices) == list(OPTIONS)
    full = parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert full[0] == (0 if argv == ["-h"] else 2)
    assert parse_outcome(cli.main, argv, capsys) == full
