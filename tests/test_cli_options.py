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
FIT = TABLE + ["--order", "--degrees", "--k3"]  # every subcommand that fits

OPTIONS = {
    "severi": ["--d", "--delta", "--alpha", "--beta", "--output"] + TABLE,
    "severi-table": ["--dmax", "--deltamax", "--output", "--threads"] + TABLE,
    "fit": ["--threads"] + FIT,
    "evaluate": ["--L2", "--LK", "--c1sq", "--c2", "--output"] + FIT,
    "decompose": ["--L2", "--LK", "--c1sq", "--c2", "--alt", "--output", "--no-timestamp"],
    "close-relation": ["--v1", "--v2", "--gD", "--degLD", "--no-timestamp"],
    "genus-series": ["--r", "--Ksq", "--m", "--chiO", "--output"] + FIT,
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
    assert sum(map(len, OPTIONS.values())) == 59
