"""Every `nodalcurves ...` command in the README's sh blocks runs and prints;
its python blocks run and give the values their comments state."""

import ast
import os
import re
import shlex

import pytest

from nodalcurves import PowerSeries, cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_blocks(language: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(), re.M | re.S)


def readme_commands() -> list[list[str]]:
    """The argv of each `nodalcurves` line in a sh block, without comments or `> file`."""
    blocks = readme_blocks("sh")
    commands = []
    for line in "\n".join(blocks).splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["nodalcurves"]:
            if ">" in words:
                words = words[: words.index(">")]
            commands.append(words[1:])
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_0_and_prints(argv, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


def run_block(source: str) -> dict:
    """Run a python block statement by statement, as a REPL would; the value
    of each expression statement, keyed by its source text."""
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), README, "eval")
            values[ast.get_source_segment(source, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), README, "exec"), namespace)
    return values


def test_readme_python_blocks_are_the_two_checked_here():
    assert len(readme_blocks("python")) == 2


def test_readme_library_use_gives_its_commented_values():
    values = run_block(readme_blocks("python")[0])
    assert values["severi(4, 2, table)"] == 225
    assert values["t2.evaluate(k3_primitive(2))"] == 324
    assert values["evaluate(plane(11), fit)"] == PowerSeries.of((1, 300, 43065), "x")
    assert values["gyz.b1, gyz.b2"] == (PowerSeries.of((1, -1, -5)), PowerSeries.of((1, 5, 2)))
    assert values["gyz.residuals.ok"] is True


def test_readme_node_poly_check_fits():
    fits, coefficients = run_block(readme_blocks("python")[1])["report.fits, report.coefficients"]
    assert fits is True
    assert len(coefficients) == 7  # N(d, 3) has degree 2 * 3 in d


def test_readme_names_every_benchmark_record():
    root = os.path.dirname(README)
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    records = sorted(n for n in os.listdir(root) if re.fullmatch(r"BENCH_.*\.json", n))
    assert records
    assert [n for n in records if f"`{n}`" not in text] == []
