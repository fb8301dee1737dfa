"""Command-line interface: documents, exit codes, determinism, cache, flags."""

import ast
import hashlib
import json
import os
import subprocess
import sys

import pytest

from nodalcurves import SeveriTable, cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "nodalcurves", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


def doc_of(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == "1"
    return doc


def test_severi_subcommand():
    doc = doc_of(run_cli("severi", "--d", "3", "--delta", "1", "--no-timestamp"))
    assert doc["result"]["value"] == "12"
    assert doc["config"]["d"] == 3


def test_severi_with_tangency_profiles():
    proc = run_cli(
        "severi", "--d", "2", "--delta", "0", "--beta", "2^1", "--no-timestamp"
    )
    assert doc_of(proc)["result"]["value"] == "2"


def test_severi_inadmissible_profiles_exit_2():
    proc = run_cli("severi", "--d", "3", "--delta", "1", "--beta", "1^2")
    assert proc.returncode == 2
    error = json.loads(proc.stderr)
    assert "profile weight mismatch" in error["error"]["message"]


def test_decompose_basis_element():
    doc = doc_of(
        run_cli(
            "decompose", "--L2", "1", "--LK", "-3", "--c1sq", "9", "--c2", "3",
            "--no-timestamp",
        )
    )
    assert doc["result"] == {"a1": 0, "a2": 1, "a3": 0, "a4": 0}


def test_decompose_alt_coordinates():
    doc = doc_of(
        run_cli(
            "decompose", "--L2", "2", "--LK", "0", "--c1sq", "0", "--c2", "24",
            "--alt", "--no-timestamp",
        )
    )
    assert doc["result"]["alt"] == {"LK": 0, "chiL": 3, "chiO": 2, "Ksq": 0}


def test_decompose_invalid_vector_exit_2():
    proc = run_cli("decompose", "--L2", "0", "--LK", "0", "--c1sq", "9", "--c2", "4")
    assert proc.returncode == 2
    assert "Noether" in json.loads(proc.stderr)["error"]["message"]


def test_close_relation_subcommand():
    doc = doc_of(
        run_cli(
            "close-relation", "--v1", "1,-3,8,4", "--v2", "0,0,9,3",
            "--gD", "0", "--degLD", "0", "--no-timestamp",
        )
    )
    assert doc["result"]["v3"] == {"L2": 0, "LK": 0, "c1sq": 8, "c2": 4}
    assert doc["result"]["v0"] == {"L2": 1, "LK": -3, "c1sq": 9, "c2": 3}


def test_fit_order_one_t1():
    doc = doc_of(run_cli("fit", "--order", "1", "--no-timestamp"))
    t1 = next(entry for entry in doc["result"]["T"] if entry["r"] == 1)
    terms = {tuple(term["exponents"]): term["coeff"] for term in t1["terms"]}
    assert terms == {(1, 0, 0, 0): "3", (0, 1, 0, 0): "2", (0, 0, 0, 1): "1"}
    assert doc["result"]["residuals"]["ok"] is True


def test_fit_order_four_bytes_are_pinned():
    # log-series, T_0..T_4, B-series and residuals, exactly as printed
    proc = run_cli("fit", "--order", "4", "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    data = proc.stdout.encode()
    assert len(data) == 16296
    assert (
        hashlib.sha256(data).hexdigest()
        == "6a7c6db312aa89b1680cb69632ebc3792c801ab90ee828b8b3f93eed46d683c6"
    )


def test_evaluate_formal_zero_vector():
    doc = doc_of(
        run_cli(
            "evaluate", "--L2", "0", "--LK", "0", "--c1sq", "0", "--c2", "0",
            "--order", "1", "--no-timestamp",
        )
    )
    assert doc["result"]["series"]["coeffs"] == ["1", "0"]


def test_genus_series_subcommand():
    doc = doc_of(
        run_cli(
            "genus-series", "--r", "0", "--Ksq", "0", "--m", "0", "--chiO", "2",
            "--order", "4", "--no-timestamp",
        )
    )
    assert doc["result"]["series"]["coeffs"] == ["0", "1", "24", "324", "3200"]


def test_genus_series_with_fit_backed_exponents():
    doc = doc_of(
        run_cli(
            "genus-series", "--r", "1", "--Ksq", "9", "--m", "-3", "--chiO", "1",
            "--order", "2", "--no-timestamp",
        )
    )
    series = doc["result"]["series"]
    assert series["order"] == 2
    assert series["coeffs"][0] == "0"  # the product has positive valuation


def test_validate_subcommand_match():
    doc = doc_of(run_cli("validate", "--d", "11", "--order", "2", "--no-timestamp"))
    assert doc["result"]["match"] is True


def test_forms_subcommand():
    doc = doc_of(run_cli("forms", "--order", "3", "--no-timestamp"))
    assert doc["result"]["format"] == "forms-1"
    assert doc["result"]["g2"]["coeffs"] == ["-1/24", "1", "3", "4"]


def test_severi_table_csv():
    proc = run_cli("severi-table", "--dmax", "4", "--deltamax", "2", "--output", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "d,delta,value"
    rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]}
    assert rows[("4", "1")] == "27"
    assert rows[("4", "2")] == "225"
    assert all(ord(ch) < 128 for ch in proc.stdout)


@pytest.mark.parametrize(
    "args, expected",
    [
        (("severi", "--d", "3", "--delta", "1", "--output", "pretty"), "N(3:1:-|1^3) = 12\n"),
        (
            ("evaluate", "--L2", "2", "--LK", "0", "--c1sq", "0", "--c2", "24", "--order", "2",
             "--output", "pretty"),
            "1 + 30*x + 324*x^2 + O(x^3)\n",
        ),
        (
            ("decompose", "--L2", "1", "--LK", "-3", "--c1sq", "9", "--c2", "3",
             "--output", "pretty"),
            "a1=0 a2=1 a3=0 a4=0\n",
        ),
        (
            ("genus-series", "--r", "0", "--Ksq", "0", "--m", "0", "--chiO", "2", "--order", "4",
             "--output", "pretty"),
            "1*q + 24*q^2 + 324*q^3 + 3200*q^4 + O(q^5)\n",
        ),
    ],
    ids=["severi", "evaluate", "decompose", "genus-series"],
)
def test_pretty_output(args, expected):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


@pytest.mark.parametrize(
    "args, flag",
    [
        (("--dmax", "-2", "--deltamax", "1"), "--dmax"),
        (("--dmax", "3", "--deltamax", "-1"), "--deltamax"),
    ],
    ids=["dmax", "deltamax"],
)
def test_severi_table_negative_bound_exits_2_naming_the_flag(args, flag):
    proc = run_cli("severi-table", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert flag in json.loads(proc.stderr)["error"]["message"]


def test_severi_table_json_output():
    doc = doc_of(run_cli("severi-table", "--dmax", "2", "--deltamax", "1", "--output", "json",
                         "--no-timestamp"))
    assert doc["result"]["rows"] == [
        {"d": 1, "delta": 0, "value": "1"},
        {"d": 1, "delta": 1, "value": "0"},
        {"d": 2, "delta": 0, "value": "1"},
        {"d": 2, "delta": 1, "value": "3"},
    ]


@pytest.mark.parametrize(
    "args",
    [
        ("fit", "--order", "1", "--output", "csv"),
        ("forms", "--order", "2", "--output", "pretty"),
        ("severi-table", "--dmax", "2", "--deltamax", "1", "--output", "pretty"),
    ],
    ids=["fit-csv", "forms-pretty", "severi-table-pretty"],
)
def test_output_format_a_subcommand_lacks_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_timestamp_present_by_default_and_suppressible():
    with_ts = run_cli("decompose", "--L2", "0", "--LK", "0", "--c1sq", "9", "--c2", "3")
    assert "timestamp" in json.loads(with_ts.stdout)
    without = run_cli(
        "decompose", "--L2", "0", "--LK", "0", "--c1sq", "9", "--c2", "3",
        "--no-timestamp",
    )
    assert "timestamp" not in json.loads(without.stdout)


def test_cache_file_roundtrip(tmp_path):
    cache = tmp_path / "table.jsonl"
    first = run_cli(
        "severi", "--d", "5", "--delta", "2", "--cache", str(cache), "--no-timestamp"
    )
    assert first.returncode == 0
    assert cache.exists()
    second = run_cli(
        "severi", "--d", "5", "--delta", "2", "--cache", str(cache), "--no-timestamp"
    )
    assert second.stdout == first.stdout


def test_cache_torn_tail_is_skipped_and_cut(tmp_path):
    cache = tmp_path / "table.jsonl"
    args = ("severi", "--d", "5", "--delta", "2", "--cache", str(cache), "--no-timestamp")
    assert run_cli(*args).returncode == 0
    cache.write_bytes(cache.read_bytes()[:-20])
    assert doc_of(run_cli(*args))["result"]["value"] == "882"
    data = cache.read_bytes()
    assert data.endswith(b"\n")
    assert len(SeveriTable.load(cache)) == data.count(b"\n") - 1


def test_cache_garbage_middle_line_exits_2(tmp_path):
    cache = tmp_path / "table.jsonl"
    args = ("severi", "--d", "5", "--delta", "2", "--cache", str(cache), "--no-timestamp")
    assert run_cli(*args).returncode == 0
    lines = cache.read_text().splitlines(keepends=True)
    lines[len(lines) // 2] = "garbage{\n"
    cache.write_text("".join(lines))
    assert run_cli(*args).returncode == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"format": "severi-cache-1"}\n{"k": "2:0:-|1^2", "value": "1"}\n',
        '{"format": "severi-cache-1"}\n{"key": "2:0:-|1^2"}\n',
        '{"format": "severi-cache-1"}\n[1, 2]\n',
        '{"format": "severi-cache-1"}\n{"key": 5, "value": "1"}\n',
        "[]\n",
        "garbage\n",
        '{"format": "severi-cache-1"}\n{"key":"2:0:-|1^2","value":"1"}\n',
        '{"format": "severi-cache-1"}\n{"key": "2:0:-|1^2", "value": 1}\n',
        '{"format": "severi-cache-1"}\n{"key": "2:0:-|1^2", "value": "+1"}\n',
        '{"format": "severi-cache-1"}\n{"key": "2:0:-|1^\\u0032", "value": "1"}\n',
        '{"format": "severi-cache-1"}\n{"key": "3:0:-|1^2", "value": "1"}\n',
        '{"format": "severi-cache-1"}\n{"key": "2:0:-|1^1 1", "value": "1"}\n',
        '{"format":"severi-cache-1"}\n',
        '{"format": "severi-cache-0"}\n{"key": "2:0:-|1^2", "value": "1"}\n',
        '{"format": "severi-cache-1"}\n{"key": "2:0:-|1^2", "value": "1"}\n\n'
        '{"key": "3:1:-|1^3", "value": "12"}\n',
        '{"format": "severi-cache-1"}\n{"key": "2:0:-|1^2", "value": "1"}\n   \n'
        '{"key": "3:1:-|1^3", "value": "12"}\n',
    ],
    ids=["no-key", "no-value", "list-line", "key-not-text", "list-header", "not-json-header",
         "compact-separators", "number-value", "plus-value", "unicode-escape",
         "weight-mismatch", "profile-not-canonical", "compact-header", "other-version",
         "blank", "spaces"],
)
def test_cache_line_of_the_wrong_shape_exits_2(tmp_path, text):
    cache = tmp_path / "table.jsonl"
    cache.write_text(text)
    proc = run_cli("severi", "--d", "3", "--delta", "1", "--cache", str(cache), "--no-timestamp")
    assert proc.returncode == 2
    assert str(cache) in json.loads(proc.stderr)["error"]["message"]


@pytest.mark.parametrize(
    "old, new",
    [
        ('"value": "12"', '"value": "-12"'),
        ('"value": "12"', '"value": "012"'),
        ('"value": "12"', '"value": "-0"'),
        ('"key": "3:1:', '"key": "03:1:'),
        ('"key": "3:1:', '"key": "3:01:'),
    ],
    ids=["negative-value", "zero-padded-value", "minus-zero-value", "zero-padded-d",
         "zero-padded-delta"],
)
def test_cache_number_not_spelled_as_save_writes_it_exits_2(tmp_path, old, new):
    cache = tmp_path / "table.jsonl"
    args = ("severi", "--d", "3", "--delta", "1", "--cache", str(cache), "--output", "pretty")
    assert run_cli(*args).stdout == "N(3:1:-|1^3) = 12\n"
    line = '{"key": "3:1:-|1^3", "value": "12"}\n'
    text = cache.read_text()
    assert line in text
    cache.write_text(text.replace(line, line.replace(old, new)))
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert str(cache) in json.loads(proc.stderr)["error"]["message"]


@pytest.mark.parametrize(
    "line",
    [
        '{"key": "2:0:-|1^2", "value": "é"}\n',
        '{"key": "2:0:-|1^2", "value": "1"} é\n',
        '{"key": "2:0:-|1^²", "value": "1"}\n',
    ],
    ids=["in-value", "after-line", "in-profile"],
)
def test_cache_byte_outside_ascii_exits_2_as_a_malformed_line(tmp_path, line):
    cache = tmp_path / "table.jsonl"
    cache.write_bytes(('{"format": "severi-cache-1"}\n' + line).encode("utf-8"))
    proc = run_cli("severi", "--d", "3", "--delta", "1", "--cache", str(cache), "--no-timestamp")
    assert proc.returncode == 2
    assert proc.stdout == ""
    message = json.loads(proc.stderr)["error"]["message"]
    assert message.startswith(f"cache file {cache} has a malformed line ")


def test_cache_torn_last_line_with_a_byte_outside_ascii_is_ignored(tmp_path):
    cache = tmp_path / "table.jsonl"
    cache.write_bytes('{"format": "severi-cache-1"}\n{"key": "2:0:-|1^2", "va é'.encode("utf-8"))
    args = ("severi", "--d", "3", "--delta", "1", "--cache", str(cache), "--output", "pretty")
    assert run_cli(*args).stdout == "N(3:1:-|1^3) = 12\n"
    assert cache.read_bytes().startswith(b'{"format": "severi-cache-1"}\n{"key": ')
    assert "é" not in cache.read_text(encoding="utf-8")


def test_cache_key_with_two_values_exits_3(tmp_path):
    cache = tmp_path / "table.jsonl"
    cache.write_text(
        '{"format": "severi-cache-1"}\n'
        '{"key": "2:0:-|1^2", "value": "1"}\n{"key": "2:0:-|1^2", "value": "2"}\n'
    )
    proc = run_cli("severi", "--d", "3", "--delta", "1", "--cache", str(cache), "--no-timestamp")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert str(cache) in json.loads(proc.stderr)["error"]["message"]


def test_no_assert_statement_in_the_package():
    # the checks that exit 3 raise AssertionError explicitly, so python -O keeps them;
    # an assert statement would be stripped there and let a wrong number exit 0
    package = os.path.join(ROOT, "src", "nodalcurves")
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unusable_cache_path_exits_2(tmp_path, where):
    cache = tmp_path / "missing" / "table.jsonl" if where == "missing-directory" else tmp_path
    proc = run_cli("severi", "--d", "3", "--delta", "1", "--cache", str(cache), "--no-timestamp")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert str(cache) in json.loads(proc.stderr)["error"]["message"]


@pytest.mark.parametrize(
    "args",
    [
        ("forms", "--order", "2", "--cache"),
        ("close-relation", "--v1", "1,-3,8,4", "--v2", "0,0,9,3", "--gD", "0", "--degLD", "0",
         "--cache"),
        ("decompose", "--L2", "1", "--LK", "-3", "--c1sq", "9", "--c2", "3", "--threads"),
    ],
    ids=["forms-cache", "close-relation-cache", "decompose-threads"],
)
def test_table_flags_are_refused_where_no_table_opens(tmp_path, args):
    cache = tmp_path / "table.jsonl"
    proc = run_cli(*args, str(cache) if args[-1] == "--cache" else "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not cache.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (("close-relation", "--v1", "1,-3,8", "--v2", "0,0,9,3", "--gD", "0", "--degLD", "0"),
         "--v1"),
        (("close-relation", "--v1", "1,-3,8,4", "--v2", "0,0,9,3,1", "--gD", "0", "--degLD", "0"),
         "--v2"),
        (("fit", "--order", "1", "--degrees", "9"), "--degrees"),
        (("fit", "--order", "1", "--degrees", ""), "--degrees"),
        (("fit", "--order", "1", "--k3", "2,4,6"), "--k3"),
        (("validate", "--d", "11", "--order", "1", "--k3", "2,x"), "--k3"),
    ],
    ids=["v1-short", "v2-long", "degrees-one", "degrees-empty", "k3-three", "k3-not-int"],
)
def test_wrong_length_vector_exits_2_naming_the_flag(args, flag):
    proc = run_cli(*args, "--no-timestamp")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert flag in json.loads(proc.stderr)["error"]["message"]


def test_severi_negative_delta_exits_2_naming_the_flag():
    proc = run_cli("severi", "--d", "3", "--delta", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--delta" in json.loads(proc.stderr)["error"]["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("validate", "--d", "5", "--order", "6"), "ampleness bound"),
        (("genus-series", "--r", "-1", "--Ksq", "1", "--m", "0", "--chiO", "0", "--order", "3"),
         "negative powers of DG2"),
        (("genus-series", "--r", "0", "--Ksq", "1", "--m", "0", "--chiO", "0", "--order", "0"),
         "order must be >= 1"),
        (("validate", "--d", "0", "--order", "0"), "plane degree 0 must be at least 1"),
        (("validate", "--d", "-3", "--order", "0"), "plane degree -3 must be at least 1"),
    ],
    ids=["validate-below-threshold", "genus-series-negative-r", "genus-series-order-0",
         "validate-degree-0", "validate-negative-degree"],
)
def test_bad_input_is_refused_before_any_severi_work(argv, message):
    args = cli.build_parser().parse_args(argv)
    table = SeveriTable()
    with pytest.raises(ValueError, match=message):
        args.handler(args, table)
    assert len(table) == 0


@pytest.mark.parametrize(
    "args, code",
    [(("severi", "--d", "3", "--delta", "1", "--output", "pretty"), 0),
     (("severi", "--d", "3", "--delta", "-1"), 2)],
    ids=["success", "bad-delta"],
)
def test_console_main_exits_with_the_status_of_main(monkeypatch, capsys, args, code):
    monkeypatch.setattr(sys, "argv", ["nodalcurves", *args])
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == code
    assert capsys.readouterr().out == ("N(3:1:-|1^3) = 12\n" if code == 0 else "")


def test_missing_required_flag_exits_2():
    proc = run_cli("severi", "--d", "3")
    assert proc.returncode == 2


@pytest.mark.parametrize("threads", ["1", "4"])
def test_fit_runs_with_threads(threads):
    proc = run_cli("fit", "--order", "1", "--threads", threads, "--no-timestamp")
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "alpha, token",
    [("1^2,1^-1", "1^-1"), ("1^0", "1^0"), ("1^2^3", "1^2^3")],
    ids=["negative-count", "zero-count", "two-carets"],
)
def test_contact_token_outside_m_or_m_to_the_c_exits_2_naming_it(alpha, token):
    proc = run_cli("severi", "--d", "3", "--delta", "1", "--alpha", alpha, "--no-timestamp")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert repr(token) in json.loads(proc.stderr)["error"]["message"]


def test_genus_series_without_a_fit_saves_a_header_only_cache(tmp_path):
    cache = tmp_path / "table.jsonl"
    proc = run_cli(
        "genus-series", "--r", "0", "--Ksq", "0", "--m", "0", "--chiO", "2", "--order", "3",
        "--cache", str(cache), "--no-timestamp",
    )
    assert doc_of(proc)["result"]["series"]["order"] == 3
    assert cache.read_text() == '{"format": "severi-cache-1"}\n'


FIT_ARGS = {
    "fit": ("fit", "--order", "1"),
    "evaluate": ("evaluate", "--L2", "1", "--LK", "-3", "--c1sq", "9", "--c2", "3",
                 "--order", "1"),
    "genus-series": ("genus-series", "--r", "0", "--Ksq", "9", "--m", "-3", "--chiO", "1",
                     "--order", "1"),
    "validate": ("validate", "--d", "11", "--order", "1"),
}


@pytest.mark.parametrize("command", list(FIT_ARGS))
def test_unsafe_is_no_flag(command):
    proc = run_cli(*FIT_ARGS[command], "--unsafe", "--no-timestamp")
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        (*FIT_ARGS["fit"], "--output", "json"),
        ("close-relation", "--v1", "1,-3,8,4", "--v2", "0,0,9,3", "--gD", "0", "--degLD", "0",
         "--output", "json"),
        (*FIT_ARGS["validate"], "--output", "json"),
        ("forms", "--order", "2", "--output", "json"),
        ("severi", "--d", "3", "--delta", "1", "--threads", "1"),
        (*FIT_ARGS["evaluate"], "--threads", "1"),
        (*FIT_ARGS["genus-series"], "--threads", "1"),
        (*FIT_ARGS["validate"], "--threads", "1"),
    ],
    ids=["fit-output", "close-relation-output", "validate-output", "forms-output",
         "severi-threads", "evaluate-threads", "genus-series-threads", "validate-threads"],
)
def test_option_that_cannot_change_the_result_is_no_flag(args):
    proc = run_cli(*args, "--no-timestamp")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fit_below_the_ampleness_bound_exits_2_naming_r():
    # N(14, 3) = 20064730, but a fit at degrees (2, 3) would print 20064378
    proc = run_cli(
        "evaluate", "--L2", "196", "--LK", "-42", "--c1sq", "9", "--c2", "3", "--order", "3",
        "--degrees", "2,3", "--output", "pretty",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "r = 3" in json.loads(proc.stderr)["error"]["message"]


def test_fit_takes_no_qorder():
    proc = run_cli("fit", "--order", "2", "--qorder", "2", "--no-timestamp")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_importing_the_cli_leaves_out_dataclasses_and_inspect():
    # every run pays for this import before any work; pytest itself imports
    # inspect, so only a fresh interpreter can tell, and what a site hook
    # imported before the package does not count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = (
        "import sys; before = set(sys.modules); import nodalcurves.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules and m not in before])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
