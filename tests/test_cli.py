"""Command-line interface: documents, exit codes, determinism, cache, flags."""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from nodalcurves import SeveriTable, cli
from nodalcurves.universal import (
    FitConfig,
    GYZFit,
    GYZResiduals,
    default_config,
    fit_A,
    fit_B,
    universal_T,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, text=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "nodalcurves", *args],
        capture_output=True,
        text=text,
        env=env,
        cwd=ROOT,
    )


def main_stdout(*args):
    """cli.main's exit status and what it printed, under redirect_stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(args))
    return status, buf.getvalue()


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


def reference_fit_document(order, k3="2,4"):
    """json.dumps(sort_keys=True, indent=2) of fit's document at the default
    degrees with every T_r term a {"exponents", "coeff"} dict, the way fit
    built the whole document before it wrote its T section term by term."""
    base = default_config(order)
    s1, s2 = (int(s) for s in k3.split(","))
    fit = fit_A(FitConfig(order, base.d1, base.d2, s1, s2), SeveriTable())
    gyz = fit_B(fit)
    result = {
        "A": [s.to_json_dict() for s in fit.a],
        "logA": [s.to_json_dict() for s in fit.log_a],
        "B": {name: b.to_json_dict() for name, b in zip(
            ("B1", "B2", "B3", "B4"), (gyz.b1, gyz.b2, gyz.b3, gyz.b4))},
        "residuals": {
            "dg2_identity": gyz.residuals.dg2_identity.to_json_dict(),
            "delta_identity": gyz.residuals.delta_identity.to_json_dict(),
            "ok": gyz.residuals.ok,
        },
        "T": [
            {"r": r, "terms": [{"exponents": list(e), "coeff": str(c)}
                               for e, c in universal_T(r, fit).terms]}
            for r in range(order + 1)
        ],
    }
    config = fit.config.to_json_dict()
    config["q_order"] = gyz.q_order
    doc = {"schema_version": "1", "command": "fit", "config": config, "result": result}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("k3", ["2,4", "4,6"], ids=["k3-2-4", "k3-4-6"])
@pytest.mark.parametrize("order", range(7))
def test_fit_streams_the_document_json_dumps_renders(order, k3):
    status, text = main_stdout("fit", "--order", str(order), "--k3", k3, "--no-timestamp")
    assert status == 0
    assert text == reference_fit_document(order, k3)


def test_main_under_redirect_stdout_prints_the_bytes_of_a_subprocess():
    # perfbench captures main's output this way, so main writes to sys.stdout
    # as it stands when the pieces are written
    proc = run_cli("fit", "--order", "3", "--no-timestamp", text=False)
    assert proc.returncode == 0, proc.stderr
    status, text = main_stdout("fit", "--order", "3", "--no-timestamp")
    assert status == 0
    assert text.encode() == proc.stdout


def test_no_piece_of_the_fit_document_exceeds_64_KiB():
    # 6,188 T terms in 608,041 bytes: T goes out term by term, never as one
    # string, and every other piece is small at this order
    args = cli.build_parser().parse_args(
        ["fit", "--order", "12", "--degrees", "12,13", "--no-timestamp"]
    )
    pieces, status = args.handler(args, SeveriTable())
    assert status == 0
    pieces = list(pieces)
    data = "".join(pieces).encode()
    assert len(data) == 608041
    assert (
        hashlib.sha256(data).hexdigest()
        == "cd0489bddc60237fa18962d46ffd8b50f2d585d386f341514be259a023d56eeb"
    )
    assert max(len(piece.encode()) for piece in pieces) <= 64 * 1024


class FirstWriteTraced(io.StringIO):
    """A sink that, at its first write, sums the live traced allocations
    made in cli.py."""

    cli_bytes = None

    def write(self, text):
        if self.cli_bytes is None:
            stats = tracemalloc.take_snapshot().statistics("filename")
            self.cli_bytes = sum(s.size for s in stats if s.traceback[0].filename == cli.__file__)
        return super().write(text)


def test_fit_holds_no_T_text_when_main_starts_writing():
    # 3,003 T terms in 300,428 bytes: main writes the head before any term
    # is formatted, so cli.py then holds the head and tail and nothing of T
    sink = FirstWriteTraced()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            status = cli.main(["fit", "--order", "10", "--degrees", "10,11", "--no-timestamp"])
    finally:
        tracemalloc.stop()
    assert status == 0
    assert sink.cli_bytes < 64 * 1024
    data = sink.getvalue().encode()
    assert len(data) == 300428
    assert (
        hashlib.sha256(data).hexdigest()
        == "d10950c1922e3c4cf9e0b95ae175e7b6259aedbb579ccbf64c5f9fc4e6c299b3"
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


def test_cache_value_an_extended_pair_rebuilds_differently_exits_3(tmp_path):
    # a loaded pair that a request extends is rebuilt from its deps, so a
    # hand-edited value in its prefix is caught there; read as is, it is trusted
    cache = tmp_path / "table.jsonl"
    table = ["severi-table", "--dmax", "5", "--deltamax", "2", "--cache", str(cache)]
    assert run_cli(*table).returncode == 0
    edited = cache.read_text().replace(
        '{"key": "5:2:-|1^5", "value": "882"}', '{"key": "5:2:-|1^5", "value": "7"}'
    )
    assert edited != cache.read_text()
    cache.write_text(edited)
    assert run_cli(*table).stdout.splitlines()[-1] == "5,2,7"
    proc = run_cli(*table[:-3], "3", "--cache", str(cache))
    assert proc.returncode == 3
    assert proc.stdout == ""
    message = json.loads(proc.stderr)["error"]["message"]
    assert "7" in message and "5:2:-|1^5" in message and "882" in message
    assert cache.read_text() == edited


def test_cache_pair_whose_lines_are_not_a_prefix_keeps_its_prefix(tmp_path):
    # a cache written by single-delta requests can hold a pair's lines with a
    # gap: the pair keeps the prefix before the gap, the lines past it are
    # still checked, and no save writes a second line for a key the file holds
    cache = tmp_path / "table.jsonl"
    args = ("severi-table", "--dmax", "5", "--deltamax", "3", "--cache", str(cache))
    full = run_cli(*args)
    assert full.returncode == 0
    whole = cache.read_text()
    gap = '{"key": "5:1:-|1^5", "value": "48"}\n'
    assert gap in whole
    cache.write_text(whole.replace(gap, ""))
    loaded = SeveriTable.load(cache)
    assert len(loaded) == whole.count("\n") - 1 - 3  # slots 1, 2 and 3 of -|1^5
    assert run_cli(*args).stdout == full.stdout
    lines = cache.read_text().splitlines()
    assert len(lines) == len(set(lines)) == whole.count("\n")
    assert sorted(lines) == sorted(whole.splitlines())
    # a line past the gap holding another value than the recursion exits 3 at the save
    cache.write_text(
        whole.replace(gap, "").replace(
            '{"key": "5:2:-|1^5", "value": "882"}', '{"key": "5:2:-|1^5", "value": "881"}'
        )
    )
    before = cache.read_text()
    proc = run_cli(*args)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert str(cache) in json.loads(proc.stderr)["error"]["message"]
    assert cache.read_text() == before


def test_cache_with_crlf_line_ends_exits_2_before_any_severi_work(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "table.jsonl"
    args = ["severi", "--d", "5", "--delta", "2", "--cache", str(cache), "--no-timestamp"]
    assert run_cli(*args).returncode == 0
    crlf = cache.read_bytes().replace(b"\n", b"\r\n")
    cache.write_bytes(crlf)

    def no_severi_work(*_):
        raise AssertionError("Severi work before the cache was refused")

    monkeypatch.setattr(cli, "severi_relative", no_severi_work)
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert str(cache) in json.loads(err)["error"]["message"]
    assert cache.read_bytes() == crlf


def test_cache_key_another_run_saved_with_another_value_exits_3(tmp_path, monkeypatch, capsys):
    # another run saves a wrong value for a key of this run between its load and its save
    cache = tmp_path / "table.jsonl"
    other = '{"format": "severi-cache-1"}\n{"key": "2:0:-|1^2", "value": "2"}\n'
    load = SeveriTable.load

    def load_then_other_run_saves(path):
        table = load(path)
        cache.write_text(other)
        return table

    monkeypatch.setattr(SeveriTable, "load", staticmethod(load_then_other_run_saves))
    assert cli.main(["severi", "--d", "3", "--delta", "1", "--cache", str(cache)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert str(cache) in json.loads(err)["error"]["message"]
    assert cache.read_text() == other


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
        (("severi", "--d", "-1", "--delta", "0"), "degree must be positive"),
        (("severi", "--d", "2", "--delta", "0", "--alpha", "3"),
         r"profile weight mismatch: I\(alpha\) \+ I\(beta\) = 3 but d = 2"),
    ],
    ids=["validate-below-threshold", "genus-series-negative-r", "genus-series-order-0",
         "validate-degree-0", "validate-negative-degree", "severi-negative-degree",
         "severi-alpha-above-degree"],
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


def test_genus_series_with_a_nonzero_fit_residual_exits_3_and_still_prints(monkeypatch, capsys):
    real_fit_B = cli.fit_B

    def inconsistent_fit_B(fit, q_order=None):
        gyz = real_fit_B(fit, q_order)
        broken = GYZResiduals(gyz.residuals.dg2_identity + 1, gyz.residuals.delta_identity)
        return GYZFit(gyz.q_order, gyz.b1, gyz.b2, gyz.b3, gyz.b4, broken)

    monkeypatch.setattr(cli, "fit_B", inconsistent_fit_B)
    argv = ["genus-series", "--r", "1", "--Ksq", "9", "--m", "-3", "--chiO", "1",
            "--order", "2", "--no-timestamp"]
    assert cli.main(argv) == 3
    assert json.loads(capsys.readouterr().out)["command"] == "genus-series"


def _plane_value_off_by(monkeypatch, degree, add, r=1):
    """Make the fit read N(degree, r) + add for the r-nodal plane count."""
    from nodalcurves import universal

    real_p2_series = universal.p2_series

    def off_p2_series(d, order, table):
        series = real_p2_series(d, order, table)
        if d != degree:
            return series
        coeffs = list(series.coeffs)
        coeffs[r] += add
        return type(series)(tuple(coeffs), series.var)

    monkeypatch.setattr(universal, "p2_series", off_p2_series)


def test_fit_with_a_non_integral_B_coefficient_exits_3_and_still_prints(monkeypatch, capsys):
    # one plane value off by one leaves both residual identities at zero, so
    # only the integrality of B1..B4 shows it; order 2 fits at (9, 10)
    _plane_value_off_by(monkeypatch, 9, 1)
    assert cli.main(["fit", "--order", "2", "--no-timestamp"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "fit"
    assert doc["result"]["residuals"]["ok"] is True
    assert any("/" in c for c in doc["result"]["B"]["B1"]["coeffs"])


def test_genus_series_with_a_non_integral_B_coefficient_exits_3_and_still_prints(
    monkeypatch, capsys
):
    _plane_value_off_by(monkeypatch, 2, 1)  # genus-series fits at (order, order + 1)
    argv = ["genus-series", "--r", "1", "--Ksq", "9", "--m", "-3", "--chiO", "1",
            "--order", "2", "--no-timestamp"]
    assert cli.main(argv) == 3
    assert json.loads(capsys.readouterr().out)["command"] == "genus-series"


def test_a_plane_value_off_by_nine_keeps_B_integral_but_fails_the_held_out_degree(
    monkeypatch, capsys
):
    # the plane has K^2 = 9, so an error of 9 in one plane value moves B1 by
    # an integer: residuals and integrality both pass, and only the fit's
    # prediction of N(8, r) from the memo shows it
    _plane_value_off_by(monkeypatch, 9, 9)
    assert cli.main(["fit", "--order", "2", "--no-timestamp"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["residuals"]["ok"] is True
    B = doc["result"]["B"]
    assert all("/" not in c for name in ("B1", "B2", "B3", "B4") for c in B[name]["coeffs"])


@pytest.mark.parametrize("order", [2, 3])
def test_every_perturbed_plane_input_of_a_fit_exits_3(monkeypatch, capsys, order):
    # the default degrees: (9, 10) at order 2, (14, 15) at order 3
    config = default_config(order)
    for degree in (config.d1, config.d2):
        for r in range(1, order + 1):
            for add in (1, 3, 9, 81, -1):
                with monkeypatch.context() as patch:
                    _plane_value_off_by(patch, degree, add, r)
                    assert cli.main(["fit", "--order", str(order), "--no-timestamp"]) == 3, (
                        degree, r, add)
                capsys.readouterr()


def test_a_cached_fit_input_edited_by_hand_exits_3(tmp_path, capsys):
    cache = tmp_path / "fit.jsonl"
    argv = ["fit", "--order", "2", "--cache", str(cache), "--no-timestamp"]
    assert cli.main(argv) == 0
    right = capsys.readouterr().out
    line = '{"key": "9:1:-|1^9", "value": "192"}\n'
    text = cache.read_text()
    assert line in text
    cache.write_text(text.replace(line, line.replace("192", "201")))
    assert cli.main(argv) == 3
    assert capsys.readouterr().out != right


# sha256 of the five --no-timestamp stdouts per order, joined in GENUS_GRID
# order, as printed when genus-series still fitted at the default degrees
GENUS_GRID = [(0, 1, 0, 0), (1, 9, -3, 1), (3, 4, 2, -2), (0, 0, 1, 2), (2, -1, -1, 3)]
GENUS_GRID_SHA256 = {
    1: "2530addc5f08d5c86a4c4b8d982dc1e11a3956790ad26340c5fb73031ca87181",
    2: "fe9fcd516b54dc1bee1ec974b68a240062e6b5a2942d6989aee1cb8510c9cbf9",
    3: "e7efe9da7539924b07a8df2738bb868d367ec134a1b9c874cc636fc4266c5f7f",
    4: "c216747e15ca79fb3d9e6d32b2fbad22058539453fd2e285ac18c85549fb0c6b",
    5: "51f51f16e02eb6bd7ad1076e3661fc74ab681af933a6dbde09318cc2aedd2454",
    6: "e908dabb9e799c80c455032bbac6bc6b7faf551ab77ae4e89c7d9b33698a36a4",
    7: "d88e36bd8dd16f6dffe457316f5a5fd74e2972db51e9551ce312783411d360e1",
    8: "31204783da65f8aa0dcf3643a95c3f7a01c39c78d665328689a2af613fd47280",
}


@pytest.mark.parametrize("order", list(GENUS_GRID_SHA256))
def test_genus_series_prints_what_the_default_degree_fit_printed(order, capsys):
    outputs = []
    for r, Ksq, m, chiO in GENUS_GRID:
        argv = ["genus-series", "--r", str(r), "--Ksq", str(Ksq), "--m", str(m),
                "--chiO", str(chiO), "--order", str(order), "--no-timestamp"]
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == GENUS_GRID_SHA256[order]


def test_genus_series_fits_at_the_lowest_proven_degrees():
    # degrees (8, 9); the default degrees (39, 40) made 473,555 entries
    args = cli.build_parser().parse_args(
        ["genus-series", "--r", "0", "--Ksq", "4", "--m", "2", "--chiO", "0", "--order", "8"]
    )
    table = SeveriTable()
    args.handler(args, table)
    assert len(table) == 2778


FIT_ARGS = {
    "fit": ("fit", "--order", "1"),
    "evaluate": ("evaluate", "--L2", "1", "--LK", "-3", "--c1sq", "9", "--c2", "3",
                 "--order", "1"),
    "genus-series": ("genus-series", "--r", "0", "--Ksq", "9", "--m", "-3", "--chiO", "1",
                     "--order", "1"),
    "validate": ("validate", "--d", "11", "--order", "1"),
}


@pytest.mark.parametrize(
    "args",
    [
        ("severi", "--d", "3", "--delta", "1"),
        ("severi", "--d", "3", "--delta", "1", "--output", "pretty"),
        ("severi-table", "--dmax", "2", "--deltamax", "1"),
        ("severi-table", "--dmax", "2", "--deltamax", "1", "--output", "json"),
        FIT_ARGS["fit"],
        FIT_ARGS["evaluate"],
        (*FIT_ARGS["evaluate"], "--output", "pretty"),
        ("decompose", "--L2", "1", "--LK", "-3", "--c1sq", "9", "--c2", "3"),
        ("decompose", "--L2", "1", "--LK", "-3", "--c1sq", "9", "--c2", "3", "--output", "pretty"),
        ("close-relation", "--v1", "1,-3,8,4", "--v2", "0,0,9,3", "--gD", "0", "--degLD", "0"),
        FIT_ARGS["genus-series"],
        (*FIT_ARGS["genus-series"], "--output", "pretty"),
        FIT_ARGS["validate"],
        ("forms", "--order", "2"),
    ],
    ids=["severi", "severi-pretty", "severi-table", "severi-table-json", "fit", "evaluate",
         "evaluate-pretty", "decompose", "decompose-pretty", "close-relation", "genus-series",
         "genus-series-pretty", "validate", "forms"],
)
def test_every_handler_returns_text_pieces(args):
    # main writes the pieces one by one; a bare str would go out a character
    # at a time.  fit's pieces are a one-pass iterator, so they are read once
    args = cli.build_parser().parse_args([*args, "--no-timestamp"])
    pieces, status = args.handler(*((args, SeveriTable()) if "cache" in args else (args,)))
    assert status == 0
    assert not isinstance(pieces, str)
    pieces = list(pieces)
    assert pieces and all(isinstance(piece, str) for piece in pieces)


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
        (*FIT_ARGS["genus-series"], "--degrees", "2,3"),
        (*FIT_ARGS["genus-series"], "--k3", "2,6"),
    ],
    ids=["fit-output", "close-relation-output", "validate-output", "forms-output",
         "severi-threads", "evaluate-threads", "genus-series-threads", "validate-threads",
         "genus-series-degrees", "genus-series-k3"],
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
