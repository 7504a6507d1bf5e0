"""End-to-end CLI behaviour: output shapes, exit codes, and determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import braceforge
from braceforge import __version__
from braceforge.census import census_lookup
from braceforge.cli import build_parser, main
from braceforge.constructions import example_q8
from braceforge.groups import make_cyclic
from braceforge.jsonio import (brace_to_obj, canonical_dumps, group_to_obj, parse)
from braceforge.report import hg_descriptor, render_dot


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == f"braceforge {__version__}"


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["group"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


USAGE_GOLDEN = json.loads((Path(__file__).parent / "cli_usage_golden.json").read_text())


@pytest.mark.parametrize("case", USAGE_GOLDEN, ids=lambda c: " ".join(c["argv"]) or "no-args")
def test_help_and_usage_errors_match_the_recorded_bytes(capsys, monkeypatch, case):
    # recorded with COLUMNS=80 when every command's arguments were built on
    # every call; the parser now builds only the command being run
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *case["argv"])
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_usage_goldens_cover_every_leaf_command():
    # every (sub)command's --help is pinned, so a command added later needs a golden
    def leaves(parser, prefix):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield prefix
        for action in subs:
            for name, child in action.choices.items():
                yield from leaves(child, prefix + (name,))
    commands = list(leaves(build_parser(""), ()))
    assert len(commands) == 6
    found = {leaf for (name,) in commands for leaf in leaves(build_parser(name), ())
             if leaf[0] == name}
    helped = {tuple(c["argv"][:-1]) for c in USAGE_GOLDEN if c["argv"][-1:] == ["--help"]}
    assert len(found) == 8 and found | {()} <= helped


def test_group_list(capsys):
    code, out, _ = run(capsys, "group", "list")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 28
    assert lines[0] == "C1  (order 1)"
    assert lines[-1] == "C15  (order 15)"


def test_group_list_json(capsys):
    code, out, _ = run(capsys, "group", "list", "--json")
    data = json.loads(out)
    assert code == 0
    assert len(data) == 28
    assert {"label": "Q8", "order": 8} in data


def test_group_show_label(capsys):
    code, out, _ = run(capsys, "group", "show", "Q8")
    assert code == 0
    assert "label: Q8" in out
    assert "order: 8" in out
    assert "abelian: False" in out
    assert "subgroups: 6" in out


def test_group_show_json_round_trip(capsys):
    code, out, _ = run(capsys, "group", "show", "D8", "--json")
    assert code == 0
    assert json.loads(out)["label"] == "D8"


def test_group_show_file(capsys, tmp_path):
    path = tmp_path / "c16.json"
    path.write_text(canonical_dumps(group_to_obj(make_cyclic(16))))
    code, out, _ = run(capsys, "group", "show", str(path))
    assert code == 0
    assert "order: 16" in out
    assert "label: C16" in out


def test_group_show_unknown_label_lists_census(capsys):
    code, _, err = run(capsys, "group", "show", "NOPE")
    assert code == 2
    assert err.startswith("error: ")
    assert "available" in err and "Q8" in err


def test_group_show_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "group", "show", str(path))
    assert code == 2 and "not valid JSON" in err

    path.write_text(canonical_dumps({"order": 2, "label": "x"}))
    code, _, err = run(capsys, "group", "show", str(path))
    assert code == 2 and "missing keys" in err


@pytest.mark.parametrize("argv, payload", [
    pytest.param(argv, payload, id=" ".join(argv) + suffix)
    # past 4300 digits Python refuses an int literal with a plain ValueError
    for suffix, payload in (("", b"\xff\xfe{"), (" 5000-digit int", b"[" + b"1" * 5000 + b"]"))
    for argv in [("group", "show"), ("brace", "enumerate"), ("brace", "check"),
                 ("classify",), ("hg", "report")]])
def test_non_utf8_file_is_a_usage_error(capsys, tmp_path, argv, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "not valid JSON" in err and "Traceback" not in err


def test_group_show_rejects_bool_order(capsys, tmp_path):
    # JSON true would otherwise pass as the int 1
    path = tmp_path / "bool.json"
    path.write_text('{"order": true, "label": "X", "table": [[0]]}')
    code, out, err = run(capsys, "group", "show", str(path), "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "$.order" in err


def test_brace_enumerate_human(capsys):
    code, out, _ = run(capsys, "brace", "enumerate", "C2xC2", "--up-to-iso", "--no-cache")
    assert code == 0
    assert "additive: C2xC2 (order 4)" in out
    assert "operations: 4" in out
    assert "iso classes: 2" in out
    assert "by circ type: C2xC2 x1, C4 x3" in out


def test_brace_enumerate_human_prints_no_classes_unless_asked(capsys):
    # the labelling walks the classes, but only --up-to-iso prints them
    code, out, _ = run(capsys, "brace", "enumerate", "C2xC2")
    assert code == 0
    assert "iso classes:" not in out
    assert out == "additive: C2xC2 (order 4)\noperations: 4\nby circ type: C2xC2 x1, C4 x3\n"


def test_brace_enumerate_json_deterministic_and_cached(capsys, tmp_path):
    # enumerations are not cached: the flags parse, and nothing is written
    args = ("brace", "enumerate", "S3", "--json", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    assert code1 == 0
    assert not list(tmp_path.iterdir())
    code2, out2, _ = run(capsys, *args)
    assert (code2, out2) == (0, out1)
    assert run(capsys, "brace", "enumerate", "S3", "--json", "--no-cache") == (0, out1, "")
    assert json.loads(out1)["additive"]["label"] == "S3"


def test_brace_enumerate_over_cap(capsys, tmp_path):
    path = tmp_path / "c16.json"
    path.write_text(canonical_dumps(group_to_obj(make_cyclic(16))))
    code, _, err = run(capsys, "brace", "enumerate", str(path), "--no-cache")
    assert code == 2
    assert "capped at order 15" in err


def test_brace_check_valid(capsys, tmp_path):
    path = tmp_path / "b.json"
    path.write_text(canonical_dumps(brace_to_obj(example_q8())))
    code, out, _ = run(capsys, "brace", "check", str(path))
    assert code == 0
    assert out.strip() == "ok: order 8, dot type Q8, circ type D8"
    code, out, _ = run(capsys, "brace", "check", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {"valid": True, "order": 8,
                               "dot_type": "Q8", "circ_type": "D8"}


def test_brace_check_reports_violating_triple(capsys, tmp_path):
    # no brace pairs a prime-order group with a relabeled copy of itself
    from oracles import transport
    c5 = make_cyclic(5)
    obj = {"order": 5, "label": "broken",
           "dot": [list(r) for r in c5.table],
           "circ": [list(r) for r in transport(c5, (0, 2, 1, 3, 4)).table]}
    path = tmp_path / "broken.json"
    path.write_text(canonical_dumps(obj))

    code, _, err = run(capsys, "brace", "check", str(path))
    assert code == 2
    assert "compatibility fails at (a, b, c)" in err
    assert "compatibility fails at (a, b, c) = (1, 1, 1)" in err

    code, out, _ = run(capsys, "brace", "check", str(path), "--json")
    data = json.loads(out)
    assert code == 2
    assert data["valid"] is False
    assert isinstance(data["triple"], list) and len(data["triple"]) == 3
    assert data["triple"] == [1, 1, 1]


def test_brace_check_schema_error(capsys, tmp_path):
    path = tmp_path / "b.json"
    path.write_text(canonical_dumps({"order": 2}))
    code, out, _ = run(capsys, "brace", "check", str(path), "--json")
    assert code == 2
    data = json.loads(out)
    assert data["valid"] is False and data["triple"] is None


def test_classify_good_group(capsys):
    code, out, _ = run(capsys, "classify", "C15", "--no-cache")
    assert code == 0
    assert "verdict: good" in out
    assert "braces examined: 1" in out


def test_classify_bad_group_with_witness(capsys):
    code, out, _ = run(capsys, "classify", "Q8", "--no-cache", "--exhaustive")
    assert code == 0
    assert "verdict: bad" in out
    assert "braces examined: 28" in out
    assert "witness circ type: C2xC2xC2" in out
    assert "witness subgroup: {0, 1}" in out
    assert "failing pair: (1, 1) (dot-closure)" in out


def test_classify_json(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "C9", "--json", "--cache-dir", str(tmp_path))
    data = json.loads(out)
    assert code == 0
    assert data["good"] is True and data["braces_examined"] == 3


def test_classify_unknown_label(capsys):
    code, _, err = run(capsys, "classify", "NOPE", "--no-cache")
    assert code == 2
    assert "available" in err


def test_verify_theorem_human(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--max-order", "8", "--no-cache")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "C1 (order 1): predicted good, computed good"
    assert "Q8 (order 8): predicted bad, computed bad" in lines
    assert lines[-1] == "all match: True"
    assert not any("MISMATCH" in l for l in lines)


def test_verify_theorem_json(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--max-order", "10",
                       "--json", "--no-cache")
    data = json.loads(out)
    assert code == 0
    assert data["all_match"] is True
    assert data["good_labels"] == ["C1", "C2", "C3", "C2xC2", "C5", "C7", "C9"]


def test_verify_theorem_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("braceforge.classify.theorem_predicate", lambda g: False)
    code, out, _ = run(capsys, "verify", "theorem", "--max-order", "4", "--no-cache")
    assert code == 1
    assert "MISMATCH" in out
    assert "all match: False" in out


def test_verify_theorem_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "theorem", "--max-order", "16", "--no-cache")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "verify", "theorem", "--workers", "0", "--no-cache")
    assert code == 2 and "--workers" in err


def test_verify_theorem_worker_output_identical(capsys):
    base = ("verify", "theorem", "--max-order", "10", "--json", "--no-cache")
    _, out1, _ = run(capsys, *base, "--workers", "1")
    _, out2, _ = run(capsys, *base, "--workers", "2")
    assert out1 == out2


def test_example_human_output(capsys):
    code, out, _ = run(capsys, "example", "q8")
    assert code == 0
    assert "construction: q8" in out
    assert "dot type: Q8" in out
    assert "circ type: D8" in out
    assert "gamma[1] = (0, 1, 2, 3, 6, 7, 4, 5)" in out
    assert re.search(r"witness: subgroup \{[0-9, ]+\} fails "
                     r"(dot-closure|gamma) at \(\d+, \d+\)", out)
    head, _, tail = out.partition("\n\n")
    assert json.loads(tail)["order"] == 8


def test_example_good_case_has_no_witness(capsys):
    code, out, _ = run(capsys, "example", "order4")
    assert code == 0
    assert "witness: none, every circ-subgroup is a left ideal" in out


def test_example_defaults(capsys):
    assert json.loads(run(capsys, "example", "cn-even", "--json")[1])["order"] == 4
    assert json.loads(run(capsys, "example", "pq", "--json")[1])["order"] == 6
    assert json.loads(run(capsys, "example", "p-odd", "--json")[1])["order"] == 9


def test_example_parameters(capsys):
    code, out, _ = run(capsys, "example", "pq", "--p", "7", "--q", "3", "--json")
    assert code == 0 and json.loads(out)["order"] == 21
    code, out, _ = run(capsys, "example", "cn-even", "--n", "10", "--json")
    assert code == 0 and json.loads(out)["order"] == 10


def test_example_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "example", "cn-even", "--n", "7")
    assert code == 2 and "even" in err
    code, _, err = run(capsys, "example", "pq", "--p", "5", "--q", "3")
    assert code == 2 and "divide" in err
    code, _, err = run(capsys, "example", "nonsense")
    assert code == 2


def _one_line_usage_error(capsys, *argv) -> str:
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("argv", [[name, flag, "3"] for name in ("q8", "c2cubed", "order4")
                                  for flag in ("--n", "--m", "--p", "--q")]
                         + [["cn-even", "--m", "3"], ["p-odd", "--q", "3"]], ids=" ".join)
def test_example_refuses_parameters_its_construction_does_not_take(capsys, argv):
    err = _one_line_usage_error(capsys, "example", *argv)
    assert f"example {argv[0]} does not take {argv[1]};" in err


def test_example_accepts_every_parameter_its_construction_takes(capsys):
    for argv, order in ([["pq", "--p", "5", "--q", "2", "--n", "1", "--m", "2"], 20],
                        [["p-odd", "--p", "3", "--n", "2", "--m", "1"], 27],
                        [["cn-even", "--n", "6"], 6]):
        code, out, err = run(capsys, "example", *argv, "--json")
        assert (code, err) == (0, "") and json.loads(out)["order"] == order


def test_hg_report_sugar_and_dot(capsys, tmp_path):
    dot_path = tmp_path / "lattice.dot"
    code, out, _ = run(capsys, "hg", "report", "trivial:C2", "--dot", str(dot_path))
    assert code == 0
    assert "type: C2" in out
    assert "galois group: C2" in out
    assert "bijective correspondence: True" in out
    assert "classical: True" in out
    assert dot_path.read_text() == (
        "digraph hg_lattice {\n"
        "  rankdir=BT;\n"
        '  n0 [label="{0}" style=solid];\n'
        '  n1 [label="{0,1}" style=solid];\n'
        "  n0 -> n1;\n"
        "}\n"
    )


def test_hg_report_almost_trivial(capsys):
    code, out, _ = run(capsys, "hg", "report", "almost-trivial:S3")
    assert code == 0
    assert "bijective correspondence: False" in out
    assert out.count("not a left ideal") == 3


def test_hg_report_file_json(capsys, tmp_path):
    b = example_q8()
    path = tmp_path / "q8.json"
    path.write_text(canonical_dumps(brace_to_obj(b)))
    code, out, _ = run(capsys, "hg", "report", str(path), "--json")
    assert code == 0
    bundle = parse(out.encode("utf-8"))
    assert bundle.descriptor == hg_descriptor(b)
    assert bundle.timing_ms is None


def test_hg_report_json_dot_builds_descriptor_once(capsys, monkeypatch, tmp_path):
    import braceforge.cli as cli
    import braceforge.report as report
    calls = []
    real = report.hg_descriptor
    counted = lambda b: calls.append(b) or real(b)
    monkeypatch.setattr(report, "hg_descriptor", counted)
    monkeypatch.setattr(cli, "hg_descriptor", counted, raising=False)
    dot_path = tmp_path / "lattice.dot"
    code, out, _ = run(capsys, "hg", "report", "almost-trivial:S3", "--json",
                       "--dot", str(dot_path))
    assert code == 0
    assert len(calls) == 1
    assert dot_path.read_text() == render_dot(parse(out.encode("utf-8")).descriptor)


def test_hg_report_unknown_sugar_label(capsys):
    code, _, err = run(capsys, "hg", "report", "trivial:NOPE")
    assert code == 2 and "available" in err


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "braceforge", "group", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "C1  (order 1)"


def test_closed_stdout_exits_2_without_traceback():
    proc = subprocess.Popen([sys.executable, "-m", "braceforge", "group", "show", "C15"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.parametrize("command", [["classify"], ["group", "show"], ["brace", "enumerate"]])
def test_group_file_piped_through_dev_stdin_reads_as_a_file(tmp_path, command):
    # /dev/stdin on a pipe exists but is not a regular file
    path = tmp_path / "g.json"
    path.write_text(canonical_dumps(group_to_obj(example_q8().dot)))

    # run in tmp_path, so that classify's default cache directory lands there
    env = dict(os.environ, PYTHONPATH=str(Path(braceforge.__file__).parent.parent))

    def call(target, stdin):
        return subprocess.run([sys.executable, "-m", "braceforge", *command, target],
                              input=stdin, capture_output=True, text=True, cwd=tmp_path,
                              env=env)

    from_file = call(str(path), "")
    piped = call("/dev/stdin", path.read_text())
    assert from_file.returncode == 0, from_file.stderr
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, from_file.stdout, "")


def _assert_one_line_error(argv, timeout=None):
    proc = subprocess.run([sys.executable, "-m", "braceforge", *argv],
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv", [["pq", "--p", "1000000007", "--q", "2"],
                                  ["cn-even", "--n", "100000"],
                                  ["pq", "--p", "7", "--q", "3", "--n", "3"],
                                  ["p-odd", "--p", "3", "--n", "1000", "--m", "1000"]])
def test_example_refuses_orders_above_the_cap(argv):
    # uncapped, pq with p = 10^9 + 7 spins in least_kappa and the others
    # start tables of at least 1029^2 entries; the timeout stops the child
    # if the cap is ever lost
    start = time.perf_counter()
    _assert_one_line_error(["example", *argv], timeout=5)
    assert time.perf_counter() - start < 1.0  # interpreter start-up included


def test_unwritable_dot_path_exits_2_without_traceback(tmp_path):
    _assert_one_line_error(["hg", "report", "trivial:C2",
                            "--dot", str(tmp_path / "missing" / "x.dot")])


def test_cache_dir_that_is_a_file_exits_2_without_traceback(tmp_path):
    path = tmp_path / "a-file"
    path.write_text("")
    _assert_one_line_error(["classify", "C2", "--exhaustive", "--cache-dir", str(path)])


def test_deeply_nested_json_exits_2_without_traceback(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (["group", "show", str(path)], ["brace", "check", str(path)],
                 ["hg", "report", str(path)]):
        _assert_one_line_error(argv)


@pytest.mark.parametrize("command", [["hg", "report"], ["brace", "check"]])
def test_a_directory_given_as_input_cannot_be_read(capsys, tmp_path, command):
    err = _one_line_usage_error(capsys, *command, str(tmp_path))
    assert err.startswith(f"error: cannot read {tmp_path}: ")


def _s3_dot_with_c6_circ():
    return {"order": 6, "label": "x", "dot": [list(r) for r in census_lookup("S3").table],
            "circ": [list(r) for r in census_lookup("C6").table]}


def _dot_row_replaced_by_an_int():
    obj = brace_to_obj(example_q8())
    obj["dot"][1] = 7
    return obj


@pytest.mark.parametrize("make, reason", [
    (_s3_dot_with_c6_circ, "compatibility fails at (a, b, c) = (1, 1, 1)"),
    (_dot_row_replaced_by_an_int, "$.dot[1]: expected a list of 8 ints"),
])
def test_hg_report_refuses_json_that_is_not_a_brace(capsys, tmp_path, make, reason):
    path = tmp_path / "b.json"
    path.write_text(canonical_dumps(make()))
    assert _one_line_usage_error(capsys, "hg", "report", str(path)) == f"error: {path}: {reason}\n"


def test_cli_subprocess_deterministic_across_worker_counts(tmp_path):
    base = [sys.executable, "-m", "braceforge", "verify", "theorem",
            "--max-order", "12", "--json", "--no-cache"]
    one = subprocess.run(base + ["--workers", "1"], capture_output=True, check=True)
    two = subprocess.run(base + ["--workers", "2"], capture_output=True, check=True)
    assert one.stdout == two.stdout


# SHA-256 of the canonical JSON two commands print.  Any change to the writer
# or to the descriptor that moves one byte fails here.
PINNED_JSON = {
    ("brace", "enumerate", "C2xC2", "--json"):
        "7d93aed4d283595081d98b1fbf8b40842d939003ca36194eb4fdac5f95c3d9bd",
    ("brace", "enumerate", "C2xC2", "--up-to-iso", "--json"):
        "9a4f53000572a7855495a2a940d4a1282f8ef76818a5d11a324e10ae87def1f8",
    ("hg", "report", "almost-trivial:D8", "--json"):
        "7da83bab80fabdf371b8c98018afdb9ce4f3867735692f7f73e40f50b97496ca",
}


@pytest.mark.parametrize("argv", sorted(PINNED_JSON), ids=" ".join)
def test_json_output_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_JSON[argv]
