"""The benchmark's own tests: its correctness check fires, and it prints every
metric with a unit.

    python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import golden
import run
from spans import COUNTED, TIMED

E2E_NAMES = ["setup_s", "wall_s", "items_per_s", "item_p50_ms", "item_p90_ms",
             "peak_rss_mb", "failed_frac", "cache_cold_s"]
LAYER_NAMES = [
    "census.build_ms", "census.label_ms", "census.label_calls", "morphisms.aut_ms",
    "morphisms.aut_elements", "enumeration.enumerate_ms", "enumeration.ops",
    "enumeration.mult_types_ms", "enumeration.reduce_ms", "enumeration.iso_classes",
    "groups.from_table_ms", "braces.validate_ms", "groups.subgroups_ms",
    "groups.subgroups_found", "braces.gamma_ms", "braces.left_ideal_ms",
    "braces.left_ideal_checks", "classify.scan_ms", "classify.braces_examined",
    "classify.verify_witness_ms", "report.descriptor_ms", "report.render_dot_ms",
    "jsonio.serialize_ms", "jsonio.parse_ms", "jsonio.bytes", "cache.store_ms",
    "cache.load_ms", "cache.hits", "cache.misses", "cache.bytes", "cli.startup_ms",
    "cli.invocations", "trace.overhead_frac",
]


@pytest.fixture(scope="module")
def data():
    return golden.load()


@pytest.fixture(scope="module")
def theorem_round(tmp_path_factory):
    return run.spawn_round("theorem-sweep", 7, 0, False, tmp_path_factory.mktemp("w"))


def test_golden_agrees_with_independent_facts(data):
    golden.check_facts(data)


@pytest.mark.parametrize("corrupt", [
    lambda g: g["iso-census"]["C2xC2"].update(classes=3),
    lambda g: g["theorem-sweep"].update(Q8=dict(g["theorem-sweep"]["Q8"], good=True,
                                                witness=None)),
    lambda g: g["theorem-sweep"]["C1"].update(ops=2),
    lambda g: g["cli-summary"]["verify theorem"].update(good_labels=["C1"]),
])
def test_wrong_golden_facts_are_refused(data, corrupt):
    bad = copy.deepcopy(data)
    corrupt(bad)
    with pytest.raises(golden.GoldenError):
        golden.check_facts(bad)


def test_correct_round_passes(data, theorem_round):
    assert len(theorem_round["records"]) == 28
    assert run.check_round("theorem-sweep", theorem_round, data) == []


@pytest.mark.parametrize("field,value", [
    ("examined", 99), ("ops", 5), ("witness_replays", False), ("good", True),
])
def test_corrupted_expectation_raises_failed_frac(data, theorem_round, field, value):
    bad = copy.deepcopy(data)
    bad["theorem-sweep"]["Q8"][field] = value
    r = dict(theorem_round, staged=False, failures=run.check_round("theorem-sweep",
                                                                   theorem_round, bad))
    summary = run.summarize("theorem-sweep", [r, r], bad)
    assert summary["failed"] == 2
    assert summary["e2e"]["failed_frac"][0] > 0


def test_corrupted_digests_are_caught(data):
    records = {"Q8-op0": dict(data["hg-atlas"]["Q8-op0"])}
    assert golden.check_items(data, "hg-atlas", records) == []
    records["Q8-op0"]["dot_sha256"] = "0" * 64
    assert len(golden.check_items(data, "hg-atlas", records)) == 1
    rnd = {"records": {"0:verify theorem": {"rc": 0, "stderr": "",
                                            "sha256": data["cli-cache"]["verify theorem"]}}}
    assert run.check_round("cli-cache", rnd, data) == []
    rnd["records"]["0:verify theorem"]["stderr"] = "UserWarning: corrupt cache entry"
    assert len(run.check_round("cli-cache", rnd, data)) == 1


def test_declared_metrics_cover_every_named_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(E2E_NAMES) - declared == set(run.REPORT_ONLY_UNITS)
    assert set(LAYER_NAMES) <= declared
    layer = {m["name"] for m in spec["per_layer"]}
    assert layer == {m for m in TIMED.values() if m} | set(COUNTED) | {
        "trace.overhead_frac", "trace.explained_frac"}


def bench(workload, trace):
    p = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                        "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                       cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload,trace,names", [
    ("cli-cache", 0, E2E_NAMES),
    ("theorem-sweep", 0, E2E_NAMES[:-1]),
    ("cli-cache", 1, LAYER_NAMES),
    ("theorem-sweep", 1, LAYER_NAMES),
])
def test_every_metric_is_printed_with_a_unit(workload, trace, names):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(run.REPORT_ONLY_UNITS)
    lines, result = bench(workload, trace)
    printed = {line.split()[0]: line.split() for line in lines[1:]}
    for name in names:
        fields = printed[name]
        assert fields[2] == units[name] and fields[3].startswith("n="), fields
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_fails_without_the_system(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hg-atlas",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert "correct" not in p.stdout
