"""File cache behaviour: hits, invalidation, corruption recovery, and the
warm-run speedup the cache exists to provide.  Only `--exhaustive` verdicts
are cached, since a cached verdict saves the whole scan there; a
first-failure run already stops at each group's first bad brace, and
ignores the cache."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from statistics import median

import pytest

from braceforge import classify, jsonio
from braceforge.braces import BraceRelationError, trivial, validate
from braceforge.cache import _atomic_write, cached_verdict, store_verdict, table_digest
from braceforge.census import census, census_lookup
from braceforge.classify import is_good, verify_witness
from braceforge.cli import CACHE_DIR_ENV, DEFAULT_CACHE_DIR, main, resolve_cache_dir
from braceforge.groups import FiniteGroup

from oracles import oracle_validate, transport


def test_resolve_cache_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert resolve_cache_dir() == Path(DEFAULT_CACHE_DIR)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
    assert resolve_cache_dir() == tmp_path / "env"
    assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"


def test_table_digest_depends_only_on_table():
    g = census_lookup("D8")
    assert table_digest(g) == table_digest(g.opposite().opposite())
    assert table_digest(g) != table_digest(census_lookup("Q8"))


def test_verdict_cache_round_trip(tmp_path):
    g = census_lookup("Q8")
    assert cached_verdict(g, tmp_path) is None
    v = is_good(g, exhaustive=True)
    store_verdict(g, v, tmp_path)
    assert cached_verdict(g, tmp_path) == v


def test_store_verdict_refuses_a_first_failure_verdict(tmp_path):
    # its braces_examined stops at the witness, not the count a hit serves
    g = census_lookup("Q8")
    with pytest.raises(ValueError, match="only an exhaustive verdict"):
        store_verdict(g, is_good(g), tmp_path)
    assert not any(tmp_path.iterdir())


def test_first_failure_calls_ignore_the_cache_dir(capsys, tmp_path):
    cache = tmp_path / "cache"
    for argv in [["classify", e.label] for e in census()] + [["verify", "theorem"]]:
        for fmt in ([], ["--json"]):
            expected = main([*argv, *fmt, "--no-cache"]), capsys.readouterr()
            assert (main([*argv, *fmt, "--cache-dir", str(cache)]),
                    capsys.readouterr()) == expected, argv
    assert not cache.exists()


def test_first_failure_cli_call_never_imports_the_cache(tmp_path):
    snippet = textwrap.dedent("""
        import sys
        from braceforge.cli import main
        assert main(["classify", "Q8", "--cache-dir", sys.argv[1]]) == 0
        print("braceforge.cache" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", snippet, str(tmp_path / "cache")],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "False"
    assert not (tmp_path / "cache").exists()


def test_cached_verdict_misses_across_tables(tmp_path):
    g = census_lookup("Q8")
    store_verdict(g, is_good(g, exhaustive=True), tmp_path)
    moved = transport(g, (0, 2, 1, 3, 4, 5, 6, 7), label="Q8")
    assert moved.label == g.label and moved.table != g.table
    assert cached_verdict(moved, tmp_path) is None
    store_verdict(moved, is_good(moved, exhaustive=True), tmp_path)
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cached_witness_is_validated_once(monkeypatch, tmp_path):
    # the parser validates the decoded brace; recomputing the witness does not
    # validate it again
    g = census_lookup("Q8")
    expected = is_good(g, exhaustive=True, cache_dir=tmp_path)
    calls = 0

    def counting_validate(*args, **kwargs):
        nonlocal calls
        calls += 1
        return validate(*args, **kwargs)

    monkeypatch.setattr(jsonio, "validate", counting_validate)
    monkeypatch.setattr(classify, "validate", counting_validate)
    assert cached_verdict(g, tmp_path) == expected
    assert calls == 1


def test_cached_witness_reuses_the_trusted_group(monkeypatch, tmp_path):
    # the stored dot rows are compared with the group's table, not re-gated
    g = census_lookup("Q8")
    expected = is_good(g, exhaustive=True, cache_dir=tmp_path)
    gated = []
    from_table = FiniteGroup.from_table

    def counting(rows, label=""):
        gated.append(rows)
        return from_table(rows, label)

    monkeypatch.setattr(FiniteGroup, "from_table", counting)
    hit = cached_verdict(g, tmp_path)
    assert hit == expected and hit.witness.brace.dot is g
    assert gated == [[list(r) for r in expected.witness.brace.circ.table]]


def test_cached_witness_on_another_dot_table_is_refused(tmp_path):
    g = census_lookup("Q8")
    expected = is_good(g, exhaustive=True, cache_dir=tmp_path)
    entry = next(tmp_path.glob("*.json"))
    obj = json.loads(entry.read_bytes())
    obj["payload"]["brace"]["dot"] = [list(r) for r in census_lookup("D8").table]
    entry.write_text(json.dumps(obj))
    with pytest.warns(UserWarning, match=r"\$\.brace\.dot"):
        assert cached_verdict(g, tmp_path) is None
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert is_good(g, exhaustive=True, cache_dir=tmp_path) == expected


def test_cached_brace_without_a_failing_subgroup_is_refused(tmp_path):
    # the trivial brace is valid on Q8, but every circ-subgroup is a left ideal
    g = census_lookup("Q8")
    expected = is_good(g, exhaustive=True, cache_dir=tmp_path)
    entry = next(tmp_path.glob("*.json"))
    obj = json.loads(entry.read_bytes())
    obj["payload"]["brace"] = jsonio.brace_to_obj(trivial(g))
    entry.write_text(json.dumps(obj))
    with pytest.warns(UserWarning, match="no failing circ-subgroup"):
        assert cached_verdict(g, tmp_path) is None
    with pytest.warns(UserWarning, match="no failing circ-subgroup"):
        assert is_good(g, exhaustive=True, cache_dir=tmp_path) == expected
    assert cached_verdict(g, tmp_path) == expected  # rewritten


def test_entry_in_the_full_verdict_layout_is_refused(capsys, tmp_path):
    # an entry holding a whole verdict, with its failing pair edited to
    # another pair that also fails, must not decide what is printed
    assert main(["classify", "S3", "--json", "--no-cache", "--exhaustive"]) == 0
    expected = capsys.readouterr().out
    g = census_lookup("S3")
    verdict = is_good(g, exhaustive=True, cache_dir=tmp_path)
    assert verdict.witness.failing == (1, 3)
    edited = verdict._replace(witness=verdict.witness._replace(failing=(2, 3)))
    verify_witness(edited.witness)
    entry = next(tmp_path.glob("*.json"))
    obj = json.loads(entry.read_bytes())
    obj["payload"] = jsonio.verdict_to_obj(edited)
    entry.write_text(json.dumps(obj))
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert main(["classify", "S3", "--json", "--cache-dir", str(tmp_path),
                     "--exhaustive"]) == 0
    assert capsys.readouterr().out == expected


def test_cached_label_outside_the_scan_is_refused(tmp_path):
    g = census_lookup("S3")
    expected = is_good(g, exhaustive=True, cache_dir=tmp_path)
    examined = expected.braces_examined
    entry = next(tmp_path.glob("*.json"))
    obj = json.loads(entry.read_bytes())
    # an index past the scan, one that does not parse, or another group's
    for label in [f"S3-op{examined}", "S3-op04", "S3-op", "S3-op-1", "S3-op4 ", "S3-op\u0664",
                  "S3-op\u00b2", "S3-op" + "9" * 5000, "C6-op4", "s3-op4", "S3-circ4"]:
        obj["payload"]["brace"]["label"] = label
        entry.write_text(json.dumps(obj))
        with pytest.warns(UserWarning, match="contradicts braces_examined"):
            assert cached_verdict(g, tmp_path) is None, label
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert is_good(g, exhaustive=True, cache_dir=tmp_path) == expected
    assert cached_verdict(g, tmp_path) == expected  # rewritten


def test_cached_witness_on_an_incompatible_circ_group_is_refused(tmp_path):
    # a valid group table passes from_table, so validate's circ-generator
    # check is what must refuse it
    g = census_lookup("Q8")
    expected = is_good(g, exhaustive=True, cache_dir=tmp_path)
    entry = next(tmp_path.glob("*.json"))
    obj = json.loads(entry.read_bytes())
    c8 = census_lookup("C8")
    with pytest.raises(BraceRelationError):
        oracle_validate(g, FiniteGroup.from_table(c8.table))
    obj["payload"]["brace"]["circ"] = [list(r) for r in c8.table]
    entry.write_text(json.dumps(obj))
    with pytest.warns(UserWarning, match=r"compatibility fails at \(a, b, c\) = \(1, 1, 2\)"):
        assert cached_verdict(g, tmp_path) is None
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert is_good(g, exhaustive=True, cache_dir=tmp_path) == expected
    assert cached_verdict(g, tmp_path) == expected  # rewritten


def _no_scan(group):
    raise AssertionError(f"{group.label} was scanned on a warm cache")


def test_warm_equals_cold_across_the_census(monkeypatch, capsys, tmp_path):
    bad = [e.group for e in census() if not is_good(e.group).good]
    assert len(bad) == 18
    cold_out = {}
    for g in bad:
        cold = is_good(g, exhaustive=True)
        store_verdict(g, cold, tmp_path)
        assert cached_verdict(g, tmp_path) == cold, g.label
        assert main(["classify", g.label, "--json", "--no-cache", "--exhaustive"]) == 0
        cold_out[g.label] = capsys.readouterr().out

    monkeypatch.setattr(classify, "iter_circ", _no_scan)
    for g in bad:
        assert main(["classify", g.label, "--json", "--cache-dir", str(tmp_path),
                     "--exhaustive"]) == 0
        assert capsys.readouterr().out == cold_out[g.label], g.label


def test_cached_verdict_recovers_from_corruption(tmp_path):
    g = census_lookup("Q8")
    expected = is_good(g, exhaustive=True, cache_dir=tmp_path)
    entry = next(tmp_path.glob("*.json"))
    stored = entry.read_bytes()

    entry.write_bytes(b"not json at all")
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert is_good(g, exhaustive=True, cache_dir=tmp_path) == expected
    assert entry.read_bytes() == stored

    # valid JSON under the wrong key is also corruption
    obj = json.loads(stored)
    obj["key"] = "something else"
    entry.write_text(json.dumps(obj))
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert is_good(g, exhaustive=True, cache_dir=tmp_path) == expected
    assert entry.read_bytes() == stored



def test_failed_rename_leaves_no_temp_file(monkeypatch, capsys, tmp_path):
    def refuse(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")
    monkeypatch.setattr(os, "replace", refuse)
    target = tmp_path / "direct" / "entry.json"
    with pytest.raises(OSError, match="cannot rename"):
        _atomic_write(target, b"{}")
    assert list(target.parent.iterdir()) == []

    cache = tmp_path / "cache"
    assert main(["classify", "C4", "--exhaustive", "--cache-dir", str(cache)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot rename ") and err.count("\n") == 1, err
    assert list(cache.iterdir()) == []

def test_deeply_nested_entry_is_recomputed(capsys, tmp_path):
    assert main(["classify", "Q8", "--no-cache", "--exhaustive"]) == 0
    expected = capsys.readouterr().out
    assert main(["classify", "Q8", "--cache-dir", str(tmp_path), "--exhaustive"]) == 0
    capsys.readouterr()
    entry = next(tmp_path.glob("*.json"))
    key = json.loads(entry.read_bytes())["key"]
    entry.write_bytes(b'{"key": %s, "payload": %s%s}'
                      % (json.dumps(key).encode(), b"[" * 200_000, b"]" * 200_000))
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert main(["classify", "Q8", "--cache-dir", str(tmp_path), "--exhaustive"]) == 0
    assert capsys.readouterr().out == expected


def _set_count(count):
    def rewrite(entry):
        obj = json.loads(entry.read_bytes())
        obj["payload"]["braces_examined"] = count
        entry.write_text(json.dumps(obj))
    return rewrite


def _digits_payload(entry):
    # past 4300 digits Python refuses an int literal with a plain ValueError
    key = json.loads(entry.read_bytes())["key"]
    entry.write_bytes(b'{"key": %s, "payload": %s}' % (json.dumps(key).encode(), b"1" * 5000))


@pytest.mark.parametrize("rewrite", [_set_count(-7), _set_count(0), _digits_payload],
                         ids=["braces_examined -7", "braces_examined 0", "5000-digit int"])
def test_impossible_entry_is_recomputed(capsys, tmp_path, rewrite):
    # a bad verdict examined at least the brace its witness sits on
    assert main(["classify", "Q8", "--json", "--no-cache", "--exhaustive"]) == 0
    expected = capsys.readouterr().out
    assert main(["classify", "Q8", "--json", "--cache-dir", str(tmp_path), "--exhaustive"]) == 0
    capsys.readouterr()
    rewrite(next(tmp_path.glob("*.json")))
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert main(["classify", "Q8", "--json", "--cache-dir", str(tmp_path),
                     "--exhaustive"]) == 0
    assert capsys.readouterr().out == expected


def test_cached_verdict_recovers_from_undecodable_table(tmp_path):
    g = census_lookup("Q8")
    store_verdict(g, is_good(g, exhaustive=True), tmp_path)
    entry = next(tmp_path.glob("*.json"))
    obj = json.loads(entry.read_bytes())
    obj["payload"]["brace"]["circ"][0] = [1, 1, 2, 3, 4, 5, 6, 7]
    entry.write_text(json.dumps(obj))
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        assert cached_verdict(g, tmp_path) is None


def test_is_good_uses_cache(tmp_path):
    g = census_lookup("Q8")
    miss = is_good(g, exhaustive=True, cache_dir=tmp_path)
    assert not miss.good
    assert cached_verdict(g, tmp_path) == miss
    hit = is_good(g, exhaustive=True, cache_dir=tmp_path)
    assert hit == miss
    # a good verdict has no witness to recompute, so it is never stored
    good = census_lookup("C9")
    assert is_good(good, exhaustive=True, cache_dir=tmp_path / "good").good
    assert not (tmp_path / "good").exists()


_TIMING_SNIPPET = textwrap.dedent("""
    import sys, time
    # loaded before t0: the timed span is the call, not compiling cache.py
    # and loading hashlib, which cost the same cold and warm
    import braceforge.cache
    from braceforge.cli import main
    t0 = time.perf_counter()
    code = main(["verify", "theorem", "--max-order", "12", "--exhaustive",
                 "--cache-dir", sys.argv[1]])
    elapsed = time.perf_counter() - t0
    sys.stderr.write(f"ELAPSED {elapsed}\\n")
    sys.exit(code)
""")


def _run_theorem(cache_dir: Path) -> tuple[float, bytes]:
    proc = subprocess.run(
        [sys.executable, "-c", _TIMING_SNIPPET, str(cache_dir)],
        capture_output=True, check=True)
    marker = [l for l in proc.stderr.decode().splitlines() if l.startswith("ELAPSED ")]
    return float(marker[-1].split()[1]), proc.stdout


def test_warm_cache_is_at_least_5x_faster(tmp_path):
    # alternating cold/warm pairs, each in a fresh cache directory, compared
    # by their medians, so one load spike moves one sample, not the verdict
    cold, warm = [], []
    for k in range(3):
        cold_time, cold_out = _run_theorem(tmp_path / str(k))
        warm_time, warm_out = _run_theorem(tmp_path / str(k))
        assert warm_out == cold_out
        cold.append(cold_time)
        warm.append(warm_time)
    assert median(warm) * 5 <= median(cold), (cold, warm)


def test_warm_exhaustive_call_runs_no_search(monkeypatch, tmp_path):
    # what the speedup rests on, which host load cannot move
    bad = [e.group for e in census() if not is_good(e.group).good]
    cold = [is_good(g, exhaustive=True, cache_dir=tmp_path) for g in bad]
    monkeypatch.setattr(classify, "iter_circ", _no_scan)
    assert [is_good(g, exhaustive=True, cache_dir=tmp_path) for g in bad] == cold
