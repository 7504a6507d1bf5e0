"""Cache files are input: an edited, truncated or bit-rotted entry may cost a
recomputation and a warning, never a wrong verdict, a traceback or a hang."""

from __future__ import annotations

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braceforge import classify
from braceforge.census import census
from braceforge.classify import is_good, verify_witness
from braceforge.cli import main


@pytest.fixture(scope="module", autouse=True)
def held_enumerations():
    """Hold each group's braces for this module and stream them from there:
    the property below re-classifies the same groups on every example.  The
    key has the label, since operation labels are built from it and group
    equality ignores it."""
    real = classify.iter_circ
    held = {}

    def stream_held(g):
        key = (g.label, g.table)
        if key not in held:
            held[key] = tuple(real(g))
        return iter(held[key])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "iter_circ", stream_held)
        yield


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _entry(cache_dir: Path, kind: str) -> Path:
    """The one cache file of the given kind (the only kind stored is "verdict")."""
    [path] = [p for p in cache_dir.glob("*.json")
              if json.loads(p.read_bytes())["key"].startswith(f"{kind}:")]
    return path


def _edit(path: Path, change) -> None:
    obj = json.loads(path.read_bytes())
    change(obj["payload"])
    path.write_text(json.dumps(obj))


def _forge_good(payload):
    payload.update(good=True, witness=None)


def test_forged_good_verdict_is_refused(capsys, tmp_path):
    cache = str(tmp_path)
    _, expected, _ = run(capsys, "classify", "Q8", "--exhaustive", "--no-cache")
    assert run(capsys, "classify", "Q8", "--exhaustive", "--cache-dir", cache) == (0, expected, "")
    _edit(_entry(tmp_path, "verdict"), _forge_good)
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        code, out, _ = run(capsys, "classify", "Q8", "--exhaustive", "--cache-dir", cache)
    assert code == 0 and "verdict: bad" in out
    assert out == expected


# ---------------------------------------------------------------------------
# Property: one random mutation per verdict entry never changes a verdict
# ---------------------------------------------------------------------------

SMALL = [e.group for e in census(8)]


@pytest.fixture(scope="module")
def verdict_cache(tmp_path_factory):
    """Cache dir written by exhaustive is_good over every group of order <= 8,
    and the verdicts computed without a cache."""
    d = tmp_path_factory.mktemp("verdicts")
    truth = {g.label: is_good(g, exhaustive=True, cache_dir=d).good for g in SMALL}
    assert truth == {g.label: is_good(g).good for g in SMALL}
    assert len(list(d.glob("*.json"))) == sum(not good for good in truth.values())
    return d, truth


def _mutate(obj, data) -> None:
    """Walk down from the root (going deeper with probability 3/4 at each
    level), then change an int, flip a bool, swap null and a value, or drop a key."""
    container, key = obj, data.draw(st.sampled_from(sorted(obj)))
    while (isinstance(container[key], (dict, list)) and container[key]
           and data.draw(st.integers(0, 3))):
        container = container[key]
        keys = sorted(container) if isinstance(container, dict) else range(len(container))
        key = data.draw(st.sampled_from(keys))
    value = container[key]
    kinds = ["null"] + (["drop"] if isinstance(container, dict) else [])
    if isinstance(value, bool):
        kinds.append("flip")
    elif isinstance(value, int):
        kinds.append("int")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del container[key]
    elif kind == "flip":
        container[key] = not value
    elif kind == "int":
        container[key] = data.draw(st.integers(-2, 20).filter(lambda v: v != value))
    elif value is None:
        container[key] = data.draw(st.sampled_from([0, True, "Q8", [], {}]))
    else:
        container[key] = None


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_verdict_cache_never_changes_a_verdict(verdict_cache, data):
    base, truth = verdict_cache
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for src in sorted(base.glob("*.json")):
            obj = json.loads(src.read_bytes())
            _mutate(obj, data)
            (Path(tmp) / src.name).write_text(json.dumps(obj))
        for g in SMALL:
            v = is_good(g, exhaustive=True, cache_dir=tmp)
            assert v.good == truth[g.label], g.label
            if v.witness is not None:
                verify_witness(v.witness)
