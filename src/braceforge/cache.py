"""Content-addressed file cache for bad `--exhaustive` goodness verdicts.

Entries are keyed by tool version, group label, a digest of the Cayley
table and the payload layout, so a changed table, a new release or an older
layout simply misses instead of serving stale data.  Writes go through a
temp file and an atomic rename.

A first-failure scan stops at the first bad brace, so its entry would save
little and make two claims a hit cannot check; only bad exhaustive verdicts
are stored (a good one has no witness to recompute).  An entry holds the
witness brace and `braces_examined`.  The brace is read back through the
one JSON decoder and the validating parser that read user input, on the
requested group's table; the witness is then recomputed from it by
`first_failure`, and the rest of the verdict comes from the request.  The
brace's label `<group>-op<i>` must have i below `braces_examined`.  What
stays unverified is the count itself (only checked to be at least 1), the
index, and that the brace is the i-th one the enumeration yields and the
first bad one.  An entry that fails any check, or whose brace has no failing
circ-subgroup, is recomputed with a warning.  Enumerations are not cached:
validating a stored one costs about as much as recomputing it.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from pathlib import Path

from . import __version__
from .classify import Verdict, first_failure
from .groups import FiniteGroup
from .jsonio import brace_to_obj, canonical_bytes, loads, verdict_entry_from_obj


def table_digest(g: FiniteGroup) -> str:
    return hashlib.sha256(g._table_text.encode("ascii")).hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _corrupt(path: Path, reason) -> None:
    warnings.warn(f"corrupt cache entry {path.name} ({reason}); recomputing")


def _load_payload(path: Path, key: str):
    """Return the stored payload, or None on a miss or any corruption."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    try:
        obj = loads(raw)
        if not isinstance(obj, dict) or obj.get("key") != key:
            raise ValueError("key mismatch")
        return obj["payload"]
    except (ValueError, KeyError) as exc:  # SchemaError is a ValueError
        _corrupt(path, exc)
        return None


def _verdict_entry(group: FiniteGroup, cache_dir) -> tuple[Path, str]:
    """The entry file and the key stored in it for one group.  The key ends
    with the payload layout, so entries of an older one miss."""
    key = f"verdict:{__version__}:{group.label}:{table_digest(group)}:brace"
    name = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
    return Path(cache_dir) / f"{name}.json", key


def _scan_reaches(label: str, group: FiniteGroup, examined: int) -> bool:
    """Whether `label` is `<group>-op<i>` for an enumeration index i below
    `examined`, written without sign, leading zero or non-ASCII digit."""
    index = label.removeprefix(f"{group.label}-op")
    return (index.isdecimal() and len(index) <= len(str(examined))
            and label == f"{group.label}-op{int(index)}" and int(index) < examined)


def cached_verdict(group: FiniteGroup, cache_dir: str | os.PathLike) -> Verdict | None:
    """The stored bad exhaustive verdict, its witness recomputed from the
    stored brace, or None."""
    path, key = _verdict_entry(group, cache_dir)
    payload = _load_payload(path, key)
    if payload is None:
        return None
    try:
        brace, examined = verdict_entry_from_obj(payload, dot=group)  # on group's table
    except ValueError as exc:  # SchemaError, CayleyTableError, BraceValidationError
        _corrupt(path, exc)
        return None
    witness = first_failure(brace)
    if witness is None:
        _corrupt(path, "the stored brace has no failing circ-subgroup")
        return None
    if not _scan_reaches(brace.label, group, examined):
        _corrupt(path, f"label {brace.label!r} contradicts braces_examined = {examined}")
        return None
    return Verdict(group_label=group.label, good=False, witness=witness,
                   braces_examined=examined, exhaustive=True)


def store_verdict(group: FiniteGroup, verdict: Verdict,
                  cache_dir: str | os.PathLike) -> None:
    """Store a bad exhaustive verdict's witness brace and count; a good
    verdict has no witness to recompute and is not kept.  A first-failure
    verdict is refused, since its count is not the one a hit serves."""
    if not verdict.exhaustive:
        raise ValueError(f"{verdict.group_label}: only an exhaustive verdict is cached")
    if verdict.witness is None:
        return
    path, key = _verdict_entry(group, cache_dir)
    payload = {"brace": brace_to_obj(verdict.witness.brace),
               "braces_examined": verdict.braces_examined}
    _atomic_write(path, canonical_bytes({"key": key, "payload": payload}))
