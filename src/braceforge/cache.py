"""Content-addressed file cache for bad goodness verdicts.

Entries are keyed by tool version, group label, a digest of the Cayley
table, and the scan mode, so a changed table or a new release simply misses
instead of serving stale data.  Writes go through a temp file and an atomic
rename.

Entries read back go through the one JSON decoder and the validating
parser that read user input.  Only bad verdicts are stored, and one is used
only after its witness replays; a good verdict has no witness, so it is
always recomputed.  Two claims of an entry cannot be re-derived without the
enumeration the cache skips, so they are served as stored:
`braces_examined`, which is only checked to be at least 1, and that the
witness brace is the first bad one the scan meets.  An entry that fails any
check is recomputed with a warning.  Enumerations are not cached: validating a
stored one costs about as much as recomputing it.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from pathlib import Path

from . import __version__
from .classify import Verdict, replay_witness
from .groups import FiniteGroup
from .jsonio import canonical_bytes, loads, verdict_from_obj, verdict_to_obj

DEFAULT_CACHE_DIR = ".braceforge-cache"
CACHE_DIR_ENV = "BRACEFORGE_CACHE_DIR"


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


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


def _verdict_entry(group: FiniteGroup, exhaustive: bool, cache_dir) -> tuple[Path, str]:
    """The entry file and the key stored in it for one group and scan mode."""
    mode = "exhaustive" if exhaustive else "first"
    key = f"verdict:{__version__}:{group.label}:{table_digest(group)}:{mode}"
    name = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
    return Path(cache_dir) / f"{name}.json", key


def cached_verdict(group: FiniteGroup, exhaustive: bool,
                   cache_dir: str | os.PathLike) -> Verdict | None:
    """A stored bad verdict whose witness replays on this group, or None."""
    path, key = _verdict_entry(group, exhaustive, cache_dir)
    payload = _load_payload(path, key)
    if payload is None:
        return None
    try:
        v = verdict_from_obj(payload, dot=group)  # the witness must sit on group's table
        if (v.good or v.witness is None or v.group_label != group.label
                or v.exhaustive != exhaustive):
            raise ValueError("not a bad verdict with a witness for this group and mode")
        replay_witness(v.witness)  # the parser has already validated the brace
    except ValueError as exc:  # SchemaError, CayleyTableError, BraceValidationError, replay
        _corrupt(path, exc)
        return None
    return v


def store_verdict(group: FiniteGroup, exhaustive: bool, verdict: Verdict,
                  cache_dir: str | os.PathLike) -> None:
    """Store a bad verdict; a good one has no witness to replay and is not kept."""
    if verdict.witness is None:
        return
    path, key = _verdict_entry(group, exhaustive, cache_dir)
    _atomic_write(path, canonical_bytes({"key": key, "payload": verdict_to_obj(verdict)}))
