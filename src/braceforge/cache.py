"""Content-addressed file cache for enumerations and bad goodness verdicts.

Entries are keyed by tool version, group label, and a digest of the Cayley
table, so a changed table or a new release simply misses instead of serving
stale data.  Writes go through a temp file and an atomic rename.

Nothing read back is taken on faith: entries decode through the validating
parser that reads user input.  Enumerations serve `brace enumerate` only and
never feed a verdict.  Only bad verdicts are stored, and one is used only
after its witness replays; a good verdict has no witness, so it is always
recomputed.  An entry that fails any check is recomputed with a warning.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path

from . import __version__
from .braces import SkewBrace
from .classify import Verdict, verify_witness
from .enumeration import BraceEnumeration, enumerate_circ
from .groups import FiniteGroup

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
    return hashlib.sha256(repr(g.table).encode("ascii")).hexdigest()


def _entry_key(kind: str, g: FiniteGroup, variant: str = "") -> str:
    return f"{kind}:{__version__}:{g.label}:{table_digest(g)}:{variant}"


def _entry_path(cache_dir: Path, key: str) -> Path:
    name = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
    return cache_dir / f"{name}.json"


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
        obj = json.loads(raw.decode("utf-8"))
        if not isinstance(obj, dict) or obj.get("key") != key:
            raise ValueError("key mismatch")
        return obj["payload"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        _corrupt(path, exc)
        return None


def _store_payload(path: Path, key: str, payload) -> None:
    from .jsonio import canonical_bytes

    _atomic_write(path, canonical_bytes({"key": key, "payload": payload}))


def cached_enumeration(group: FiniteGroup,
                       cache_dir: str | os.PathLike | None = None) -> BraceEnumeration:
    """enumerate_circ with a read-through file cache; every table is re-validated on load."""
    from .jsonio import enumeration_from_obj, enumeration_to_obj

    directory = resolve_cache_dir(cache_dir)
    key = _entry_key("enum", group)
    path = _entry_path(directory, key)
    payload = _load_payload(path, key)
    if payload is not None:
        try:
            stored = enumeration_from_obj(payload)
            tables = [b.circ.table for b in stored.operations]
            if stored.additive.table != group.table or tables != sorted(set(tables)):
                raise ValueError("not the canonical enumeration of this group")
            # labels are re-derived as enumerate_circ makes them, not read back
            return BraceEnumeration(additive=group, operations=tuple(
                SkewBrace(dot=group, circ=b.circ, label=f"{group.label}-op{i}")
                for i, b in enumerate(stored.operations)))
        except ValueError as exc:  # SchemaError, CayleyTableError, BraceValidationError
            _corrupt(path, exc)
    enum = enumerate_circ(group)
    _store_payload(path, key, enumeration_to_obj(enum))
    return enum


def _verdict_path(group: FiniteGroup, exhaustive: bool, cache_dir) -> tuple[Path, str]:
    key = _entry_key("verdict", group, "exhaustive" if exhaustive else "first")
    return _entry_path(resolve_cache_dir(cache_dir), key), key


def cached_verdict(group: FiniteGroup, exhaustive: bool,
                   cache_dir: str | os.PathLike | None = None) -> Verdict | None:
    """A stored bad verdict whose witness replays on this group, or None."""
    from .jsonio import verdict_from_obj

    path, key = _verdict_path(group, exhaustive, cache_dir)
    payload = _load_payload(path, key)
    if payload is None:
        return None
    try:
        v = verdict_from_obj(payload)
        if (v.good or v.witness is None or v.group_label != group.label
                or v.exhaustive != exhaustive or v.witness.brace.dot.table != group.table):
            raise ValueError("not a bad verdict with a witness for this group and mode")
        verify_witness(v.witness)
    except ValueError as exc:  # SchemaError, CayleyTableError, BraceValidationError, replay
        _corrupt(path, exc)
        return None
    return v


def store_verdict(group: FiniteGroup, exhaustive: bool, verdict: Verdict,
                  cache_dir: str | os.PathLike | None = None) -> None:
    """Store a bad verdict; a good one has no witness to replay and is not kept."""
    from .jsonio import verdict_to_obj

    if verdict.witness is None:
        return
    path, key = _verdict_path(group, exhaustive, cache_dir)
    _store_payload(path, key, verdict_to_obj(verdict))
