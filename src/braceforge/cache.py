"""Content-addressed file cache for enumerations and goodness verdicts.

Entries are keyed by tool version, group label, and a digest of the Cayley
table, so a changed table or a new release simply misses instead of serving
stale data.  Writes go through a temp file and an atomic rename; corrupt
entries are recomputed and overwritten with a warning.
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
from .census import CENSUS_MAX_ORDER, CensusCapError, census
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
        warnings.warn(f"corrupt cache entry {path.name} ({exc}); recomputing")
        return None


def _store_payload(path: Path, key: str, payload) -> None:
    from .jsonio import canonical_bytes

    _atomic_write(path, canonical_bytes({"key": key, "payload": payload}))


def cached_enumeration(group: FiniteGroup,
                       cache_dir: str | os.PathLike | None = None) -> BraceEnumeration:
    """enumerate_circ with a read-through file cache."""
    from .jsonio import enumeration_from_obj, enumeration_to_obj

    directory = resolve_cache_dir(cache_dir)
    key = _entry_key("enum", group)
    path = _entry_path(directory, key)
    payload = _load_payload(path, key)
    if payload is not None:
        try:
            stored = enumeration_from_obj(payload, trusted=True)
            if stored.additive.table == group.table:
                return BraceEnumeration(additive=group, operations=tuple(
                    SkewBrace(dot=group, circ=b.circ, label=b.label)
                    for b in stored.operations),
                    iso_classes=stored.iso_classes, by_mult_type=stored.by_mult_type)
            warnings.warn(f"corrupt cache entry {path.name} (table mismatch); recomputing")
        except ValueError as exc:  # SchemaError, or tables that break FiniteGroup
            warnings.warn(f"corrupt cache entry {path.name} ({exc}); recomputing")
    enum = enumerate_circ(group)
    _store_payload(path, key, enumeration_to_obj(enum))
    return enum


def cached_verdict(group: FiniteGroup, exhaustive: bool,
                   cache_dir: str | os.PathLike | None = None):
    """Stored goodness verdict, or None when absent or unreadable."""
    from .jsonio import verdict_from_obj

    directory = resolve_cache_dir(cache_dir)
    key = _entry_key("verdict", group, "exhaustive" if exhaustive else "first")
    payload = _load_payload(_entry_path(directory, key), key)
    if payload is None:
        return None
    try:
        return verdict_from_obj(payload, trusted=True)
    except ValueError as exc:  # SchemaError, or tables that break FiniteGroup
        warnings.warn(f"corrupt cache entry for {group.label or 'group'} ({exc}); recomputing")
        return None


def store_verdict(group: FiniteGroup, exhaustive: bool, verdict,
                  cache_dir: str | os.PathLike | None = None) -> None:
    from .jsonio import verdict_to_obj

    directory = resolve_cache_dir(cache_dir)
    key = _entry_key("verdict", group, "exhaustive" if exhaustive else "first")
    _store_payload(_entry_path(directory, key), key, verdict_to_obj(verdict))


def census_cache(order: int,
                 cache_dir: str | os.PathLike | None = None) -> dict[str, BraceEnumeration]:
    """Cache-backed enumerations for every group of the given order."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if order > CENSUS_MAX_ORDER:
        raise CensusCapError(f"cache is capped at order {CENSUS_MAX_ORDER}, got {order}")
    return {e.label: cached_enumeration(e.group, cache_dir)
            for e in census(order) if e.order == order}
