"""Canonical JSON layouts for groups, braces, enumerations, verdicts, and reports.

This module is the JSON trust boundary.  `canonical_dumps` is the one writer:
sorted keys and fixed indentation, so equal objects give identical bytes.
`loads` is the one decoder: strict UTF-8, then JSON, any failure a
`SchemaError`.  Parsing checks each field's shape, with the JSON path in
every error (no number field takes a bool), then runs the full mathematical
validation (FiniteGroup.from_table and braces.validate) on every table,
except a dot table the caller already trusts.  Groups, braces, verdicts and
report bundles are parsed, user files and cache entries alike; an
enumeration is only written, as the output of `brace enumerate`.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .braces import LeftIdealFlag, SkewBrace, validate
from .classify import TheoremReport, Verdict, Witness
from .enumeration import BraceEnumeration
from .groups import FiniteGroup
from .report import HGDescriptor, ReportBundle


class SchemaError(ValueError):
    """Shape violation, annotated with the JSON path that failed."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_escape = json.encoder.encode_basestring_ascii
_INF = float("inf")


def canonical_dumps(obj: Any) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` plus a newline, byte for byte.

    Written directly: an `indent` sends `json.dumps` down its pure-Python
    encoder, which yields every token separately.  Here a list of ints, most
    of what the library writes, is one `str.join`; everything else follows
    the stdlib encoder's rules (ASCII-escaped strings, NaN and Infinity,
    tuples as arrays).  Keys must be strings, as in everything the library
    writes; the stdlib would convert numbers, bools and None.  Only exact
    lists and tuples are arrays: a record (a NamedTuple) that reaches the
    writer unconverted raises TypeError, where the stdlib would write its
    fields as an array.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _float_text(v: float) -> str:
    if v != v:
        return "NaN"
    if v == _INF:
        return "Infinity"
    if v == -_INF:
        return "-Infinity"
    return float.__repr__(v)


def _write(v: Any, nl: str, out: list[str]) -> None:
    """Append v's text to out; nl is a newline plus the indentation v sits at."""
    if isinstance(v, str):
        out.append(_escape(v))
    elif v is None:
        out.append("null")
    elif v is True or v is False:
        out.append("true" if v else "false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, float):
        out.append(_float_text(v))
    elif type(v) is list or type(v) is tuple:
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        if all(type(x) is int for x in v):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, v)) + nl + "]")
            return
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, x in sorted(v.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep + _escape(k) + ": ")
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def canonical_bytes(obj: Any) -> bytes:
    return canonical_dumps(obj).encode("utf-8")


def loads(data: bytes) -> Any:
    """Strict UTF-8, then JSON.  Every failure, a ValueError (bad UTF-8 or JSON, an
    int literal past Python's digit limit) or a RecursionError, is a SchemaError."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc


def _expect_dict(obj: Any, path: str, keys: set[str]) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    missing = keys - obj.keys()
    if missing:
        raise SchemaError(path, f"missing keys: {sorted(missing)}")
    extra = obj.keys() - keys
    if extra:
        raise SchemaError(path, f"unexpected keys: {sorted(extra)}")
    return obj


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_ints(v: Any) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


def _expect_ints(v: Any, path: str) -> tuple[int, ...]:
    if not _is_ints(v):
        raise SchemaError(path, "expected a list of ints")
    return tuple(v)


def _expect_fields(d: dict, path: str, kind: type, *keys: str) -> None:
    what = "a string" if kind is str else "a bool"
    for key in keys:
        if not isinstance(d[key], kind):
            raise SchemaError(f"{path}.{key}", f"expected {what}")


def _expect_header(d: dict, path: str) -> int:
    """The order, a positive int, and the label of a group or brace object."""
    if not _is_int(d["order"]) or d["order"] < 1:
        raise SchemaError(f"{path}.order", "expected a positive int")
    _expect_fields(d, path, str, "label")
    return d["order"]


def _expect_table(obj: Any, n: int, path: str) -> list[list[int]]:
    if not isinstance(obj, list) or len(obj) != n:
        raise SchemaError(path, f"expected a list of {n} rows")
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}[{i}]", f"expected a list of {n} ints")
        for j, v in enumerate(row):
            if not _is_int(v):
                raise SchemaError(f"{path}[{i}][{j}]", "expected an int")
    return obj


# ---------------------------------------------------------------------------
# Groups and braces
# ---------------------------------------------------------------------------

def group_to_obj(g: FiniteGroup) -> dict:
    return {"order": g.order, "label": g.label, "table": [list(r) for r in g.table]}


def group_from_obj(obj: Any, path: str = "$") -> FiniteGroup:
    d = _expect_dict(obj, path, {"order", "label", "table"})
    table = _expect_table(d["table"], _expect_header(d, path), f"{path}.table")
    return FiniteGroup.from_table(table, label=d["label"])


def brace_to_obj(b: SkewBrace) -> dict:
    return {"order": b.order, "label": b.label,
            "dot": [list(r) for r in b.dot.table],
            "circ": [list(r) for r in b.circ.table]}


def brace_from_obj(obj: Any, path: str = "$", dot: FiniteGroup | None = None) -> SkewBrace:
    """Parse and validate a brace.  Given a trusted `dot` group, the stored dot
    table must equal its table, and the group is reused instead of re-checked."""
    d = _expect_dict(obj, path, {"order", "label", "dot", "circ"})
    n = _expect_header(d, path)
    dot_rows = _expect_table(d["dot"], n, f"{path}.dot")
    circ_rows = _expect_table(d["circ"], n, f"{path}.circ")
    if dot is None:
        dot = FiniteGroup.from_table(dot_rows)
    elif tuple(map(tuple, dot_rows)) != dot.table:
        raise SchemaError(f"{path}.dot", "differs from the expected group's table")
    return validate(dot, FiniteGroup.from_table(circ_rows), label=d["label"])


# ---------------------------------------------------------------------------
# Enumerations
# ---------------------------------------------------------------------------

def enumeration_to_obj(e: BraceEnumeration) -> dict:
    return {
        "additive": group_to_obj(e.additive),
        "operations": [brace_to_obj(b) for b in e.operations],
        "iso_classes": None if e.iso_classes is None else [list(c) for c in e.iso_classes],
        "by_mult_type": None if e.by_mult_type is None else
            {label: list(idx) for label, idx in e.by_mult_type},
    }


# ---------------------------------------------------------------------------
# Witnesses and verdicts
# ---------------------------------------------------------------------------

def witness_to_obj(w: Witness) -> dict:
    return {"brace": brace_to_obj(w.brace), "subgroup": list(w.subgroup),
            "failing": list(w.failing), "kind": w.kind}


def witness_from_obj(obj: Any, path: str = "$", dot: FiniteGroup | None = None) -> Witness:
    d = _expect_dict(obj, path, {"brace", "subgroup", "failing", "kind"})
    brace = brace_from_obj(d["brace"], f"{path}.brace", dot)
    subgroup = _expect_ints(d["subgroup"], f"{path}.subgroup")
    if not _is_ints(d["failing"]) or len(d["failing"]) != 2:
        raise SchemaError(f"{path}.failing", "expected a pair of ints")
    if d["kind"] not in ("dot-closure", "gamma"):
        raise SchemaError(f"{path}.kind", "expected 'dot-closure' or 'gamma'")
    return Witness(brace=brace, subgroup=subgroup, failing=tuple(d["failing"]), kind=d["kind"])


def verdict_to_obj(v: Verdict) -> dict:
    return {"group": v.group_label, "good": v.good,
            "witness": None if v.witness is None else witness_to_obj(v.witness),
            "braces_examined": v.braces_examined, "exhaustive": v.exhaustive}


def verdict_from_obj(obj: Any, path: str = "$", dot: FiniteGroup | None = None) -> Verdict:
    """Parse a verdict; `dot`, if given, is the trusted group its witness must sit on."""
    d = _expect_dict(obj, path, {"group", "good", "witness", "braces_examined", "exhaustive"})
    _expect_fields(d, path, str, "group")
    _expect_fields(d, path, bool, "good", "exhaustive")
    if not _is_int(d["braces_examined"]):
        raise SchemaError(f"{path}.braces_examined", "expected an int")
    if d["braces_examined"] < 1:  # every scan examines at least the trivial brace
        raise SchemaError(f"{path}.braces_examined", "expected a positive int")
    witness = (None if d["witness"] is None
               else witness_from_obj(d["witness"], f"{path}.witness", dot))
    return Verdict(group_label=d["group"], good=d["good"], witness=witness,
                   braces_examined=d["braces_examined"], exhaustive=d["exhaustive"])


def theorem_report_to_obj(r: TheoremReport) -> dict:
    return {"max_order": r.max_order, "all_match": r.all_match,
            "good_labels": r.good_labels(),
            "rows": [{"label": row.label, "order": row.order,
                      "predicted": row.predicted, "computed": row.computed}
                     for row in r.rows]}


# ---------------------------------------------------------------------------
# Descriptors and bundles
# ---------------------------------------------------------------------------

def descriptor_to_obj(d: HGDescriptor) -> dict:
    return {
        "type_label": d.type_label,
        "galois_label": d.galois_label,
        "gamma_orbits": [list(o) for o in d.gamma_orbits],
        "lattice": [{"members": list(e.members), "is_left_ideal": e.is_left_ideal,
                     "failing_pair": None if e.failing_pair is None else list(e.failing_pair),
                     "failure_kind": e.failure_kind} for e in d.lattice],
        "bijective": d.bijective,
        "classical": d.classical,
        "canonical_nonclassical": d.canonical_nonclassical,
    }


def descriptor_from_obj(obj: Any, path: str = "$") -> HGDescriptor:
    d = _expect_dict(obj, path, {"type_label", "galois_label", "gamma_orbits", "lattice",
                                 "bijective", "classical", "canonical_nonclassical"})
    _expect_fields(d, path, str, "type_label", "galois_label")
    _expect_fields(d, path, bool, "bijective", "classical", "canonical_nonclassical")
    if not isinstance(d["gamma_orbits"], list) or not all(map(_is_ints, d["gamma_orbits"])):
        raise SchemaError(f"{path}.gamma_orbits", "expected a list of int lists")
    if not isinstance(d["lattice"], list):
        raise SchemaError(f"{path}.lattice", "expected a list")
    entries = []
    for i, eo in enumerate(d["lattice"]):
        ep = f"{path}.lattice[{i}]"
        ed = _expect_dict(eo, ep, {"members", "is_left_ideal", "failing_pair", "failure_kind"})
        members = _expect_ints(ed["members"], f"{ep}.members")
        _expect_fields(ed, ep, bool, "is_left_ideal")
        fp, fk = ed["failing_pair"], ed["failure_kind"]
        if fp is not None and (not _is_ints(fp) or len(fp) != 2):
            raise SchemaError(f"{ep}.failing_pair", "expected null or a pair")
        if fk not in (None, "dot-closure", "gamma"):
            raise SchemaError(f"{ep}.failure_kind", "expected null, 'dot-closure' or 'gamma'")
        entries.append(LeftIdealFlag(members=members, is_left_ideal=ed["is_left_ideal"],
                                     failing_pair=None if fp is None else tuple(fp),
                                     failure_kind=fk))
    return HGDescriptor(type_label=d["type_label"], galois_label=d["galois_label"],
                        gamma_orbits=tuple(tuple(o) for o in d["gamma_orbits"]),
                        lattice=tuple(entries), bijective=d["bijective"],
                        classical=d["classical"],
                        canonical_nonclassical=d["canonical_nonclassical"])


BUNDLE_SCHEMA = "braceforge/report-v1"


def serialize(bundle: ReportBundle) -> bytes:
    return canonical_bytes({
        "schema": BUNDLE_SCHEMA,
        "tool_version": bundle.tool_version,
        "input_sha256": bundle.input_sha256,
        "timing_ms": bundle.timing_ms,
        "descriptor": descriptor_to_obj(bundle.descriptor),
    })


def parse(data: bytes) -> ReportBundle:
    d = _expect_dict(loads(data), "$", {"schema", "tool_version", "input_sha256",
                                        "timing_ms", "descriptor"})
    if d["schema"] != BUNDLE_SCHEMA:
        raise SchemaError("$.schema", f"expected {BUNDLE_SCHEMA!r}, got {d['schema']!r}")
    _expect_fields(d, "$", str, "tool_version", "input_sha256")
    t = d["timing_ms"]
    if t is not None and not (_is_int(t) or type(t) is float and math.isfinite(t)):
        raise SchemaError("$.timing_ms", "expected null or a number")
    return ReportBundle(descriptor=descriptor_from_obj(d["descriptor"], "$.descriptor"),
                        input_sha256=d["input_sha256"], tool_version=d["tool_version"],
                        timing_ms=t)
