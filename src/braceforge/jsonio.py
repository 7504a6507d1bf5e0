"""Canonical JSON layouts for groups, braces, enumerations, verdicts, and reports.

Serialization is deterministic (sorted keys, fixed indentation) so equal
objects always produce identical bytes; `canonical_dumps` is the one writer.
Parsing validates shape with JSON-path context in every error, then runs the
full mathematical validation (FiniteGroup.from_table and braces.validate) on
every table, except a dot table the caller already trusts.  Groups, braces,
verdicts and report bundles are parsed; an enumeration is only written, as
the output of `brace enumerate`.  There is one decode path: user files and
cache entries are parsed alike.
"""

from __future__ import annotations

import json
from typing import Any

from .braces import SkewBrace, validate
from .classify import TheoremReport, Verdict, Witness
from .enumeration import BraceEnumeration
from .groups import FiniteGroup
from .report import HGDescriptor, LatticeEntry, ReportBundle


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
    writes; the stdlib would convert numbers, bools and None.
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
    elif isinstance(v, (list, tuple)):
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
    if not _is_int(d["order"]) or d["order"] < 1:
        raise SchemaError(f"{path}.order", "expected a positive int")
    if not isinstance(d["label"], str):
        raise SchemaError(f"{path}.label", "expected a string")
    table = _expect_table(d["table"], d["order"], f"{path}.table")
    return FiniteGroup.from_table(table, label=d["label"])


def brace_to_obj(b: SkewBrace) -> dict:
    return {"order": b.order, "label": b.label,
            "dot": [list(r) for r in b.dot.table],
            "circ": [list(r) for r in b.circ.table]}


def brace_from_obj(obj: Any, path: str = "$", dot: FiniteGroup | None = None) -> SkewBrace:
    """Parse and validate a brace.  Given a trusted `dot` group, the stored dot
    table must equal its table, and the group is reused instead of re-checked."""
    d = _expect_dict(obj, path, {"order", "label", "dot", "circ"})
    if not _is_int(d["order"]) or d["order"] < 1:
        raise SchemaError(f"{path}.order", "expected a positive int")
    if not isinstance(d["label"], str):
        raise SchemaError(f"{path}.label", "expected a string")
    dot_rows = _expect_table(d["dot"], d["order"], f"{path}.dot")
    circ_rows = _expect_table(d["circ"], d["order"], f"{path}.circ")
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
    if not isinstance(d["subgroup"], list) or not all(map(_is_int, d["subgroup"])):
        raise SchemaError(f"{path}.subgroup", "expected a list of ints")
    if (not isinstance(d["failing"], list) or len(d["failing"]) != 2
            or not all(map(_is_int, d["failing"]))):
        raise SchemaError(f"{path}.failing", "expected a pair of ints")
    if d["kind"] not in ("dot-closure", "gamma"):
        raise SchemaError(f"{path}.kind", "expected 'dot-closure' or 'gamma'")
    return Witness(brace=brace, subgroup=tuple(d["subgroup"]),
                   failing=(d["failing"][0], d["failing"][1]), kind=d["kind"])


def verdict_to_obj(v: Verdict) -> dict:
    return {"group": v.group_label, "good": v.good,
            "witness": None if v.witness is None else witness_to_obj(v.witness),
            "braces_examined": v.braces_examined, "exhaustive": v.exhaustive}


def verdict_from_obj(obj: Any, path: str = "$", dot: FiniteGroup | None = None) -> Verdict:
    """Parse a verdict; `dot`, if given, is the trusted group its witness must sit on."""
    d = _expect_dict(obj, path, {"group", "good", "witness", "braces_examined", "exhaustive"})
    if not isinstance(d["group"], str):
        raise SchemaError(f"{path}.group", "expected a string")
    for key in ("good", "exhaustive"):
        if not isinstance(d[key], bool):
            raise SchemaError(f"{path}.{key}", "expected a bool")
    if not _is_int(d["braces_examined"]):
        raise SchemaError(f"{path}.braces_examined", "expected an int")
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
    for key in ("type_label", "galois_label"):
        if not isinstance(d[key], str):
            raise SchemaError(f"{path}.{key}", "expected a string")
    for key in ("bijective", "classical", "canonical_nonclassical"):
        if not isinstance(d[key], bool):
            raise SchemaError(f"{path}.{key}", "expected a bool")
    if not isinstance(d["gamma_orbits"], list) or not all(
            isinstance(o, list) and all(map(_is_int, o))
            for o in d["gamma_orbits"]):
        raise SchemaError(f"{path}.gamma_orbits", "expected a list of int lists")
    if not isinstance(d["lattice"], list):
        raise SchemaError(f"{path}.lattice", "expected a list")
    entries = []
    for i, eo in enumerate(d["lattice"]):
        ed = _expect_dict(eo, f"{path}.lattice[{i}]",
                          {"members", "is_left_ideal", "failing_pair", "failure_kind"})
        if not isinstance(ed["members"], list) or not all(map(_is_int, ed["members"])):
            raise SchemaError(f"{path}.lattice[{i}].members", "expected a list of ints")
        if not isinstance(ed["is_left_ideal"], bool):
            raise SchemaError(f"{path}.lattice[{i}].is_left_ideal", "expected a bool")
        fp = ed["failing_pair"]
        if fp is not None and (not isinstance(fp, list) or len(fp) != 2
                               or not all(map(_is_int, fp))):
            raise SchemaError(f"{path}.lattice[{i}].failing_pair", "expected null or a pair")
        fk = ed["failure_kind"]
        if fk not in (None, "dot-closure", "gamma"):
            raise SchemaError(f"{path}.lattice[{i}].failure_kind",
                              "expected null, 'dot-closure' or 'gamma'")
        entries.append(LatticeEntry(members=tuple(ed["members"]),
                                    is_left_ideal=ed["is_left_ideal"],
                                    failing_pair=None if fp is None else (fp[0], fp[1]),
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
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    d = _expect_dict(obj, "$", {"schema", "tool_version", "input_sha256",
                                "timing_ms", "descriptor"})
    if d["schema"] != BUNDLE_SCHEMA:
        raise SchemaError("$.schema", f"expected {BUNDLE_SCHEMA!r}, got {d['schema']!r}")
    if not isinstance(d["tool_version"], str):
        raise SchemaError("$.tool_version", "expected a string")
    if not isinstance(d["input_sha256"], str):
        raise SchemaError("$.input_sha256", "expected a string")
    t = d["timing_ms"]
    if t is not None and not isinstance(t, (int, float)):
        raise SchemaError("$.timing_ms", "expected null or a number")
    return ReportBundle(descriptor=descriptor_from_obj(d["descriptor"], "$.descriptor"),
                        input_sha256=d["input_sha256"], tool_version=d["tool_version"],
                        timing_ms=t)
