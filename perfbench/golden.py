"""Golden correctness data: what every benchmark item must produce.

``golden.json`` maps workload -> item key -> the record the item must yield
(verdict, witness, operation and class counts, SHA-256 of every canonical
JSON and DOT output).  It was recorded by ``make_golden.py``.  Before any run
the recorded data is checked against facts that do not come from this
program, so that it cannot encode a wrong answer.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

TOTAL_OPERATIONS = 498
# Brace isomorphism classes summed over the census groups of each order
# (Guarnieri-Vendramin 2017, table of skew brace counts).
CLASSES_BY_ORDER = {4: 4, 8: 47, 9: 4, 12: 38}
# The closed-form classification: odd cyclic groups with q never dividing p - 1,
# plus C2 and the Klein group.
GOOD = {"C1", "C2", "C3", "C2xC2", "C5", "C7", "C9", "C11", "C13", "C15"}


class GoldenError(ValueError):
    """The recorded data contradicts an independent fact."""


def load(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_facts(golden: dict) -> None:
    """Raise GoldenError unless the golden data agrees with the facts above."""
    orders = golden["orders"]
    theorem = golden["theorem-sweep"]
    iso = golden["iso-census"]
    hg = golden["hg-atlas"]
    summary = golden["cli-summary"]
    if set(theorem) != set(orders) or set(iso) != set(orders):
        raise GoldenError("theorem-sweep and iso-census must cover every census group")
    if len(orders) != 28:
        raise GoldenError(f"expected 28 census groups, got {len(orders)}")
    for name, per in (("theorem-sweep", theorem), ("iso-census", iso)):
        total = sum(r["ops"] for r in per.values())
        if total != TOTAL_OPERATIONS:
            raise GoldenError(f"{name}: {total} operations, expected {TOTAL_OPERATIONS}")
    expected_keys = {f"{label}-op{i}" for label, r in iso.items() for i in range(r["ops"])}
    if set(hg) != expected_keys:
        raise GoldenError("hg-atlas items are not exactly the enumerated operations")
    for order, classes in CLASSES_BY_ORDER.items():
        got = sum(r["classes"] for label, r in iso.items() if orders[label] == order)
        if got != classes:
            raise GoldenError(f"order {order}: {got} isomorphism classes, expected {classes}")
    good = {label for label, r in theorem.items() if r["good"]}
    if good != GOOD:
        raise GoldenError(f"good set {sorted(good)} differs from {sorted(GOOD)}")
    for label, r in theorem.items():
        if (r["witness"] is None) != r["good"] or not r["predicate_match"]:
            raise GoldenError(f"{label}: verdict, witness and predicate disagree")
        if not r["good"] and r.get("witness_replays") is not True:
            raise GoldenError(f"{label}: the recorded witness does not replay")
    verify = summary["verify theorem"]
    if set(verify["good_labels"]) != GOOD or not verify["all_match"]:
        raise GoldenError("verify theorem output disagrees with the good set")
    for label in orders:
        if summary[f"classify {label}"]["good"] != (label in GOOD):
            raise GoldenError(f"classify {label} output disagrees with the good set")
        if summary[f"brace enumerate {label}"]["operations"] != iso[label]["ops"]:
            raise GoldenError(f"brace enumerate {label} output disagrees on the count")
    if set(golden["cli-cache"]) != set(summary):
        raise GoldenError("cli-cache digests and summaries cover different commands")


def check_items(golden: dict, workload: str, records: dict) -> list[str]:
    """One message per item whose record differs from the golden record."""
    expected = golden[workload]
    failures = []
    for key, rec in records.items():
        want = expected.get(key)
        if rec != want:
            failures.append(f"{workload} {key}: got {rec}, expected {want}")
    return failures
