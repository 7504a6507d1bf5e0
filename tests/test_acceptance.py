"""Acceptance gate: eight checks, one pass/fail line each (run with -v or -s).

Each test prints its verdict line before asserting, so a red run still shows
the per-criterion status at a glance.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from braceforge.braces import almost_trivial, gamma, left_ideals, trivial, validate
from braceforge.census import census, census_lookup
from braceforge.classify import c_group_check, is_good, verify_theorem, verify_witness
from braceforge.constructions import (example_c2cubed, example_cn_even,
                                      example_p_odd, example_pq, example_q8,
                                      least_kappa)
from braceforge.enumeration import enumerate_circ, reduce_up_to_iso
from braceforge.groups import (make_abelian, make_cyclic, make_dihedral,
                               semidirect_product, subgroups)
from braceforge.jsonio import serialize, theorem_report_to_obj, canonical_bytes
from braceforge.morphisms import are_isomorphic
from braceforge.perms import compose
from braceforge.report import hg_descriptor, render_dot, report_bundle

from gamma_checks import (check_c2cubed_gamma, check_cn_even_gamma,
                          check_p_odd_gamma, check_pq_gamma, check_q8_gamma)
from oracles import (heuristic_characteristic_count, heuristic_subgroup_containment,
                     heuristic_subgroup_count, is_normal, oracle_enumerate_circ,
                     oracle_iso_partition)

GOOD_SET = ["C1", "C2", "C3", "C2xC2", "C5", "C7", "C9", "C11", "C13", "C15"]


def _verdict(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")


def test_criterion_01_theorem_holds_up_to_order_15():
    t0 = time.perf_counter()
    report = verify_theorem(15)
    elapsed = time.perf_counter() - t0
    ok = report.all_match and report.good_labels() == GOOD_SET and elapsed < 300
    _verdict(1, ok, f"classification matches on all 28 groups of order <= 15 "
                    f"({elapsed:.1f}s)")
    assert report.all_match
    assert report.good_labels() == GOOD_SET
    assert elapsed < 300


def test_criterion_02_order_4_census():
    enum = reduce_up_to_iso(enumerate_circ(census_lookup("C2xC2")))
    nontrivial_cyclic = True
    for cls in enum.iso_classes:
        ops = [enum.operations[i] for i in cls]
        if any(b.is_trivial for b in ops):
            continue
        nontrivial_cyclic = all(b.circ.is_cyclic for b in ops)
    ok = enum.count == 4 and len(enum.iso_classes) == 2 and nontrivial_cyclic
    _verdict(2, ok, "C2xC2 carries 4 operations in 2 classes; the nontrivial "
                    "class is cyclic")
    assert enum.count == 4
    assert len(enum.iso_classes) == 2
    assert nontrivial_cyclic


def _pq_reference(p: int, q: int, n: int, m: int):
    pn, qm = p ** n, q ** m
    kappa = least_kappa(p, q, n)
    action = [tuple((pow(kappa, j, pn) * x) % pn for x in range(pn)) for j in range(qm)]
    return semidirect_product(make_cyclic(pn), make_cyclic(qm), action)


def test_criterion_03_explicit_constructions():
    checks: list[bool] = []

    def probe(b, reference, gamma_check) -> None:
        validate(b.dot, b.circ)
        checks.append(are_isomorphic(b.circ, reference) is not None)
        gamma_check(b)
        checks.append(not hg_descriptor(b).bijective)

    probe(example_q8(), make_dihedral(8), check_q8_gamma)
    probe(example_c2cubed(), make_abelian([2, 2, 2]), check_c2cubed_gamma)
    for n in (4, 6, 8, 10):
        probe(example_cn_even(n), make_dihedral(n),
              lambda b, n=n: check_cn_even_gamma(b, n))
    for p, q, n, m in ((3, 2, 1, 1), (7, 3, 1, 1)):
        probe(example_pq(p, q, n, m), _pq_reference(p, q, n, m),
              lambda b, a=(p, q, n, m): check_pq_gamma(b, *a))
    for p, n, m in ((3, 1, 1), (5, 1, 1), (3, 2, 1)):
        probe(example_p_odd(p, n, m), make_abelian([p ** n, p ** m]),
              lambda b, a=(p, n, m): check_p_odd_gamma(b, *a))

    ok = all(checks)
    _verdict(3, ok, "all 10 constructions validate with the stated circ type, "
                    "exact gamma tables, and a non-bijective correspondence")
    assert ok


def test_criterion_04_oracle_equivalence_up_to_order_6():
    t0 = time.perf_counter()
    mismatches = []
    for e in census(6):
        got = [b.circ.table for b in enumerate_circ(e.group).operations]
        if got != oracle_enumerate_circ(e.group):
            mismatches.append(e.label)
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60
    _verdict(4, ok, f"holomorph search equals brute-force oracle for every group "
                    f"of order <= 6 ({elapsed:.1f}s)")
    assert mismatches == []
    assert elapsed < 60


def _gamma_invariants_hold(b) -> bool:
    maps = gamma(b).maps
    dt, ct = b.dot.table, b.circ.table
    n = b.order
    for m in maps:
        if sorted(m) != list(range(n)):
            return False
        for x in range(n):
            for y in range(n):
                if m[dt[x][y]] != dt[m[x]][m[y]]:
                    return False
    return all(maps[ct[a][c]] == compose(maps[a], maps[c])
               for a in range(n) for c in range(n))


def _circ_closed(b, members) -> bool:
    mset = set(members)
    return all(b.circ.table[a][x] in mset for a in members for x in members) \
        and all(b.circ.inv[a] in mset for a in members)


def _all_circ_subgroups_are_ideals(b) -> bool:
    ideal_sets = {s.members for s in left_ideals(b)}
    return all(s.members in ideal_sets for s in subgroups(b.circ))


def test_criterion_05_property_suites_up_to_order_12(braces_up_to_12):
    violations = 0
    partition_mismatches: list[str] = []

    for b in braces_up_to_12:
        if not _gamma_invariants_hold(b):
            violations += 1
        if not all(_circ_closed(b, s.members) for s in left_ideals(b)):
            violations += 1
        actually_good = _all_circ_subgroups_are_ideals(b)
        if heuristic_subgroup_count(b) is not None and actually_good:
            violations += 1
        if heuristic_subgroup_containment(b) is not None and actually_good:
            violations += 1
        if heuristic_characteristic_count(b) is not None and not actually_good:
            violations += 1

    for e in census(12):
        subs = subgroups(e.group)
        if left_ideals(trivial(e.group)) != subs:
            violations += 1
        normal = [s for s in subs if is_normal(e.group, s)]
        if left_ideals(almost_trivial(e.group)) != normal:
            violations += 1
    for e in census(15):
        enum = enumerate_circ(e.group)
        if reduce_up_to_iso(enum).iso_classes != oracle_iso_partition(enum.operations):
            partition_mismatches.append(e.label)

    ok = violations == 0 and partition_mismatches == []
    _verdict(5, ok, f"property suites over all {len(braces_up_to_12)} braces of "
                    f"order <= 12 ({violations} violations); Aut-orbit classes "
                    f"equal the pairwise oracle's up to order 15 "
                    f"(mismatches: {partition_mismatches})")
    assert violations == 0
    assert partition_mismatches == []


def test_criterion_06_c_groups_over_c9_and_c15():
    bad = [b.label for label in ("C9", "C15")
           for b in enumerate_circ(census_lookup(label)).operations
           if not c_group_check(b.circ)]
    ok = not bad
    _verdict(6, ok, "every circ group over additive C9 and C15 has all Sylow "
                    "subgroups cyclic")
    assert bad == []


def test_criterion_07_witness_replay(census15):
    failures = 0
    bad_count = 0
    for e in census15:
        v = is_good(e.group)
        if v.good:
            continue
        bad_count += 1
        try:
            verify_witness(v.witness)
        except ValueError:
            failures += 1
    ok = failures == 0 and bad_count == 28 - len(GOOD_SET)
    _verdict(7, ok, f"all {bad_count} bad verdicts carry independently "
                    f"re-validated witnesses")
    assert failures == 0
    assert bad_count == 18


def test_criterion_08_deterministic_output_across_runs_and_workers():
    in_process = []
    for workers in (1, 2):
        report = verify_theorem(12, workers=workers)
        in_process.append(canonical_bytes(theorem_report_to_obj(report)))
    bundle_bytes = [serialize(report_bundle(example_q8())) for _ in range(2)]
    dot_bytes = [render_dot(hg_descriptor(example_q8())) for _ in range(2)]

    def cli(extra):
        return subprocess.run(
            [sys.executable, "-m", "braceforge", "verify", "theorem",
             "--max-order", "12", "--json", "--no-cache"] + extra,
            capture_output=True, check=True).stdout

    subprocess_bytes = [cli(["--workers", "1"]), cli(["--workers", "2"])]

    ok = (in_process[0] == in_process[1]
          and bundle_bytes[0] == bundle_bytes[1]
          and dot_bytes[0] == dot_bytes[1]
          and subprocess_bytes[0] == subprocess_bytes[1]
          and json.loads(subprocess_bytes[0]) == json.loads(in_process[0]))
    _verdict(8, ok, "JSON and DOT outputs are byte-identical across repeat runs "
                    "and worker counts")
    assert in_process[0] == in_process[1]
    assert bundle_bytes[0] == bundle_bytes[1]
    assert dot_bytes[0] == dot_bytes[1]
    assert subprocess_bytes[0] == subprocess_bytes[1]
    assert json.loads(subprocess_bytes[0]) == json.loads(in_process[0])
