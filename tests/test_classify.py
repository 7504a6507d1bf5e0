"""Good/bad verdicts, witness verification, the classification sweep, and the
one-sided heuristics (which must never contradict the exhaustive answer)."""

from __future__ import annotations

import pytest

from oracles import oracle_first_failure

from braceforge import braces, enumeration
from braceforge.braces import almost_trivial, left_ideals, trivial, validate
from braceforge.census import CensusCapError, census_label, census_labels, census_lookup
from braceforge.classify import (_scan_enumeration, c_group_check, direct_factor_witness,
                                 first_failure, heuristic_characteristic_count,
                                 heuristic_subgroup_containment,
                                 heuristic_subgroup_count, is_good,
                                 theorem_predicate, verify_theorem, verify_witness)
from braceforge.constructions import example_p_odd, example_pq, example_q8
from braceforge.enumeration import enumerate_circ
from braceforge.groups import (FiniteGroup, direct_product, make_abelian, make_cyclic,
                               make_dihedral, make_quaternion8, subgroups)
from braceforge.report import hg_descriptor

GOOD_LABELS = ["C1", "C2", "C3", "C2xC2", "C5", "C7", "C9", "C11", "C13", "C15"]


def test_theorem_predicate_good_set(census15):
    assert [e.label for e in census15 if theorem_predicate(e.group)] == GOOD_LABELS


def test_theorem_predicate_beyond_census():
    assert theorem_predicate(make_cyclic(9))
    assert not theorem_predicate(make_cyclic(21))  # 3 divides 7 - 1
    assert not theorem_predicate(make_cyclic(4))
    assert not theorem_predicate(make_abelian([3, 3]))
    assert theorem_predicate(make_abelian([2, 2]))


@pytest.mark.parametrize("label", GOOD_LABELS)
def test_is_good_on_good_groups(label):
    v = is_good(census_lookup(label))
    assert v.good and v.witness is None
    assert v.exhaustive  # a good verdict always saw every operation
    assert v.braces_examined == enumerate_circ(census_lookup(label)).count


def test_is_good_c9_examined_count():
    assert is_good(census_lookup("C9")).braces_examined == 3


@pytest.mark.parametrize("label", ["C4", "C6", "S3", "D8", "Q8", "C12", "A4"])
def test_is_good_on_bad_groups(label):
    v = is_good(census_lookup(label))
    assert not v.good and v.witness is not None
    verify_witness(v.witness)


def test_is_good_exhaustive_mode_q8():
    g = census_lookup("Q8")
    first = is_good(g)
    full = is_good(g, exhaustive=True)
    assert not first.exhaustive and full.exhaustive
    assert first.braces_examined <= full.braces_examined == 28
    # the recorded witness is the first failure in canonical order either way
    assert full.witness == first.witness
    assert census_label(full.witness.brace.circ) == "C2xC2xC2"


def test_exhaustive_mode_scans_every_operation(monkeypatch):
    import braceforge.classify as classify
    calls = []
    real = classify.first_failure
    monkeypatch.setattr(classify, "first_failure", lambda b: calls.append(b) or real(b))
    g = census_lookup("C2xC2xC2")
    v = is_good(g, exhaustive=True)
    assert len(calls) == v.braces_examined == enumerate_circ(g).count == 232
    assert not v.good and v.exhaustive


def test_first_failure_gates_only_the_braces_it_scans(monkeypatch, census15):
    # the search streams into the scan: no table past the first bad brace is
    # validated (over the census, 56 validated where the whole search gives 498)
    real = enumeration.validate
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(enumeration, "validate", counting)
    examined = 0
    for e in census15:
        calls = 0
        v = is_good(e.group)
        assert calls == v.braces_examined, e.label
        examined += v.braces_examined
    assert examined == 56


@pytest.mark.parametrize("exhaustive", [False, True])
def test_streamed_verdicts_match_a_scan_of_the_held_enumeration(census15, exhaustive):
    for e in census15:
        held = _scan_enumeration(e.group, enumerate_circ(e.group).operations, exhaustive)
        assert is_good(e.group, exhaustive=exhaustive) == held, e.label


@pytest.fixture(scope="module")
def c4xc4_braces():
    """The 880 compatible operations on C4xC4, above the census cap."""
    g = make_abelian([4, 4])
    return [validate(g, FiniteGroup.from_table(t))
            for t in enumeration._regular_subgroup_tables(g)]


ORDER_16_BRACES = [make(direct_product(h, make_cyclic(2)))
                   for h in (make_dihedral(8), make_quaternion8())
                   for make in (trivial, almost_trivial)]


def test_first_failure_matches_the_whole_lattice_on_every_census_brace(census_braces):
    assert len(census_braces) == 498
    for b in census_braces:
        assert first_failure(b) == oracle_first_failure(b), b.label


def test_first_failure_matches_the_whole_lattice_on_c4xc4(c4xc4_braces):
    assert len(c4xc4_braces) == 880
    witnesses = [first_failure(b) for b in c4xc4_braces]
    assert witnesses == [oracle_first_failure(b) for b in c4xc4_braces]
    assert any(w is None for w in witnesses) and any(w is not None for w in witnesses)


@pytest.mark.parametrize("b", ORDER_16_BRACES, ids=lambda b: b.label)
def test_first_failure_matches_the_whole_lattice_at_order_16(b):
    assert first_failure(b) == oracle_first_failure(b)


def test_first_failure_runs_the_exact_scan_only_on_its_witness(
        monkeypatch, census_braces, c4xc4_braces):
    calls = 0
    status = braces.left_ideal_status

    def counting_status(*args):
        nonlocal calls
        calls += 1
        return status(*args)

    monkeypatch.setattr(braces, "left_ideal_status", counting_status)
    for b in census_braces + c4xc4_braces:
        calls = 0
        bad = first_failure(b) is not None
        assert calls == bad, b.label


def test_a_brace_builds_gamma_at_most_once(monkeypatch, census_braces):
    # a descriptor, the first-failure scan and the witness replay share one
    # gamma build: the scan and the replay read the tables directly
    calls = 0
    build = braces.gamma

    def counting_gamma(b):
        nonlocal calls
        calls += 1
        return build(b)

    monkeypatch.setattr(braces, "gamma", counting_gamma)
    for b in census_braces:
        calls = 0
        hg_descriptor(b)
        w = first_failure(b)
        if w is not None:
            verify_witness(w)
        assert calls <= 1, b.label


def test_verify_witness_rejects_tampering():
    w = is_good(census_lookup("Q8")).witness
    verify_witness(w)
    with pytest.raises(ValueError, match="circ-closed|identity"):
        verify_witness(w._replace(subgroup=(0, 1, 2)))
    with pytest.raises(ValueError, match="does not fail"):
        verify_witness(w._replace(failing=(0, 0)))
    with pytest.raises(ValueError, match="unknown witness kind"):
        verify_witness(w._replace(kind="mystery"))
    with pytest.raises(ValueError, match="identity"):
        verify_witness(w._replace(subgroup=tuple(m for m in w.subgroup if m != 0)))
    # indices a hand-built witness could carry: negative ones would wrap around
    with pytest.raises(ValueError, match="in range"):
        verify_witness(w._replace(failing=(-1, w.failing[1])))
    with pytest.raises(ValueError, match="in range"):
        verify_witness(w._replace(subgroup=w.subgroup + (8,)))
    with pytest.raises(ValueError, match="sorted"):
        verify_witness(w._replace(subgroup=w.subgroup[::-1]))


def test_verify_witness_rejects_a_pair_off_the_subgroup_and_a_gamma_that_holds():
    w = is_good(census_lookup("Q8")).witness
    outside = min(set(range(8)) - set(w.subgroup))
    with pytest.raises(ValueError, match="failing pair must act on a member"):
        verify_witness(w._replace(failing=(w.failing[0], outside)))
    # gamma_0 is the identity, so it keeps every member inside the subgroup
    with pytest.raises(ValueError, match="claimed gamma failure does not fail"):
        verify_witness(w._replace(kind="gamma", failing=(0, w.subgroup[-1])))


def test_verify_theorem_small():
    report = verify_theorem(10)
    assert report.max_order == 10
    assert [r.label for r in report.rows] == census_labels(10)
    assert report.all_match
    assert report.good_labels() == [l for l in GOOD_LABELS if census_lookup(l).order <= 10]
    for r in report.rows:
        assert r.predicted == r.computed


def test_verify_theorem_worker_counts_agree():
    assert verify_theorem(8, workers=2) == verify_theorem(8, workers=1)


def test_verify_theorem_cap():
    with pytest.raises(CensusCapError):
        verify_theorem(16)


def test_heuristic_subgroup_count_fires_on_q8_example():
    sig = heuristic_subgroup_count(example_q8())
    assert sig is not None
    assert (sig.order, sig.circ_count, sig.dot_count) == (2, 5, 1)


def test_heuristic_subgroup_count_fires_on_pq():
    sig = heuristic_subgroup_count(example_pq(3, 2, 1, 1))
    assert sig is not None
    assert (sig.order, sig.circ_count, sig.dot_count) == (2, 3, 1)


def test_heuristic_containment_fires_on_p_odd():
    b = example_p_odd(3, 1, 1)
    assert heuristic_subgroup_count(b) is None  # counts agree, containment does not
    sig = heuristic_subgroup_containment(b)
    assert sig is not None
    assert sig.members == (0, 3, 6)


def test_heuristic_characteristic_fires_on_trivial_c5():
    sig = heuristic_characteristic_count(trivial(make_cyclic(5)))
    assert sig is not None and sig.count == 2


def _all_circ_subgroups_are_ideals(b) -> bool:
    ideal_sets = {s.members for s in left_ideals(b)}
    return all(s.members in ideal_sets for s in subgroups(b.circ))


def test_heuristics_never_contradict_exhaustive_scan(braces_up_to_12):
    for b in braces_up_to_12:
        actual_good = _all_circ_subgroups_are_ideals(b)
        if heuristic_subgroup_count(b) is not None:
            assert not actual_good, b.label
        if heuristic_subgroup_containment(b) is not None:
            assert not actual_good, b.label
        if heuristic_characteristic_count(b) is not None:
            assert actual_good, b.label


def test_direct_factor_witness_lifts_badness():
    w = is_good(census_lookup("S3")).witness
    lifted = direct_factor_witness(w, make_cyclic(3))
    assert lifted.brace.order == 18
    assert lifted.subgroup == tuple(sorted(s * 3 for s in w.subgroup))
    verify_witness(lifted)


def test_direct_factor_witness_trivial_factor_is_identity():
    w = is_good(census_lookup("Q8")).witness
    assert direct_factor_witness(w, make_cyclic(1)) is w


def test_direct_factor_witness_checks_its_input():
    w = is_good(census_lookup("Q8")).witness
    with pytest.raises(ValueError):
        direct_factor_witness(w._replace(failing=(0, 0)), make_cyclic(3))


C_GROUP_EXPECTED = {
    "C9": True, "C15": True, "S3": True, "C12": True, "Dic3": True, "D10": True,
    "D8": False, "Q8": False, "A4": False, "C2xC2": False, "C6xC2": False,
    "D12": False,
}


@pytest.mark.parametrize("label", sorted(C_GROUP_EXPECTED))
def test_c_group_check(label):
    assert c_group_check(census_lookup(label)) == C_GROUP_EXPECTED[label]
