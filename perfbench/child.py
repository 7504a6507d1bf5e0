"""One round of an in-process workload, run in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED ROUND TRACE [WORKDIR]

A fresh process per round matters: the library memoizes enumerations,
automorphism groups, gamma maps and census labels for the life of the
process, so a second round in the same process would be nearly free.

The child prints ``ready`` once the interpreter is up, ``braceforge`` is
imported and ``census()`` has run; the parent times set-up from spawn to that
line.  It then runs the round and prints one JSON line: per-item latencies
(raw and speed-corrected, see speed.py), one correctness record per item,
and with TRACE=1 the staged per-layer metrics.  Witnesses are replayed and
outputs hashed after the timed segments.
"""

import sys
import time


def _setup(traced):
    import braceforge
    if traced:
        from spans import Tracer
        tr = Tracer()
        _, entries = tr.call("census.build", braceforge.census)
        return braceforge, entries, tr
    return braceforge, braceforge.census(), None


def main(argv):
    workload, seed, rnd, traced = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    workdir = argv[4] if len(argv) > 4 else None
    bf, entries, tr = _setup(traced)
    print("ready", flush=True)
    import json
    from speed import SpeedClock
    clock = SpeedClock()
    out = ROUNDS[workload](bf, entries, shuffler(seed, rnd), tr, workdir, clock)
    out["ready_ref_s"] = clock.refs[0]
    segments = out.pop("segments") + [t for _, *t in out["items"]]
    out["wall_s"] = sum(raw for raw, _ in segments)
    out["wall_corrected_s"] = sum(corr for _, corr in segments)
    if tr is not None:
        # Span times are corrected by the round's median reference timing.
        per, workload_ms = tr.self_ms()
        per = {name: ms * clock.factor() for name, ms in per.items()}
        workload_ms *= clock.factor()
        per.update(tr.counts)
        overhead_s = len(tr.spans) * tr.cost_per_span_s()
        per["trace.overhead_frac"] = overhead_s / out["wall_s"]
        out["trace"] = {"metrics": per, "workload_ms": workload_ms,
                        "absent": sorted(tr.absent), "spans": tr.spans}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def shuffler(seed, rnd):
    """The seed only reorders items; the library sees the same inputs."""
    import random
    rng = random.Random(f"{seed}:{rnd}")

    def shuffled(keys):
        keys = list(keys)
        rng.shuffle(keys)
        return keys
    return shuffled


def timed(clock, fn, *args):
    """(fn(*args), [raw seconds, corrected seconds]) for one timed segment."""
    t0 = time.perf_counter()
    out = fn(*args)
    raw = time.perf_counter() - t0
    return out, [raw, clock.correct(raw)]


def public(bf, name):
    """A probed name, or None once it is no longer exported by the package."""
    return getattr(bf, name, None) if name in getattr(bf, "__all__", ()) else None


def _elements(aut):
    return getattr(aut, "elements", aut)


def _label_misses(label_fn):
    info = getattr(label_fn, "cache_info", None)
    return None if info is None else info().misses


def stage_enumeration(bf, tr, g):
    """Aut(g) first, then the enumeration with Aut warm, then replays of the
    table and brace checks the enumeration runs on every produced table."""
    aut = public(bf, "automorphism_group")
    _, n = tr.call("morphisms.aut", aut and (lambda: len(_elements(aut(g)))))
    if n is None:
        tr.absent.add("morphisms.aut_elements")
    else:
        tr.add("morphisms.aut_elements", n)
    sid, enum = tr.call("enumeration.enumerate", bf.enumerate_circ, g)
    tr.add("enumeration.ops", enum.count)
    from_table = getattr(public(bf, "FiniteGroup"), "from_table", None)
    validate = public(bf, "validate")
    for b in enum.operations:
        tr.call("groups.from_table", from_table, b.circ.table, parent=sid)
        tr.call("braces.validate", validate, g, b.circ, parent=sid)
    return enum


def stage_labels(bf, tr, groups):
    label = public(bf, "census_label")
    before = _label_misses(label) if label else None
    tr.call("census.label", label and (lambda: [label(x) for x in groups]))
    after = _label_misses(label) if label else None
    if before is None or after is None:
        tr.absent.add("census.label_calls")
    else:
        tr.add("census.label_calls", after - before)


def stage_lattice(bf, tr, b, first_failure, count):
    """Replay of the circ-subgroup lattice and its left-ideal flags.

    Returns the span ids (to subtract from the caller that repeats this work)
    and whether a non-left-ideal was found.  With first_failure the scan stops
    where the classifier's does.
    """
    subgroups = public(bf, "subgroups")
    status = public(bf, "left_ideal_status")
    if subgroups is None or status is None:
        tr.absent.update({"groups.subgroups_ms", "braces.left_ideal_ms"})
        return [], None
    sid_s, subs = tr.call("groups.subgroups", subgroups, b.circ)

    def scan():
        k = 0
        for s in subs:
            k += 1
            if not status(b, s.members).is_left_ideal and first_failure:
                return k, True
        return k, False
    sid_l, (k, bad) = tr.call("braces.left_ideal", scan)
    if count:
        tr.add("groups.subgroups_found", len(subs))
        tr.add("braces.left_ideal_checks", k)
    return [sid_s, sid_l], bad


# ---------------------------------------------------------------------------
# theorem-sweep: is_good in first-failure mode, no file cache
# ---------------------------------------------------------------------------

def theorem_record(bf, g, v, predicted):
    w = v.witness
    rec = {"good": v.good, "predicate_match": predicted == v.good,
           "examined": v.braces_examined, "ops": bf.enumerate_circ(g).count,
           "witness": None}
    if w is not None:
        rec["witness"] = {"brace": bf.brace_digest(w.brace), "subgroup": list(w.subgroup),
                          "failing": list(w.failing), "kind": w.kind}
    return rec


def replay_witness(bf, tr, w):
    """verify_witness on a bad verdict; True when the witness holds up."""
    try:
        if tr is None:
            bf.verify_witness(w)
        else:
            tr.call("classify.verify_witness", bf.verify_witness, w, extra=True)
    except ValueError:
        return False
    return True


def round_theorem(bf, entries, shuffled, tr, workdir, clock):
    groups = {e.label: e.group for e in entries}

    def item(g):
        if tr is None:
            v = bf.is_good(g)
        else:
            replays = stage_theorem(bf, tr, g)
            sid, v = tr.call("classify.scan", bf.is_good, g)
            adopt(tr, replays, sid)
            tr.add("classify.braces_examined", v.braces_examined)
        return v, bf.theorem_predicate(g)

    verdicts, items = {}, []
    for label in shuffled(groups):
        verdicts[label], times = timed(clock, item, groups[label])
        items.append([label, *times])
    records = {}
    for label, (v, predicted) in verdicts.items():
        rec = theorem_record(bf, groups[label], v, predicted)
        if v.witness is not None:
            rec["witness_replays"] = replay_witness(bf, tr, v.witness)
        records[label] = rec
    return {"segments": [], "items": items, "records": records}


def adopt(tr, children, parent):
    for c in children:
        tr.spans[c][4] = parent


def stage_theorem(bf, tr, g):
    """Lower layers of is_good(g), staged in the classifier's order; returns
    the replay spans the classifier repeats, for the scan span to adopt."""
    enum = stage_enumeration(bf, tr, g)
    gamma = public(bf, "gamma")
    replays = []
    for b in enum.operations:
        tr.call("braces.gamma", gamma, b)
        sids, bad = stage_lattice(bf, tr, b, first_failure=True, count=True)
        replays += sids
        if bad is not False:  # stop where the classifier stops, or when unprobed
            break
    return replays


# ---------------------------------------------------------------------------
# iso-census: brace enumerate --up-to-iso for every census group
# ---------------------------------------------------------------------------

def partition_digest(enum):
    import hashlib
    payload = repr(([b.circ.table for b in enum.operations], enum.iso_classes,
                    enum.by_mult_type))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def round_iso(bf, entries, shuffled, tr, workdir, clock):
    groups = {e.label: e.group for e in entries}

    def item(g):
        if tr is None:
            return bf.reduce_up_to_iso(bf.with_mult_types(bf.enumerate_circ(g)))
        enum = stage_enumeration(bf, tr, g)
        stage_labels(bf, tr, [b.circ for b in enum.operations])
        _, typed = tr.call("enumeration.mult_types", bf.with_mult_types, enum)
        _, red = tr.call("enumeration.reduce", bf.reduce_up_to_iso, typed)
        tr.add("enumeration.iso_classes", len(red.iso_classes))
        return red

    reduced, items = {}, []
    for label in shuffled(groups):
        reduced[label], times = timed(clock, item, groups[label])
        items.append([label, *times])
    records = {label: {"ops": r.count, "classes": len(r.iso_classes),
                       "partition_sha256": partition_digest(r)}
               for label, r in reduced.items()}
    return {"segments": [], "items": items, "records": records}


# ---------------------------------------------------------------------------
# hg-atlas: hg report --json --dot for all 498 operations
# ---------------------------------------------------------------------------

def round_hg(bf, entries, shuffled, tr, workdir, clock):
    import hashlib
    from braceforge import jsonio
    serialize, parse = jsonio.serialize, getattr(jsonio, "parse", None)
    groups = {e.label: e.group for e in entries}
    gamma = public(bf, "gamma")

    def enumerate_step(g):
        return stage_enumeration(bf, tr, g) if tr is not None else bf.enumerate_circ(g)

    def item(b):
        if tr is None:
            d = bf.hg_descriptor(b)
            return serialize(bf.report_bundle(b)), bf.render_dot(d)
        tr.call("braces.gamma", gamma, b)
        stage_labels(bf, tr, [b.dot, b.circ])
        sids, _ = stage_lattice(bf, tr, b, first_failure=False, count=True)
        sid, d = tr.call("report.descriptor", bf.hg_descriptor, b)
        adopt(tr, sids, sid)
        _, dot = tr.call("report.render_dot", bf.render_dot, d)
        sids, _ = stage_lattice(bf, tr, b, first_failure=False, count=False)
        sid, bundle = tr.call("report.descriptor", bf.report_bundle, b)
        adopt(tr, sids, sid)
        _, data = tr.call("jsonio.serialize", serialize, bundle)
        tr.add("jsonio.bytes", len(data))
        tr.call("jsonio.parse", parse, data, extra=True)
        return data, dot

    ops, segments, outputs, items = {}, [], {}, []
    for label in shuffled(groups):
        enum, times = timed(clock, enumerate_step, groups[label])
        segments.append(times)
        ops.update((b.label, b) for b in enum.operations)
    for key in shuffled(sorted(ops)):
        outputs[key], times = timed(clock, item, ops[key])
        items.append([key, *times])
    records = {key: {"json_sha256": hashlib.sha256(data).hexdigest(),
                     "dot_sha256": hashlib.sha256(dot.encode("utf-8")).hexdigest()}
               for key, (data, dot) in outputs.items()}
    return {"segments": segments, "items": items, "records": records}


# ---------------------------------------------------------------------------
# cli-cache: the untraced round is driven by the parent, one CLI process at a
# time.  This child only stages the cache layer for the traced run.
# ---------------------------------------------------------------------------

def round_cli(bf, entries, shuffled, tr, workdir, clock):
    segments = []
    if tr is not None:
        _, times = timed(clock, stage_cache, bf, entries, shuffled, tr, workdir)
        segments.append(times)
    return {"segments": segments, "items": [], "records": {}}


def stage_cache(bf, entries, shuffled, tr, workdir):
    """Cache store and load with every lower memo warm.

    store = is_good on an empty cache minus is_good without a cache (both
    rescan); load = is_good on a warm cache (a verdict hit) plus the CLI's warm
    `brace enumerate` minus its --no-cache run (an enumeration hit).
    """
    import inspect
    import io
    import os
    from contextlib import redirect_stdout
    from braceforge import cli

    def run_cli(*argv):
        with redirect_stdout(io.StringIO()):
            if cli.main(list(argv)) != 0:
                raise RuntimeError(f"braceforge {' '.join(argv)} failed")

    if "cache_dir" not in inspect.signature(bf.is_good).parameters:
        tr.absent.update({"cache.store_ms", "cache.load_ms"})
        return
    cache_dir = os.path.join(workdir, f"stage-cache-{os.getpid()}")
    groups = {e.label: e.group for e in entries}
    for label, g in groups.items():  # warm every memo the timed calls use
        bf.is_good(g)
        run_cli("brace", "enumerate", label, "--json", "--no-cache")
    for label in shuffled(groups):
        g = groups[label]
        sid_r, _ = tr.call("replay", bf.is_good, g)
        sid, _ = tr.call("cache.store", bf.is_good, g, cache_dir=cache_dir)
        adopt(tr, [sid_r], sid)
        tr.call("cache.load", bf.is_good, g, cache_dir=cache_dir)
        sid_r, _ = tr.call("replay", run_cli, "brace", "enumerate", label, "--json", "--no-cache")
        sid, _ = tr.call("cache.load", run_cli, "brace", "enumerate", label, "--json",
                         "--cache-dir", cache_dir)
        adopt(tr, [sid_r], sid)


ROUNDS = {"theorem-sweep": round_theorem, "iso-census": round_iso,
          "hg-atlas": round_hg, "cli-cache": round_cli}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
