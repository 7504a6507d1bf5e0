"""braceforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The system under test is ``src/braceforge``
of that checkout, driven through its public functions and its CLI.  Load comes
from this single-threaded closed loop: one round at a time, every round in a
fresh Python process, never more than one child process alive.  Rounds
repeat until --seconds is used up; every metric is a median over rounds (the
item latency percentiles are pooled over the items of all rounds).

Every item is checked against ``golden.json``; failures are counted, never
fatal.  The report is printed metric by metric with units and sample counts,
and the last line of stdout is one JSON object for machines.  With --trace 1
the rounds alternate between untraced and staged (traced) ones and the
per-layer metrics are reported instead; spans go to .perfbench/.

Workloads, metrics and the layer-to-metric map are described in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

import golden as golden_data  # noqa: E402
from spans import COUNTED, TIMED  # noqa: E402
from speed import NOMINAL_S, pin_to_one_cpu, reference_s  # noqa: E402

WORKLOADS = ("theorem-sweep", "iso-census", "hg-atlas", "cli-cache")
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 120
# Warm CLI calls per cli-cache round after the one cold `verify theorem`:
# enough that the cold call stays under 10% of the items, so item_p90_ms
# measures warm calls and cache_cold_s the cold one.
CLI_WARM_CALLS = 19

# Reported on the human-readable lines only: failed_frac is 0 on a correct
# run and cache_cold_s exists for cli-cache only, so neither can be a
# per-run metric of every workload.  Failures also reach the JSON line
# through "attempted" and "failed".
REPORT_ONLY_UNITS = {"failed_frac": "frac", "cache_cold_s": "s"}


class SystemMissing(Exception):
    """The checkout does not hold a runnable braceforge."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def start(argv: list[str], **kwargs) -> tuple[subprocess.Popen, threading.Timer]:
    """Popen with a watchdog that kills the child after CHILD_TIMEOUT_S."""
    p = subprocess.Popen(argv, cwd=ROOT, env=child_env(), **kwargs)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    return p, timer


def reap(p: subprocess.Popen, timer: threading.Timer) -> int:
    """Wait for p and return its peak RSS in KiB (os.wait4 gives that child's own)."""
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def spawn_round(workload: str, seed: int, rnd: int, traced: bool, workdir: Path) -> dict:
    """One fresh-process round; set-up is timed from spawn to the child's ready line."""
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(rnd),
            "1" if traced else "0", str(workdir)]
    err_path = workdir / "child.err"
    before = reference_s()
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p, timer = start(argv, stdout=subprocess.PIPE, stderr=err)
        ready = p.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = p.stdout.read()
        p.stdout.close()
        rss_kb = reap(p, timer)
    if ready.strip() != b"ready":
        raise SystemMissing("child died during set-up:\n"
                            + err_path.read_text(errors="replace")[-2000:])
    if p.returncode != 0:
        return {"setup_s": setup_s, "crashed": err_path.read_text(errors="replace")[-2000:]}
    out = json.loads(rest)
    out.update(setup_s=setup_s, rss_kb=rss_kb,
               setup_corrected_s=setup_s * NOMINAL_S / min(before, out["ready_ref_s"]))
    return out


def run_cli(args: list[str], workdir: Path) -> tuple[float, int, int, bytes, bytes]:
    """One `python3 -m braceforge` process: (seconds, peak KiB, exit code, stdout, stderr)."""
    out_path, err_path = workdir / "cli.out", workdir / "cli.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p, timer = start([sys.executable, "-m", "braceforge", *args], stdout=out, stderr=err)
        rss_kb = reap(p, timer)
        seconds = time.perf_counter() - t0
    return seconds, rss_kb, p.returncode, out_path.read_bytes(), err_path.read_bytes()


def cli_commands(labels: list[str]) -> dict[str, list[str]]:
    """Golden key -> CLI arguments (cache flags are added by the caller)."""
    cmds = {"verify theorem": ["verify", "theorem", "--json"]}
    for label in labels:
        cmds[f"classify {label}"] = ["classify", label, "--json"]
        cmds[f"brace enumerate {label}"] = ["brace", "enumerate", label, "--json"]
    return cmds


def cache_state(cache_dir: Path) -> dict[str, tuple[int, int]]:
    if not cache_dir.is_dir():
        return {}
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(cache_dir)}


def warm_sequence(seed: int, rnd: int, labels: list[str]) -> list[str]:
    """The warm commands of round rnd: a seeded order of 7 classify, 6 brace
    enumerate and 6 verify theorem calls.  Each kind walks its own seeded
    permutation of the groups, round after round, so any five rounds cover
    every group and every seed loads the cache equally."""
    import random
    keys = []
    for kind, n in (("classify", 7), ("brace enumerate", 6)):
        perm = sorted(labels)
        random.Random(f"{seed}:{kind}").shuffle(perm)
        keys += [f"{kind} {perm[(rnd * n + i) % len(perm)]}" for i in range(n)]
    keys += ["verify theorem"] * (CLI_WARM_CALLS - len(keys))
    random.Random(f"{seed}:{rnd}").shuffle(keys)
    return keys


def cli_round(seed: int, rnd: int, traced: bool, workdir: Path, golden: dict) -> dict:
    """cli-cache: one cold `verify theorem --json` writes the cache, then the
    round's warm classify / brace enumerate / verify theorem calls."""
    setup = spawn_round("cli-cache", seed, rnd, traced, workdir)
    if "crashed" in setup:
        return setup
    labels = sorted(golden["orders"])
    cmds = cli_commands(labels)
    keys = ["verify theorem"] + warm_sequence(seed, rnd, labels)
    cache_dir = workdir / f"cache-{rnd}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    items, records, rss = [], {}, []
    hits = misses = out_bytes = 0
    refs = []
    for i, key in enumerate(keys):
        refs += [reference_s() for _ in range(3)]
        before = cache_state(cache_dir) if traced else None
        seconds, rss_kb, rc, out, err = run_cli(cmds[key] + ["--cache-dir", str(cache_dir)],
                                                workdir)
        items.append([key, seconds])
        rss.append(rss_kb)
        records[f"{i}:{key}"] = {"rc": rc, "stderr": err.decode(errors="replace"),
                                 "sha256": hashlib.sha256(out).hexdigest()}
        out_bytes += len(out)
        if traced:
            after = cache_state(cache_dir)
            written = sum(1 for name, st in after.items() if before.get(name) != st)
            misses += written
            if not written:
                hits += len(labels) if key == "verify theorem" else 1
    # CLI calls are corrected by the round's mean reference timing, taken
    # in this process between calls: bracketing each call doubled the spread
    # of these times, as one reference timing is noisy next to a whole
    # process; the mean weighs slow and fast spells as the calls meet them.
    factor = NOMINAL_S / statistics.mean(refs)
    items = [[key, raw, raw * factor] for key, raw in items]
    result = {"setup_s": setup["setup_s"], "setup_corrected_s": setup["setup_corrected_s"],
              "wall_s": sum(t[1] for t in items), "wall_corrected_s": sum(t[2] for t in items),
              "items": items, "records": records, "rss_kb": max(rss), "cold_s": items[0][1:]}
    if traced:
        startup_s = factor * statistics.median(run_cli(["--version"], workdir)[0]
                                               for _ in range(3))
        trace = setup["trace"]
        trace["metrics"].update({
            "cli.startup_ms": startup_s * 1e3, "cli.invocations": len(keys),
            "cache.hits": hits, "cache.misses": misses, "jsonio.bytes": out_bytes,
            "cache.bytes": sum(st[0] for st in cache_state(cache_dir).values()),
        })
        # The share of the CLI round that interpreter and import start-up explain.
        trace["explained_frac"] = startup_s * len(keys) / result["wall_corrected_s"]
        result["trace"] = trace
    shutil.rmtree(cache_dir, ignore_errors=True)
    return result


def check_round(workload: str, rnd: dict, golden: dict) -> list[str]:
    """Failure messages for one round; a crashed round fails all its items."""
    if "crashed" in rnd:
        n = {"hg-atlas": len(golden["hg-atlas"]), "cli-cache": CLI_WARM_CALLS + 1}.get(
            workload, len(golden["orders"]))
        return [f"round crashed: {rnd['crashed']}"] * n
    if workload != "cli-cache":
        return golden_data.check_items(golden, workload, rnd["records"])
    failures = []
    for key, rec in rnd["records"].items():
        cmd = key.split(":", 1)[1]
        want = {"rc": 0, "stderr": "", "sha256": golden["cli-cache"][cmd]}
        if rec != want:
            failures.append(f"cli-cache {cmd}: got {rec}, expected {want}")
    return failures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)] if s else float("nan")


def run(workload: str, seed: int, seconds: float, traced: bool, golden: dict,
        workdir: Path) -> dict:
    start = time.perf_counter()
    rounds, durations = [], []
    rnd = 0
    while True:
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(durations) > seconds:
            break
        t0 = time.perf_counter()
        # The traced run alternates untraced and staged rounds, so that the
        # staged layer times can be set against an untraced wall_s.
        staged = traced and (workload == "cli-cache" or rnd % 2 == 1)
        if workload == "cli-cache":
            r = cli_round(seed, rnd, staged, workdir, golden)
        else:
            r = spawn_round(workload, seed, rnd, staged, workdir)
        r["staged"] = staged
        r["failures"] = check_round(workload, r, golden)
        rounds.append(r)
        durations.append(time.perf_counter() - t0)
        rnd += 1
    return summarize(workload, rounds, golden)


def summarize(workload: str, rounds: list[dict], golden: dict) -> dict:
    attempted = failed = 0
    messages = []
    for r in rounds:
        n = len(r["records"]) if "records" in r else len(r["failures"])
        attempted += n
        failed += len(r["failures"])
        messages += r["failures"]
    # A staged cli-cache round still times its CLI calls untraced.
    plain = [r for r in rounds if "crashed" not in r
             and (not r["staged"] or workload == "cli-cache")]
    staged = [r for r in rounds if r["staged"] and "crashed" not in r]
    e2e, layer = {}, {}
    if plain:
        # Each timing is (speed-corrected, raw); see speed.py.
        def med(*keys):
            return tuple(statistics.median(r[k] for r in plain) for k in keys)

        def pct(q):
            return tuple(percentile([t[i] * 1e3 for r in plain for t in r["items"]], q)
                         for i in (2, 1))

        n_items = sum(len(r["items"]) for r in plain)
        e2e = {
            "setup_s": med("setup_corrected_s", "setup_s") + (len(plain),),
            "wall_s": med("wall_corrected_s", "wall_s") + (len(plain),),
            "items_per_s": tuple(statistics.median(len(r["items"]) / r[key] for r in plain)
                                 for key in ("wall_corrected_s", "wall_s")) + (len(plain),),
            "item_p50_ms": pct(50) + (n_items,),
            "item_p90_ms": pct(90) + (n_items,),
            "peak_rss_mb": (statistics.median(r["rss_kb"] / 1024 for r in plain), None,
                            len(plain)),
            "failed_frac": (failed / attempted if attempted else 1.0, None, attempted),
        }
        if workload == "cli-cache":
            e2e["cache_cold_s"] = tuple(statistics.median(r["cold_s"][i] for r in plain)
                                        for i in (1, 0)) + (len(plain),)
    absent = set()
    if staged:
        names = [m for m in TIMED.values() if m] + list(COUNTED) + ["trace.overhead_frac"]
        for r in staged:
            absent.update(r["trace"]["absent"])
        for name in names:
            if name not in absent:
                layer[name] = (statistics.median(r["trace"]["metrics"].get(name, 0)
                                                 for r in staged), None, len(staged))
        if workload == "cli-cache":
            explained = statistics.median(r["trace"]["explained_frac"] for r in staged)
        else:
            explained = (statistics.median(r["trace"]["workload_ms"] for r in staged)
                         / (statistics.median(r["wall_corrected_s"] for r in plain) * 1e3))
        layer["trace.explained_frac"] = (explained, None, len(staged))
    return {"rounds": rounds, "attempted": attempted, "failed": failed,
            "messages": messages, "e2e": e2e, "layer": layer, "absent": sorted(absent)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_to_one_cpu()
    if not (SRC / "braceforge" / "__init__.py").is_file():
        print(f"error: no braceforge sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = golden_data.load()
    golden_data.check_facts(golden)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), golden, workdir)
    except SystemMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([r["trace"]["spans"] for r in res["rounds"]
                                          if r["staged"] and "trace" in r]))
    return report(args, spec, res)


def report(args, spec: dict, res: dict) -> int:
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_ONLY_UNITS)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(res['rounds'])} rounds, {res['attempted']} items, {res['failed']} failed")
    for msg in res["messages"][:20]:
        print(f"  FAILED {msg}")
    shown = dict(res["e2e"], **res["layer"])
    for name, (value, raw, n) in shown.items():
        raw_note = "" if raw is None else f"  (raw {raw:.6g})"
        print(f"  {name:28s} {value:14.6g} {units[name]:6s} n={n}{raw_note}")
    for name in res["absent"]:
        print(f"  {name:28s} {'absent':>14s} (probed name no longer public)")
    metrics = {m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]}
               for m in declared if m["name"] in shown}
    missing = [m["name"] for m in declared
               if m["name"] not in shown and m["name"] not in res["absent"]]
    if missing:
        print(f"error: declared metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
