"""Command line front end.

Exit codes: 0 on success, 1 when a mathematical verification fails
(theorem mismatch), 2 on usage errors, unknown labels, invalid input
files, files that cannot be written, or a stdout closed before the output
was written.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .braces import BraceRelationError, BraceValidationError, SkewBrace, almost_trivial, gamma, trivial
from .census import CENSUS_MAX_ORDER, CensusCapError, census, census_lookup, label_or_unknown
from .classify import Verdict, first_failure, is_good, verify_theorem
from .enumeration import enumerate_circ, with_mult_types
from .groups import CayleyTableError, FiniteGroup, subgroups
from .jsonio import (SchemaError, brace_from_obj, brace_to_obj, canonical_dumps,
                     enumeration_to_obj, group_from_obj, group_to_obj, loads, serialize,
                     theorem_report_to_obj, verdict_to_obj)
from .report import render_dot, report_bundle


DEFAULT_CACHE_DIR = ".braceforge-cache"
CACHE_DIR_ENV = "BRACEFORGE_CACHE_DIR"


class UsageError(Exception):
    pass


def _load_json_file(path: str):
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return loads(raw)
    except SchemaError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc.__cause__}") from exc


def _resolve_group(target: str) -> FiniteGroup:
    """A census label, or a path to a group JSON file.

    Any existing path that is not a directory is read as a file, so a pipe
    such as /dev/stdin is read, not looked up as a label.
    """
    path = Path(target)
    if path.exists() and not path.is_dir():
        try:
            return group_from_obj(_load_json_file(target))
        except (SchemaError, CayleyTableError) as exc:
            raise UsageError(f"{target}: {exc}") from exc
    try:
        return census_lookup(target)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc


def _resolve_brace(target: str) -> SkewBrace:
    """A path to a brace JSON file, or trivial:LABEL / almost-trivial:LABEL."""
    for prefix, make in (("trivial:", trivial), ("almost-trivial:", almost_trivial)):
        if target.startswith(prefix):
            label = target[len(prefix):]
            try:
                return make(census_lookup(label))
            except KeyError as exc:
                raise UsageError(exc.args[0]) from exc
    try:
        return brace_from_obj(_load_json_file(target))
    except (SchemaError, CayleyTableError, BraceValidationError) as exc:
        raise UsageError(f"{target}: {exc}") from exc


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


def _cache_dir(args) -> Path | None:
    if args.no_cache:
        return None
    return resolve_cache_dir(args.cache_dir)


def _add_cache_flags(p: argparse.ArgumentParser,
                     note: str = "; used only with --exhaustive") -> None:
    p.add_argument("--cache-dir", metavar="PATH", default=None,
                   help="cache directory (default ./.braceforge-cache, "
                        "or $BRACEFORGE_CACHE_DIR)" + note)
    p.add_argument("--no-cache", action="store_true", help="recompute everything" + note)


def _members_str(members) -> str:
    return "{" + ", ".join(str(m) for m in members) + "}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_group_list(args) -> int:
    entries = census(CENSUS_MAX_ORDER)
    if args.json:
        print(canonical_dumps([{"label": e.label, "order": e.order} for e in entries]), end="")
    else:
        for e in entries:
            print(f"{e.label}  (order {e.order})")
    return 0


def _cmd_group_show(args) -> int:
    g = _resolve_group(args.target)
    if args.json:
        print(canonical_dumps(group_to_obj(g)), end="")
        return 0
    print(f"label: {g.label or label_or_unknown(g)}")
    print(f"order: {g.order}")
    print(f"abelian: {g.is_abelian}")
    print(f"cyclic: {g.is_cyclic}")
    print(f"center: {_members_str(g.center)}")
    print(f"subgroups: {len(subgroups(g))}")
    print("table:")
    for row in g.table:
        print("  " + " ".join(f"{v:2d}" for v in row))
    return 0


def _cmd_brace_enumerate(args) -> int:
    g = _resolve_group(args.additive)
    enum = with_mult_types(enumerate_circ(g))
    if not args.up_to_iso:
        enum = enum._replace(iso_classes=None)
    if args.json:
        print(canonical_dumps(enumeration_to_obj(enum)), end="")
        return 0
    print(f"additive: {g.label or label_or_unknown(g)} (order {g.order})")
    print(f"operations: {enum.count}")
    if enum.iso_classes is not None:
        print(f"iso classes: {len(enum.iso_classes)}")
    parts = [f"{label} x{len(idx)}" for label, idx in enum.by_mult_type]
    print("by circ type: " + ", ".join(parts))
    return 0


def _cmd_brace_check(args) -> int:
    obj = _load_json_file(args.file)
    try:
        b = brace_from_obj(obj)
    except (SchemaError, CayleyTableError, BraceValidationError) as exc:
        if args.json:
            triple = list(exc.triple) if isinstance(exc, BraceRelationError) else None
            print(canonical_dumps({"valid": False, "triple": triple,
                                   "reason": str(exc)}), end="")
        else:
            print(f"invalid: {exc}", file=sys.stderr)
        return 2
    dt, ct = label_or_unknown(b.dot), label_or_unknown(b.circ)
    if args.json:
        print(canonical_dumps({"valid": True, "order": b.order,
                               "dot_type": dt, "circ_type": ct}), end="")
    else:
        print(f"ok: order {b.order}, dot type {dt}, circ type {ct}")
    return 0


def _verdict_lines(v: Verdict) -> list[str]:
    lines = [f"group: {v.group_label}",
             f"verdict: {'good' if v.good else 'bad'}",
             f"braces examined: {v.braces_examined}",
             f"exhaustive: {v.exhaustive}"]
    if v.witness is not None:
        w = v.witness
        lines.append(f"witness circ type: {label_or_unknown(w.brace.circ)}")
        lines.append(f"witness subgroup: {_members_str(w.subgroup)}")
        lines.append(f"failing pair: {w.failing} ({w.kind})")
    return lines


def _cmd_classify(args) -> int:
    v = is_good(_resolve_group(args.target), exhaustive=args.exhaustive,
                cache_dir=_cache_dir(args))
    if args.json:
        print(canonical_dumps(verdict_to_obj(v)), end="")
    else:
        for line in _verdict_lines(v):
            print(line)
    return 0


def _cmd_verify_theorem(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    try:
        report = verify_theorem(args.max_order, exhaustive=args.exhaustive,
                                cache_dir=_cache_dir(args), workers=args.workers)
    except ValueError as exc:  # max_order < 1, or above the census cap
        raise UsageError(str(exc)) from exc
    if args.json:
        print(canonical_dumps(theorem_report_to_obj(report)), end="")
    else:
        for row in report.rows:
            mark = "" if row.predicted == row.computed else "  MISMATCH"
            print(f"{row.label} (order {row.order}): predicted "
                  f"{'good' if row.predicted else 'bad'}, computed "
                  f"{'good' if row.computed else 'bad'}{mark}")
        print(f"all match: {report.all_match}")
    return 0 if report.all_match else 1


# name -> {parameter: default}
_EXAMPLES = {
    "q8": {},
    "c2cubed": {},
    "cn-even": {"n": 4},
    "pq": {"p": 3, "q": 2, "n": 1, "m": 1},
    "p-odd": {"p": 3, "n": 1, "m": 1},
    "order4": {},
}


def _build_example(args) -> SkewBrace:
    defaults = _EXAMPLES[args.name]
    extra = [f"--{k}" for k in "nmpq" if getattr(args, k) is not None and k not in defaults]
    if extra:
        takes = ", ".join(f"--{k}" for k in defaults) or "no parameters"
        raise UsageError(f"example {args.name} does not take {', '.join(extra)}; "
                         f"it takes {takes}")
    # imported here: no other command uses the constructions
    from .constructions import (brace_order4_nontrivial, example_c2cubed, example_cn_even,
                                example_p_odd, example_pq, example_q8)

    make = {"q8": example_q8, "c2cubed": example_c2cubed, "cn-even": example_cn_even,
            "pq": example_pq, "p-odd": example_p_odd,
            "order4": brace_order4_nontrivial}[args.name]
    params = {k: default if getattr(args, k) is None else getattr(args, k)
              for k, default in defaults.items()}
    try:
        return make(**params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_example(args) -> int:
    b = _build_example(args)
    if args.json:
        print(canonical_dumps(brace_to_obj(b)), end="")
        return 0
    print(f"construction: {args.name}")
    print(f"order: {b.order}")
    print(f"dot type: {label_or_unknown(b.dot)}")
    print(f"circ type: {label_or_unknown(b.circ)}")
    print("gamma table:")
    gf = gamma(b)
    for a, mp in enumerate(gf.maps):
        print(f"  gamma[{a}] = ({', '.join(str(v) for v in mp)})")
    w = first_failure(b)
    if w is None:
        print("witness: none, every circ-subgroup is a left ideal")
    else:
        print(f"witness: subgroup {_members_str(w.subgroup)} fails "
              f"{w.kind} at {w.failing}")
    print()
    print(canonical_dumps(brace_to_obj(b)), end="")
    return 0


def _cmd_hg_report(args) -> int:
    bundle = report_bundle(_resolve_brace(args.input))
    d = bundle.descriptor
    if args.dot is not None:
        Path(args.dot).write_text(render_dot(d), encoding="utf-8")
    if args.json:
        sys.stdout.write(serialize(bundle).decode("utf-8"))
        return 0
    ideals = sum(1 for e in d.lattice if e.is_left_ideal)
    print(f"type: {d.type_label}")
    print(f"galois group: {d.galois_label}")
    print(f"bijective correspondence: {d.bijective}")
    print(f"classical: {d.classical}")
    print(f"canonical nonclassical: {d.canonical_nonclassical}")
    print(f"gamma orbits ({len(d.gamma_orbits)}): "
          + " ".join(_members_str(o) for o in d.gamma_orbits))
    print(f"circ-subgroups: {len(d.lattice)}, left ideals: {ideals}")
    for e in d.lattice:
        if e.is_left_ideal:
            print(f"  {_members_str(e.members)}  left ideal")
        else:
            print(f"  {_members_str(e.members)}  not a left ideal, "
                  f"fails {e.failure_kind} at {e.failing_pair}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_group_commands(p_group: argparse.ArgumentParser) -> None:
    group_sub = p_group.add_subparsers(dest="group_command", required=True)
    p = group_sub.add_parser("list", help="list census labels")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_group_list)
    p = group_sub.add_parser("show", help="show one group")
    p.add_argument("target", help="census label or group JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_group_show)


def _add_brace_commands(p_brace: argparse.ArgumentParser) -> None:
    brace_sub = p_brace.add_subparsers(dest="brace_command", required=True)
    p = brace_sub.add_parser("enumerate", help="all compatible circ operations")
    p.add_argument("additive", help="census label or group JSON file")
    p.add_argument("--up-to-iso", action="store_true",
                   help="also reduce to brace isomorphism classes")
    p.add_argument("--json", action="store_true")
    _add_cache_flags(p, "; accepted but ignored, enumerations are not cached")
    p.set_defaults(func=_cmd_brace_enumerate)
    p = brace_sub.add_parser("check", help="validate a brace JSON file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_brace_check)


def _add_classify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", help="census label or group JSON file")
    p.add_argument("--exhaustive", action="store_true",
                   help="scan every brace even after a failure")
    p.add_argument("--json", action="store_true")
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_classify)


def _add_verify_commands(p_verify: argparse.ArgumentParser) -> None:
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)
    p = verify_sub.add_parser("theorem", help="compare predicted and computed goodness")
    p.add_argument("--max-order", type=int, default=CENSUS_MAX_ORDER)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; the sweep runs in one process")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--json", action="store_true")
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_verify_theorem)


def _add_example_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=list(_EXAMPLES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--json", action="store_true", help="emit only the brace JSON")
    p.set_defaults(func=_cmd_example)


def _add_hg_commands(p_hg: argparse.ArgumentParser) -> None:
    hg_sub = p_hg.add_subparsers(dest="hg_command", required=True)
    p = hg_sub.add_parser("report", help="descriptor for one brace")
    p.add_argument("input", help="brace JSON file, trivial:LABEL, or almost-trivial:LABEL")
    p.add_argument("--dot", metavar="PATH", default=None,
                   help="also write the subgroup lattice as DOT")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hg_report)


# top-level command -> (its help, what adds its arguments and subcommands)
_COMMANDS = {
    "group": ("inspect the built-in group census", _add_group_commands),
    "brace": ("enumerate or validate braces", _add_brace_commands),
    "classify": ("decide whether a group is good", _add_classify_arguments),
    "verify": ("verify the classification theorem", _add_verify_commands),
    "example": ("build one of the named bad constructions", _add_example_arguments),
    "hg": ("Hopf-Galois structure reports", _add_hg_commands),
}


def build_parser(command: str) -> argparse.ArgumentParser:
    """The CLI parser, with arguments and subcommands for `command` only.

    Every other top-level command stays a bare entry with its help line,
    which is all that the top-level help and an invalid-choice error read.
    """
    parser = argparse.ArgumentParser(
        prog="braceforge",
        description="Enumerate skew braces on small groups and report the "
                    "Hopf-Galois structures they encode.")
    parser.add_argument("--version", action="version", version=f"braceforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            add_arguments(p)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser takes no option with a value, so the first word
    # that is not an option is the command it will read
    parser = build_parser(next((a for a in argv if not a.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (UsageError, CensusCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the shutdown flush
        # of whatever is still buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except OSError as exc:  # an unwritable --dot path, an --exhaustive --cache-dir that is a file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
