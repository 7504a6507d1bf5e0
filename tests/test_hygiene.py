"""Every name an import binds, in the package and in the tests, is used or exported,
every private module-level name of the package is used somewhere in it, no
package module imports another module's private name, only `jsonio` writes
JSON, only `jsonio.loads` decodes it, no package module imports a process
pool or `dataclasses` (and importing the CLI loads neither `dataclasses` nor
`inspect`), only `groups.Frozen` defines the frozen-instance dunders, each
of its subclasses is allowlisted with the reason it is not a NamedTuple, every
memo without a bound is allowlisted with a reason, every
public function, class and method of the package has a caller outside the
unit tests or a stated reason, every package name the benchmark child reads
without a fallback exists, and a traced benchmark round of each workload
reports every metric.

The scans are syntactic (ast): an imported name counts as used when it
appears as a bare name anywhere in the module, in a quoted annotation, or in
`__all__`; a private name counts as used when it is read, as a bare name or
an attribute, or imported anywhere in the package outside its own definition;
a public name counts as called when the same holds in the package outside
`__init__`, or anywhere in the benchmark child or the acceptance gate, where
a string constant (a name read through getattr) counts too.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "braceforge").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def _imported(tree: ast.Module):
    """(name, line) for every name an import binds; __future__ flags aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    nodes = list(ast.walk(tree))
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            nodes += ast.walk(ast.parse(ann.value, mode="eval"))
    used = {n.id for n in nodes if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"line {line}: {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\n"
                     "def f(x: 'Path') -> None:\n    return loads(x)\n")
    assert [name for name, _ in _imported(tree) if name not in _used(tree)] == ["os", "dumps"]


def _private_definitions(tree: ast.Module):
    """(name, node) for every `_`-prefixed function, class or constant defined
    at module level; dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _references(node: ast.AST) -> Counter:
    """How often each name is read or imported under `node`."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


def _orphans(trees: dict[str, ast.Module]) -> list[str]:
    refs = sum((_references(t) for t in trees.values()), Counter())
    return [f"{module}: {name}" for module, tree in trees.items()
            for name, node in _private_definitions(tree)
            if refs[name] - _references(node)[name] == 0]


def test_every_private_helper_is_used():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE}
    orphans = _orphans(trees)
    assert not orphans, f"private names nothing in the package uses: {orphans}"


def test_scan_sees_an_orphaned_helper():
    trees = {"a.py": ast.parse("_LIMIT = 3\ndef _f(n):\n    return _f(n - 1)\n"
                               "def _g():\n    return _LIMIT\nclass _Old:\n    pass\n"),
             "b.py": ast.parse("from a import _g\n")}
    assert _orphans(trees) == ["a.py: _f", "a.py: _Old"]


def _private_imports(tree: ast.Module) -> list[str]:
    """`module._name` for every `_`-prefixed name, dunders aside, that a
    from-import takes from another module."""
    return [f"{node.module or '.'}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    found = _private_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} imports private names of other modules: {found}"


def test_scan_sees_a_private_import():
    tree = ast.parse("from . import __version__\nfrom .a import _f, g\n"
                     "def h():\n    from .b import _K\n    return _K\n")
    assert _private_imports(tree) == ["a._f", "b._K"]


def _json_writes(tree: ast.Module) -> list[str]:
    """Every use of json.dump or json.dumps: as an attribute, or imported by name."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append(f"line {node.lineno}: json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"line {node.lineno}: from json import {alias.name}"
                      for alias in node.names if alias.name in ("dump", "dumps")]
    return found


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "jsonio.py"],
                         ids=lambda p: p.name)
def test_only_jsonio_writes_json(path):
    # jsonio.canonical_dumps is the one writer, so equal objects give equal bytes
    found = _json_writes(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} writes JSON itself: {found}"


def test_scan_sees_a_json_write():
    tree = ast.parse("import json\nfrom json import dumps as d, loads\n"
                     "def f(x, fh):\n    json.dump(x, fh)\n    return json.loads(d(x))\n")
    assert _json_writes(tree) == ["line 2: from json import dumps", "line 4: json.dump"]


def _json_reads(tree: ast.Module) -> list[str]:
    """`where: what` for every import of json and every use of json.load,
    json.loads or json.JSONDecoder; where is the top-level definition it sits
    in, or `module`."""
    found = []
    for top in tree.body:
        where = getattr(top, "name", "module")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads", "JSONDecoder")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append(f"{where}: json.{node.attr}")
            elif isinstance(node, ast.Import):
                found += [f"{where}: import {alias.name}" for alias in node.names
                          if alias.name == "json"]
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [f"{where}: from json import {alias.name}" for alias in node.names]
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_jsonio_reads_json(path):
    # jsonio.loads is the one decoder, so every undecodable input fails one way
    found = _json_reads(ast.parse(path.read_text(encoding="utf-8")))
    expected = ["module: import json", "loads: json.loads"] if path.name == "jsonio.py" else []
    assert found == expected, f"{path.name} reads JSON outside jsonio.loads: {found}"


def test_scan_sees_a_json_read():
    tree = ast.parse("import os, json as j\nfrom json import loads\n"
                     "def f(b):\n    return json.loads(b)\n"
                     "class C:\n    d = json.JSONDecoder()\n    e = json.dumps(d)\n")
    assert _json_reads(tree) == ["module: import json", "module: from json import loads",
                                 "f: json.loads", "C: json.JSONDecoder"]


POOL_MODULES = ("concurrent.futures", "multiprocessing")


def _pool_imports(tree: ast.Module) -> list[str]:
    """`line N: module` for every import statement that reaches a process-pool
    module, naming the first pool module it reaches."""
    return _imports_reaching(tree, POOL_MODULES)


def _imports_reaching(tree: ast.Module, modules: tuple[str, ...]) -> list[str]:
    """`line N: module` for every import statement that reaches one of
    `modules` or a submodule of it, naming the first it reaches."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        hit = next((m for m in names
                    if any(m == p or m.startswith(p + ".") for p in modules)), None)
        if hit is not None:
            found.append(f"line {node.lineno}: {hit}")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_process_pool_is_imported(path):
    # the sweep runs in one process: a pool measured slower at every census order
    found = _pool_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} imports a process pool: {found}"


def test_scan_sees_a_pool_import():
    tree = ast.parse("import os, multiprocessing.pool\nfrom concurrent import futures\n"
                     "def f():\n    from concurrent.futures import ProcessPoolExecutor\n"
                     "import concurrency\nfrom . import multiprocessing\n")
    assert _pool_imports(tree) == ["line 1: multiprocessing.pool", "line 2: concurrent.futures",
                                   "line 4: concurrent.futures"]


# `dataclasses` pulls in `inspect`, and each frozen dataclass execs its
# generated methods: together about a third of `import braceforge.cli`,
# which every CLI process pays.  Records are NamedTuples instead.
IMPORT_TIME_MODULES = ("dataclasses", "inspect")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    found = _imports_reaching(ast.parse(path.read_text(encoding="utf-8")), ("dataclasses",))
    assert not found, f"{path.name} imports dataclasses: {found}"


def test_scan_sees_a_dataclasses_import():
    tree = ast.parse("import os, dataclasses as dc\nfrom dataclasses import field\n"
                     "def f():\n    from dataclasses import replace\n"
                     "import dataclasses_json\nfrom . import dataclasses\n")
    assert _imports_reaching(tree, ("dataclasses",)) == [
        "line 1: dataclasses", "line 2: dataclasses", "line 4: dataclasses"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: modules that the environment's .pth files import are not the package's
    code = ("import sys, braceforge.cli; "
            f"print(sorted(set({IMPORT_TIME_MODULES!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "[]\n", f"import braceforge.cli loads {proc.stdout.strip()}"


FROZEN_DUNDERS = {"__setattr__", "__delattr__", "__repr__", "__eq__", "__hash__"}


def _frozen_dunders(tree: ast.Module) -> list[str]:
    """`Class.name` for every frozen-instance dunder that a class body defines
    or assigns."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names = [item.target.id]
            else:
                continue
            found += [f"{cls.name}.{name}" for name in names if name in FROZEN_DUNDERS]
    return found


def test_frozen_instance_dunders_are_defined_once():
    found = {p.name: set(d) for p in PACKAGE
             if (d := _frozen_dunders(ast.parse(p.read_text(encoding="utf-8"))))}
    assert found == {"groups.py": {f"Frozen.{name}" for name in FROZEN_DUNDERS}}, (
        f"frozen-instance dunders outside groups.Frozen: {found}")


def test_scan_sees_frozen_dunders():
    tree = ast.parse("def __repr__():\n    pass\nclass A:\n    def __eq__(self, o):\n"
                     "        return True\n    __hash__ = None\n    def __init__(self):\n"
                     "        pass\nclass B(A):\n    __repr__: object = object.__repr__\n"
                     "    class C:\n        def __setattr__(self, n, v):\n            pass\n")
    assert _frozen_dunders(tree) == ["A.__eq__", "A.__hash__", "B.__repr__", "C.__setattr__"]


# hand-written classes, each with the reason it is not a NamedTuple
FROZEN_SUBCLASSES = {
    "groups.FiniteGroup": "equality ignores label; cached properties need `__dict__`",
    "braces.SkewBrace": "equality ignores label",
}


def test_every_frozen_subclass_has_a_reason():
    for p in PACKAGE:
        if p.stem != "__main__":  # running it would start the CLI
            importlib.import_module(f"braceforge.{p.stem}")
    from braceforge.groups import Frozen
    found = {f"{c.__module__.removeprefix('braceforge.')}.{c.__qualname__}"
             for c in Frozen.__subclasses__()}
    allowed = set(FROZEN_SUBCLASSES)
    assert found == allowed, (f"Frozen subclasses with no reason: {sorted(found - allowed)}; "
                              f"allowlisted but gone: {sorted(allowed - found)}")


# process-lifetime memos with no bound, each kept for a reason
UNBOUNDED_MEMOS = {
    "census.census_match": "the second descriptor per brace reads it; ROADMAP item 11",
    "census.census_label": "the benchmark probe reads its cache_info; ROADMAP item 5",
    "report._entry_lattice": "one entry per census group",
}


def _unbounded_memos(tree: ast.Module) -> list[str]:
    """Every function decorated with `cache` or with an `lru_cache` not given
    an integer maxsize (bare, called without one, or with `maxsize=None`)."""
    def name(node: ast.expr) -> str | None:
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def unbounded(d: ast.expr) -> bool:
        if name(d) in ("cache", "lru_cache"):
            return True
        if not isinstance(d, ast.Call) or name(d.func) != "lru_cache":
            return False
        size = [*d.args, *(k.value for k in d.keywords if k.arg == "maxsize")]
        return not size or (isinstance(size[0], ast.Constant) and size[0].value is None)
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(unbounded(d) for d in node.decorator_list)]


def test_every_unbounded_memo_has_a_reason():
    found = {f"{p.stem}.{name}" for p in PACKAGE
             for name in _unbounded_memos(ast.parse(p.read_text(encoding="utf-8")))}
    allowed = set(UNBOUNDED_MEMOS)
    assert found == allowed, (f"memos with no bound: {sorted(found - allowed)}; "
                              f"allowlisted but bounded or gone: {sorted(allowed - found)}")


def test_scan_sees_an_unbounded_memo():
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                     "@cache\ndef a(): pass\n@lru_cache\ndef b(): pass\n"
                     "@lru_cache(maxsize=None)\ndef c(): pass\n"
                     "@functools.lru_cache(None)\ndef d(): pass\n@lru_cache()\ndef e(): pass\n"
                     "@lru_cache(maxsize=1)\ndef f(): pass\n@functools.lru_cache(4)\ndef g(): pass\n"
                     "@property\ndef h(): pass\nclass C:\n    @functools.cache\n"
                     "    def i(self): pass\n")
    assert _unbounded_memos(tree) == ["a", "b", "c", "d", "e", "i"]


CHILD = ROOT / "perfbench" / "child.py"
CALLERS = [CHILD, ROOT / "tests" / "test_acceptance.py"]

# public names whose only callers are unit tests, each kept for a reason
UNCALLED_PUBLIC = {
    "classify.direct_factor_witness": "waits for ROADMAP item 6",
}


def _public_definitions(tree: ast.Module):
    """(name, node) for every public function and class defined at module
    level, and (`Class.method`, node) for every public method of such a class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def _uncalled(package: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """`module.name` for every public definition nothing calls: no reference
    in the package outside the definition itself and `__init__`'s re-export,
    and none, as a name or a string, in the callers."""
    refs = sum((_references(t) for m, t in package.items() if m != "__init__.py"), Counter())
    for tree in callers:
        refs += _references(tree)
        refs.update(n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str))
    found = []
    for module, tree in package.items():
        for name, node in _public_definitions(tree):
            short = name.rpartition(".")[2]
            if refs[short] - _references(node)[short] == 0:
                found.append(f"{module.removesuffix('.py')}.{name}")
    return found


def test_every_public_name_has_a_caller_or_a_reason():
    package = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE}
    callers = [ast.parse(p.read_text(encoding="utf-8")) for p in CALLERS]
    found, allowed = set(_uncalled(package, callers)), set(UNCALLED_PUBLIC)
    assert found == allowed, (f"only unit tests call {sorted(found - allowed)}; "
                              f"allowlisted but called or gone: {sorted(allowed - found)}")


def test_scan_sees_an_uncalled_public_name():
    package = {"a.py": ast.parse("def f():\n    return f()\nclass C:\n"
                                 "    def used(self):\n        return 1\n"
                                 "    def unused(self):\n        return self.used()\n"
                                 "    def _private(self):\n        pass\n"
                                 "def g():\n    return 2\ndef h():\n    return C\n"),
               "__init__.py": ast.parse("from .a import f, g\n__all__ = ['f', 'g']\n")}
    callers = [ast.parse("import braceforge as bf\nbf.g()\ngetattr(bf, 'h')\n")]
    assert _uncalled(package, callers) == ["a.f", "a.C.unused"]


def _attribute_reads(tree: ast.Module, name: str) -> set[str]:
    """Every attribute read directly off the bare name `name`."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == name and isinstance(node.ctx, ast.Load)}


def _package_modules(tree: ast.Module) -> set[str]:
    """Names bound by `from braceforge import NAME`."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "braceforge"
            for alias in node.names}


def test_benchmark_child_reads_only_public_names():
    # the benchmark child reads `bf.NAME` and `module.NAME` without a fallback,
    # so a name missing here would crash its rounds instead of failing a test
    import importlib

    import braceforge
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    reads = _attribute_reads(tree, "bf") | _attribute_reads(tree, "braceforge")
    assert {"census", "is_good", "hg_descriptor", "verify_witness"} <= reads
    missing = sorted(reads - set(braceforge.__all__))
    assert not missing, f"the benchmark child reads names braceforge does not export: {missing}"
    modules = _package_modules(tree)
    assert "serialize" in _attribute_reads(tree, "jsonio") and "jsonio" in modules
    absent = [f"{m}.{attr}" for m in sorted(modules) for attr in sorted(_attribute_reads(tree, m))
              if not hasattr(importlib.import_module(f"braceforge.{m}"), attr)]
    assert not absent, f"the benchmark child reads names that do not exist: {absent}"


def test_scan_sees_attribute_reads():
    tree = ast.parse("from braceforge import cli\nbf.x = 1\ny = bf.a(bf.b.c)\n"
                     "getattr(bf, 'd', None)\ncli.main([])\n")
    assert _attribute_reads(tree, "bf") == {"a", "b"}
    assert _package_modules(tree) == {"cli"}


def _golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "perfbench" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["theorem-sweep", "iso-census", "hg-atlas", "cli-cache"])
def test_traced_benchmark_round_reports_every_metric(tmp_path, workload):
    # the benchmark drops a probed metric it cannot find from its JSON line and
    # still exits 0, so a name its child reads (census_label.cache_info, say)
    # must not go missing unnoticed
    proc = subprocess.run([sys.executable, str(CHILD), workload, "0", "1", "1", str(tmp_path)],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["trace"]["absent"] == []
    if workload != "cli-cache":  # its items are CLI processes the parent runs
        golden = _golden()
        assert out["records"]
        assert golden.check_items(golden.load(), workload, out["records"]) == []
