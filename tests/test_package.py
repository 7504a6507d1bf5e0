"""The package's public names, and what each CLI command loads.

`braceforge/__init__.py` imports every module but `constructions` eagerly
and serves the seven construction names on first access (PEP 562);
`report` imports `hashlib`, which loads OpenSSL's `_hashlib`, only when it
hashes.  So a command that builds no example and hashes nothing loads
neither.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braceforge
from braceforge import constructions
from braceforge.census import census as census_function

ROOT = Path(__file__).resolve().parent.parent
CONSTRUCTIONS = ("brace_order4_nontrivial", "example_c2cubed", "example_cn_even",
                 "example_p_odd", "example_pq", "example_q8", "least_kappa")
LAZY_MODULES = ("hashlib", "braceforge.constructions")


def _loaded_after(*argvs: list[str]) -> dict[str, bool]:
    """Run `main` on each argv in one fresh interpreter, each with exit code 0,
    and say which of LAZY_MODULES it loaded.  -S: modules that the
    environment's .pth files import are not the package's."""
    code = ("import contextlib, io, json, sys\n"
            "from braceforge.cli import main\n"
            f"for argv in {[list(a) for a in argvs]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            f"print(json.dumps({{m: m in sys.modules for m in {LAZY_MODULES!r}}}))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_commands_that_build_and_hash_nothing_load_neither():
    loaded = _loaded_after(["classify", "S3", "--json"], ["brace", "enumerate", "D8", "--json"],
                           ["verify", "theorem", "--json"], ["group", "list"], ["--version"])
    assert loaded == {"hashlib": False, "braceforge.constructions": False}


@pytest.mark.parametrize("argv, module", [
    (["example", "q8"], "braceforge.constructions"),
    (["hg", "report", "trivial:S3", "--json"], "hashlib"),
], ids=["example", "hg-report"])
def test_a_command_loads_what_it_runs(argv, module):
    assert _loaded_after(argv)[module]


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from braceforge import *", namespace)
    assert set(braceforge.__all__) <= set(namespace)


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_construction_names_are_the_constructions_functions(name):
    assert name in braceforge.__all__
    assert getattr(braceforge, name) is getattr(constructions, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(braceforge, "no_such_name")
    assert not hasattr(braceforge, "example_q9")


def test_census_is_the_function_not_the_submodule():
    assert braceforge.census is census_function
    assert [e.label for e in braceforge.census(4)] == ["C1", "C2", "C3", "C4", "C2xC2"]
