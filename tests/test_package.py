"""The package root: its exports, and what importing it loads."""

import ast
import glob
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

import knotfold
from knotfold.cli import main

from conftest import FIXTURE_FILE

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
PERFBENCH = os.path.join(ROOT, "perfbench")
PACKAGE = os.path.dirname(os.path.abspath(knotfold.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))

# Runs in a fresh interpreter: argv is the fixture file and a scratch
# directory holding an analyze bundle in "bundle".  Prints one JSON line
# mapping each step to the heavy modules loaded after it.
IMPORT_BUDGET = """
import json, os, sys

from knotfold.cli import main

HEAVY = ("numpy", "knotfold.filtration", "knotfold.pca",
         "concurrent.futures.process")
fixture, tmp = sys.argv[1:]
cache = os.path.join(tmp, "cache.txt")
loaded = {"import": [m for m in HEAVY if m in sys.modules]}
for args in (
        ["ingest", fixture],
        ["compute", fixture, "--cache", cache, "--workers", "1"],
        ["generate", "--family", "torus", "--max-crossings", "9",
         "--cache", cache],
        ["export", "--what", "spectrum", "--out",
         os.path.join(tmp, "bundle")],
        ["analyze", fixture, "--out", os.path.join(tmp, "out")]):
    main(args, standalone_mode=False)
    loaded[args[0]] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(loaded))
"""


# Runs in a fresh interpreter: argv is the fixture file and a scratch
# directory.  Prints one JSON line mapping each step to the hashing
# modules loaded after it; _hashlib maps OpenSSL's libcrypto.
NO_OPENSSL = """
import json, os, sys

from knotfold.cli import main

fixture, tmp = sys.argv[1:]
HASHING = ("hashlib", "_hashlib")
out = os.path.join(tmp, "bundle")
loaded = {"import": [m for m in HASHING if m in sys.modules]}
for args in (
        ["analyze", "--family", "torus", "--max-crossings", "9",
         "--cache", os.path.join(tmp, "cache.txt"), "--out", out],
        ["export", "--what", "projection", "--out", out],
        ["ingest", fixture]):
    main(args, standalone_mode=False)
    loaded[args[0]] = [m for m in HASHING if m in sys.modules]
print(json.dumps(loaded))
"""


def _run_python(code, *args):
    src = os.path.dirname(os.path.dirname(knotfold.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_budget(tmp_path):
    """Only analyze loads numpy, the PCA stack and the process pool."""
    result = CliRunner().invoke(
        main, ["analyze", FIXTURE_FILE, "--out", str(tmp_path / "bundle")])
    assert result.exit_code == 0, result.output
    out = _run_python(IMPORT_BUDGET, FIXTURE_FILE, str(tmp_path))
    loaded = json.loads(out.splitlines()[-1])
    assert "numpy" in loaded.pop("analyze")
    assert loaded == {"import": [], "ingest": [], "compute": [],
                      "generate": [], "export": []}


def test_family_runs_load_no_openssl(tmp_path):
    """Importing the CLI, a family analyze (with a --cache it leaves
    untouched) and export take no sha256, so they load neither hashlib
    nor OpenSSL; ingest, which digests its dataset, loads both.  Unlike
    test_import_budget, the steps before ingest run first here, so its
    load cannot hide theirs."""
    out = _run_python(NO_OPENSSL, FIXTURE_FILE, str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == {
        "import": [], "analyze": [], "export": [],
        "ingest": ["hashlib", "_hashlib"]}


def test_root_exports():
    for name in knotfold.__all__:
        obj = getattr(knotfold, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj
        assert name in dir(knotfold)
    with pytest.raises(AttributeError, match="no_such_export"):
        knotfold.no_such_export


def test_readme_library_trefoil():
    """The README's Library example, up to the trefoil, in a fresh
    interpreter, so its filtration and PCA imports load on first use."""
    with open(README) as fh:
        block = re.search(r"## Library\s+```python\n(.*?)```", fh.read(),
                          re.S).group(1)
    trefoil = block[:block.index("\n", block.index("print(p.to_text())"))]
    assert _run_python(trefoil) == "-1*q^4 + 1*q^3 + 1*q^1\n"


def test_benchmark_hooks_resolve():
    """Every function perfbench/tracer.py wraps is where Tracer.install
    looks it up: a module attribute, or a key of the class __dict__."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for owner_path, attr, *_ in tracer.TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            found = attr in getattr(owner, class_name).__dict__
        else:
            found = getattr(owner, attr, None) is not None
        if not found:
            missing.append(f"{owner_path}.{attr}")
    assert not missing


def test_benchmark_pool_reproduces():
    """perfbench/dtgen.py rebuilds the committed DT pool from the family
    diagram builders: every slot's id, crossing count and variant codes."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_dtgen", os.path.join(PERFBENCH, "dtgen.py"))
    dtgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dtgen)
    built = [(sid, c, variants)
             for sid, c, variants in dtgen.build_pool_codes()]
    committed = [(slot["id"], slot["crossings"],
                  [v["code"] for v in slot["variants"]])
                 for slot in dtgen.load_pool()["slots"]]
    assert built == committed


def test_benchmark_imports_resolve():
    """Every name a perfbench script imports from the package exists."""
    missing = []
    for name in sorted(os.listdir(PERFBENCH)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PERFBENCH, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "knotfold"):
                module = importlib.import_module(node.module)
                missing += [f"{name}: {node.module}.{alias.name}"
                            for alias in node.names
                            if not hasattr(module, alias.name)]
    assert not missing


def test_benchmark_calls_bind():
    """The calls perfbench/gate.py and perfbench/capture.py make to
    ingest, compute_batch and InvariantCache fit their signatures."""
    from knotfold.pipeline import InvariantCache, compute_batch, ingest

    called = {"ingest": ingest, "compute_batch": compute_batch,
              "InvariantCache": InvariantCache}
    seen = set()
    for name in ("gate.py", "capture.py"):
        with open(os.path.join(PERFBENCH, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in called):
                inspect.signature(called[node.func.id]).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords})
                seen.add(node.func.id)
    assert seen == set(called)


def _unused_imports(tree):
    """Names a module imports but never reads: neither as a name in its
    code or annotations (a TYPE_CHECKING import included) nor as an
    entry of its ``__all__``."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant)
                        and isinstance(c.value, str))
    return [(line, name) for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    """Every name imported in the package and the tests is used."""
    unused = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))
                       + glob.glob(os.path.join(TESTS, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        unused += [f"{os.path.relpath(path, ROOT)}:{line} {name}"
                   for line, name in _unused_imports(tree)]
    assert not unused
