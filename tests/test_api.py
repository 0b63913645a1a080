"""Contract between kronrec's modules and the names others rely on.

The benchmark tracer rebinds a fixed list of kronrec functions by name and
fails on a missing one, so removing or renaming a traced function breaks
the benchmark; every `__all__` entry must also resolve, so a removed
function cannot leave a dangling export, and must have a caller in the
program, its scripts or its benchmark, so the public surface holds no member
that only the tests use.  The package has no runtime dependency: importing
the command line loads no mpmath.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kronrec

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "kronbench" / "tracer.py"
MODULES = ["kronrec"] + [f"kronrec.{info.name}" for info in pkgutil.iter_modules(kronrec.__path__)]


def _tracer_layers(monkeypatch):
    # load without writing bytecode next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_kronbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_layer_resolves(monkeypatch):
    layers = _tracer_layers(monkeypatch)
    assert layers
    for mod_name, fns in layers.items():
        module = importlib.import_module(f"kronrec.{mod_name}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"kronrec.{mod_name}.{fn}"


@pytest.mark.parametrize("mod_name", MODULES)
def test_every_export_resolves(mod_name):
    module = importlib.import_module(mod_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{mod_name}.{name}"


def _caller_lines() -> list[str]:
    """Lines of every program, script and benchmark file, less each `__all__` list."""
    files = [p for p in sorted((ROOT / "src" / "kronrec").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "kronbench").glob("*.py"))
    found = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in getattr(node, "targets", ())):
                lines[node.lineno - 1 : node.end_lineno] = []
        found += lines
    return found


def test_every_export_has_a_caller_outside_the_tests():
    lines = _caller_lines()
    unused = []
    for mod_name in MODULES:
        for name in getattr(importlib.import_module(mod_name), "__all__", ()):
            if name.startswith("__"):  # __version__ is package metadata, not a member
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
            if not any(word.search(line) and not own.match(line) for line in lines):
                unused.append(f"{mod_name}.{name}")
    assert unused == []


def test_command_line_imports_no_mpmath():
    src = str(Path(kronrec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import kronrec.cli, sys; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
