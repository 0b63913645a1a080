"""Contract between kronrec's modules and the names others rely on.

The benchmark tracer rebinds a fixed list of kronrec functions by name and
fails on a missing one, so removing or renaming a traced function breaks
the benchmark; every `__all__` entry must also resolve, so a removed
function cannot leave a dangling export, and must have a caller in the
program, its scripts or its benchmark (code, not a comment or docstring), so
the public surface holds no member that only the tests use.  The same holds
one level down: every public method, property and dataclass field of a
public class must be read as an attribute there.  The package has no runtime
dependency: importing the command line loads no mpmath.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import os
import pkgutil
import subprocess
import sys
import tokenize
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


def _caller_names() -> set[str]:
    """Names that the program, its scripts and its benchmark use, outside each `__all__` list.

    A use is a NAME token other than the one right after `def` or `class`, or a
    string literal whose whole value is the name (the tracer's `LAYERS`); a
    name that only a comment or a docstring mentions is not used.
    """
    files = [p for p in sorted((ROOT / "src" / "kronrec").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "kronbench").glob("*.py"))
    used = set()
    for path in files:
        text = path.read_text(encoding="utf-8")
        exports = set()
        for node in ast.parse(text).body:
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in getattr(node, "targets", ())):
                exports.update(range(node.lineno, node.end_lineno + 1))
        before = None
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.start[0] in exports:
                continue
            if tok.type == tokenize.NAME and before not in ("def", "class"):
                used.add(tok.string)
            elif tok.type == tokenize.STRING:
                with contextlib.suppress(ValueError):  # an f-string is no literal
                    used.add(ast.literal_eval(tok.string))
            before = tok.string
    return used


def _read_attributes() -> set[str]:
    """Attribute names that the program, its scripts and its benchmark read (`x.name`).

    The match is by name alone, so a result field such as `.m` counts as read
    wherever any object's `.m` is, `args.m` included.
    """
    files = sorted((ROOT / "src" / "kronrec").glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "kronbench").glob("*.py"))
    return {
        node.attr
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _public_members():
    """(module.Class.member, member) per public method, property and field of a public class."""
    for path in sorted((ROOT / "src" / "kronrec").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{name}", name


def test_every_export_has_a_caller_outside_the_tests():
    used = _caller_names()
    unused = [
        f"{mod_name}.{name}"
        for mod_name in MODULES
        for name in getattr(importlib.import_module(mod_name), "__all__", ())
        # __version__ is package metadata, not a member
        if not name.startswith("__") and name not in used
    ]
    read = _read_attributes()
    unused += [member for member, name in _public_members() if name not in read]
    assert unused == []


def test_command_line_loads_every_traced_module(monkeypatch):
    """The tracer rebinds its layers in the modules that `import kronrec.cli` loaded."""
    names = [f"kronrec.{mod_name}" for mod_name in _tracer_layers(monkeypatch)]
    src = str(Path(kronrec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import kronrec.cli, sys; missing = set({names!r}) - set(sys.modules); assert not missing, missing"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_command_line_imports_no_mpmath():
    src = str(Path(kronrec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import kronrec.cli, sys; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
