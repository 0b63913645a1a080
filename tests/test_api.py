"""Contract between kronrec's modules and the names others rely on.

The benchmark tracer rebinds a fixed list of kronrec functions by name and
fails on a missing one, so removing or renaming a traced function breaks
the benchmark; every `__all__` entry must also resolve, so a removed
function cannot leave a dangling export, and must have a caller in the
program, its scripts or its benchmark (code, not a comment or docstring), so
the public surface holds no member that only the tests use.  The same holds
one level down: every public method, property and record field of a
public class must be read as an attribute there, and every module-level
private function and class must be used by the program outside its own
definition.  The package has no runtime dependency: importing the command
line loads no mpmath.
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


def _name_uses(files):
    """(path, line, name) for each use of a name in files, outside each `__all__`
    list and each import statement.

    A use is a NAME token other than the one right after `def` or `class`, or a
    string literal whose whole value is the name (the tracer's `LAYERS`); a
    name that only a comment, a docstring or an import mentions is not used.
    """
    for path in files:
        text = path.read_text(encoding="utf-8")
        skipped = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) or any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in getattr(node, "targets", ())
            ):
                skipped.update(range(node.lineno, node.end_lineno + 1))
        before = None
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.start[0] in skipped:
                continue
            if tok.type == tokenize.NAME and before not in ("def", "class"):
                yield path, tok.start[0], tok.string
            elif tok.type == tokenize.STRING:
                with contextlib.suppress(ValueError):  # an f-string is no literal
                    yield path, tok.start[0], ast.literal_eval(tok.string)
            before = tok.string


def _caller_names() -> set[str]:
    """Names that the program, its scripts and its benchmark use (see `_name_uses`)."""
    files = [p for p in sorted((ROOT / "src" / "kronrec").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "kronbench").glob("*.py"))
    return {name for _, _, name in _name_uses(files)}


def _read_attributes() -> set[str]:
    """Attribute reads (`x.name`) in the program, its scripts and its benchmark.

    A read off `args`, the parsed command line, echoes an input and counts for
    nothing.  A read of `self.name` yields `module.Class.name` for the class
    whose body holds it, so it keeps only that class's member.  Every other
    read yields the bare name, which keeps every member of that name.
    """
    files = sorted((ROOT / "src" / "kronrec").glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "kronbench").glob("*.py"))
    read = set()

    def visit(node, stem, owner):
        if isinstance(node, ast.ClassDef):
            owner = f"{stem}.{node.name}."
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            if base == "self":
                read.add(owner + node.attr)
            elif base != "args":
                read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, stem, owner)

    for path in files:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return read


def _public_members():
    """(module.Class.member, member) per public method, property and field of a public class.

    A record that checks its fields in `__new__` declares them on a private
    named-tuple base in its own module; that base's members count as the
    public class's.
    """
    for path in sorted((ROOT / "src" / "kronrec").glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        private = {node.name: node for node in body if isinstance(node, ast.ClassDef) and node.name.startswith("_")}
        for node in body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            bases = [private[base.id] for base in node.bases if isinstance(base, ast.Name) and base.id in private]
            for item in [item for base in bases for item in base.body] + node.body:
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
    unused += [member for member, name in _public_members() if not {name, member} & read]
    assert unused == []


def test_every_private_helper_has_a_caller_in_the_program():
    """A module-level private function or class that only the tests use belongs in the tests."""
    files = sorted((ROOT / "src" / "kronrec").glob("*.py"))
    uses = {}
    for path, line, name in _name_uses(files):
        uses.setdefault(name, []).append((path, line))
    unused = []
    for path in files:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in own for where, line in uses.get(name, ())):
                unused.append(f"{path.stem}.{name}")
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


def test_command_line_imports_no_dataclasses():
    """The result records are named tuples, so starting the command line skips dataclasses' imports."""
    src = str(Path(kronrec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import kronrec.cli, sys; loaded = {'dataclasses', 'inspect'} & set(sys.modules); assert not loaded, loaded"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
