"""Every name a module imports is used in that module, and every public
library name, public method of a library class and field of a library
dataclass is read outside tests/; every name tests/oracles.py defines or
imports is read too, so a retired oracle does not linger unused.

Parses the library modules (all but the package ``__init__``) and the
scripts with ``ast``; a name counts as used when it is read anywhere in
the module, including inside string annotations.  A public name counts
as read when the library, the scripts or the benchmark load it, or
access an attribute of that name, outside its own definition.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "aspoly").glob("*.py") if p.name != "__init__.py")
MODULES = LIBRARY + sorted((ROOT / "scripts").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``__future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                expr = ast.parse(n.value, mode="eval")
                names |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
    return names


def test_modules_found():
    assert {p.name for p in MODULES} >= {"complexes.py", "stackgen.py", "shelling_experiment.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def public_definitions(tree: ast.Module):
    """(name, first line, last line) of each public top-level def, class or
    assignment, and of each public method of a top-level class."""
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
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not member.name.startswith("_"):
                        yield member.name, member.lineno, member.end_lineno


def reads(tree: ast.Module):
    """(name, line) of each name loaded or attribute accessed."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id, n.lineno
        elif isinstance(n, ast.Attribute):
            yield n.attr, n.lineno


def test_every_public_name_is_read_outside_tests():
    read_at: dict[str, list[tuple[Path, int]]] = {}
    for path in READERS:
        for name, line in reads(ast.parse(path.read_text(), filename=str(path))):
            read_at.setdefault(name, []).append((path, line))
    unread: dict[str, set[str]] = {}
    for path in LIBRARY:
        for name, first, last in public_definitions(ast.parse(path.read_text())):
            outside = [
                (p, line)
                for p, line in read_at.get(name, [])
                if not (p == path and first <= line <= last)
            ]
            if not outside:
                unread.setdefault(path.stem, set()).add(name)
    assert not unread, f"public names nothing outside tests/ reads: {unread}"


def dataclass_fields(tree: ast.Module):
    """(class name, field name) of each field of a dataclass, nested ones included."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    yield node.name, member.target.id


def test_every_dataclass_field_is_read():
    """Each field of a library dataclass is read as an attribute in the
    library, the scripts or the benchmark.

    Fields are matched by attribute name alone, whatever the object, so
    the gate is lenient: a field passes when an attribute of the same name
    is read anywhere, on any class.  An unread field named ``d`` or
    ``params`` would pass, as those names are read on many objects; the
    public-name test above is lenient the same way for methods.
    """
    read = {
        n.attr
        for path in READERS
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = sorted(
        f"{path.stem}.{cls}.{name}"
        for path in LIBRARY
        for cls, name in dataclass_fields(ast.parse(path.read_text()))
        if name not in read
    )
    assert not unread, f"dataclass fields nothing outside tests/ reads: {unread}"


ORACLES = ROOT / "tests" / "oracles.py"


def top_level_names(tree: ast.Module):
    """(name, first line, last line) of each top-level def, class, assignment and import."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        else:
            continue
        for name in names:
            yield name, node.lineno, node.end_lineno


def oracle_reads(tree: ast.Module) -> set[str]:
    """Names a test module reads from oracles: imported from it and loaded, or as oracles.<name>."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "oracles"
        for alias in node.names
    }
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in imported:
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "oracles":
            out.add(n.attr)
    return out


def test_every_oracle_name_is_read():
    """Each top-level name of tests/oracles.py is loaded in oracles.py outside
    its own definition, read from oracles by another test module, or named
    in a CI workflow (which runs python -c snippets that import it)."""
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    spans = {name: (first, last) for name, first, last in top_level_names(tree)}
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in spans:
            first, last = spans[n.id]
            if not first <= n.lineno <= last:
                read.add(n.id)
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path != ORACLES:
            read |= oracle_reads(ast.parse(path.read_text(), filename=str(path)))
    workflows = " ".join(p.read_text() for p in sorted((ROOT / ".github" / "workflows").glob("*.yml")))
    read |= {name for name in spans if re.search(rf"\b{name}\b", workflows)}
    unread = sorted(set(spans) - read)
    assert not unread, f"tests/oracles.py names nothing reads: {unread}"
