"""Every name a module imports is used in that module, and every
top-level library name, public or private, public method of a library
class and field of a library dataclass is read outside tests/; every
name tests/oracles.py defines or imports, and every helper, constant and
import of a tests/test_*.py, is read too, so a retired oracle or a
folded test leaves no orphan.  The library has no construct that makes
a float (test_library_is_exact).

Parses the library modules (all but the package ``__init__``) with
``ast``; a name counts as used when it is read anywhere in the module,
including inside string annotations.  A library name counts as read when
the library or the benchmark load it, or access an attribute of that
name, outside its own definition.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "aspoly").glob("*.py") if p.name != "__init__.py")


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
    assert {p.name for p in LIBRARY} >= {"complexes.py", "stackgen.py"}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


READERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))


def library_definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level def, class or
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


def unread_library_names(private: bool) -> dict[str, set[str]]:
    """Per library module, its private (or public) names of library_definitions
    that nothing outside tests/ reads outside their own definition."""
    read_at: dict[str, list[tuple[Path, int]]] = {}
    for path in READERS:
        for name, line in reads(ast.parse(path.read_text(), filename=str(path))):
            read_at.setdefault(name, []).append((path, line))
    unread: dict[str, set[str]] = {}
    for path in LIBRARY:
        for name, first, last in library_definitions(ast.parse(path.read_text())):
            if name.startswith("_") != private:
                continue
            outside = [
                (p, line)
                for p, line in read_at.get(name, [])
                if not (p == path and first <= line <= last)
            ]
            if not outside:
                unread.setdefault(path.stem, set()).add(name)
    return unread


def test_every_public_name_is_read_outside_tests():
    unread = unread_library_names(private=False)
    assert not unread, f"public names nothing outside tests/ reads: {unread}"


def test_every_private_name_is_read_outside_tests():
    """Each private top-level function, class and constant of the library
    is read by the library or the benchmark, so a helper that only tests
    call is dead code."""
    unread = unread_library_names(private=True)
    assert not unread, f"private names nothing outside tests/ reads: {unread}"


def dataclass_fields(tree: ast.Module):
    """(class name, field name, whether the class calls asdict(self)) of
    each field of a dataclass, nested ones included."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            as_dict = any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "asdict"
                and [a.id for a in n.args if isinstance(a, ast.Name)] == ["self"]
                for n in ast.walk(node)
            )
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    yield node.name, member.target.id, as_dict


def test_every_dataclass_field_is_read():
    """Each field of a library dataclass is read as an attribute in the
    library or the benchmark.

    Fields are matched by attribute name alone, whatever the object, so
    the gate is lenient: a field passes when an attribute of the same name
    is read anywhere, on any class.  An unread field named ``d`` or
    ``params`` would pass, as those names are read on many objects; the
    public-name test above is lenient the same way for methods.  A class
    that calls ``asdict(self)`` reads every one of its fields there.
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
        for cls, name, as_dict in dataclass_fields(ast.parse(path.read_text()))
        if not as_dict and name not in read
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


def name_reads(tree: ast.Module) -> tuple[list[tuple[str, int]], dict[str, set[str]]]:
    """(name, line) of each name loaded, and per module the names read from
    it: imported from it and loaded, or as module.<name>."""
    nodes = list(ast.walk(tree))
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in nodes
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    loads, from_module = [], {}
    for n in nodes:
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            loads.append((n.id, n.lineno))
            if n.id in imported:
                module, name = imported[n.id]
                from_module.setdefault(module, set()).add(name)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            from_module.setdefault(n.value.id, set()).add(n.attr)
    return loads, from_module


def test_every_oracle_name_is_read():
    """Each top-level name of tests/oracles.py, and each top-level helper,
    constant and import of a tests/test_*.py, is read, so that a retired
    oracle or a folded test leaves no orphan.

    The test functions and Test classes pytest collects are exempt.  A name
    counts as read when its module loads it outside its own definition, or
    another test module reads it from that module; a name of oracles.py
    also counts when a CI workflow names it (CI runs python -c snippets
    that import it).
    """
    paths = [ORACLES, *sorted((ROOT / "tests").glob("test_*.py"))]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    reads = {path: name_reads(tree) for path, tree in trees.items()}
    workflows = " ".join(p.read_text() for p in sorted((ROOT / ".github" / "workflows").glob("*.yml")))
    unread = []
    for path, tree in trees.items():
        spans = {
            name: (first, last)
            for name, first, last in top_level_names(tree)
            if not name.startswith(("test", "Test"))
        }
        read = {
            name
            for name, line in reads[path][0]
            if name in spans and not spans[name][0] <= line <= spans[name][1]
        }
        for other, (_, from_module) in reads.items():
            if other != path:
                read |= from_module.get(path.stem, set())
        if path == ORACLES:
            read |= {name for name in spans if re.search(rf"\b{name}\b", workflows)}
        unread += [f"{path.name}: {name}" for name in sorted(set(spans) - read)]
    assert not unread, f"top-level names in tests/ nothing reads: {unread}"


# The math functions that take and return integers only.
EXACT_MATH = {"comb", "gcd", "lcm"}


def inexact_uses(tree: ast.Module):
    """(line, what) of each float literal, true division, read of float or
    round, and math name outside EXACT_MATH."""
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Name) and node.id in ("float", "round"):
            yield node.lineno, node.id
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in EXACT_MATH
        ):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in EXACT_MATH:
                    yield node.lineno, f"math.{alias.name}"


def test_library_is_exact():
    """Every sign decision stays exact: no module of src/aspoly writes a
    float literal, divides with / or /=, reads float or round (called or
    passed), or uses a math name other than comb, gcd and lcm."""
    found = sorted(
        f"{path.name}:{line}: {what}"
        for path in sorted((ROOT / "src" / "aspoly").glob("*.py"))
        for line, what in inexact_uses(ast.parse(path.read_text(), filename=str(path)))
    )
    assert not found, f"inexact constructs in the library: {found}"
