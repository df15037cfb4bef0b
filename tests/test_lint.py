"""Static checks on the package source, read with ``ast``: no unused imports,
no unused private names, ``__all__`` names exactly the package's public
bindings, and each public name has a caller in the package."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import cycle_rees

PACKAGE = Path(cycle_rees.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(declared_all(tree))  # a re-export is a use
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_all_matches_public_bindings():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")}
    assert len(cycle_rees.__all__) == len(set(cycle_rees.__all__)), "__all__ repeats a name"
    assert set(cycle_rees.__all__) == public
    assert declared_all(tree) == cycle_rees.__all__


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private module-level name and private method a module defines,
    with its line; dunder names are the language's, not the module's."""
    out: dict[str, int] = {}

    def add(name: str, line: int) -> None:
        if name.startswith("_") and not name.endswith("__"):
            out[name] = line

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            add(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    add(target.id, node.lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    add(item.name, item.lineno)
    return out


def loaded_names(tree: ast.Module) -> set[str]:
    """Each name a module reads, bare or as an attribute."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_no_unused_private_names():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    used: set[str] = set()
    for tree in trees.values():
        used.update(imported_names(tree))
        used.update(loaded_names(tree))
    unused = {
        f"{name}:{line}": private
        for name, tree in trees.items()
        for private, line in private_definitions(tree).items()
        if private not in used
    }
    assert not unused, f"private names defined but never referenced: {unused}"


# Public names, and public methods of public classes as Class.method, with no
# caller in the package, each with the reason it stays.
UNCALLED_PUBLIC = {
    "conjecture_fiber_iff_divides": "states the paper's conjecture",
    "fiber_ideal_closed_form": "states the paper's theorem on the fiber ideal",
    "parse_polynomial": "the inverse of Polynomial.to_text",
    "Polynomial.block_degrees": "the bidegree probe that classifying by the bidegrees of J's generators needs",
    "HilbertSeries.is_palindromic": "the Gorenstein witness of the t = n-2 series",
}

# Public method names that two or more public classes define, each with the
# reason every one of those methods has a caller: a read of the bare name
# cannot tell which class's method it calls.
SHARED_METHOD_NAMES = {
    "to_json": "the CLI prints both ClassRecord.to_json and HilbertSeries.to_json",
}


def public_methods() -> dict[str, str]:
    """Each public method of a class in ``__all__``, as Class.method, with its name."""
    out: dict[str, str] = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in cycle_rees.__all__:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out[f"{node.name}.{item.name}"] = item.name
    return out


def test_public_names_have_a_package_caller():
    """A public name or method that only tests call is a test-only route in
    the API.  A method counts as called when any attribute of its name is read,
    whatever the object, so a name that two public classes define must be
    listed in SHARED_METHOD_NAMES with its reason."""
    loaded: set[str] = set()
    for path in MODULES:
        if path.name != "__init__.py":
            loaded.update(loaded_names(ast.parse(path.read_text())))
    methods = public_methods()
    counts = Counter(methods.values())
    shared = {name for name, count in counts.items() if count > 1}
    assert shared == set(SHARED_METHOD_NAMES), f"shared method names to list or unlist: {shared ^ set(SHARED_METHOD_NAMES)}"
    uncalled = set(cycle_rees.__all__) - loaded
    uncalled |= {qualified for qualified, name in methods.items() if name not in loaded}
    assert uncalled <= set(UNCALLED_PUBLIC), f"public names no package code calls: {uncalled - set(UNCALLED_PUBLIC)}"
    assert uncalled == set(UNCALLED_PUBLIC), f"allowed names that now have a caller: {set(UNCALLED_PUBLIC) - uncalled}"


def calls_of(node: ast.AST, name: str) -> list[ast.Call]:
    """The calls of ``name`` or ``<module>.name`` in an expression or module."""
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == name
    ]


def test_no_global_statement_and_no_module_budget():
    """A module-level value is shared by every caller in the process: no
    function rebinds one, and no module holds a Budget, whose steps would run
    on from call to call."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    rebound = [
        f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree) if isinstance(node, ast.Global)
    ]
    assert not rebound, f"global statement: {rebound}"
    budgets = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None
        and calls_of(node.value, "Budget")
    ]
    assert not budgets, f"module-level Budget: {budgets}"


def test_package_reads_no_environment():
    """The package takes its settings from its arguments alone: no module
    reads ``os.environ`` or ``os.getenv``.  Test-only switches such as
    ``CYCLE_REES_STRETCH`` are read by the tests."""
    names = ("environ", "getenv")
    reads = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.ImportFrom) and node.module == "os" and any(a.name in names for a in node.names))
    ]
    assert not reads, f"environment read: {reads}"


def test_only_orders_builds_an_order():
    """One owner for the order rule: every other module takes its orders from
    the functions of ``orders``, never from stages it spells out itself."""
    built = [
        f"{path.name}:{call.lineno}"
        for path in MODULES
        if path.name != "orders.py"
        for call in calls_of(ast.parse(path.read_text()), "OrderSpec")
    ]
    assert not built, f"OrderSpec built outside orders.py: {built}"


def test_ideal_functions_of_rees_return_an_ideal():
    """One shape for a constructed ideal: each public ``*_ideal`` function of
    ``rees`` and ``sym_relations`` is annotated to return an ``Ideal``."""
    made = {
        node.name: ast.unparse(node.returns) if node.returns else None
        for node in ast.parse((PACKAGE / "rees.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and (node.name.endswith("_ideal") or node.name == "sym_relations")
    }
    assert "sym_relations" in made and "artinian_reduction_ideal" in made
    wrong = {name: returns for name, returns in made.items() if returns != "Ideal"}
    assert not wrong, f"ideal functions not annotated -> Ideal: {wrong}"


def test_public_classes_have_one_constructor():
    """A value type is built one way, by calling its class: no public class
    defines a classmethod or staticmethod, which would be a second route."""
    alternate = [
        f"{node.name}.{item.name}"
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name in cycle_rees.__all__
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and any(getattr(d, "id", None) in ("classmethod", "staticmethod") for d in item.decorator_list)
    ]
    assert not alternate, f"classmethod or staticmethod on a public class: {alternate}"
