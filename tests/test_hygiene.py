"""Source hygiene that no installed linter checks: every import is used,
every private function and class and every module-level name is read, and
only the integer kernel decides a vector's dtype or names the composition table,
only ``coefficients`` spells an exact value, the Jucys–Murphy eigen-check
has one caller per operator and one per grid, ``multiply`` alone forms a
dense product and only ``algebra`` gathers by a permutation factor."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sunbasis").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds by import, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code, in string annotations and in ``__all__``."""
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    imported = _imported(tree).items()
    unused = [f"{path.name}:{line} {name}" for name, line in imported if name not in used]
    assert not unused, f"imported but never used: {', '.join(unused)}"


def _reads(node: ast.AST) -> set[str]:
    """Every name read under ``node``, bare or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _statements() -> tuple[list[tuple[Path, ast.stmt]], list[set[str]]]:
    """Every top-level statement of the package, and the names each reads."""
    statements = [
        (path, node)
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
    ]
    return statements, [_reads(node) for _, node in statements]


def test_every_private_function_and_class_is_read():
    # a private function or class that no code of the package reads is dead;
    # reads inside its own definition, recursion included, do not count
    statements, reads = _statements()
    unread = [
        f"{path.name}:{node.lineno} {node.name}"
        for k, (path, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in r for j, r in enumerate(reads) if j != k)
    ]
    assert not unread, f"private but never read: {', '.join(unread)}"


def _assigned(node: ast.stmt) -> list[str]:
    """The names a top-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    return [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]


def test_every_module_level_name_is_read():
    # a constant that no other statement of the package reads is dead
    statements, reads = _statements()
    unread = [
        f"{path.name}:{node.lineno} {name}"
        for k, (path, node) in enumerate(statements)
        for name in _assigned(node)
        if name != "__all__" and not any(name in r for j, r in enumerate(reads) if j != k)
    ]
    assert not unread, f"assigned but never read: {', '.join(unread)}"


# ``_fast`` alone decides when a vector is int64: the storage bound and the
# ``_times`` guard are read nowhere else, and no other module converts a dtype
_DTYPE_DECISIONS = {"astype", "_STORED", "_INT64_GUARD"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "_fast.py"], ids=lambda p: p.name)
def test_only_the_kernel_decides_dtypes(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno} {name}"
        for node in ast.walk(tree)
        for name in [getattr(node, "id", None) or getattr(node, "attr", None)]
        if isinstance(node, (ast.Name, ast.Attribute)) and name in _DTYPE_DECISIONS
    ]
    assert not found, f"dtype decided outside _fast: {', '.join(found)}"


def _named(path: Path, name: str) -> list[str]:
    """Each line of the module at ``path`` that reads or imports ``name``."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if name in (getattr(node, "id", None), getattr(node, "attr", None))
        or (isinstance(node, ast.alias) and node.name == name)
    ]


# the (m!)² composition table is laid out inside ``_fast`` alone: every other
# module gathers through ``_fast.positions``
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "_fast.py"], ids=lambda p: p.name)
def test_only_the_kernel_names_the_composition_table(path):
    found = _named(path, "composition_table")
    assert not found, f"composition table named outside _fast: {', '.join(found)}"


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of the module, its classes and its functions."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


# exact values are written by the one rule of ``coefficients`` in its text and
# LaTeX spellings: no other module spells a radical or a fraction
_SPELLINGS = ("sqrt(", "\\sqrt", "\\tfrac")


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "coefficients.py"], ids=lambda p: p.name
)
def test_only_the_coefficients_spell_exact_values(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = _docstrings(tree)
    found = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
        and any(spelling in node.value for spelling in _SPELLINGS)
    ]
    assert not found, f"exact value spelled outside coefficients: {', '.join(found)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_joins_signed_terms_by_rewriting_them(path):
    # a later negative term is subtracted where the sum is joined, not by
    # rewriting "+ -" in the joined text
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "replace"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).startswith("+ -")
    ]
    assert not found, f"signed terms joined by a rewrite: {', '.join(found)}"


def _callers(name: str) -> set[str]:
    """The top-level functions and classes of the package that call ``name``."""
    return {
        f"{path.stem}.{getattr(node, 'name', '<module>')}"
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
        and name in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None))
    }


def test_the_line_is_checked_by_one_standalone_and_one_grid_eigen_check():
    # an operator is proved on its Jucys–Murphy line by ``_normalize`` when
    # it is built alone, and by the basis verdict when it is in a grid
    assert _callers("in_eigenspaces") == {"projectors._normalize", "basis._verdict"}


def test_a_grid_forms_its_verdict_through_its_one_accessor():
    # a grid holds its own Jucys–Murphy proof: ``BasisMatrix._proof`` is the
    # one place that calls the verdict, and every reader goes through it
    assert _callers("_verdict") == {"basis.BasisMatrix"}
    assert len([line for path in SOURCES for line in _named(path, "_verdict")]) == 1


def test_multiply_is_the_one_caller_of_the_dense_product():
    # a product of two elements goes through ``multiply``; a permutation
    # factor is a gather, and a pairing is the trace of a product
    assert _callers("convolve") == {"algebra.multiply"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "algebra.py"], ids=lambda p: p.name)
def test_only_algebra_reads_the_permutation_gather(path):
    # every other module multiplies by a permutation with ``*``
    found = _named(path, "_translate")
    assert not found, f"_translate read outside algebra: {', '.join(found)}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "_fast.py"], ids=lambda p: p.name)
def test_numpy_is_imported_by_the_kernel_alone(path):
    # ``_fast`` imports numpy behind its one-thread guard, and every other
    # module takes ``np`` from there, so no import path skips the guard
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "numpy")
    ]
    assert not found, f"numpy imported outside _fast: {', '.join(found)}"
