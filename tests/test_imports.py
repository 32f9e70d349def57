"""Every name a package module imports is used in that module, and every
private top-level name, and every public top-level function or class, that
the package defines is used by the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "treeplan"


def unused_imports(path: Path) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    # __init__.py imports in order to re-export
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def checked_definitions(tree: ast.Module) -> list:
    """(line, name) of each top-level function or class a module defines, and
    of each top-level `_name` it assigns."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name) and t.id.startswith("_")]
    return [(line, name) for line, name in found if not name.startswith("__")]


def references(tree: ast.Module) -> set:
    """Names a module reads, as a bare name, an attribute or an import; a
    re-export from `__init__.py` is an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_no_top_level_name_unused_by_the_package():
    """Package code kept alive only by the tests belongs in the tests."""
    modules = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(references(tree) for tree in modules.values()))
    found = [
        f"{name}:{line}: {symbol}"
        for name, tree in modules.items()
        for line, symbol in checked_definitions(tree)
        if symbol not in used
    ]
    assert not found, "top-level names the package never uses:\n" + "\n".join(found)
