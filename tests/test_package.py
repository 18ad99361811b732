"""The package's import structure, read from its source with ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prsadjust"


def _imported_modules(node):
    """Package modules an import statement names (none for other imports)."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        return [node.module] if node.module else [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("prsadjust"):
        return [node.module.split(".")[1]] if "." in node.module else [a.name for a in node.names]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("prsadjust.")]
    return []


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def test_import_graph_has_no_cycle():
    trees = _trees()
    graph = {
        name: {dep for node in ast.walk(tree) for dep in _imported_modules(node) if dep in trees}
        for name, tree in trees.items()
    }
    done, path = set(), []

    def visit(name):
        assert name not in path, "import cycle: " + " -> ".join(path[path.index(name):] + [name])
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_no_function_imports_from_the_package():
    local = [
        f"{name}.{func.name}"
        for name, tree in _trees().items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_imported_modules(node) for node in ast.walk(func))
    ]
    assert local == []
