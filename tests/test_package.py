"""The package's import structure, read from its source with ``ast``, and
the start-up it buys: ``import prsadjust``, ``import prsadjust.cli`` and the
``evaluate`` command load no numpy."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import prsadjust
from prsadjust.text import CohortReport, ReportRow, write_report_csv

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prsadjust"
# The modules whose functions may import package modules: the package's lazy
# exports, and the CLI, whose commands load the numpy layers when they run.
LAZY_IMPORTERS = ("__init__", "cli")


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


def test_function_imports_from_the_package_only_in_the_lazy_importers():
    local = [
        f"{name}.{func.name}"
        for name, tree in _trees().items()
        if name not in LAZY_IMPORTERS
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_imported_modules(node) for node in ast.walk(func))
    ]
    assert local == []


def test_no_dynamic_imports_but_the_package_exports():
    """Only ``__init__`` resolves modules by name, so every other import is
    a statement the checks above read."""
    dynamic = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        if name != "__init__"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "importlib" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("importlib"))
        or (isinstance(node, ast.Name) and node.id == "__import__")
    ]
    assert dynamic == []


def test_every_export_resolves_from_its_defining_module():
    for name in prsadjust.__all__:
        namespace = {}
        exec(f"from prsadjust import {name}", namespace)
        module = import_module(f"prsadjust.{prsadjust._EXPORTS[name]}")
        assert namespace[name] is getattr(module, name)
        assert namespace[name].__module__ == module.__name__, name


def test_submodules_still_import_from_the_package():
    from prsadjust import io, pca

    assert (io.__name__, pca.__name__) == ("prsadjust.io", "prsadjust.pca")
    assert io.read_report_csv is prsadjust.read_report_csv


def _python(*args, cwd=None):
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True)


def test_submodules_resolve_as_package_attributes():
    """``import prsadjust`` alone gives ``prsadjust.pca`` and the rest, as
    when the package imported every module eagerly."""
    modules = sorted(prsadjust._MODULE_EXPORTS)
    proc = _python(
        "-c",
        "import prsadjust, sys\n"
        "assert not [m for m in sys.modules if m.startswith('prsadjust.')]\n"
        f"for name in {modules!r}:\n"
        "    assert getattr(prsadjust, name).__name__ == 'prsadjust.' + name, name\n"
        "assert prsadjust.pca.fit_pca is prsadjust.fit_pca\n"
        "assert prsadjust.io.parse_vcf is prsadjust.parse_vcf\n",
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_or_the_cli_loads_no_numpy():
    for module in ("prsadjust", "prsadjust.cli"):
        proc = _python("-c", f"import sys, {module}; assert 'numpy' not in sys.modules")
        assert proc.returncode == 0, (module, proc.stderr)


def test_evaluate_runs_without_numpy(tmp_path):
    rows = [
        ReportRow(f"S{i}", ("POPA", "POPB", None)[i % 3], (0.1 * i,), float(i % 7), i / 3.0, i % 2 == 0)
        for i in range(30)
    ]
    write_report_csv(CohortReport(rows=tuple(rows)), tmp_path / "report.csv")
    # -W error turns runpy's warning about a module imported twice, which
    # ``__init__`` importing ``cli`` would cause, into a failure; -X importtime
    # lists every module the command imports on stderr.
    proc = _python(
        "-W", "error::RuntimeWarning", "-X", "importtime", "-m", "prsadjust.cli", "evaluate",
        "--report", "report.csv", "--out", "eval", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert "prsadjust.evaluation" in imported
    assert not {name for name in imported if name.split(".")[0] == "numpy"}
    # hashlib maps OpenSSL's libcrypto; only simulate's checksums need it.
    assert not {"hashlib", "_hashlib"} & imported
    # The exact sums need no rational type, whose import would slow start-up.
    assert not {"fractions", "decimal"} & imported
    assert (tmp_path / "eval" / "metrics.txt").read_text() == proc.stdout
