"""Every exported name resolves, so removing a function cannot leave a
stale export behind."""

import ast
import inspect
from pathlib import Path

import binmatroid
from binmatroid import tables, verify


def test_tables_all_resolves():
    assert [name for name in tables.__all__ if not hasattr(tables, name)] == []


def test_package_namespace_resolves():
    """Every name `__init__` imports from a submodule is bound on the package."""
    tree = ast.parse(inspect.getsource(binmatroid))
    names = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(names) > 50
    assert [name for name in names if not hasattr(binmatroid, name)] == []


def test_only_tables_imports_numpy():
    """The plane tables are the package's one numpy module."""
    package = Path(binmatroid.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                importers.append(path.stem)
    assert sorted(set(importers)) == ["tables"]


def test_every_verify_suite_is_registered():
    """A public `verify_*` function is a suite in `verify._SUITES`, so no
    report bypasses the registry and its violation cap.  The one other is
    `verify_structure_sampled`, one sampled part of the `structure` suite
    on its own ledger: it runs the body that suite runs for that part."""
    registered = set(verify._SUITES.values())
    public = [
        name
        for name, f in vars(verify).items()
        if name.startswith("verify_") and inspect.isfunction(f) and f.__module__ == verify.__name__
    ]
    assert len(public) > 10
    assert [n for n in public if getattr(verify, n) not in registered] == [
        "verify_structure_sampled"
    ]
    for suite in (verify.verify_structure, verify.verify_structure_sampled):
        assert "_structure_sampled" in suite.__code__.co_names


def test_no_function_imports_from_the_package():
    """Package imports sit at module level, where the benchmark's tracer
    rebinds them; no module here needs a function-local import to break
    an import cycle."""
    package = Path(binmatroid.__file__).parent
    local = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] if node.level == 0 else ["binmatroid"]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                if any(m.split(".")[0] == "binmatroid" for m in modules):
                    local.append(f"{path.stem}.{fn.name}")
    assert local == []
