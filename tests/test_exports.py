"""Every exported name resolves, so removing a function cannot leave a
stale export behind."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
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


def test_no_library_module_imports_numpy():
    """The library runs on the standard library alone; numpy is a test
    dependency, for the plane-kernel oracles."""
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
    assert importers == []


def test_cli_and_every_table_load_no_numpy():
    """Importing the CLI and building every cached table (the plane lane
    tables, the sweep column and the claw-free lists) leaves numpy
    unloaded, in a fresh interpreter."""
    src = Path(binmatroid.__file__).parents[1]
    script = (
        "import sys\n"
        "import binmatroid.cli\n"
        "from binmatroid import census, tables\n"
        "for n in range(3, tables.PLANE_TABLE_MAX + 1):\n"
        "    tables.plane_array(n)\n"
        "    tables.planes_through_point(n)\n"
        "    census.even_plane_basis(n)\n"
        "    tables.claw_free_mask(0, n)\n"
        "    tables.pg_sum_forbidden_mask(0, n)\n"
        "for n in range(tables.SWEEP_MAX + 1):\n"
        "    tables.sweep_tables(n)\n"
        "    tables.claw_free_masks_list(n)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False", out


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


def test_sources_parse_at_the_python_floor():
    """Every module parses under the oldest Python that `requires-python`
    in pyproject.toml admits (read with a regex: Python 3.10 has no
    tomllib)."""
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', pyproject, re.M)
    assert floor is not None
    version = (int(floor[1]), int(floor[2]))
    package = Path(binmatroid.__file__).parent
    paths = sorted(package.glob("*.py"))
    assert len(paths) > 5
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_docs_name_only_what_exists():
    """Every backticked `module.name` in the README and in the package's
    docstrings and comments, with `module` one of the package's modules,
    resolves, so a removed function cannot stay named in the prose."""
    package = Path(binmatroid.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    reference = re.compile(r"`(%s)\.(\w+)" % "|".join(modules))
    paths = [Path(__file__).parents[1] / "README.md", *sorted(package.glob("*.py"))]
    found, missing = 0, []
    for path in paths:
        for module, name in reference.findall(path.read_text()):
            found += 1
            if not hasattr(importlib.import_module(f"binmatroid.{module}"), name):
                missing.append(f"{path.name}: {module}.{name}")
    assert found > 40
    assert missing == []
