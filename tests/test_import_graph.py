"""The product ships only what it runs: no product module reaches the apparatus.

``repro.paper`` holds what the paper compares ADEPT2 against (trace
replay, the Fig. 2 storage alternatives, the non-adaptive and distributed
simulations) and ``tests`` holds the test harnesses.  Neither may be in
the product's import graph: a fresh interpreter that imports the
product's entry points loads no module of either, and no module under
``src/`` outside ``repro/paper`` names them in an import.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).resolve().parent
ENTRY_POINTS = ("repro", "repro.system", "repro.service.shard_server", "repro.cli")


def _imported_modules(path):
    """Every module an ``import`` / ``from ... import`` in ``path`` names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def _is_within(module, package):
    return module == package or module.startswith(package + ".")


def test_entry_points_load_no_apparatus_and_no_test_module():
    probe = (
        "import importlib, json, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=str(SOURCE.parent),
        timeout=60,
    )
    loaded = json.loads(completed.stdout)
    assert "repro.service.shard_server" in loaded
    leaked = [
        name
        for name in loaded
        if _is_within(name, "repro.paper") or _is_within(name, "tests")
    ]
    assert leaked == []


def test_no_product_module_imports_the_apparatus():
    product = [
        path for path in sorted(SOURCE.rglob("*.py")) if path.relative_to(SOURCE).parts[0] != "paper"
    ]
    assert len(product) > 50
    hits = [
        f"{path.relative_to(SOURCE.parent)}:{line}: {module}"
        for path in product
        for line, module in _imported_modules(path)
        if _is_within(module, "repro.paper")
    ]
    assert hits == []


def test_nothing_under_src_imports_the_tests():
    hits = [
        f"{path.relative_to(SOURCE.parent)}:{line}: {module}"
        for path in sorted(SOURCE.rglob("*.py"))
        for line, module in _imported_modules(path)
        if _is_within(module, "tests")
    ]
    assert hits == []
