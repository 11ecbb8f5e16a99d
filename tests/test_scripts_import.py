"""Every example and benchmark script imports, and every ``repro`` name it
imports exists, function-local imports included.

The scripts run only when a user or the benchmark harness starts them, so
without this check a script naming a deleted symbol breaks silently.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/test_bench_*.py")])


def _repro_imports(tree: ast.AST):
    """(module, name or None) for every ``repro`` import anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def test_scripts_found():
    assert any(p.parent.name == "examples" for p in SCRIPTS)
    assert any(p.parent.name == "benchmarks" for p in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(
        f"script_smoke_{path.parent.name}_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # top-level imports, outside __main__
    for module_name, name in _repro_imports(ast.parse(path.read_text())):
        imported = importlib.import_module(module_name)
        if name is not None and not hasattr(imported, name):
            importlib.import_module(f"{module_name}.{name}")  # a submodule
