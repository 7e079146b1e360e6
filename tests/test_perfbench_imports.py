"""The names the benchmark imports from the package exist.

``perfbench/`` imports most of its ``driveobs`` names inside functions, so
deleting one breaks only a benchmark run, not the import of its modules.
This test reads every ``perfbench/*.py`` with ``ast`` and resolves each
``from driveobs... import name``, module-level or not, and each attribute
read from a package module imported that way (``cli.load_config``).
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = sorted(PERFBENCH.glob("*.py"))


def submodule(module, name):
    """``module.name`` if that is a module of the package, else None."""
    if not hasattr(importlib.import_module(module), "__path__"):
        return None
    sub = f"{module}.{name}"
    return sub if importlib.util.find_spec(sub) is not None else None


def imported_names(path):
    """``(module, name)`` for each name imported from the package, and for
    each attribute read from an imported package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "driveobs":
            for alias in node.names:
                found.append((node.module, alias.name))
                sub = submodule(node.module, alias.name)
                if sub is not None:
                    modules[alias.asname or alias.name] = sub
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append((modules[node.value.id], node.attr))
    return found


def test_function_level_imports_are_read():
    names = imported_names(PERFBENCH / "layers.py")
    assert ("driveobs.scenarios", "wrsm_current_rates") in names
    assert ("driveobs.ekf", "ekf_update") in names
    assert ("driveobs.cli", "load_config") in imported_names(
        PERFBENCH / "setup_probe.py")


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_perfbench_imported_names_resolve(path):
    missing = [f"{module}.{name}" for module, name in imported_names(path)
               if not hasattr(importlib.import_module(module), name)
               and submodule(module, name) is None]
    assert not missing, f"{path.name} imports names the package lacks"
