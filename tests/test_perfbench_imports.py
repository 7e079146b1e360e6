"""The names the benchmark imports from the package exist.

``perfbench/`` imports most of its ``driveobs`` names inside functions, so
deleting one breaks only a benchmark run, not the import of its modules.
This test reads every ``perfbench/*.py`` with ``ast`` and resolves each
``from driveobs... import name``, module-level or not, and each attribute
read from a package module imported that way (``cli.load_config``). It also
resolves the attributes the benchmark names by string, on a package module
or class: ``getattr``/``setattr(cli, name)`` and the ``(cli, "name",
span)`` tuples of the wrapped functions, where ``name`` is a string or an
attribute assigned strings (``self.attr = "a" if ... else "b"``).
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


TREES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in FILES}


def strings(node):
    """The strings an expression can evaluate to: a string constant, either
    branch of a conditional, or the strings assigned to an attribute of that
    name in any benchmark file."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return strings(node.body) + strings(node.orelse)
    if isinstance(node, ast.Attribute):
        return [s for tree in TREES.values() for assign in ast.walk(tree)
                if isinstance(assign, ast.Assign) and any(
                    isinstance(t, ast.Attribute) and t.attr == node.attr
                    for t in assign.targets)
                for s in strings(assign.value)]
    return []


def package_object(module, name):
    """The package module or object ``from module import name`` binds."""
    sub = submodule(module, name)
    return importlib.import_module(sub) if sub is not None \
        else getattr(importlib.import_module(module), name)


def names_by_string(path):
    """``(object, name)`` for each attribute of a package object that the
    file reaches by a string: ``getattr``/``setattr(obj, name, ...)`` and
    ``(obj, name, ...)`` tuples."""
    tree, objects = TREES[path], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "driveobs":
            for alias in node.names:
                objects[alias.asname or alias.name] = (node.module, alias.name)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("getattr", "setattr"):
            pair = node.args[:2]
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            pair = node.elts[:2]
        else:
            continue
        if isinstance(pair[0], ast.Name) and pair[0].id in objects:
            found += [(objects[pair[0].id], name) for name in strings(pair[1])]
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


def test_names_reached_by_string_are_read():
    workload = names_by_string(PERFBENCH / "workload.py")
    for name in ("run_wrsm_scenario", "run_im_scenario"):
        assert (("driveobs", "cli"), name) in workload
    layers = names_by_string(PERFBENCH / "layers.py")
    for name in ("load_config", "scenario_from_config", "summarize",
                 "write_summary", "_write_plot_script", "run_wrsm_scenario",
                 "run_im_scenario"):
        assert (("driveobs", "cli"), name) in layers
    assert (("driveobs.trace", "SimTrace"), "to_csv") in layers


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_perfbench_names_by_string_resolve(path):
    missing = [f"{module}.{obj}.{name}"
               for (module, obj), name in names_by_string(path)
               if not hasattr(package_object(module, obj), name)]
    assert not missing, f"{path.name} names attributes the package lacks"
