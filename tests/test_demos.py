"""The demo scripts only reference ttig names that exist.

Nothing runs the demos in the test suite (they train or load checkpoints),
so an API rename would break them silently. This parses each demos/*.py
without running it and checks every ttig module attribute it names.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _ttig_references(tree):
    """(line, module, attribute) for each ttig name the script reads: names
    imported from a ttig module, and attributes read off an imported one."""
    modules, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "ttig":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(full)
                    modules[alias.asname or alias.name] = full
                except ImportError:
                    refs.append((node.lineno, node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ttig" and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            refs.append((node.lineno, modules[node.value.id], node.attr))
    return refs


def test_demos_exist():
    assert "guidance_sweep.py" in {p.name for p in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_references_existing_ttig_names(path):
    refs = _ttig_references(ast.parse(path.read_text(), filename=str(path)))
    assert refs, f"{path.name} references no ttig name"
    missing = [f"{path.name}:{line}: {mod}.{attr}" for line, mod, attr in refs
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, "demo references names ttig no longer has:\n" + "\n".join(missing)
