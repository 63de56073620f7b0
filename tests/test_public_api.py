"""Every package name the benchmark and the scripts import must exist, and
the test oracles share no workload code with the package."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")])
ORACLES = ROOT / "tests" / "oracles.py"


def package_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "transient_queue"):
            for alias in node.names:
                yield node.module, alias.name


def test_sources_found():
    assert {p.parent.name for p in SOURCES} == {"perfbench", "scripts"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imported_names_resolve(path):
    missing = [f"{module}.{name}" for module, name in package_imports(path)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_oracles_share_only_sampling_and_seeding():
    # an oracle reading W through workload_at or _workload_on_grid would
    # check the workload kernel with itself
    shared = set()
    for module, name in package_imports(ORACLES):
        obj = getattr(importlib.import_module(module), name)
        if module == "transient_queue.simulate" or (
                inspect.isfunction(obj)
                and obj.__module__ == "transient_queue.simulate"):
            shared.add(name)
    assert shared <= {"simulate_cycle", "_stream", "_DOMAIN_PHI"}
