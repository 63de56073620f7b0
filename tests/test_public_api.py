"""Every package name the benchmark and the scripts import must exist and
take the arguments they pass it, and the test oracles share no workload
code with the package."""

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


def package_calls(path):
    """(line, name, object, call) for each call of a name imported from
    the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "transient_queue"):
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(
                    importlib.import_module(node.module), alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in imported:
            yield node.lineno, node.func.id, imported[node.func.id], node


def test_package_calls_pass_accepted_arguments():
    # a parameter dropped from the package while the benchmark still
    # passes it fails here, not in the benchmark run
    rejected, n_keywords = [], 0
    for path in SOURCES:
        for line, name, obj, call in package_calls(path):
            if any(isinstance(a, ast.Starred) for a in call.args):
                continue
            keywords = {k.arg: None for k in call.keywords if k.arg}
            n_keywords += len(keywords)
            try:
                inspect.signature(obj).bind_partial(*call.args, **keywords)
            except TypeError as exc:
                rejected.append(f"{path.name}:{line} {name}: {exc}")
    assert rejected == []
    assert n_keywords > 0  # threads=, seed=, tol=, paper_literal=, ...


def oracle_imports_from(module_name):
    """Names tests/oracles.py takes from one package module, directly or
    through the package's re-exports."""
    shared = set()
    for module, name in package_imports(ORACLES):
        obj = getattr(importlib.import_module(module), name)
        if module == module_name or getattr(obj, "__module__", None) == module_name:
            shared.add(name)
    return shared


# the workload kernel, the segment sums of W and W^2 and the two path
# sources that feed them: the phi row blocks and the cycle cutter
KERNELS = {"_free_minimum", "_workload_sums", "_row_blocks", "_cycle_blocks"}


def oracle_names():
    """Every name tests/oracles.py imports, reads as an attribute or
    spells as a whole string (as getattr would take it)."""
    for node in ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_oracles_share_only_sampling_and_seeding():
    # an oracle reading W or the cycles through a kernel of the package
    # would check that kernel with itself; one built on the Bessel series
    # or the renewal solve would check those with themselves
    assert oracle_imports_from("transient_queue.simulate") <= {
        "McConfig", "simulate_cycle", "_stream", "_DOMAIN_PHI",
        "_DOMAIN_FIRST_CYCLE"}
    assert KERNELS.isdisjoint(oracle_names())
    assert oracle_imports_from("transient_queue.mm1") == set()
    assert oracle_imports_from("transient_queue.renewal") <= {"Curve", "TimeGrid"}


def test_every_public_name_is_read_outside_the_unit_tests():
    # a name whose only readers are its own unit tests is a candidate for
    # deletion; the acceptance tests stand for the paper's criteria
    init = ROOT / "src" / "transient_queue" / "__init__.py"
    exported = {alias.asname or alias.name
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    readers = [*ROOT.glob("src/transient_queue/*.py"), *SOURCES,
               ROOT / "tests" / "test_acceptance.py"]
    read = set()
    for path in readers:
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    assert exported
    assert sorted(exported - read) == []
