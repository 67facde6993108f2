"""Package hygiene guards: docstrings, ``__all__`` consistency, exports,
layering.

Cheap meta-tests that keep the public surface honest as the codebase
grows: every module documents itself, every ``__all__`` name exists, the
top-level package re-exports what the README promises, and the library
layers never import the tooling built on top of them.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro


def _walk_modules() -> list[str]:
    names = ["repro"]
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(module.name)
    return sorted(names)


ALL_MODULES = _walk_modules()


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_has_docstring(name: str):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 20, f"{name} docstring is a stub"


@pytest.mark.parametrize("name", ALL_MODULES)
def test_dunder_all_names_exist(name: str):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


#: The library proper.  ``repro.devtools`` and ``repro.experiments`` are
#: built *on* it; the dependency arrow points one way.
LIBRARY_LAYERS = ("core", "dht", "cache", "resilience", "serve", "sim", "workloads")
TOOLING = ("repro.devtools", "repro.experiments")


def _imported_modules(tree: ast.AST) -> set[str]:
    """Every module an AST imports, function-level imports included."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("layer", LIBRARY_LAYERS)
def test_library_layers_never_import_tooling(layer: str):
    root = Path(repro.__file__).parent / layer
    files = sorted(root.rglob("*.py"))
    assert files, f"repro.{layer} has no modules"
    for path in files:
        for module in _imported_modules(ast.parse(path.read_text())):
            assert not module.startswith(TOOLING), (
                f"{path.relative_to(root.parent)} imports {module}: "
                f"repro.{layer} must not depend on devtools/experiments"
            )


def test_top_level_exports():
    for symbol in (
        "LHTIndex",
        "PHTIndex",
        "IndexConfig",
        "LocalDHT",
        "ChordDHT",
        "CANDHT",
        "KademliaDHT",
        "PastryDHT",
        "LinearCostModel",
        "ReferenceTree",
    ):
        assert hasattr(repro, symbol), f"repro.{symbol} missing"
        assert symbol in repro.__all__


def test_public_classes_have_docstrings():
    for symbol in repro.__all__:
        if symbol.startswith("__"):
            continue
        obj = getattr(repro, symbol)
        if isinstance(obj, type):
            assert obj.__doc__, f"repro.{symbol} lacks a class docstring"


def test_version_is_set():
    assert repro.__version__ == "1.0.0"


def test_no_substrate_node_record_declares_a_store():
    """Keys live in the peer-store kernel only: a ``store`` field on a
    node record would be a second home for them."""
    import dataclasses

    import repro.dht

    records = [
        obj
        for info in pkgutil.iter_modules(repro.dht.__path__, "repro.dht.")
        for obj in vars(importlib.import_module(info.name)).values()
        if dataclasses.is_dataclass(obj) and isinstance(obj, type)
    ]
    assert len(records) >= 7  # one node record per routed substrate
    for record in records:
        fields = {field.name for field in dataclasses.fields(record)}
        assert "store" not in fields, record.__name__
