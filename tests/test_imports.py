"""Unused module-level imports and broken ``__all__`` lists in the package,
and names the scripts and the benchmark read from it that do not exist,
found with the standard library alone (no linter is a dependency)."""

import ast
import importlib
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dnet"
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parents[1]
# The scripts and the benchmark; their sources are read, never imported.
SCRIPTS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import that nothing in the module
    reads. ``__future__`` imports and names listed in ``__all__`` are used.
    """
    tree = ast.parse(source)
    exported: set[str] = set()
    imported: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
        elif isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in read | exported]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "def f(x: osp.PathLike) -> None:\n"
        "    return None\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{path.name}:{line}: {name}" for line, name in unused)


def export_defects(module) -> tuple[list[str], list[str]]:
    """Names in ``module.__all__`` that the module lacks, and names listed
    more than once."""
    names = list(getattr(module, "__all__", ()))
    missing = [name for name in names if not hasattr(module, name)]
    repeated = sorted({name for name in names if names.count(name) > 1})
    return missing, repeated


def test_export_checker_flags_stale_and_repeated_names():
    module = types.ModuleType("m")
    module.f = module.g = lambda: None
    module.__all__ = ["f", "gone", "g", "f"]
    assert export_defects(module) == (["gone"], ["f"])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_resolve_once(path):
    name = "dnet" if path.stem == "__init__" else f"dnet.{path.stem}"
    missing, repeated = export_defects(importlib.import_module(name))
    assert not missing and not repeated, f"{path.name}: missing {missing}, repeated {repeated}"


def _submodule(name: str) -> types.ModuleType | None:
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def unresolved_names(source: str) -> list[str]:
    """Each name the source imports from dnet, or reads as an attribute of a
    dnet module it imported by name, that does not exist, as ``module.name``.
    A name a package lacks as an attribute may be a submodule not yet
    imported, so it is imported as one.
    """
    tree = ast.parse(source)
    modules: dict[str, types.ModuleType] = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dnet":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if value is None:
                    value = _submodule(f"{node.module}.{alias.name}")
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if module is not None and not hasattr(module, node.attr):
                missing.append(f"{module.__name__}.{node.attr}")
    return missing


def test_script_checker_flags_missing_names():
    source = (
        "from dnet import convops\n"
        "from dnet.tensor import Tensor, gone\n"
        "convops.conv2d(convops._gone, Tensor)\n"
    )
    assert unresolved_names(source) == ["dnet.tensor.gone", "dnet.convops._gone"]


def test_script_checker_imports_a_submodule_not_yet_bound(monkeypatch):
    import dnet
    import dnet.pnm

    monkeypatch.delattr(dnet, "pnm")  # as before anything imported dnet.pnm
    source = "from dnet import pnm, gone\npnm.read_pnm(pnm._gone)\n"
    assert unresolved_names(source) == ["dnet.gone", "dnet.pnm._gone"]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_names_resolve(path):
    missing = unresolved_names(path.read_text())
    assert not missing, f"{path.name}: {', '.join(missing)}"
