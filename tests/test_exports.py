"""The package's export list: every name resolves, once, to a library object."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import sfh


def _top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return names


def test_all_names_resolve_once_to_their_definitions():
    assert len(sfh.__all__) == len(set(sfh.__all__))
    package = Path(sfh.__file__).parent
    defined_in = {}
    for path in sorted(package.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        for name in _top_level_names(path):
            defined_in.setdefault(name, []).append(path.stem)
    for name in sfh.__all__:
        assert hasattr(sfh, name), name
        homes = defined_in.get(name, [])
        assert len(homes) == 1, (name, homes)
        module = importlib.import_module(f"sfh.{homes[0]}")
        assert getattr(module, name) is getattr(sfh, name), name


def test_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from sfh import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(sfh.__all__)
