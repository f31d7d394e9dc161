"""Every exported name resolves: a removed or renamed name fails here, not in a caller."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import moecast

MODULES = [
    importlib.import_module(f"moecast.{info.name}")
    for info in pkgutil.iter_modules(moecast.__path__)
]


@pytest.mark.parametrize("module", [moecast, *MODULES], ids=lambda m: m.__name__)
def test_every_all_entry_exists(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_root_names_are_their_modules_objects():
    imports = [
        node for node in ast.parse(inspect.getsource(moecast)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(f"moecast.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(moecast, name) is getattr(module, alias.name), name
