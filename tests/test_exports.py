"""Every exported name resolves: a removed or renamed name fails here, not in a caller."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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


def test_import_loads_no_process_pool():
    # _in_parallel imports both only when it forks, so that ``import moecast``,
    # which every command and benchmark run pays, stays without them
    src = os.path.dirname(os.path.dirname(moecast.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import moecast; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
