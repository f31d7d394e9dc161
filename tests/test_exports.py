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


LIBRARY = [module for module in MODULES if module.__name__ != "moecast.cli"]


def test_package_root_names_are_their_modules_objects():
    imports = [
        node for node in ast.parse(inspect.getsource(moecast)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert {f"moecast.{node.module}" for node in imports} == {m.__name__ for m in LIBRARY}
    for node in imports:
        # a module's __all__ is the one list of its public names
        assert [alias.name for alias in node.names] == ["*"], node.module
        module = importlib.import_module(f"moecast.{node.module}")
        for name in module.__all__:
            assert getattr(moecast, name) is getattr(module, name), name


def test_no_two_modules_publish_one_name():
    # a star import would let the later module's object shadow the earlier's silently
    owners = {}
    for module in LIBRARY:
        for name in module.__all__:
            assert name not in owners, f"{name}: {owners.get(name)} and {module.__name__}"
            owners[name] = module.__name__


def _modules_after_import() -> list[str]:
    """The sorted ``sys.modules`` names of a new interpreter after ``import moecast``."""
    src = os.path.dirname(os.path.dirname(moecast.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import moecast; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout)


def test_import_loads_every_library_module_but_not_the_program():
    loaded = [name for name in _modules_after_import() if name.startswith("moecast.")]
    assert loaded == sorted(module.__name__ for module in LIBRARY)


def test_import_loads_no_process_pool():
    # _in_parallel imports both only when it forks, so that ``import moecast``,
    # which every command and benchmark run pays, stays without them
    loaded = _modules_after_import()
    assert [m for m in loaded if m.split(".")[0] in ("multiprocessing", "concurrent")] == []
