"""Every name a module exports exists, and every public function or class it defines is exported."""

import importlib
import inspect

import pytest

MODULES = ["linalg", "kernel", "composite", "twoqubit", "reports"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"swphase.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_exported(name):
    module = importlib.import_module(f"swphase.{name}")
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert sorted(set(defined) - set(module.__all__)) == []
