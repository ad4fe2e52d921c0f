"""Every name the package and its submodules export resolves, once; a
deletion that leaves a stale ``__all__`` entry fails here."""

import importlib
import pkgutil

import pytest

import poisbayes

MODULES = [
    name for name in ["poisbayes"] + [f"poisbayes.{m.name}"
                                      for m in pkgutil.iter_modules(poisbayes.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


def test_submodules_found():
    assert {"poisbayes", "poisbayes.samplers", "poisbayes.tuning"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
