"""Every ``repro`` package's ``__all__`` names only what the package has."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", _packages())
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} declares no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
