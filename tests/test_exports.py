"""Every name a `posecast` module exports through `__all__` exists, so a
`from posecast.<module> import *` never raises on a deleted name."""

import importlib
import pkgutil

import pytest

import posecast

MODULES = ["posecast"] + [f"posecast.{m.name}" for m in pkgutil.iter_modules(posecast.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
