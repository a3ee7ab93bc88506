"""Every name a `posecast` module exports through `__all__` exists, so a
`from posecast.<module> import *` never raises on a deleted name, and has a
caller outside the tests."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

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


ROOT = Path(__file__).resolve().parent.parent


def test_every_export_has_a_caller():
    # a name a submodule exports must be read somewhere in the package (a Name
    # or an attribute access outside `__init__.py`, its own module included)
    # or named by the benchmark (the tracer binds its targets by string);
    # a name only tests use belongs in the tests
    used = set()
    for path in (ROOT / "src" / "posecast").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    bench = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py"))
    unused = [f"{name}.{n}" for name in MODULES if name != "posecast"
              for n in getattr(importlib.import_module(name), "__all__", [])
              if n not in used and not re.search(rf"\b{re.escape(n)}\b", bench)]
    assert unused == []


def test_every_tracer_target_resolves():
    # the benchmark's tracer binds each (module, attribute) of its TARGETS by
    # name, so a name deleted from the package would silently drop its metrics
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])

    def resolves(module, attr):
        obj = importlib.import_module(f"posecast.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        return obj is not None

    assert targets and [t for t in targets if not resolves(*t)] == []
