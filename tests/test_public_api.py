"""Every name a ``repro`` module exports through ``__all__`` resolves.

A deletion that leaves its name in an ``__all__`` list breaks
``from repro.x import *`` and misleads readers of the public surface;
nothing else would notice.  ``__main__`` modules are entry points, not API,
and importing one runs it, so they are skipped.  The same holds for every
``from repro... import ...`` in the README's Python examples.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

README = Path(__file__).resolve().parent.parent / "README.md"


def _public_modules():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix=f"{repro.__name__}."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("module_name", _public_modules())
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names undefined attributes: {missing}"


def _readme_imports():
    """``(module, name)`` for each ``from repro... import name`` in README."""
    imports = {}
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                imports.update(dict.fromkeys((node.module, alias.name) for alias in node.names))
    return list(imports)


@pytest.mark.parametrize("module_name, name", _readme_imports())
def test_readme_imports_resolve(module_name, name):
    module = importlib.import_module(module_name)
    assert hasattr(module, name), f"README imports {name} from {module_name}, which lacks it"
