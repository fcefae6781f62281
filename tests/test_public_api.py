"""Every name a ``repro`` module exports through ``__all__`` resolves.

A deletion that leaves its name in an ``__all__`` list breaks
``from repro.x import *`` and misleads readers of the public surface;
nothing else would notice.  ``__main__`` modules are entry points, not API,
and importing one runs it, so they are skipped.
"""

import importlib
import pkgutil

import pytest

import repro


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
