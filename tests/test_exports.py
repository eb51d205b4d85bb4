"""Every name in a module's `__all__` exists, so no export outlives its code."""

import importlib
import pkgutil

import prenelab

MODULES = [m.name for m in pkgutil.iter_modules(prenelab.__path__) if not m.name.startswith("_")]


def test_every_exported_name_exists():
    assert MODULES
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"prenelab.{name}")
        missing += [f"{name}.{x}" for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []
