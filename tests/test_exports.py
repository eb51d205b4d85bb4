"""Every name in a module's `__all__` exists and is used by the program.

A public name that only tests reach is dead weight: either the program
uses it, or it is a feature the paper names and is kept for callers.
"""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import prenelab

MODULES = [m.name for m in pkgutil.iter_modules(prenelab.__path__) if not m.name.startswith("_")]
ROOT = Path(prenelab.__file__).resolve().parents[2]

# Public names the paper describes as features, kept although only tests
# and library callers use them.
PAPER_FEATURES = {
    "simulate_individuals",  # lifespan: the individual-level census oracle
    "vdj_generate",  # replicator: antibody generation from a constant region
    "happiness",  # replicator: per-region exact-copy counts
    "replicate",  # replicator: the single-strand copy whose offspring `happiness` scores
    "mutant_fraction",  # replicator: share of offspring with a substitution
    "step",  # soup: the event-by-event API
}


def _exports(module) -> list[str]:
    return list(getattr(module, "__all__", ()))


def test_every_exported_name_exists():
    assert MODULES
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"prenelab.{name}")
        missing += [f"{name}.{x}" for x in _exports(module) if not hasattr(module, x)]
    assert missing == []


def _references(path: Path):
    """Names, attributes and string constants in a file, outside `__all__`.

    A `def` or `class` statement names its target without referencing it,
    and neither the `__all__` list nor a field declared in a class body
    counts as a use.  A string counts only where the benchmark's hooks
    name program attributes: as a call argument, or as an element of a
    tuple or list that a `for` loop walks.  Other strings, such as CSV
    headers, merely share a name.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = {
        id(sub)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for sub in ast.walk(node)
    }
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            skip.update(id(f.target) for f in node.body if isinstance(f, ast.AnnAssign))
        elif isinstance(node, ast.Call):
            named.update(id(arg) for arg in [*node.args, *(k.value for k in node.keywords)])
        elif isinstance(node, ast.For) and isinstance(node.iter, (ast.Tuple, ast.List)):
            named.update(id(elt) for elt in node.iter.elts)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) in named:
            yield node.value


def test_every_exported_name_is_used_outside_tests():
    files = sorted((ROOT / "src" / "prenelab").glob("*.py"))
    files += [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    assert len(files) > len(MODULES)
    used = Counter(ref for path in files for ref in _references(path))
    unused = [
        f"{name}.{x}"
        for name in MODULES
        for x in _exports(importlib.import_module(f"prenelab.{name}"))
        if not used[x] and x not in PAPER_FEATURES
    ]
    assert unused == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_reads(path: Path) -> list[str]:
    """Underscore attributes that a file reads but never defines itself.

    A file defines a name by a `def` or `class` statement, by binding it,
    or by assigning it as an attribute (`self._x = ...`).  Reading another
    module's private name couples the two modules behind its back.  The one
    exception is `os._exit`, the documented way for a forked child to leave
    without running its parent's cleanup or flushing inherited buffers.
    """
    return _foreign_private_reads_in(path.read_text(encoding="utf-8"))


def _is_os_exit(node) -> bool:
    return node.attr == "_exit" and isinstance(node.value, ast.Name) and node.value.id == "os"


def _foreign_private_reads_in(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    return sorted({
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and _is_private(node.attr) and node.attr not in defined and not _is_os_exit(node)
    })


@pytest.mark.parametrize("call, flagged", [
    ("os._exit(0)", []),
    ("posix._exit(0)", ["_exit"]),
    ("self.os._exit(0)", ["_exit"]),
    ("replicator._run_arm()", ["_run_arm"]),
])
def test_only_os_exit_is_exempt_from_the_private_name_check(call, flagged):
    assert _foreign_private_reads_in(f"import os\n{call}\n") == flagged


def test_no_module_reads_another_modules_private_names():
    files = sorted((ROOT / "src" / "prenelab").glob("*.py"))
    assert files
    found = {path.name: names for path in files if (names := _foreign_private_reads(path))}
    assert found == {}


# What each module imports from the package at module level.  No model
# module imports another: the models share only `config` (the field rules)
# and `rng` (the streams and the paired-run driver), and a command that
# runs one model loads no other.
PACKAGE_IMPORTS = {
    "__init__": set(),
    "__main__": {"cli"},
    "cli": {"config", "__version__"},
    "config": set(),
    "kernels": set(),
    "lifespan": set(),
    "rng": {"config"},
    "registry": {"config"},
    "soup": {"config", "rng"},
    "replicator": {"config", "rng", "kernels"},
}


def _package_imports_in(source: str) -> set[str]:
    """The `prenelab` names that a file's module-level imports bind: a
    submodule by its name, a package attribute (`__version__`) by its own."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["prenelab" * (node.level > 0), node.module]))
            if module == "prenelab":
                names += [f"{module}.{alias.name}" for alias in node.names]
            else:
                names.append(module)
    parts = [name.split(".") for name in names]
    return {(p + ["__init__"])[1] for p in parts if p[0] == "prenelab"}


@pytest.mark.parametrize("source, imported", [
    ("import numpy as np\nfrom typing import Optional\n", set()),
    ("from . import rng as rng_mod\nfrom .config import is_int\n", {"rng", "config"}),
    ("from prenelab import soup\nimport prenelab.kernels\nimport prenelab\n",
     {"soup", "kernels", "__init__"}),
    ("def f():\n    from . import replicator\n", set()),
])
def test_package_imports_reads_module_level_imports(source, imported):
    assert _package_imports_in(source) == imported


def test_no_model_module_imports_another():
    files = sorted((ROOT / "src" / "prenelab").glob("*.py"))
    found = {path.stem: _package_imports_in(path.read_text(encoding="utf-8")) for path in files}
    assert found == PACKAGE_IMPORTS
