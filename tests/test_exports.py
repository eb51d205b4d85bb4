"""Every name in a module's `__all__` exists and is used by the program.

A public name that only tests reach is dead weight: either the program
uses it, or it is a feature the paper names and is kept for callers.
"""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

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
