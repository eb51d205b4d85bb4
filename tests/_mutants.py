"""Mutation survey: which small faults in a module do its tests miss?

    python tests/_mutants.py <module> [qualified name]

e.g. `python tests/_mutants.py config` or `python tests/_mutants.py soup
ReactorState`.  Each mutant changes one site of `src/prenelab/<module>.py`
(in the named class or function only, when a name is given):

- cmp    a comparison flipped: `<` and `<=`, `>` and `>=`, `==` and `!=`,
         `in` and `not in`, `is` and `is not` swap
- int    an integer constant moved up by 1 (bools are left alone)
- bool   `and` and `or` swapped
- raise  one `raise` statement dropped

Every mutant runs that module's test files (`tests/test_<module>.py` and
`tests/test_<module>_*.py`) with `pytest -x` in a copy of the repository
under a temporary directory, with a timeout of five times the unmutated
run plus 10 s; a test failure or a timeout kills it.  The mutants that
survive are printed, and the exit status is 1 if any survives.  Stdlib
only; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


def sites(tree: ast.Module, scope: str = "") -> list[tuple]:
    """Every mutable site under `scope`, as (kind, node, index, qualname), in walk order."""
    found = []

    def visit(node: ast.AST, qualname: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{qualname}.{node.name}" if qualname else node.name
        inside = not scope or qualname == scope or qualname.startswith(scope + ".")
        if inside and isinstance(node, ast.Compare):
            found.extend(("cmp", node, i, qualname) for i in range(len(node.ops)))
        elif inside and isinstance(node, ast.Constant) and type(node.value) is int:
            found.append(("int", node, 0, qualname))
        elif inside and isinstance(node, ast.BoolOp):
            found.append(("bool", node, 0, qualname))
        elif inside and isinstance(node, ast.Raise):
            found.append(("raise", node, 0, qualname))
        for child in ast.iter_child_nodes(node):
            visit(child, qualname)

    visit(tree, "")
    return found


def describe(kind: str, node: ast.AST, i: int) -> str:
    if kind == "cmp":
        return f"{ast.unparse(node)!r}: op {i} {type(node.ops[i]).__name__} -> {_FLIP[type(node.ops[i])].__name__}"
    if kind == "int":
        return f"{node.value} -> {node.value + 1}"
    if kind == "bool":
        return f"{ast.unparse(node)!r}: {type(node.op).__name__} swapped"
    return f"{ast.unparse(node)!r} dropped"


def mutant(source: str, scope: str, k: int) -> str:
    """The module's source with site k (in `sites` order) mutated."""
    tree = ast.parse(source)
    kind, node, i, _ = sites(tree, scope)[k]
    if kind == "cmp":
        node.ops[i] = _FLIP[type(node.ops[i])]()
    elif kind == "int":
        node.value += 1
    elif kind == "bool":
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    else:
        class Drop(ast.NodeTransformer):
            def visit_Raise(self, raise_: ast.Raise) -> ast.stmt:
                return ast.Pass() if raise_ is node else raise_

        Drop().visit(tree)
    return ast.unparse(tree)


def run_tests(copy: Path, tests: list[str], timeout: float) -> tuple[bool, float]:
    """(passed, seconds) of the tests in `copy`; a timeout counts as a failure."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, capture_output=True, timeout=timeout,
            env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    module, scope = argv[0], argv[1] if len(argv) == 2 else ""
    source = (ROOT / "src" / "prenelab" / f"{module}.py").read_text(encoding="utf-8")
    tests = sorted(
        str(p.relative_to(ROOT))
        for p in [*ROOT.glob(f"tests/test_{module}.py"), *ROOT.glob(f"tests/test_{module}_*.py")]
    )
    found = sites(ast.parse(source), scope)
    if not tests or not found:
        print(f"no tests or no sites for {module} {scope}".rstrip(), file=sys.stderr)
        return 2
    kinds = {kind: sum(s[0] == kind for s in found) for kind in ("cmp", "int", "bool", "raise")}
    print(f"{module} {scope}: {len(found)} sites {kinds}, tests {' '.join(tests)}")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "prenelab" / f"{module}.py"
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        passed, seconds = run_tests(copy, tests, timeout=600)
        if not passed:
            print("the unmutated module fails its tests; nothing to survey", file=sys.stderr)
            return 2
        timeout = 5 * seconds + 10
        survivors = []
        for k, (kind, node, i, qualname) in enumerate(found):
            target.write_text(mutant(source, scope, k), encoding="utf-8")
            if run_tests(copy, tests, timeout)[0]:
                survivors.append(f"{module}.py:{node.lineno} {qualname} {kind} {describe(kind, node, i)}")
                print("survived:", survivors[-1], flush=True)
    print(f"{len(survivors)} of {len(found)} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
