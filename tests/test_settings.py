"""A ratchet on the package's settable values.

A settable value is a parameter with a default or a non-dunder module-level
name bound by an assignment, in `src/magbag/` and `scripts/`.  Each is one
more value a reader has to trace and a test has to cover.  A change that
adds one raises `SETTABLE_VALUES` in the same diff and says why.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SETTABLE_VALUES = 56


def _settable_values(tree):
    """(parameters with defaults, module-level names) of a parsed module."""
    params = sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )
    names = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return params, len({n for n in names if not (n.startswith("__") and n.endswith("__"))})


def test_settable_values_do_not_grow():
    files = sorted([*ROOT.glob("src/magbag/*.py"), *ROOT.glob("scripts/*.py")])
    assert files
    count = sum(sum(_settable_values(ast.parse(f.read_text()))) for f in files)
    assert count <= SETTABLE_VALUES, (
        f"{count} settable values, ratchet at {SETTABLE_VALUES}: fold the new one "
        "into a caller, or raise SETTABLE_VALUES and say why"
    )


def test_counter_sees_parameters_and_module_names():
    tree = ast.parse(
        "A = 1\n_B: int = 2\n__all__ = []\nC, D = 3, 4\n"
        "def f(x, y=1, *, z=2, w): pass\n"
        "def g(a, b=0):\n    def h(c=1): pass\n"
        "k = lambda u=1: u\n"
    )
    assert _settable_values(tree) == (5, 5)
