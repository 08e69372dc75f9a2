"""Token budget of the package modules, and where object arrays may live.

A module imported without a bytecode cache (``PYTHONDONTWRITEBYTECODE=1``,
as the benchmark runs) is compiled from source, and CPython's parser keeps
its tokens in an array whose capacity doubles at each power of two.  When
``cli.py`` first grew past 4,096 tokens, that doubling alone raised the
analytic52 ``peak_rss_mb`` by about 0.2 MiB; ``hydroflow.py``, compiled in
every flow-series run, would pay the same.  So ``cli.py`` and
``hydroflow.py`` stay at or under 4,096 tokens and no module goes past
8,192.  Tokens are counted by ``tokenize``, leaving out comments,
non-logical newlines and the encoding marker.

The numerics run on float arrays; truncated series too are dense float
coefficient stacks.  Arrays of Python objects (jets, series) are built only
by the per-point helpers that the benchmark's tracer and the flow's series
path still use: the grids of ``OperatorField.eval_generic`` and
``numkit.split_jet_matrix``.  An ``object`` dtype anywhere else fails the
check below.

The LAPACK routines that ``src/`` takes from ``numpy.linalg`` stay within
``cond``, ``svd``, ``det`` and ``inv`` (and the ``LinAlgError`` they
raise).  Each further routine maps its own LAPACK code pages when first
called, and those count in ``peak_rss_mb``: a ξ-search screen through ``eigvalsh`` added
about 200 KiB of ``RssFile`` (``/proc/self/status``) on analytic52.
"""

import ast
import tokenize
from pathlib import Path

import pytest

import opfrob

MODULES = sorted(Path(opfrob.__file__).parent.glob("*.py"))
LIMITS = {"cli.py": 4096, "hydroflow.py": 4096}
LIMIT = 8192
SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
LINALG = {"cond", "svd", "det", "inv", "LinAlgError"}
# module -> the one function that may build object arrays
OBJECT_ARRAYS = {"fields.py": "eval_generic", "numkit.py": "split_jet_matrix"}


def tokens(path) -> int:
    with open(path, "rb") as fh:
        return sum(t.type not in SKIPPED
                   for t in tokenize.tokenize(fh.readline))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_within_its_token_budget(path):
    assert tokens(path) <= LIMITS.get(path.name, LIMIT)


def object_dtypes(path):
    """(line, enclosing function) of each place where the name ``object``
    is passed or assigned as a value, a dtype in effect: an argument as in
    ``np.asarray(x, dtype=object)`` or ``np.fromiter(it, object)``, a branch
    as in ``object if generic else float``, or an assigned value.
    Comparisons (``A.dtype == object``), annotations and ``object.__new__``
    are not dtypes."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "object" \
                    and isinstance(node, (ast.Call, ast.keyword, ast.IfExp,
                                          ast.Assign)) \
                    and child is not getattr(node, "func", None):
                found.append((child.lineno, func))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_object_arrays_only_in_the_jet_helpers(path):
    allowed = OBJECT_ARRAYS.get(path.name)
    assert [(line, func) for line, func in object_dtypes(path)
            if func != allowed] == []


def linalg_names(path):
    """The names a module takes from ``numpy.linalg``: X of each
    ``np.linalg.X`` and of ``from numpy.linalg import X``; ``linalg`` for a
    bare ``np.linalg`` (an alias) or an ``import numpy.linalg``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            up = parent.get(node)
            names.add(up.attr if isinstance(up, ast.Attribute) else "linalg")
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").startswith("numpy.linalg"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import) and any(
                alias.name.startswith("numpy.linalg") for alias in node.names):
            names.add("linalg")
    return names


def test_src_takes_only_the_known_linalg_routines():
    used = set().union(*map(linalg_names, MODULES))
    assert "cond" in used and used <= LINALG
