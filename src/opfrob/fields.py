"""Operator fields and 1-form fields: grids of expressions on the manifold.

An operator field is an n x n matrix of expressions in u1..un, compiled once
into a straight-line ``exprs.Program`` and evaluable at a point over floats
(values), jets (values plus exact first partials), batches of jets or any
other scalar type with the arithmetic operators.  These are the geometric
raw data for every verification in the package.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from .errors import ExprEvalError
from .exprs import Const, Expression, Program, literal, parse_grid
from .numkit import Jet, jet_point

__all__ = ["OperatorField", "OneFormField", "expression_add",
           "expression_matmul"]


def _as_expression(x) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression entry")


def compile_grid(exprs, dimension: int, entry: str, owner: str) -> Program:
    """The Program of a grid's expressions (row-major); raise ValueError at
    the first one that refers to a coordinate beyond ``dimension``."""
    program = Program(exprs)
    for e in program.roots if program.max_variable > dimension else ():
        m = Program([e]).max_variable
        if m > dimension:
            raise ValueError(f"{entry} {e} refers to u{m} but the {owner} "
                             f"dimension is {dimension}")
    return program


def _float(value, e) -> float:
    try:
        return float(value)
    except OverflowError:   # an exact integer beyond the float range
        raise ExprEvalError(f"overflow evaluating {e}") from None


def grid_floats(program, u) -> np.ndarray:
    """Float values of the program's roots at the point ``u``."""
    values = program.run([float(x) for x in u])
    return np.array([_float(v, e) for v, e in zip(values, program.roots)])


def grid_jets(program, shape, points, partials=True):
    """Jets of the program's roots (row-major in ``shape``) over a (B, n)
    batch of points: values (B, *shape) and partials (B, *shape, n), or
    None without ``partials``: then it runs on the batch's float columns,
    the float operations of the jets' values.  The checks judge non-finite
    values, so numpy does not warn of them here."""
    points = np.asarray(points, dtype=float)
    B, n = points.shape
    coords = [Jet(points[:, i], np.broadcast_to(np.eye(n)[i], (B, n)).copy())
              if partials else points[:, i] for i in range(n)]
    with np.errstate(all="ignore"):
        outs = program.run(coords)
    vals = np.empty((B, len(outs)))
    ders = np.zeros((B, len(outs), n)) if partials else None
    for k, (out, e) in enumerate(zip(outs, program.roots)):
        if isinstance(out, Jet):
            vals[:, k], ders[:, k] = out.value, out.partials
        else:
            vals[:, k] = out if isinstance(out, np.ndarray) else _float(out, e)
    return vals.reshape((B,) + shape), \
        ders.reshape((B,) + shape + (n,)) if partials else None


def expression_add(A, B):
    """Entrywise sum of two grids of expressions (builds new trees)."""
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def expression_matmul(A, B):
    """Product of two square grids of expressions (builds new trees, each
    entry a left-to-right sum of products)."""
    n = len(A)
    return [[reduce(operator.add, (A[i][k] * B[k][j] for k in range(n)))
             for j in range(n)] for i in range(n)]


class OperatorField:
    """Square grid of scalar expressions acting as a (1,1)-tensor field."""

    def __init__(self, entries):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("operator field grid must be square")
        self.entries = tuple(tuple(_as_expression(e) for e in row) for row in entries)
        self.dimension = n
        self._constant_value = None
        self.program = compile_grid([e for row in self.entries for e in row],
                                    n, "entry", "field")
        if self.program.max_variable == 0:
            value = grid_floats(self.program, []).reshape(n, n)
            bad = np.flatnonzero(~np.isfinite(value))
            if len(bad):
                i, j = divmod(int(bad[0]), n)
                raise ValueError(f"entry {self.entries[i][j]} is "
                                 f"{value[i, j]}, not a finite number")
            self._constant_value = value

    @classmethod
    def parse(cls, grid, dimension: int) -> "OperatorField":
        if len(grid) != dimension or any(len(r) != dimension for r in grid):
            raise ValueError(f"expected a {dimension}x{dimension} grid")
        return cls(parse_grid(grid, dimension))

    @classmethod
    def constant(cls, matrix) -> "OperatorField":
        matrix = np.asarray(matrix, dtype=float)
        return cls([[literal(v) for v in row] for row in matrix.tolist()])

    @property
    def is_constant(self) -> bool:
        return self._constant_value is not None

    def eval(self, u) -> np.ndarray:
        if self._constant_value is not None:
            return self._constant_value.copy()
        n = self.dimension
        return grid_floats(self.program, u).reshape(n, n)

    def eval_generic(self, point) -> np.ndarray:
        n = self.dimension
        return np.fromiter(self.program.run(point), object).reshape(n, n)

    def eval_jet(self, u) -> np.ndarray:
        return self.eval_generic(jet_point(u))

    def batch_jet_arrays(self, points, partials=True):
        """Vectorized jets over a (B, n) batch of points: values (B, n, n)
        and partials (B, n, n, n), or None if not ``partials``, in one run."""
        points = np.asarray(points, dtype=float)
        B, n = points.shape
        if self._constant_value is not None:
            vals = np.broadcast_to(self._constant_value, (B, n, n)).copy()
            return vals, np.zeros((B, n, n, n)) if partials else None
        return grid_jets(self.program, (n, n), points, partials)

    def jet_arrays(self, u):
        """Values (n,n) and partials (n,n,n) with der[i,j,s] = d(entry ij)/du^s
        at one point."""
        (val,), (der,) = self.batch_jet_arrays([u])
        return val, der

    # --- expression-level algebra (used to assemble symmetry candidates) ----

    def __matmul__(self, other: "OperatorField") -> "OperatorField":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        return OperatorField(expression_matmul(self.entries, other.entries))

    def __add__(self, other: "OperatorField") -> "OperatorField":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        return OperatorField(expression_add(self.entries, other.entries))

    def scaled(self, factor) -> "OperatorField":
        factor = _as_expression(factor)
        return OperatorField(
            [[factor * e for e in row] for row in self.entries]
        )

    @classmethod
    def identity(cls, dimension: int) -> "OperatorField":
        return cls.constant(np.eye(dimension))

    def __str__(self):
        rows = ["  [" + ", ".join(str(e) for e in row) + "]" for row in self.entries]
        return "[\n" + "\n".join(rows) + "\n]"


class OneFormField:
    """Covector field: n scalar expressions alpha_1..alpha_n."""

    def __init__(self, components):
        self.components = tuple(_as_expression(c) for c in components)
        self.dimension = len(self.components)
        self.program = compile_grid(self.components, self.dimension,
                                    "component", "form")
        self.is_constant = self.program.max_variable == 0

    @classmethod
    def parse(cls, components, dimension: int) -> "OneFormField":
        if len(components) != dimension:
            raise ValueError(f"expected {dimension} components")
        return cls(parse_grid([components], dimension)[0])

    @classmethod
    def constant(cls, values) -> "OneFormField":
        return cls([Const(float(v)) for v in values])

    def eval(self, u) -> np.ndarray:
        return grid_floats(self.program, u)

    def batch_jet_arrays(self, points):
        """Vectorized jets over a (B, n) batch: values (B, n), partials
        (B, n, n)."""
        return grid_jets(self.program, (self.dimension,), points)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"
