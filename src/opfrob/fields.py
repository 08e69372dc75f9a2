"""Grids of expressions in u1..un: operator fields, one-forms and (in
``opfrob.integ``) quadratic forms, the raw data of every verification.

An :class:`ExpressionGrid` (a row of n entries or an n x n grid) is compiled
once into a straight-line ``exprs.Program``, which evaluates over floats,
jets (values and exact first partials), batches of jets or any scalar type
with the arithmetic operators.  Each entry that reads no coordinate is
evaluated when its grid is built, and a grid that reads none is broadcast
after that.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np

from .errors import ExprEvalError
from .exprs import Const, Expression, Program, literal, parse_grid
from .numkit import Jet, jet_point

__all__ = ["ExpressionGrid", "OperatorField", "OneFormField",
           "expression_add", "expression_matmul"]


def _as_expression(x) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression entry")


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
    float array of points: values (B, *shape) and partials (B, *shape, n), or
    None without ``partials``: then it runs on the batch's float columns,
    the float operations of the jets' values.  The checks judge non-finite
    values, so numpy does not warn of them here."""
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


class ExpressionGrid:
    """A fixed-shape grid of expressions in u1..un: n x n, given as rows,
    at ``rank`` 2 and a row of n at ``rank`` 1; messages call one entry
    ``entry`` and the grid ``owner``.  The entries compile into one Program,
    row-major.  Every entry that reads no coordinate is evaluated here,
    where one that fails or is not finite raises; a grid that reads none
    broadcasts its values and zero partials after that instead of run."""

    rank, entry, owner = 2, "entry", "field"

    def __init__(self, entries):
        n = len(entries)
        if self.rank == 1:
            self.entries = flat = tuple(map(_as_expression, entries))
        elif any(len(row) != n for row in entries):
            raise ValueError(f"{self.owner} grid must be square")
        else:
            self.entries = tuple(tuple(map(_as_expression, row))
                                 for row in entries)
            flat = [e for row in self.entries for e in row]
        self.dimension, self.shape = n, (n,) * self.rank
        self.program = program = Program(flat)
        # a coordinate beyond the dimension is named at its first entry
        for e in flat if program.max_variable > n else ():
            if (m := Program([e]).max_variable) > n:
                raise ValueError(f"{self.entry} {e} refers to u{m} but the "
                                 f"{self.owner} dimension is {n}")
        self.is_constant = program.max_variable == 0
        if self.is_constant:
            value = grid_floats(program, [])
            self._constant_value = value.reshape(self.shape)
        else:   # each entry that reads no coordinate; a number is not run
            flat = [e for e, c in zip(flat, program.constant) if c]
            run = [e for e in flat if type(e) is not Const]
            ran = iter(grid_floats(Program(run), []) if run else ())
            value = [_float(e.value, e) if type(e) is Const else next(ran)
                     for e in flat]
        for e, v in zip(flat, value):
            if not math.isfinite(v):
                raise ValueError(f"{self.entry} {e} is {v}, not a finite "
                                 "number")

    @classmethod
    def parse(cls, texts, dimension: int):
        """The grid of entry texts (rows of them at rank 2), parsed with one
        intern table (``exprs.parse_grid``)."""
        rows = texts if cls.rank == 2 else [texts]
        if len(texts) != dimension or any(len(r) != dimension for r in rows):
            raise ValueError(f"expected a {dimension}x{dimension} grid"
                             if cls.rank == 2
                             else f"expected {dimension} components")
        rows = parse_grid(rows, dimension)
        return cls(rows if cls.rank == 2 else rows[0])

    @classmethod
    def constant(cls, values):
        """The grid of the numbers ``values``, an integral one as an exact
        int (``exprs.literal``)."""
        v = np.asarray(values, dtype=float).tolist()
        return cls([list(map(literal, row)) for row in v] if cls.rank == 2
                   else list(map(literal, v)))

    def eval(self, u) -> np.ndarray:
        """Float values at the point ``u``, a new array of the grid's shape."""
        if self.is_constant:
            return self._constant_value.copy()
        return grid_floats(self.program, u).reshape(self.shape)

    def batch_jet_arrays(self, points, partials=True):
        """Jets over a (B, n) batch in one run: values (B, *shape), partials
        (B, *shape, n), None without ``partials``, read-only if constant."""
        points = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        if not self.is_constant:
            return grid_jets(self.program, self.shape, points, partials)
        shape = (len(points),) + self.shape
        vals = np.broadcast_to(self._constant_value, shape).copy()
        return vals, (np.broadcast_to(0.0, shape + (self.dimension,))
                      if partials else None)


class OperatorField(ExpressionGrid):
    """Square grid of scalar expressions acting as a (1,1)-tensor field."""

    # eval and batch_jet_arrays are this class's own functions: the
    # benchmark's tracer wraps them here, and not the one-forms' or forms'
    def eval(self, u) -> np.ndarray:
        return super().eval(u)

    def batch_jet_arrays(self, points, partials=True):
        return super().batch_jet_arrays(points, partials)

    def eval_generic(self, point) -> np.ndarray:
        return np.fromiter(self.program.run(point), object).reshape(
            self.shape)

    def eval_jet(self, u) -> np.ndarray:
        return self.eval_generic(jet_point(u))

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


class OneFormField(ExpressionGrid):
    """Covector field: n scalar expressions alpha_1..alpha_n."""

    rank, entry, owner = 1, "component", "form"
