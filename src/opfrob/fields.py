"""Operator fields and 1-form fields: grids of expressions on the manifold.

An operator field is an n x n matrix of expressions in u1..un, evaluable at
a point over floats (values), jets (values plus exact first partials) or any
other scalar type the expression evaluator supports.  These are the geometric
raw data for every verification in the package.
"""

from __future__ import annotations

import numpy as np

from .exprs import Const, Expression, eval_expr, parse_grid
from .numkit import Jet, jet_point, split_jet_matrix, split_jet_vector

__all__ = ["OperatorField", "OneFormField", "expression_matmul"]


def _as_expression(x) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression entry")


def checked_grid(exprs, dimension: int, entry: str, owner: str) -> bool:
    """Raise ValueError at the first expression that refers to a coordinate
    beyond ``dimension``; return whether all of them are constant.  One
    walk with one memo visits each distinct node of the grid once."""
    memo = {}
    constant = True
    for e in exprs:
        m = e.max_variable(memo)
        if m > dimension:
            raise ValueError(f"{entry} {e} refers to u{m} but the {owner} "
                             f"dimension is {dimension}")
        constant = constant and m == 0
    return constant


def eval_grid(rows, u) -> np.ndarray:
    """Float values of a square grid of expressions at ``u``.  Like every
    grid evaluator here, it gives the entries one memo, so that a node
    common to several of them is evaluated once."""
    point = [float(x) for x in u]
    memo = {}
    return np.array([[float(eval_expr(e, point, memo)) for e in row]
                     for row in rows])


def eval_grid_generic(rows, point) -> np.ndarray:
    """Object array of a square grid of expressions evaluated over the
    scalars of ``point`` (jets, series)."""
    memo = {}
    out = np.empty((len(rows), len(rows)), dtype=object)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            out[i, j] = eval_expr(e, point, memo)
    return out


def _batch_jets(exprs, shape, points):
    """Vectorized jets of the expressions (laid out row-major in ``shape``)
    over a (B, n) batch of points: values (B, *shape) and partials
    (B, *shape, n), in one pass over the grid's distinct nodes."""
    points = np.asarray(points, dtype=float)
    B, n = points.shape
    eye = np.eye(n)
    coords = [Jet(points[:, i], np.broadcast_to(eye[i], (B, n)).copy())
              for i in range(n)]
    vals = np.empty((B, len(exprs)))
    ders = np.zeros((B, len(exprs), n))
    memo = {}
    for k, e in enumerate(exprs):
        out = eval_expr(e, coords, memo)
        if isinstance(out, Jet):
            vals[:, k] = out.value
            ders[:, k, :] = out.partials
        else:
            vals[:, k] = out
    return vals.reshape((B,) + shape), ders.reshape((B,) + shape + (n,))


def expression_matmul(A, B):
    """Product of two square grids of expressions (builds new trees)."""
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = A[i][0] * B[0][j]
            for k in range(1, n):
                s = s + A[i][k] * B[k][j]
            row.append(s)
        out.append(row)
    return out


class OperatorField:
    """Square grid of scalar expressions acting as a (1,1)-tensor field."""

    def __init__(self, entries):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("operator field grid must be square")
        self.entries = tuple(tuple(_as_expression(e) for e in row) for row in entries)
        self.dimension = n
        self._constant_value = None
        if checked_grid((e for row in self.entries for e in row), n,
                        "entry", "field"):
            value = eval_grid(self.entries, [])
            bad = np.flatnonzero(~np.isfinite(value))
            if len(bad):
                i, j = divmod(int(bad[0]), n)
                raise ValueError(f"entry {self.entries[i][j]} is "
                                 f"{value[i, j]}, not a finite number")
            self._constant_value = value
        self._jet_cache = {}

    @classmethod
    def parse(cls, grid, dimension: int) -> "OperatorField":
        if len(grid) != dimension or any(len(r) != dimension for r in grid):
            raise ValueError(f"expected a {dimension}x{dimension} grid")
        return cls(parse_grid(grid, dimension))

    @classmethod
    def constant(cls, matrix) -> "OperatorField":
        matrix = np.asarray(matrix, dtype=float)
        return cls([[Const(v if v != int(v) else int(v)) for v in row]
                    for row in matrix.tolist()])

    @property
    def is_constant(self) -> bool:
        return self._constant_value is not None

    def eval(self, u) -> np.ndarray:
        if self._constant_value is not None:
            return self._constant_value.copy()
        return eval_grid(self.entries, u)

    def eval_generic(self, point) -> np.ndarray:
        return eval_grid_generic(self.entries, point)

    def eval_jet(self, u) -> np.ndarray:
        return self.eval_generic(jet_point(u))

    def batch_jet_arrays(self, points):
        """Vectorized jets over a (B, n) batch of points: values (B, n, n)
        and partials (B, n, n, n) in one pass over each entry's tree."""
        points = np.asarray(points, dtype=float)
        B, n = points.shape
        if self._constant_value is not None:
            vals = np.broadcast_to(self._constant_value, (B, n, n)).copy()
            return vals, np.zeros((B, n, n, n))
        return _batch_jets([e for row in self.entries for e in row], (n, n),
                           points)

    def jet_arrays(self, u):
        """Values (n,n) and partials (n,n,n) with der[i,j,s] = d(entry ij)/du^s.

        Cached per point; callers treat the returned arrays as read-only.
        """
        key = tuple(float(x) for x in u)
        hit = self._jet_cache.get(key)
        if hit is not None:
            return hit
        if self._constant_value is not None:
            n = self.dimension
            out = (self._constant_value, np.zeros((n, n, n)))
        else:
            out = split_jet_matrix(self.eval_jet(u), self.dimension)
        if len(self._jet_cache) > 1024:
            self._jet_cache.clear()
        self._jet_cache[key] = out
        return out

    # --- expression-level algebra (used to assemble symmetry candidates) ----

    def __matmul__(self, other: "OperatorField") -> "OperatorField":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        return OperatorField(expression_matmul(self.entries, other.entries))

    def __add__(self, other: "OperatorField") -> "OperatorField":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        return OperatorField(
            [[a + b for a, b in zip(ra, rb)]
             for ra, rb in zip(self.entries, other.entries)]
        )

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
        self.is_constant = checked_grid(self.components, self.dimension,
                                        "component", "form")

    @classmethod
    def parse(cls, components, dimension: int) -> "OneFormField":
        if len(components) != dimension:
            raise ValueError(f"expected {dimension} components")
        return cls(parse_grid([components], dimension)[0])

    @classmethod
    def constant(cls, values) -> "OneFormField":
        return cls([Const(float(v)) for v in values])

    def eval(self, u) -> np.ndarray:
        point = [float(x) for x in u]
        return np.array([float(v) for v in self.eval_generic(point)])

    def eval_generic(self, point):
        memo = {}
        return [eval_expr(c, point, memo) for c in self.components]

    def jet_arrays(self, u):
        """Values (n,) and partials (n,n) with der[i,j] = d(alpha_i)/du^j."""
        jets = self.eval_generic(jet_point(u))
        return split_jet_vector(jets, self.dimension)

    def batch_jet_arrays(self, points):
        """Vectorized jets over a (B, n) batch: values (B, n), partials
        (B, n, n)."""
        return _batch_jets(self.components, (self.dimension,), points)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"
