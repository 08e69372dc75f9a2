"""Truncated multi-time Taylor jets for the hierarchy u_{t_j} = K_j(u) u_x.

A solution jet is a vector of truncated power series in (x - x0, t_1..t_m)
filled order by order: the coefficient at t-multi-index beta is produced by
the evolution equation of the first flow with beta_j > 0, so each equation
is exact along its own time axis and any incompatibility between flows i
and j shows up as a mismatch of the mixed coefficients computed via the two
evolution routes.  For families of mutual symmetries the mismatch vanishes
to rounding; for non-symmetric pairs it is order one already at degree 2.

Series are dense float arrays over a graded monomial index, built on first
use for each (nvars, order) and cached (dense truncated Taylor arithmetic,
Griewank & Walther, *Evaluating Derivatives*, ch. 13).  Matrices of series
are coefficient stacks (..., r, c, size) with a truncated matmul and inverse.

A series may carry a truncation at a lower set S of coefficients, one
closed under divisors: its products then sum only the pairs of S's
coefficients, each in the whole product's order, and hold zeros off S.
Truncation at S is a ring homomorphism, so every coefficient in S is that
of the whole computation bit for bit.  Level d of the fill reads the
fields only at t-level d - 1 below the order, so it runs their programs
truncated at the t-levels up to d - 1 below the order (7,098 pairs over
the six levels of a five-variable order-6 jet, where whole products take
6 x 8,008); the levels' results make ``JetSolution.rhs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType

import numpy as np

from .errors import ExprEvalError, OpfrobError
from .numkit import mat_inv, mat_rank

__all__ = ["MultiSeries", "JetSolution", "taylor_flow",
           "flow_compatibility_residual"]

MAX_ORDER = 6      # the largest truncation order taylor_flow fills


class _Layout:
    """Graded monomial index in ``nvars`` variables up to total degree
    ``order``: ``exps[k]`` are the exponents of coefficient k.  A monomial's
    code, its exponents in radix order + 1, adds under products because no
    kept exponent exceeds ``order``."""

    def __init__(self, nvars, order):
        self.order = order
        # exponents by degree d, each from a multiset of d variables, by
        # descending powers of the leading variables
        self.exps = np.vstack([(np.array(list(combinations_with_replacement(
            range(nvars), d)), dtype=np.intp)[:, :, None]
            == np.arange(nvars)).sum(axis=1) for d in range(order + 1)])
        self.deg = self.exps.sum(axis=1)
        self.size = len(self.exps)
        self.radix = (order + 1) ** np.arange(nvars)
        self.codes = self.exps @ self.radix
        self._sorter = np.argsort(self.codes)
        self._sorted = self.codes[self._sorter]
        # product pairs (left, right), one pair of degree blocks at a time,
        # grouped by their target for one sum per coefficient
        blk = [np.flatnonzero(self.deg == d) for d in range(order + 1)]
        left, right = map(np.concatenate, zip(*[
            [a.ravel() for a in np.broadcast_arrays(blk[d][:, None], blk[e])]
            for d in range(order + 1) for e in range(order + 1 - d)]))
        target = self.index(self.codes[left] + self.codes[right])
        counts = np.bincount(target, minlength=self.size)
        by_target = np.argsort(target, kind="stable")
        del target                  # before the gathers, for a lower peak
        self.left, self.right = left[by_target], right[by_target]
        self.starts = np.cumsum(counts) - counts
        # d/d(variable v): coefficient src times its exponent lands at dst
        srcs = [np.flatnonzero(self.exps[:, v]) for v in range(nvars)]
        self.diffs = [(s, self.index(self.codes[s] - self.radix[v]),
                       self.exps[s, v].astype(float))
                      for v, s in enumerate(srcs)]

    def index(self, codes):
        """Positions of the monomials with these codes."""
        return self._sorter[np.searchsorted(self._sorted, codes)]

    def pairs_at(self, at):
        """The product pairs of the distinct coefficients ``at``, in any
        order, as (at, left, right, starts): each coefficient's segment of
        the whole table, gathered, so ``mul`` sums it alike.  An empty
        ``at`` gives products with no coefficient."""
        ends = np.append(self.starts[1:], len(self.left))
        lens = ends[at] - self.starts[at]
        starts = np.cumsum(lens) - lens
        take = np.arange(lens.sum()) + np.repeat(self.starts[at] - starts,
                                                 lens)
        return at, self.left[take], self.right[take], starts

    def mul(self, a, b, pairs=None):
        """Truncated product of coefficient arrays: one gather, one sum;
        with ``pairs`` from ``pairs_at(at)``, its coefficients ``at``."""
        _, left, right, starts = pairs or (None, self.left, self.right,
                                           self.starts)
        return np.add.reduceat(a[..., left] * b[..., right], starts, axis=-1)

    def matmul(self, A, B):
        """Truncated products of matrices of series, (..., r, k, size) @
        (..., k, c, size)."""
        prods = np.moveaxis(A[..., self.left], -1, -3) \
            @ np.moveaxis(B[..., self.right], -1, -3)
        return np.add.reduceat(np.moveaxis(prods, -3, -1), self.starts,
                               axis=-1)

    def inv(self, A):
        """Inverse of one matrix of series (m, m, size) by Newton steps
        X <- X (2 Id - A X) = 2 X - X A X from ``mat_inv`` of its constant
        term; each step doubles the degree reached."""
        X = np.zeros_like(A)
        X[..., 0] = mat_inv(A[..., 0])
        for _ in range(self.order.bit_length()):
            X = 2.0 * X - self.matmul(X, self.matmul(A, X))
        return X

    def diff(self, c, var):
        """d/d(variable var) of coefficient arrays (..., size)."""
        src, dst, exps = self.diffs[var]
        out = np.zeros_like(c)
        out[..., dst] = c[..., src] * exps
        return out


_layout = lru_cache(maxsize=None)(_Layout)


class MultiSeries:
    """Multivariate power series truncated at a total degree: the float
    coefficients ``c`` over the graded monomial index ``layout``.

    ``trunc`` (see ``truncated``), when not None, is a table
    ``layout.pairs_at(S)`` of a set S of coefficients closed under
    divisors: products then form only the coefficients in S and hold zeros
    off S.  Truncation at such an S is a ring homomorphism, so every result
    equals at S that of the whole series, bit for bit."""

    __slots__ = ("layout", "c", "trunc")

    def __init__(self, nvars, order):
        self.layout = _layout(nvars, order)
        self.c = np.zeros(self.layout.size)
        self.trunc = None

    @classmethod
    def constant(cls, value, nvars, order):
        return cls(nvars, order)._scalar(value)

    @classmethod
    def variable(cls, index, nvars, order):
        s = cls(nvars, order)
        s.c[1 + index] = 1.0
        return s

    @property
    def coeffs(self):
        """Read-only {exponent tuple: coefficient} of the nonzero entries."""
        nz = np.flatnonzero(self.c)
        return MappingProxyType(dict(zip(
            map(tuple, self.layout.exps[nz].tolist()), self.c[nz].tolist())))

    def _like(self, c):
        s = object.__new__(MultiSeries)
        s.layout, s.c, s.trunc = self.layout, c, self.trunc
        return s

    def truncated(self, pairs) -> "MultiSeries":
        """A view of these coefficients truncated at the table ``pairs``
        (None: the whole layout); series of one computation share it."""
        s = self._like(self.c)
        s.trunc = pairs
        return s

    def _scalar(self, value):
        c = np.zeros_like(self.c)
        c[0] = value
        return self._like(c)

    def copy(self):
        return self._like(self.c.copy())

    def dense(self, entries) -> np.ndarray:
        """Coefficients (*shape, size) of an array of series and numbers."""
        E = np.asarray(entries)
        return np.array([self._coeffs_of(x if isinstance(x, MultiSeries)
                                         else float(x)) for x in E.flat]
                        ).reshape(E.shape + (self.layout.size,))

    def grid(self, C):
        """Nested lists of series over the coefficients C (..., size)."""
        return [self.grid(c) for c in C] if C.ndim > 1 else self._like(C)

    def constant_term(self) -> float:
        return float(self.c[0])

    def coefficient(self, key) -> float:
        if min(key) < 0 or sum(key) > self.layout.order:
            return 0.0
        return float(self.c[self.layout.index(key @ self.layout.radix)])

    def _coeffs_of(self, other):
        if isinstance(other, (int, float)):
            return self._scalar(other).c
        if not isinstance(other, MultiSeries):
            return None
        if other.layout is not self.layout:
            raise ValueError("series shape mismatch")
        if other.trunc is not self.trunc:
            raise ValueError("series truncated at different sets")
        return other.c

    def __add__(self, other):
        c = self._coeffs_of(other)
        return NotImplemented if c is None else self._like(self.c + c)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.c)

    def __sub__(self, other):
        c = self._coeffs_of(other)
        return NotImplemented if c is None else self._like(self.c - c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._like(self.c * float(other) if other != 0
                              else np.zeros_like(self.c))
        c = self._coeffs_of(other)
        if c is None:
            return NotImplemented
        if self.trunc is None:
            return self._like(self.layout.mul(self.c, c))
        out = np.zeros_like(self.c)
        out[self.trunc[0]] = self.layout.mul(self.c, c, self.trunc)
        return self._like(out)

    __rmul__ = __mul__

    def reciprocal(self):
        c0 = self.constant_term()
        if c0 == 0.0:
            raise ExprEvalError("series reciprocal with zero constant term")
        # geometric series in the nilpotent part: 1/(c0 + x) = sum (-x/c0)^k / c0
        x = self - c0
        term = acc = self._scalar(1.0)
        for _ in range(self.layout.order):
            term = term * x * (-1.0 / c0)
            acc = acc + term
        return acc * (1.0 / c0)

    def __truediv__(self, other):
        if isinstance(other, MultiSeries):
            return self * other.reciprocal()
        if other == 0:
            raise ZeroDivisionError("series divided by zero scalar")
        return self * (1.0 / float(other))

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self.reciprocal() * float(other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.reciprocal() ** (-k)
        acc, base = self._scalar(1.0), self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def diff(self, var) -> "MultiSeries":
        return self._like(self.layout.diff(self.c, var))

    def __repr__(self):
        return f"MultiSeries({sorted(self.coeffs.items())!r})"


@dataclass
class JetSolution:
    """Taylor coefficients of u(x, t_1..t_m) about (x0, 0) to total degree
    ``order``; series variables are ordered (x - x0, t_1, .., t_m).
    ``rhs`` holds every flow's right-hand side K_j(u) u_x, (m, n, size), at
    the degrees below ``order``.  Degree ``order`` holds zeros: the jet does
    not determine it, as u_x there needs u at degree order + 1."""

    dimension: int
    nflows: int
    order: int
    x0: float
    series: list
    rhs: np.ndarray
    generic_warning: bool = False

    def coefficient(self, component: int, exponents) -> float:
        return self.series[component].coefficient(exponents)

    def is_finite(self) -> bool:
        """Whether every coefficient of the jet and of ``rhs`` is finite."""
        return all(np.isfinite(c).all() for c in [self.rhs] + [
            s.c for s in self.series])


def _flow_rhs(fields, u, count) -> np.ndarray:
    """K_j(u) u_x of every flow at the first ``count`` coefficients of the
    truncation that the series u share, (m, n, count): the fields' programs
    run in that truncated ring, and their entries times u_x as
    ``MultiSeries`` multiplies, over those coefficients' pairs alone."""
    lay, zeros = u[0].layout, np.zeros(count)
    at, left, right, starts = u[0].trunc
    end = np.append(starts, len(left))[count]
    at = at[:count]
    pairs = at, left[:end], right[:end], starts[:count]
    ux = [lay.diff(s.c, 0) for s in u]

    def term(k, v):
        return lay.mul(k.c, v, pairs) if isinstance(k, MultiSeries) else \
            v[at] * float(k) if k != 0 else zeros

    return np.array([[sum((term(k, v) for k, v in zip(row, ux)), zeros)
                      for row in f.eval_generic(list(u))] for f in fields])


@np.errstate(all="ignore")     # a non-finite jet fails its residual
def taylor_flow(fields, initial_curve, order, x0: float = 0.0) -> JetSolution:
    """Fill the Taylor jet of the multi-flow solution with initial curve
    u(x, 0) given by polynomial coefficients (ascending powers of x).

    ``fields`` is a list of m operator fields in dimension n (m <= n); the
    jet then lives in 1 + m variables.  A non-generic initial curve (the
    vectors K_i(u0) u0' dependent) only triggers a warning flag.
    """
    if order > MAX_ORDER:
        raise OpfrobError(f"truncation order {order} exceeds the configured "
                          f"cap {MAX_ORDER}")
    m, n = len(fields), fields[0].dimension

    # initial data: u0_i(x0 + x) by Horner at t-level 0, where it lives, in
    # the rows of U; the series of u are views of those rows, filled below
    xvar = MultiSeries.variable(0, 1 + m, order)
    lay = xvar.layout
    T = lay.exps[:, 1:]
    tlevel = T.sum(axis=1)
    x = xvar.truncated(lay.pairs_at(np.flatnonzero(tlevel == 0)))
    U = np.zeros((len(initial_curve), lay.size))
    for row, coeffs in zip(U, initial_curve):
        for c in reversed([float(c) for c in coeffs]):
            row[:] = (x._like(row) * (x + x0) + c).c
    u = [xvar._like(row) for row in U]
    if len(u) != n:
        raise OpfrobError(f"initial curve needs {n} components, got {len(u)}")

    # u0(x0) and u0'(x0) are the coefficients of 1 and x
    cols = np.column_stack([f.eval(U[:, 0]) @ U[:, 1] for f in fields])
    warning = mat_rank(cols) < m

    # order-by-order fill, routed by the minimal flow index: the monomial
    # with t-part beta comes from flow j = the first with beta_j > 0, at
    # beta_j lowered by one, divided by beta_j.  Level d reads K(u) u_x at
    # its sources, all of t-level d - 1 below order (each the source of its
    # t_1 step), so its programs run truncated at the t-levels up to d - 1
    # below order, a set closed under divisors, with a pair table of the
    # sources first.  The levels' sources, all below order, make ``rhs``
    dst = np.flatnonzero(tlevel)
    flow = np.argmax(T[dst] > 0, axis=1)
    src = lay.index(lay.codes[dst] - lay.radix[1 + flow])
    div, level = T[dst, flow].astype(float), tlevel[dst]
    below = lay.deg < order
    rhs = np.zeros((m, n, np.count_nonzero(below)))   # a prefix: deg ascends
    for d in range(order):
        k, at = level == d + 1, np.flatnonzero(below & (tlevel == d))
        pairs = lay.pairs_at(np.append(at, np.flatnonzero(
            below & (tlevel < d))))
        rhs[..., at] = _flow_rhs(fields, [s.truncated(pairs) for s in u],
                                 len(at))
        U[:, dst[k]] = rhs[flow[k], :, src[k]].T / div[k]
    rhs = np.pad(rhs, [(0, 0), (0, 0), (0, lay.size - rhs.shape[-1])])
    return JetSolution(dimension=n, nflows=m, order=order, x0=x0, series=u,
                       rhs=rhs, generic_warning=warning)


@np.errstate(all="ignore")     # an overflow gives an inf residual
def flow_compatibility_residual(sol: JetSolution, i: int, j: int) -> float:
    """Max coefficient discrepancy between d_{t_i} d_{t_j} u computed via
    the two evolution routes (d_{t_i} of flow j's right-hand side against
    d_{t_j} of flow i's), compared up to total degree order - 2.  Flow
    indices are 0-based.  NaN when a coefficient of the jet or of ``rhs``
    is not finite: an overflowed jet can compare equal."""
    if sol.order < 2:
        raise OpfrobError("compatibility needs truncation order >= 2")
    if not sol.is_finite():
        return float("nan")
    lay = sol.series[0].layout
    a = lay.diff(sol.rhs[j], 1 + i)   # d/dt_i of flow-j evolution
    b = lay.diff(sol.rhs[i], 1 + j)   # d/dt_j of flow-i evolution
    return float(np.max(np.abs(a - b)[:, lay.deg <= sol.order - 2],
                        initial=0.0))
