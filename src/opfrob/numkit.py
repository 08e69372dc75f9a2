"""Dense linear algebra at desk scale, and first-order jets.

Matrices are small (n <= ~16).  The float checks work on stacks (K, r, c)
over a whole sample batch: ``batch_solve`` runs one elimination with
partial pivoting on every system of a stack at once, ``mat_rank`` one row
reduction and ``sqrt_near_identity`` one square-root iteration, each with
the arithmetic of a lone call.  ``mat_solve`` and ``mat_inv`` are that
elimination on one float matrix, after the regularity test of
``first_singular``.  ``Jet`` carries a value and its partials; with array
values it evaluates expressions over a whole batch of points.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OpfrobError, SingularMatrixError, SqrtConvergenceError

__all__ = [
    "Jet",
    "jet_point",
    "split_jet_matrix",
    "split_jet_vector",
    "first_singular",
    "mat_solve",
    "mat_inv",
    "batch_solve",
    "mat_rank",
    "distinct_rows",
    "on_distinct_rows",
    "take_rows",
    "sqrt_near_identity",
    "max_abs",
    "batch_max_abs",
    "hadamard_ratio",
]


def _is_plain(x) -> bool:
    """Numbers and float arrays combine with jets directly; object arrays
    must fall back to numpy's elementwise dispatch."""
    if isinstance(x, (int, float)):
        return True
    return isinstance(x, np.ndarray) and x.dtype != object


def _scale_partials(v, partials):
    """v * partials with broadcasting over a trailing coordinate axis."""
    arr = np.asarray(v)
    if arr.ndim and partials.ndim == arr.ndim + 1:
        return arr[..., None] * partials
    return v * partials


class Jet:
    """First-order jet: a value with exact partials d/du^1..d/du^n.

    Arithmetic follows the Leibniz rule exactly; the value may be a float or
    a numpy array (batched evaluation), with partials carrying one extra
    trailing axis of length n.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = np.asarray(partials, dtype=float)

    def __repr__(self):
        return f"Jet({self.value!r}, {self.partials!r})"

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value, self.partials + other.partials)
        if _is_plain(other):
            return Jet(self.value + other, self.partials)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value - other.value, self.partials - other.partials)
        if _is_plain(other):
            return Jet(self.value - other, self.partials)
        return NotImplemented

    def __rsub__(self, other):
        if _is_plain(other):
            return Jet(other - self.value, -self.partials)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.value * other.value,
                _scale_partials(self.value, other.partials)
                + _scale_partials(other.value, self.partials),
            )
        if _is_plain(other):
            return Jet(self.value * other, _scale_partials(other, self.partials))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if np.any(np.asarray(other.value) == 0):
                raise ZeroDivisionError("jet division by zero value")
            v = self.value / other.value
            num = self.partials - _scale_partials(v, other.partials)
            return Jet(v, _scale_partials(1.0 / other.value, num))
        if _is_plain(other):
            if np.any(np.asarray(other) == 0):
                raise ZeroDivisionError("jet division by zero value")
            return Jet(self.value / other, _scale_partials(1.0 / other, self.partials))
        return NotImplemented

    def __rtruediv__(self, other):
        if _is_plain(other):
            if np.any(np.asarray(self.value) == 0):
                raise ZeroDivisionError("jet division by zero value")
            v = other / self.value
            return Jet(v, _scale_partials(-v / self.value, self.partials))
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            v = np.asarray(self.value, dtype=float)
            one = 1.0 if v.ndim == 0 else np.ones_like(v)
            return Jet(one, np.zeros_like(self.partials))
        if k < 0 and np.any(np.asarray(self.value) == 0):
            raise ZeroDivisionError("zero jet raised to negative power")
        v = self.value ** k
        return Jet(v, _scale_partials(k * self.value ** (k - 1), self.partials))

    def __neg__(self):
        return Jet(-self.value, -self.partials)


def jet_point(u) -> list:
    """Seed a coordinate point: jet i carries value u[i] and partial e_i."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    eye = np.eye(n)
    return [Jet(float(u[i]), eye[i]) for i in range(n)]


def split_jet_matrix(arr, n: int):
    """Array (any shape) of jets/numbers -> (values, partials) with the
    partials carrying one extra trailing axis of length n."""
    arr = np.asarray(arr, dtype=object)
    val = np.empty(arr.shape)
    der = np.zeros(arr.shape + (n,))
    for idx, x in np.ndenumerate(arr):
        if isinstance(x, Jet):
            val[idx] = x.value
            der[idx] = x.partials
        else:
            val[idx] = float(x)
    return val, der


# the vector form is the same split; the name stays for its callers
split_jet_vector = split_jet_matrix


def max_abs(A) -> float:
    return float(np.max(np.abs(np.asarray(A, dtype=float)), initial=0.0))


def batch_max_abs(X) -> np.ndarray:
    """max |X[b]| for every index b of the leading axis."""
    return np.max(np.abs(X), axis=tuple(range(1, X.ndim)), initial=0.0)


def hadamard_ratio(D) -> np.ndarray:
    """|det D| / (product of D's row norms) for each matrix of the stack
    D (..., n, n), at most 1 (Hadamard); 0 where the bound is 0 or the
    ratio NaN."""
    bound = np.prod(np.sqrt(np.add.reduce(D * D, -1)), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(np.linalg.det(D)) / bound
    return np.where((bound != 0.0) & ~np.isnan(ratio), ratio, 0.0)


def first_singular(A, tol: float = 1e-12):
    """(k, why) for the first matrix A[k] of the (K, m, m) stack that is not
    finite or whose smallest singular value is at or below ``tol`` times
    its largest entry magnitude, or (None, "") when every one is regular."""
    finite = np.isfinite(A).all(axis=(-2, -1))
    smin = np.linalg.svd(np.where(finite[:, None, None], A, 0.0),
                         compute_uv=False)[:, -1]
    limit = tol * np.maximum(np.max(np.abs(A), axis=(-2, -1), initial=0.0),
                             1e-300)
    bad = np.flatnonzero(~(finite & (smin > limit)))
    if not len(bad):
        return None, ""
    k = int(bad[0])
    return k, (f"smallest singular value {smin[k]:.3e} not above "
               f"{limit[k]:.3e}" if finite[k] else "entries not finite")


def mat_solve(A, B, tol: float = 1e-12) -> np.ndarray:
    """X with A X = B for one float matrix A and a vector or matrix B, by
    ``batch_solve``, or SingularMatrixError if ``first_singular`` rejects A."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    why = first_singular(A[None], tol)[1]
    if why:
        raise SingularMatrixError(why)
    X = batch_solve(A[None], (B[:, None] if B.ndim == 1 else B)[None])[0]
    return X.reshape(B.shape)


def mat_inv(A, tol: float = 1e-12) -> np.ndarray:
    return mat_solve(A, np.eye(len(A)), tol)


def batch_solve(A, B) -> np.ndarray:
    """X[k] with A[k] X[k] = B[k] for a float stack A (K, n, n) and B
    (K, n, m), by elimination with partial pivoting run on every matrix at
    once: each X[k] equals a lone ``mat_solve(A[k], B[k])`` bit for bit.
    There is no pivot threshold; callers check regularity first
    (``first_singular``)."""
    A = np.array(A, dtype=float)
    X = np.array(B, dtype=float)
    lanes, n = np.arange(len(A)), A.shape[-1]
    with np.errstate(all="ignore"):
        for col in range(n):
            piv = col + np.argmax(np.abs(A[:, col:, col]), axis=1)
            for M in (A, X):
                M[lanes, col], M[lanes, piv] = M[lanes, piv], M[lanes, col]
            f = A[:, col + 1:, col, None] / A[:, col, None, col, None]
            A[:, col + 1:, col + 1:] = A[:, col + 1:, col + 1:] \
                - f * A[:, col, None, col + 1:]
            X[:, col + 1:] = X[:, col + 1:] - f * X[:, col, None]
        for r in range(n - 1, -1, -1):
            s = X[:, r]
            for k in range(r + 1, n):
                s = s - A[:, r, k, None] * X[:, k]
            X[:, r] = s / A[:, r, r, None]
    return X


def mat_rank(A, tol: float = 1e-9):
    """Numerical rank by row reduction with pivot threshold relative to the
    largest entry magnitude.

    ``A`` is one (r, c) matrix, giving an int, or a stack (..., r, c),
    giving an int array of shape (...).  Every matrix of a stack runs the
    elimination of a lone call: the first largest remaining entry of the
    column is the pivot (a NaN counts as largest), a pivot at or below the
    threshold skips the column, and only the rows below the pivot row are
    updated, so each rank equals that of a 2-D call bit for bit.
    """
    A = np.array(A, dtype=float)
    batch, (r, c) = A.shape[:-2], A.shape[-2:]
    A = A.reshape((math.prod(batch), r, c))
    rank = np.zeros(len(A), dtype=int)     # also each matrix's pivot row
    scale = np.max(np.abs(A), axis=(1, 2), initial=0.0)
    threshold = tol * scale
    live = scale != 0.0
    lanes, rows = np.arange(len(A)), np.arange(r)
    # rows above the pivot and skipping lanes are computed and discarded,
    # so their overflow or 0/0 must not warn
    with np.errstate(all="ignore"):
        for col in range(c):
            live &= rank < r
            if not live.any():
                break
            row = np.minimum(rank, r - 1)
            mag = np.where(rows >= row[:, None], np.abs(A[:, :, col]), -1.0)
            piv = np.argmax(mag, axis=1)
            step = live & ~(mag[lanes, piv] <= threshold)
            piv = np.where(step, piv, row)   # a skipping lane swaps nothing
            top, low = A[lanes, piv], A[lanes, row]
            A[lanes, piv], A[lanes, row] = low, top
            below = step[:, None] & (rows > row[:, None])
            f = A[:, :, col] / np.where(step, top[:, col], 1.0)[:, None]
            A = np.where(below[:, :, None],
                         A - f[:, :, None] * top[:, None, :], A)
            rank += step
    return int(rank[0]) if not batch else rank.reshape(batch)


def distinct_rows(*stacks):
    """(first, which) for (B, ...) stacks keyed together row by row by their
    bytes (so -0.0 and 0.0 differ): first[k] is where the k-th distinct row
    first occurs, in first-occurrence order, and which[b] the k of row b."""
    keys = list(zip(*([row.tobytes() for row in S.reshape(
        len(S), math.prod(S.shape[1:]))] for S in stacks)))
    firsts = {key: b for b, key in reversed(list(enumerate(keys)))}
    first = np.array(sorted(firsts.values()), dtype=int)
    return first, np.searchsorted(first, [firsts[key] for key in keys])


def on_distinct_rows(fn, stacks, points, *args):
    """fn(*stacks, points, *args) run on the distinct rows of the (B, ...)
    stacks only, each at its first point, and gathered back: an array, a
    tuple of arrays, or an object of arrays and Nones (a None stack stays
    None).  Rows are keyed by the array stacks; an object of (B, ...)
    arrays among the stacks, which those rows determine, follows them.  An
    OpfrobError's ``index`` is its row's first point."""
    first, which = distinct_rows(*(S for S in stacks
                                   if isinstance(S, np.ndarray)))
    if len(first) == len(which):        # all rows differ: copy nothing
        return fn(*stacks, points, *args)
    try:
        out = fn(*(S if S is None else take_rows(S, first) for S in stacks),
                 np.asarray(points)[first], *args)
    except OpfrobError as exc:
        exc.index = int(first[exc.index])
        raise
    return take_rows(out, which)


def take_rows(out, rows):
    """``rows`` (indices or a slice) of an array, a tuple or an object."""
    if isinstance(out, np.ndarray):
        return out[rows]
    if isinstance(out, tuple):
        return tuple(x[rows] for x in out)
    return type(out)(**{k: v if v is None else v[rows]
                        for k, v in vars(out).items()})


def sqrt_near_identity(S, tol: float = 1e-10, max_steps: int = 60) -> np.ndarray:
    """Principal matrix square root by the coupled (Denman-Beavers) Newton
    iteration Y <- (Y + Z^-1)/2, Z <- (Z + Y^-1)/2.

    Converges for spectra in the open right half-plane, including
    non-diagonalisable S, with R -> Id as S -> Id.  Raises
    SqrtConvergenceError when the iteration fails, which signals a violated
    spectrum precondition.  A stack (..., n, n) runs one iteration, each
    matrix stopping at its own step, so each root is a lone call's bit for
    bit; if any fails, lone calls find the first, whose flat position is
    the error's ``index``.
    """
    S = np.asarray(S, dtype=float)
    n = S.shape[-1]
    if S.ndim < 2 or S.shape[-2] != n:
        raise ValueError("matrix must be square")
    T = S.reshape(-1, n, n)
    limit = tol * np.maximum(batch_max_abs(T), 1.0)
    roots, lane = np.empty_like(T), np.arange(len(T))
    Y, Z = T.copy(), np.broadcast_to(np.eye(n), T.shape)
    why = (f"no convergence in {max_steps} steps; spectrum likely not in "
           "the open right half-plane")
    for _ in range(max_steps):
        try:
            Zi, Yi = np.linalg.inv(Z), np.linalg.inv(Y)
        except np.linalg.LinAlgError as exc:
            why = f"iteration hit a singular factor: {exc}"
            break
        Y, Z = 0.5 * (Y + Zi), 0.5 * (Z + Yi)
        if not np.all(np.isfinite(Y)):
            why = "iteration diverged to non-finite values"
            break
        done = batch_max_abs(Y @ Y - T[lane]) <= limit[lane]
        roots[lane[done]] = Y[done]
        lane, Y, Z = lane[~done], Y[~done], Z[~done]
        if not len(lane):
            return roots.reshape(S.shape)
    if S.ndim == 2:
        raise SqrtConvergenceError(why)
    for k, M in enumerate(T):
        try:
            sqrt_near_identity(M, tol, max_steps)
        except SqrtConvergenceError as exc:
            exc.index = k
            raise
