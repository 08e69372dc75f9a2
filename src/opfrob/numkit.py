"""Generic-scalar dense linear algebra at desk scale.

Matrices are small (n <= ~16) numpy arrays, either float64 or object dtype
whose entries are any scalar supporting the arithmetic dunders (first-order
jets, truncated power series).  Elimination is hand-rolled with partial
pivoting so that one code path serves every scalar type; numpy's own
factorizations only ever see plain floats.  ``mat_solve`` eliminates once
for all the right-hand columns it is given, and ``mat_rank`` also takes a
float stack (..., r, c), reducing every matrix in it at once with the
arithmetic of a lone call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularMatrixError, SqrtConvergenceError

__all__ = [
    "Jet",
    "jet_point",
    "value_array",
    "split_jet_matrix",
    "split_jet_vector",
    "magnitude",
    "mat_solve",
    "mat_inv",
    "mat_rank",
    "sqrt_near_identity",
    "max_abs",
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


def _value(x):
    """Value part of one supported scalar: jets expose .value, truncated
    series their constant term, numbers pass through."""
    if isinstance(x, Jet):
        return x.value
    ct = getattr(x, "constant_term", None)
    if ct is not None:
        return ct()
    return float(x)


def value_array(A) -> np.ndarray:
    """Float value parts of an array of any shape over any supported
    scalar."""
    A = np.asarray(A)
    if A.dtype != object:
        return np.asarray(A, dtype=float)
    out = np.empty(A.shape)
    for idx, x in np.ndenumerate(A):
        out[idx] = _value(x)
    return out


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


def magnitude(x) -> float:
    """Pivot size of a generic scalar: the absolute value of its value
    part."""
    return abs(float(_value(x)))


def max_abs(A) -> float:
    A = np.asarray(A)
    if A.dtype == object:
        return max((magnitude(x) for x in A.ravel()), default=0.0)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(A)))


def _is_generic(*arrays) -> bool:
    return any(np.asarray(A).dtype == object for A in arrays)


def mat_solve(A, B, tol: float = 1e-12):
    """Solve A X = B by elimination with partial pivoting.

    Works over floats and over generic scalars (jets, series); pivots are
    chosen by ``magnitude``.  Raises SingularMatrixError when the best pivot
    falls below ``tol`` times the largest initial entry magnitude.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    vector = B.ndim == 1
    rows = [list(A[i]) for i in range(n)]
    rhs = [[B[i]] if vector else list(B[i]) for i in range(n)]
    m = len(rhs[0])

    scale = max(max_abs(A), 1e-300)
    threshold = tol * scale

    for col in range(n):
        piv = max(range(col, n), key=lambda r: magnitude(rows[r][col]))
        if magnitude(rows[piv][col]) <= threshold:
            raise SingularMatrixError(
                f"pivot {magnitude(rows[piv][col]):.3e} below "
                f"{threshold:.3e} at column {col}"
            )
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        d = rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / d
            for c in range(col + 1, n):
                rows[r][c] = rows[r][c] - f * rows[col][c]
            rows[r][col] = 0
            for c in range(m):
                rhs[r][c] = rhs[r][c] - f * rhs[col][c]

    out = [[None] * m for _ in range(n)]
    for c in range(m):
        for r in range(n - 1, -1, -1):
            s = rhs[r][c]
            for k in range(r + 1, n):
                s = s - rows[r][k] * out[k][c]
            out[r][c] = s / rows[r][r]

    generic = _is_generic(A, B)
    dtype = object if generic else float
    if vector:
        X = np.array([out[r][0] for r in range(n)], dtype=dtype)
    else:
        X = np.array(out, dtype=dtype)
    if not generic and not np.all(np.isfinite(X.astype(float))):
        raise SingularMatrixError("non-finite entries in solution")
    return X


def mat_inv(A, tol: float = 1e-12):
    A = np.asarray(A)
    n = A.shape[0]
    eye = np.eye(n) if A.dtype != object else np.asarray(np.eye(n), dtype=object)
    return mat_solve(A, eye, tol=tol)


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


def sqrt_near_identity(S, tol: float = 1e-10, max_steps: int = 60) -> np.ndarray:
    """Principal matrix square root by the coupled (Denman-Beavers) Newton
    iteration Y <- (Y + Z^-1)/2, Z <- (Z + Y^-1)/2.

    Converges for spectra in the open right half-plane, including
    non-diagonalisable S, with R -> Id as S -> Id.  Raises
    SqrtConvergenceError when the iteration fails, which signals a violated
    spectrum precondition.
    """
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    if S.shape != (n, n):
        raise ValueError("matrix must be square")
    norm_s = max(max_abs(S), 1.0)
    Y = S.copy()
    Z = np.eye(n)
    eye = np.eye(n)
    for _ in range(max_steps):
        try:
            Zi = np.linalg.solve(Z, eye)
            Yi = np.linalg.solve(Y, eye)
        except np.linalg.LinAlgError as exc:
            raise SqrtConvergenceError(f"iteration hit a singular factor: {exc}")
        Y, Z = 0.5 * (Y + Zi), 0.5 * (Z + Yi)
        if not np.all(np.isfinite(Y)):
            raise SqrtConvergenceError("iteration diverged to non-finite values")
        if max_abs(Y @ Y - S) <= tol * norm_s:
            return Y
    raise SqrtConvergenceError(
        f"no convergence in {max_steps} steps; spectrum likely not in the "
        "open right half-plane"
    )
