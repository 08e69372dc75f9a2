"""Pointwise Frobenius-algebra engine for commuting operator families.

At a point x the basis values K_1..K_n span a commutative subalgebra of
gl(n) when the genericity conditions hold:

  (A1) some vector xi has K_1 xi, .., K_n xi linearly independent,
  (A2) some covector a has K_1^T a, .., K_n^T a linearly independent.

Under (A1) the span closes under products and the structure constants
a_{ij}^s in K_i K_j = a_{ij}^s K_s are recovered from the single linear
system [K_1 xi | ... | K_n xi] a_{ij} = K_i K_j xi, then validated against
the full matrix identity.  A covector with components a_k induces the
bilinear form b_{ij} = a_{ij}^k a_k; when b is invertible the dual basis is
M^j = b^{ji} K_i and the coordinates of Id in the basis are the identity
coordinates.

The float checks run one pipeline over a whole (B, n) sample batch.  The
seeded xi of a basis is its best-conditioned of 32 draws: the SVD condition
number of only the draws that a certified lower bound cannot rule out (of
them all for a lone basis), which picks what the SVD of every draw picks,
then a rank test of each basis's winner (of all its draws only when the
winner fails).  A command evaluates its basis once (``stacked_jets``) into
V (B, n, n, n) and dV (B, n, n, n, n), which every check reads.
``point_data`` returns every quantity as a (B, ...) array, solving each
distinct basis once (``numkit.on_distinct_rows``) by one elimination
(``numkit.batch_solve``); with dV it adds exact first derivatives from that
same solve, by the forward-mode rules d(A^{-1}) = -A^{-1} dA A^{-1} and
dX = A^{-1}(dR - dA X) for A X = R (Giles, "An extended collection of
matrix derivative results for forward and reverse mode AD", 2008).  The
lone-point routines (``structure_constants_at``, ``well_conditioned_xi``,
``inverse_form``) serve flat bases, series, tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenericityError, SingularMatrixError
from .fields import OperatorField
from .numkit import (
    batch_max_abs,
    batch_solve,
    distinct_rows,
    first_singular,
    mat_inv,
    mat_rank,
    mat_solve,
    max_abs,
    on_distinct_rows,
)
from .report import CheckResult, VerificationReport, reduce_check

__all__ = [
    "OperatorBasis",
    "FrobeniusPointData",
    "algebra_report",
    "find_generic_vector",
    "find_generic_covector",
    "structure_constants_at",
    "well_conditioned_xi",
    "inverse_form",
    "point_data",
    "checked_solve",
    "checked_inv",
    "batch_well_conditioned_xi",
    "batch_generic_search",
    "genericity_residuals",
    "commutator_norms",
    "stacked_jets",
]

DEFAULT_TOL = 1e-9
DEFAULT_GENERIC_SAMPLES = 32


def _first_hit(mats, samples, rng, tol, products):
    """The first of ``samples`` draws v, taken one at a time, whose
    ``products`` (K_j v or v K_j, stacked by j) have full rank, or None."""
    V = np.asarray(mats, dtype=float)
    for _ in range(samples):
        v = rng.uniform(-1.0, 1.0, V.shape[-1])
        if mat_rank(products(V, v[None])[0], tol=tol) == len(mats):
            return v
    return None


def _draw_columns(V, xis):
    """cols[..., k, :, j] = V_j @ xi_k for bases V (..., n, n, n), draws
    xis (S, n)."""
    return np.matmul(V[..., None, :, :, :],
                     xis[:, None, :, None])[..., 0].swapaxes(-1, -2)


def _draw_rows(V, covs):
    """rows[..., k, j, :] = a_k @ V_j for bases V (..., n, n, n), draws covs
    (S, n)."""
    return np.matmul(covs[:, None, None, :],
                     V[..., None, :, :, :])[..., 0, :]


def find_generic_vector(mats, samples: int, rng, tol: float = DEFAULT_TOL):
    """Rejection-sample xi in [-1,1]^n; None after exhausting the draws.
    The lone-point reference of ``batch_generic_search``."""
    return _first_hit(mats, samples, rng, tol, _draw_columns)


def find_generic_covector(mats, samples: int, rng, tol: float = DEFAULT_TOL):
    return _first_hit(mats, samples, rng, tol, _draw_rows)


# A draw is pruned only when its bound exceeds its basis's cut by this
# factor, and only where the cut is at most _CUT_MAX: computed singular
# values are accurate to about n u sigma_max (Golub & Van Loan, 8.6), so
# there the computed condition numbers err far inside the factor.
_SLACK = 1.0 + 1e-6
_CUT_MAX = 1e8


def _steering(V, xis):
    """Vectors v and w, each (N, n, 1), for each column matrix A that
    ``_draw_columns`` gives, in its order: v from 2 power steps on A^T A
    started at the largest row of A, w from 2 inverse steps started at the
    largest column of an unpivoted Gauss-Jordan inverse.  Their work runs
    in one lane-last copy T[i, j, lane] of the matrices, multiplied out of
    V and xis before the columns exist, which the inverse overwrites.  They
    only steer ``_cond_bounds``, so neither the inverse's errors nor T's
    rounding can make a bound wrong."""
    n = V.shape[-1]
    T = np.matmul(V.reshape(-1, n, n, n).transpose(2, 1, 0, 3),
                  xis.T).reshape(n, n, -1)
    M = T.transpose(2, 0, 1)        # the same matrices, lane first
    lanes = np.arange(len(M))

    def largest(parts):     # per lane, argmax over i of sum_k parts[k, i]^2
        sq = np.square(parts[0])
        for part in parts[1:]:
            sq += np.square(part)
        return np.argmax(sq, axis=0)

    def steered(start, first, then):
        x = start[:, :, None]
        for _ in range(2):
            np.matmul(then, first @ x, out=x)
        return x

    v = steered(M[lanes, largest(T.swapaxes(0, 1))], M, M.swapaxes(1, 2))
    for k in range(n):
        p = 1.0 / T[k, k]
        T[k, k] = 1.0
        T[k] *= p
        for i in range(n):
            if i != k:
                f = T[i, k].copy()
                T[i, k] = 0.0
                T[i] -= f * T[k]
    return v, steered(M[lanes, :, largest(T)], M.swapaxes(1, 2), M)


def _cond_bounds(A, v, w):
    """A lower bound on the 2-norm condition number of each matrix of the
    (N, n, n) stack A, or 0 where it is not finite: |Av|/|v| over |Aw|/|w|
    for nonzero v and w, (N, n, 1) each, since sigma_max >= |Av|/|v| and
    sigma_min <= |Aw|/|w| (Golub & Van Loan, Matrix Computations, 4th ed.,
    8.2)."""

    def ratio(x):           # |Ax|^2 / |x|^2
        Ax = A @ x
        return (Ax.swapaxes(1, 2) @ Ax / (x.swapaxes(1, 2) @ x))[:, 0, 0]

    lb = np.sqrt(ratio(v) / ratio(w))
    return np.where(np.isfinite(lb), lb, 0.0)


def _best_draw(V, xis, tol):
    """Per basis of V (..., n, n, n), the index of the full-rank, finite and
    best-conditioned draw in xis (the earliest on ties), or -1.

    A stack of several bases takes the SVD condition number of each
    basis's finite draw of lowest ``_cond_bounds`` (its cut), then of only
    the draws whose bound is at most _SLACK times the cut, or of all its
    finite draws where the cut exceeds _CUT_MAX; a lone basis takes them
    all.  A pruned draw's condition number exceeds the cut, so the pick is
    that of the SVD of every draw.  Then a rank test of each basis's best
    draw, and of all its draws (taking the pruned ones' SVD) only when that
    one fails."""
    if not len(xis):
        return np.full(V.shape[:-3], -1)
    n = V.shape[-1]
    with np.errstate(all="ignore"):     # non-finite draws are judged below
        # steered before the columns exist, so that the search holds at
        # most one (N, n, n) stack besides them
        vw = _steering(V, xis) if V.size > n ** 3 else None
        cols = _draw_columns(V, xis).reshape(-1, len(xis), n, n)
        ok = np.isfinite(cols).all(axis=(-2, -1))
        conds = np.full(ok.shape, np.inf)
        rows = np.arange(len(conds))
        pruned, todo = np.zeros_like(ok), ok.copy()
        if vw is not None:
            lb = np.where(ok, _cond_bounds(cols.reshape(-1, n, n),
                                           *vw).reshape(ok.shape), np.inf)
            del vw
            c = np.argmin(lb, axis=-1)
            head = rows[ok[rows, c]]
            conds[head, c[head]] = np.linalg.cond(cols[head, c[head]])
            cut = conds[rows, c, None]
            pruned = ok & (lb > cut * _SLACK) & (cut <= _CUT_MAX)
            todo &= ~pruned
            todo[head, c[head]] = False
        conds[todo] = np.linalg.cond(cols[todo])
        best = np.argmin(conds, axis=-1)
        test = rows[np.isfinite(conds[rows, best])]
        miss = test[mat_rank(cols[test, best[test]], tol=tol) < n]
        if len(miss):
            some, later, draws = conds[miss], pruned[miss], cols[miss]
            some[later] = np.linalg.cond(draws[later])
            conds[miss] = np.where(mat_rank(draws, tol=tol) == n, some,
                                   np.inf)
            best[miss] = np.argmin(conds[miss], axis=-1)
    return np.where(np.isfinite(conds[rows, best]), best,
                    -1).reshape(V.shape[:-3])


def find_well_conditioned_vector(mats, samples: int, rng,
                                 tol: float = DEFAULT_TOL):
    """Among the seeded draws, the generic vector whose column matrix
    [K_1 xi | .. | K_n xi] has the smallest condition number; the internal
    pipelines prefer this over the first hit because the accuracy of every
    downstream solve tracks that conditioning.

    All ``samples`` draws are taken and judged at once: one (samples, n)
    draw, one stacked rank and one stacked condition number over the
    full-rank draws with finite columns; ties go to the earliest draw."""
    V = np.asarray(mats, dtype=float)
    xis = rng.uniform(-1.0, 1.0, (samples, V.shape[-1]))
    k = int(_best_draw(V, xis, tol))
    return xis[k] if k >= 0 else None


def well_conditioned_xi(mats, seed=0, tol: float = DEFAULT_TOL,
                        samples: int = DEFAULT_GENERIC_SAMPLES) -> np.ndarray:
    """The seeded well-conditioned generic vector of the float basis
    ``mats``; ``seed`` is an int or a numpy Generator.  Raises
    GenericityError when every draw fails."""
    xi = find_well_conditioned_vector(mats, samples,
                                      np.random.default_rng(seed), tol)
    if xi is None:
        raise GenericityError(f"no generic vector found in {samples} draws")
    return xi


def structure_constants_at(mats, xi, solve=mat_solve):
    """Structure constants a[i,j,s] with K_i K_j = a[i,j,s] K_s of a float
    basis, solved through the generic vector xi and validated against the
    full matrix identity; returns (a, closure residual scaled by 1 + max
    entry magnitude).  One elimination ``solve`` serves all n^2 products:
    column i*n + j of the right-hand side is K_i K_j xi."""
    V, xi = np.asarray(mats, dtype=float), np.asarray(xi, dtype=float)
    n = len(V)
    prods = V[:, None] @ V[None]
    X = solve((V @ xi).T, (prods @ xi).reshape(n * n, n).T)
    for s in range(n):     # K_i K_j - a_{ij}^s K_s, in place
        prods -= X[s].reshape(n, n, 1, 1) * V[s]
    return X.T.reshape(n, n, n).copy(), max_abs(prods) / (1.0 + max_abs(V))


def inverse_form(b, covector, inv=mat_inv):
    """``inv(b)`` of a Frobenius form b; raises SingularMatrixError naming
    the covector when b is degenerate."""
    try:
        return inv(b)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"Frobenius form is degenerate for covector "
            f"{np.asarray(covector, dtype=float).tolist()}: {exc}") from None


# ---------------------------------------------------------------------------
# the float pipeline over a sample batch; index b of every array belongs to
# points[b], and errors name the first failing point
# ---------------------------------------------------------------------------


def _at(point) -> str:
    return str([float(x) for x in point])


def checked_solve(A, R, points, what: str, tol: float = 1e-12) -> np.ndarray:
    """X with A[b] X[b] = R[b] for the (B, m, m) stack A taken at points[b],
    by ``batch_solve``.  Raises SingularMatrixError at the first point whose
    matrix is not finite or has its smallest singular value at or below
    ``tol`` times its largest entry magnitude (``numkit.first_singular``,
    the test of ``mat_solve``)."""
    b, why = first_singular(A, tol)
    if why:
        raise SingularMatrixError(f"{what} at {_at(points[b])}: {why}", index=b)
    return batch_solve(A, R)


def checked_inv(A, points, what: str, tol: float = 1e-12) -> np.ndarray:
    """Inverses of the (B, m, m) stack A, as ``checked_solve`` with the
    identity (each equal to a lone ``mat_inv`` bit for bit)."""
    return checked_solve(A, np.broadcast_to(np.eye(A.shape[-1]), A.shape),
                         points, what, tol)


def batch_well_conditioned_xi(V, points, seed: int = 0,
                              tol: float = DEFAULT_TOL,
                              samples: int = DEFAULT_GENERIC_SAMPLES):
    """``well_conditioned_xi(V[b], seed)`` for each basis of the (B, n, n, n)
    stack, bit for bit: every point re-seeds, so all judge one draw.
    Raises GenericityError at the first point without a generic draw."""
    xis = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                              (samples, V.shape[-1]))
    k = _best_draw(V, xis, tol)
    bad = np.flatnonzero(k < 0)
    if len(bad):
        raise GenericityError(f"no generic vector found in {samples} draws "
                              f"at {_at(points[bad[0]])}", index=int(bad[0]))
    return xis[k]


def _full_rank(bases, vectors, covectors, tol):
    """Per basis of the (D, n, n, n) stack: whether each vector draw v gives
    independent K_j v, (D, len(vectors)), and each covector draw
    independent v K_j, (D, len(covectors)), by one stacked rank."""
    D, n = len(bases), bases.shape[-1]
    full = mat_rank(np.concatenate([
        _draw_columns(bases, vectors).reshape(-1, n, n),
        _draw_rows(bases, covectors).reshape(-1, n, n)]), tol=tol) == n
    return (full[:D * len(vectors)].reshape(D, len(vectors)),
            full[D * len(vectors):].reshape(D, len(covectors)))


def batch_generic_search(V, seed: int = 0, tol: float = DEFAULT_TOL,
                         samples: int = DEFAULT_GENERIC_SAMPLES):
    """For each basis of the (B, n, n, n) stack, the answers of
    ``find_generic_vector`` and then ``find_generic_covector`` on one
    ``default_rng(seed)``: (xi, a), each (B, n), with a row of NaN where a
    search found nothing.  All bases see the same 2 * samples draws; the
    covector draws start just after the vector hit, or after all the
    vector draws without one.  Equal bases are judged once, all by one
    stacked rank of the first vector and covector draws, which nearly
    always hit; the bases where either misses, by one more over all
    draws."""
    draws = np.random.default_rng(seed).uniform(
        -1.0, 1.0, (2 * samples, V.shape[-1]))
    first, which = distinct_rows(V)
    kv = np.zeros(len(first), dtype=int)
    kc = np.ones(len(first), dtype=int)
    found = np.ones((2, len(first)), dtype=bool)
    vec, cov = _full_rank(V[first], draws[:1], draws[1:2], tol)
    rest = np.flatnonzero(~(vec[:, 0] & cov[:, 0]))
    if len(rest):
        vec, cov = _full_rank(V[first[rest]], draws[:samples], draws, tol)
        found[0, rest] = vec.any(axis=1)
        kv[rest] = np.where(found[0, rest], np.argmax(vec, axis=1),
                            samples - 1)
        k = np.arange(2 * samples)
        cov &= (k > kv[rest, None]) & (k <= kv[rest, None] + samples)
        found[1, rest] = cov.any(axis=1)
        kc[rest] = np.argmax(cov, axis=1)
    return tuple(np.where(f[:, None], draws[k], np.nan)[which]
                 for f, k in zip(found, (kv, kc)))


def genericity_residuals(V, points, seed: int = 0, tol: float = DEFAULT_TOL):
    """The (A1)/(A2) certificate over a sample batch: per point 0 where
    ``batch_generic_search`` finds a generic vector and a generic
    covector, inf where it does not; and a detail naming the first failing
    point."""
    xi, a = batch_generic_search(V, seed, tol)
    has_xi = ~np.isnan(xi[:, 0])
    residuals = np.where(has_xi & ~np.isnan(a[:, 0]), 0.0, np.inf)
    bad = np.flatnonzero(residuals)
    if not len(bad):
        return residuals, ""
    missing = "covector" if has_xi[bad[0]] else "vector"
    return residuals, f"no generic {missing} at {_at(points[bad[0]])}"


def commutator_norms(V, i, j) -> np.ndarray:
    """max |V_i V_j - V_j V_i| over the (B, m, n, n) stack for each pair
    (i[k], j[k]) of the index arrays, shape (B, len(i))."""
    return np.max(np.abs(V[:, i] @ V[:, j] - V[:, j] @ V[:, i]),
                  axis=(-2, -1), initial=0.0)


@dataclass
class FrobeniusPointData:
    """Structure constants, Frobenius form, dual basis and identity
    coordinates of a commuting family over a sample batch of B points."""

    xi: np.ndarray                  # (B, n) seeded well-conditioned xi
    columns_inv: np.ndarray         # (B, n, n) [K_1 xi | .. | K_n xi]^{-1}
    structure: np.ndarray           # (B, n, n, n) a_{ij}^s
    closure_residual: np.ndarray    # (B,) scaled; see point_data
    associativity_residual: np.ndarray
    symmetry_residual: np.ndarray   # |a_{ij}^s - a_{ji}^s|
    form: np.ndarray | None = None          # (B, n, n) b_{ij}
    form_inv: np.ndarray | None = None      # b^{ij}
    dual: np.ndarray | None = None          # (B, n, n, n) M^j = b^{ji} K_i
    identity_coords: np.ndarray | None = None   # (B, n)
    duality_residual: np.ndarray | None = None  # <a ; M^i K_j> - delta^i_j
    identity_residual: np.ndarray | None = None  # |beta^s K_s - Id|
    structure_tangent: np.ndarray | None = None  # d_m a_{ij}^s, no covector
    dual_tangent: np.ndarray | None = None   # (B, n, n, n, n) d_m M^j


def _solve_structure(V, points, seed, tol):
    """The seeded xi, C = [K_1 xi | .. | K_n xi], the products K_i K_j, and
    from one elimination X[b, s, i*n + j] = a_{ij}^s solving
    C X = [K_i K_j xi] and C^{-1}; X rounds as in the lone-point
    ``structure_constants_at``."""
    B, n = V.shape[:2]
    xi = batch_well_conditioned_xi(V, points, seed, tol)
    C = (V @ xi[:, None, :, None])[..., 0].swapaxes(1, 2)
    prods = V[:, :, None] @ V[:, None]
    R = (prods @ xi[:, None, None, :, None]).reshape(B, n * n, n)
    XC = checked_solve(C, np.concatenate([R.swapaxes(1, 2), np.broadcast_to(
        np.eye(n), C.shape)], axis=2), points,
        "the column matrix [K_1 xi | .. | K_n xi] is singular")
    return xi, C, prods, XC[:, :, :n * n], XC[:, :, n * n:]


def _form(a, covector, points):
    """b_{ij} = a_{ij}^s a_s and its inverse; SingularMatrixError at the
    first point where b is degenerate."""
    b = a @ covector
    return b, checked_inv(b, points, f"Frobenius form is degenerate for "
                          f"covector {covector.tolist()}")


def point_data(V, points, covector=None, seed: int = 0,
               tol: float = DEFAULT_TOL, dV=None) -> FrobeniusPointData:
    """The Frobenius data of the basis values V[b, i] = K_i at points[b]
    (a (B, n, n, n) stack) over the whole batch.

    With the seeded xi of each point the structure constants solve
    C a_{ij} = K_i K_j xi; the closure residual max |K_i K_j - a_{ij}^s K_s|
    is scaled by 1 + max |K|, so the default tolerance suits fields of any
    size.  With a covector come the form, its inverse, the dual basis, the
    pairing <a ; M^i K_j> - delta^i_j and the coordinates beta of Id, both
    through the decomposition in K.  With the partials dV[b, i, :, :, m]
    come, from the same solve, the tangents d/du^m of the structure
    constants, or with a covector those of the dual basis.  Raises
    GenericityError or SingularMatrixError at the first failing point.
    """
    return on_distinct_rows(_point_data, (V, dV), points, covector, seed, tol)


def _point_data(V, dV, points, covector, seed, tol):
    B, n = V.shape[:2]
    xi, C, recon, X, Cinv = _solve_structure(V, points, seed, tol)
    a = X.reshape(B, n, n, n).transpose(0, 2, 3, 1)
    for s in range(n):     # K_i K_j - a_{ij}^s K_s, in place
        recon -= X[:, s].reshape(B, n, n, 1, 1) * V[:, None, None, s]
    closure = batch_max_abs(recon) / (1.0 + batch_max_abs(V))
    # a_{ij}^m a_{mk}^l - a_{jk}^m a_{im}^l; X^T is a over [(i, j), m]
    assoc = np.matmul(X.swapaxes(1, 2), a.reshape(B, n, n * n),
                      out=recon.reshape(B, n * n, n * n))
    assoc -= (X.swapaxes(1, 2)[:, None] @ a).reshape(assoc.shape)
    data = FrobeniusPointData(
        xi=xi, columns_inv=Cinv, structure=a, closure_residual=closure,
        associativity_residual=batch_max_abs(assoc),
        symmetry_residual=batch_max_abs(a - a.swapaxes(1, 2)))
    del recon, assoc    # the (B, n^4) products, before the tangents
    if dV is not None:
        data.structure_tangent = _structure_tangent(V, dV, xi, C, X, Cinv)
    if covector is None:
        return data
    return _with_form(V, dV, data, points, np.asarray(covector, dtype=float))


def _structure_tangent(V, dV, xi, C, X, Cinv):
    """d_m a_{ij}^s from dX = C^{-1}(dR - dC X), xi contracted first, by
    products of the (c, m) matrices dV[b, i, r]; dR is laid out
    [i, r, j, m], and dC[b, j, r, m] = d_m (K_j xi)_r."""
    B, n = V.shape[:2]
    dC = (xi[:, None, None, None, :] @ dV)[..., 0, :]
    dR = C.swapaxes(1, 2)[:, None, None] @ dV      # d_m K_i . K_j xi
    dR += (V @ dC.transpose(0, 2, 1, 3).reshape(B, 1, n, n * n)).reshape(
        dR.shape)                                  # + K_i d_m(K_j xi)
    # - dC_m X_i over [(r, m), j], X_i the (s, j) matrix a_{ij}^s
    dR -= (dC.transpose(0, 2, 3, 1).reshape(B, 1, n * n, n)
           @ X.reshape(B, n, n, n).swapaxes(1, 2)).reshape(
               dR.shape).swapaxes(-1, -2)
    return (Cinv[:, None] @ dR.reshape(B, n, n, n * n)).reshape(
        dR.shape).transpose(0, 1, 3, 2, 4)


def _with_form(V, dV, data, points, cov):
    """``data`` with the form of ``cov``, the dual basis, its pairing and the
    identity coordinates; with dV the dual tangents replace the structure
    tangents."""
    B, n = V.shape[:2]
    xi, Cinv = data.xi, data.columns_inv
    b, binv = _form(data.structure, cov, points)
    M = (binv @ V.reshape(B, n, n * n)).reshape(V.shape)
    C = (V @ xi[:, None, :, None])[..., 0].swapaxes(1, 2)
    MC = (M @ C[:, None]).transpose(0, 2, 1, 3).reshape(B, n, n * n)
    Y = Cinv @ np.concatenate([MC, xi[:, :, None]], axis=2)
    beta = Y[:, :, -1]
    data.form, data.form_inv, data.dual, data.identity_coords = b, binv, M, beta
    data.duality_residual = batch_max_abs(
        np.einsum("bsk,s->bk", Y[:, :, :-1], cov).reshape(B, n, n)
        - np.eye(n))
    data.identity_residual = batch_max_abs(
        np.einsum("bs,bsrc->brc", beta, V) - np.eye(n))
    if dV is not None:      # d(b^{-1}) = -b^{-1} db b^{-1}
        da = data.structure_tangent.transpose(0, 1, 3, 2, 4)   # [i, s, j, m]
        db = cov @ da.reshape(B, n, n, n * n)                  # [i, (j, m)]
        # b^{-1} db b^{-1} over [(j, m), i]
        Q = (binv @ db).reshape(B, n, n, n).swapaxes(-1, -2) @ binv[:, None]
        dM = (binv @ dV.reshape(B, n, n ** 3)).reshape(dV.shape)
        dM -= (Q.reshape(B, n * n, n) @ V.reshape(B, n, n * n)).reshape(
            dV.shape).transpose(0, 1, 3, 4, 2)
        data.structure_tangent, data.dual_tangent = None, dM
    return data


# ---------------------------------------------------------------------------
# operator-basis level API
# ---------------------------------------------------------------------------


def stacked_jets(fields, points, partials=True):
    """Values (B, m, n, n) and partials (B, m, n, n, n) (or None) of m fields
    over a (B, n) batch, filled field by field; [b, i] is fields[i] there."""
    B, n = np.shape(points)
    V = np.empty((B, len(fields), n, n))
    dV = np.empty(V.shape + (n,)) if partials else None
    for k, f in enumerate(fields):
        V[:, k], d = f.batch_jet_arrays(points, partials)
        if partials:
            dV[:, k] = d
    return V, dV


class OperatorBasis:
    """n commuting operator fields K_1..K_n treated as a pointwise algebra;
    its checks evaluate the fields once over a whole sample batch."""

    def __init__(self, fields, name: str = ""):
        fields = list(fields)
        if not fields:
            raise ValueError("empty basis")
        n = fields[0].dimension
        if any(f.dimension != n for f in fields):
            raise ValueError("fields must share one dimension")
        if len(fields) != n:
            raise ValueError(
                f"a basis needs exactly {n} fields in dimension {n}, "
                f"got {len(fields)}"
            )
        self.fields = fields
        self.dimension = n
        self.name = name

    @classmethod
    def from_matrices(cls, matrices, name: str = "") -> "OperatorBasis":
        return cls([OperatorField.constant(M) for M in matrices], name=name)

    @property
    def is_constant(self) -> bool:
        return all(f.is_constant for f in self.fields)

    def eval(self, u):
        return [f.eval(u) for f in self.fields]

    def eval_generic(self, point):
        return [f.eval_generic(point) for f in self.fields]

    def batch_jet_arrays(self, points, partials=True):
        """Values (B, n, n, n) and partials (B, n, n, n, n) of the fields
        over a (B, n) batch; [b, i] is field i at points[b].  Without
        ``partials`` the partials are None, and not computed."""
        return stacked_jets(self.fields, points, partials)

    def values(self, points):
        """The (B, n) batch ``points`` as a float array and the field
        values (B, n, n, n) there."""
        P = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        return P, self.batch_jet_arrays(P, partials=False)[0]

    def validate(self, points, tol: float = DEFAULT_TOL) -> VerificationReport:
        """Pairwise algebraic commutativity and linear independence at the
        sampled points."""
        report = VerificationReport(
            title=f"basis validation {self.name}".strip())
        report.checks = _validation_checks(*self.values(points), tol)
        return report

    def point_data(self, points, covector=None, tol: float = DEFAULT_TOL,
                   seed: int = 0) -> FrobeniusPointData:
        P, V = self.values(points)
        return point_data(V, P, covector, seed, tol)


def _commutators_and_ranks(V, P, tol):
    B, n = V.shape[:2]
    norms = np.max(np.abs(V), axis=(-2, -1), initial=0.0)
    i, j = np.triu_indices(n, 1)
    comm = np.max(commutator_norms(V, i, j)
                  / (1.0 + norms[:, i] * norms[:, j]), axis=1, initial=0.0)
    return comm, mat_rank(V.reshape(B, n, n * n), tol=tol)


def _validation_checks(P, V, tol):
    """Pairwise commutativity (each commutator scaled by 1 + the product of
    the two fields' largest entries) and linear independence."""
    B, n = V.shape[:2]
    comm, rank = on_distinct_rows(_commutators_and_ranks, (V,), P, tol)
    min_rank = int(np.min(rank, initial=n))
    return [reduce_check("pairwise_commutativity", comm, P, tol),
            CheckResult(name="linear_independence",
                        passed=B > 0 and min_rank == n,
                        residual=float(n - min_rank), tolerance=0.0,
                        samples=B,
                        detail=f"min rank {min_rank} of {n}" if B
                        else "no point evaluated")]


def algebra_report(
    basis: OperatorBasis,
    points,
    covector=None,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> VerificationReport:
    """Full pointwise algebra verification: commutativity, independence,
    genericity searches, multiplicative closure, structure-constant symmetry
    and associativity, and (when a covector is given) form nondegeneracy
    with the duality pairing."""
    report = VerificationReport(title="verify-algebra", seed=seed)
    P, V = basis.values(points)
    report.checks = _validation_checks(P, V, tol)
    generic, detail = genericity_residuals(V, P, seed, tol)
    report.add(reduce_check("genericity_A1_A2", generic, P, 0.0, seed=seed,
                            detail=detail))
    # the checks below count only the points where (A1) and (A2) hold
    P, V = P[generic == 0], V[generic == 0]
    data = point_data(V, P, None, seed, tol)
    form_detail = ""
    if covector is not None:    # a degenerate form keeps the structure data
        try:
            data = on_distinct_rows(_with_form, (V, None, data), P,
                                    np.asarray(covector, dtype=float))
        except SingularMatrixError as exc:
            form_detail = str(exc)
    for name, res in (("span_closure", data.closure_residual),
                      ("structure_symmetry", data.symmetry_residual),
                      ("associativity", data.associativity_residual)):
        report.add(reduce_check(name, res, P, tol))
    if covector is not None:
        report.add(CheckResult(
            name="form_nondegenerate", passed=not form_detail and len(P) > 0,
            residual=float("inf") if form_detail else 0.0, tolerance=0.0,
            samples=len(P),
            detail=form_detail or ("" if len(P) else "no point evaluated"),
        ))
        if not form_detail:
            report.add(reduce_check("duality_pairing", data.duality_residual,
                                    P, tol))
            report.add(reduce_check("identity_in_span",
                                    data.identity_residual, P, tol))
    return report
