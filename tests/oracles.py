"""Independent numerical oracles used to cross-check the library.

These deliberately avoid the library's jet/solve code paths: derivatives
come from central finite differences, structure constants from a dense
least-squares over vectorized matrices, and the bracket tensor from a
straight loop transcription of the coordinate formula.

The loop references are the other kind of oracle: one draw, one matrix
or one product at a time, they spell out the arithmetic that the library's
stacked routines must reproduce bit for bit.  The loop solve and loop dual
among them run entry by entry over any scalar with the arithmetic
operators (floats, jets, truncated series), so they also serve as
references for the jet and series pipelines.

The whole-product flow fill computes every Taylor coefficient of each
flow's right-hand side at every step; the library's level fill computes
only the coefficients that a step reads, and must match it bit for bit.

The einsum references at the end write each batched tensor contraction of
the certificate paths in index notation; the library runs them as batched
matrix products, which sum in another order, so they agree to rounding.
"""

import math
import operator
from functools import reduce

import numpy as np

from opfrob.errors import OpfrobError, SingularMatrixError
from opfrob.exprs import Program
from opfrob.frobalg import DEFAULT_TOL, inverse_form
from opfrob.hydroflow import MultiSeries
from opfrob.numkit import Jet, mat_rank
from opfrob.sampling import MAX_DRAW_FACTOR, guards_ok

FD_STEP = 1e-6


def central_gradient(f, x, h=FD_STEP):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_matrix_derivatives(field_eval, u, h=FD_STEP):
    """der[i,j,s] = d(entry ij)/du^s by central differences."""
    u = np.asarray(u, dtype=float)
    n = u.size
    M0 = field_eval(u)
    der = np.zeros(M0.shape + (n,))
    for s in range(n):
        up = u.copy(); up[s] += h
        um = u.copy(); um[s] -= h
        der[:, :, s] = (field_eval(up) - field_eval(um)) / (2.0 * h)
    return der


def fd_bracket_tensor(L_eval, M_eval, u, h=FD_STEP):
    """Loop transcription of
    T^i_jk = L^s_j d_s M^i_k - M^s_k d_s L^i_j - L^i_r d_j M^r_k
             + M^i_s d_k L^s_j with finite-difference derivatives."""
    u = np.asarray(u, dtype=float)
    n = u.size
    Lv, Mv = L_eval(u), M_eval(u)
    Ld = fd_matrix_derivatives(L_eval, u, h)
    Md = fd_matrix_derivatives(M_eval, u, h)
    T = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = 0.0
                for s in range(n):
                    acc += Lv[s, j] * Md[i, k, s]
                    acc -= Mv[s, k] * Ld[i, j, s]
                    acc -= Lv[i, s] * Md[s, k, j]
                    acc += Mv[i, s] * Ld[s, j, k]
                T[i, j, k] = acc
    return T


def fd_poisson_bracket(F, G, u, p, h=FD_STEP):
    """{F, G} for black-box scalar functions of (u, p)."""
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    n = u.size
    total = 0.0
    for i in range(n):
        pp = p.copy(); pp[i] += h
        pm = p.copy(); pm[i] -= h
        dFdp = (F(u, pp) - F(u, pm)) / (2.0 * h)
        dGdp = (G(u, pp) - G(u, pm)) / (2.0 * h)
        up = u.copy(); up[i] += h
        um = u.copy(); um[i] -= h
        dFdu = (F(up, p) - F(um, p)) / (2.0 * h)
        dGdu = (G(up, p) - G(um, p)) / (2.0 * h)
        total += dFdp * dGdu - dFdu * dGdp
    return total


def lstsq_structure_constants(mats):
    """Brute-force oracle: for every ordered pair solve the dense
    least-squares min |K_i K_j - sum_s c_s K_s|_F over vectorized
    matrices."""
    n = len(mats)
    stack = np.column_stack([np.asarray(M, dtype=float).ravel() for M in mats])
    a = np.zeros((n, n, n))
    resid = 0.0
    for i in range(n):
        for j in range(n):
            target = (np.asarray(mats[i]) @ np.asarray(mats[j])).ravel()
            sol, _, _, _ = np.linalg.lstsq(stack, target, rcond=None)
            a[i, j] = sol
            resid = max(resid, float(np.max(np.abs(stack @ sol - target))))
    return a, resid


# ---------------------------------------------------------------------------
# loop references for the stacked routines
# ---------------------------------------------------------------------------


def loop_mat_rank(A, tol=1e-9):
    """Rank of one matrix by row reduction, one pivot column at a time."""
    A = np.asarray(A, dtype=float).copy()
    r, c = A.shape
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if scale == 0.0:
        return 0
    threshold = tol * scale
    rank = 0
    for col in range(c):
        if rank >= r:
            break
        piv = rank + int(np.argmax(np.abs(A[rank:, col])))
        if abs(A[piv, col]) <= threshold:
            continue
        A[[rank, piv]] = A[[piv, rank]]
        A[rank + 1:] -= np.outer(A[rank + 1:, col] / A[rank, col], A[rank])
        rank += 1
    return rank


def dict_distinct_rows(*stacks):
    """Reference of ``numkit.distinct_rows``: (first, which) from a dict of
    every row's bytes, all stacks keyed together, in first-occurrence
    order."""
    keys = list(zip(*([row.tobytes() for row in S.reshape(
        len(S), math.prod(S.shape[1:]))] for S in stacks)))
    firsts = {key: b for b, key in reversed(list(enumerate(keys)))}
    first = np.array(sorted(firsts.values()), dtype=int)
    return first, np.searchsorted(first, [firsts[key] for key in keys])


def killing_values(family, points):
    """K[b, s] = h_s h_1^{-1} of a ``ReconstructedFamily`` at each of the
    points, from its stacked Killing jets."""
    P = np.asarray(points, dtype=float).reshape(-1, family.dimension)
    return family._killing(P)[0]


def loop_well_conditioned_vector(mats, samples, rng, tol=1e-9):
    """One draw at a time: the full-rank draw with finite columns whose
    column matrix [K_1 xi | .. | K_n xi] has the smallest condition number,
    the earliest on ties."""
    values = [np.asarray(M, dtype=float) for M in mats]
    n = values[0].shape[0]
    best, best_cond = None, np.inf
    for _ in range(samples):
        xi = rng.uniform(-1.0, 1.0, n)
        cols = np.column_stack([V @ xi for V in values])
        if not np.isfinite(cols).all() or loop_mat_rank(cols, tol=tol) < n:
            continue
        c = np.linalg.cond(cols)
        if c < best_cond:
            best, best_cond = xi, c
    return best


def svd_best_draw(V, xis, tol=DEFAULT_TOL):
    """The ξ search without a screen: per basis of V (..., n, n, n), the
    index of the full-rank, finite and best-conditioned draw in xis (the
    earliest on ties), or -1, from one stacked SVD condition number over
    every finite draw, then a rank test of each basis's best draw, and of
    all its draws only when that one fails.  ``frobalg._best_draw`` must
    pick the same draws."""
    if not len(xis):
        return np.full(V.shape[:-3], -1)
    n = V.shape[-1]
    with np.errstate(all="ignore"):
        # cols[..., k, :, j] = V_j @ xi_k, the product frobalg draws
        cols = np.matmul(V[..., None, :, :, :], xis[:, None, :, None])[
            ..., 0].swapaxes(-1, -2).reshape(-1, len(xis), n, n)
        ok = np.isfinite(cols).all(axis=(-2, -1))
        conds = np.full(ok.shape, np.inf)
        conds[ok] = np.linalg.cond(cols[ok])
        rows = np.arange(len(conds))
        best = np.argmin(conds, axis=-1)
        test = rows[np.isfinite(conds[rows, best])]
        miss = test[mat_rank(cols[test, best[test]], tol=tol) < n]
        if len(miss):
            conds[miss] = np.where(mat_rank(cols[miss], tol=tol) == n,
                                   conds[miss], np.inf)
            best[miss] = np.argmin(conds[miss], axis=-1)
    return np.where(np.isfinite(conds[rows, best]), best,
                    -1).reshape(V.shape[:-3])


def pairwise_structure_constants(mats, xi, solve):
    """a[i,j,:] from one ``solve([K_1 xi | .. | K_n xi], K_i K_j xi)`` per
    ordered pair, over the scalars of ``mats``."""
    n = len(mats)
    mats = [np.asarray(M) for M in mats]
    cols = np.empty((n, n), dtype=object if mats[0].dtype == object
                    else float)
    for j, M in enumerate(mats):
        cols[:, j] = M @ np.asarray(xi)
    a = np.empty((n, n, n), dtype=cols.dtype)
    for i in range(n):
        for j in range(n):
            a[i, j, :] = solve(cols, mats[i] @ mats[j] @ np.asarray(xi))
    return a


def loop_momentum_nondegeneracy(grids_at, points, n, seed, draws=50,
                                per_draw=False):
    """(worst over points of the best relative determinant over draws,
    the point attaining it), one point and one momentum draw at a time,
    every point at the same seeded draws p_1 .. p_draws.  Each point's
    matrices D_d, whose rows are 2 A_s p_d, come from one product
    (2A) @ [p_1 .. p_draws] of its grids; ``per_draw`` forms each row as
    2 A_s @ p_d instead, the same values up to rounding."""
    worst, worst_pt = np.inf, None
    ps = np.random.default_rng(seed).uniform(-1.0, 1.0, (draws, n))
    for u in points:
        grids = np.array(grids_at(u), dtype=float)
        prods = (2.0 * grids).reshape(n * n, n) @ ps.T
        best = 0.0
        for d, p in enumerate(ps):
            D = np.stack([2.0 * A @ p for A in grids]) if per_draw \
                else prods[:, d].reshape(n, n)
            bound = float(np.prod(np.linalg.norm(D, axis=1)))
            if bound == 0.0:
                continue
            best = max(best, abs(float(np.linalg.det(D))) / bound)
        if best < worst:
            worst, worst_pt = best, list(map(float, u))
    return worst, worst_pt


def loop_sample_points(n, config):
    """``sample_points`` one draw at a time: each draw of the config's
    stream is judged by ``guards_ok`` until ``count`` points are kept or
    the budget of draws is spent."""
    rng = np.random.default_rng(config.seed)
    points = np.empty((config.count, n))
    kept = 0
    budget = MAX_DRAW_FACTOR * config.count
    guards = [(Program([e]), floor) for e, floor in config.guards]
    for _ in range(budget):
        p = rng.uniform(-config.box, config.box, n)
        if guards_ok(p, guards):
            points[kept] = p
            kept += 1
            if kept == config.count:
                return points
    raise OpfrobError(
        f"guard rejection exhausted {budget} draws; guards too tight"
    )


def value_of(x) -> float:
    """Value part of one scalar: a jet's value, a truncated series' constant
    term, a number itself."""
    if isinstance(x, Jet):
        return x.value
    ct = getattr(x, "constant_term", None)
    return ct() if ct is not None else float(x)


def value_array(A) -> np.ndarray:
    """Float value parts of an array of any shape over any scalar."""
    A = np.asarray(A)
    if A.dtype != object:
        return np.asarray(A, dtype=float)
    out = np.empty(A.shape)
    for idx, x in np.ndenumerate(A):
        out[idx] = value_of(x)
    return out


def loop_solve(A, B, tol=1e-12):
    """Solve A X = B by elimination with partial pivoting, one entry at a
    time, over floats or any scalar with the arithmetic operators; pivots
    are chosen by the magnitude of their value parts.  Raises
    SingularMatrixError when the best pivot falls below ``tol`` times the
    largest initial value magnitude."""
    A, B = np.asarray(A), np.asarray(B)
    n = A.shape[0]
    vector = B.ndim == 1
    rows = [list(A[i]) for i in range(n)]
    rhs = [[B[i]] if vector else list(B[i]) for i in range(n)]
    m = len(rhs[0])
    threshold = tol * max(float(np.max(np.abs(value_array(A)),
                                       initial=0.0)), 1e-300)

    def size(x):
        return abs(float(value_of(x)))

    for col in range(n):
        piv = max(range(col, n), key=lambda r: size(rows[r][col]))
        if size(rows[piv][col]) <= threshold:
            raise SingularMatrixError(
                f"pivot {size(rows[piv][col]):.3e} below {threshold:.3e} "
                f"at column {col}")
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

    generic = object in (A.dtype, B.dtype)
    X = np.array([row[0] for row in out] if vector else out,
                 dtype=object if generic else float)
    if not generic and not np.all(np.isfinite(X)):
        raise SingularMatrixError("non-finite entries in solution")
    return X


def loop_inv(A, tol=1e-12):
    A = np.asarray(A)
    return loop_solve(A, np.asarray(np.eye(len(A)), dtype=A.dtype), tol)


def loop_structure_constants(mats, xi):
    """(a, scaled closure residual) with K_i K_j = a[i,j,s] K_s over any
    scalar: one ``loop_solve`` of [K_1 xi | .. | K_n xi] against all the
    K_i K_j xi, then the matrix identity checked on the value parts."""
    n = len(mats)
    mats = [np.asarray(M) for M in mats]
    xi = np.asarray(xi)
    cols = np.empty((n, n), dtype=mats[0].dtype)
    for j, M in enumerate(mats):
        cols[:, j] = M @ xi
    prods = [mats[i] @ mats[j] for i in range(n) for j in range(n)]
    coeffs = loop_solve(cols, np.stack([P @ xi for P in prods], axis=-1))
    a = coeffs.T.reshape(n, n, n).copy()
    resid = 0.0
    for k, P in enumerate(prods):
        recon = P.copy()
        for s in range(n):
            recon = recon - coeffs[s, k] * mats[s]
        resid = max(resid, float(np.max(np.abs(value_array(recon)))))
    scale = 1.0 + max(float(np.max(np.abs(value_array(M)))) for M in mats)
    return a, resid / scale


def is_generic_vector(mats, xi, tol=DEFAULT_TOL) -> bool:
    """(A1) at one point: K_1 xi, .., K_n xi linearly independent."""
    V = np.asarray(mats, dtype=float)
    return mat_rank((V @ np.asarray(xi, dtype=float)).T, tol=tol) == len(V)


def is_generic_covector(mats, a, tol=DEFAULT_TOL) -> bool:
    """(A2) at one point: K_1^T a, .., K_n^T a linearly independent."""
    V = np.asarray(mats, dtype=float)
    return mat_rank(np.asarray(a, dtype=float) @ V, tol=tol) == len(V)


def frobenius_dual(a, covector, mats):
    """Form b_{ij} = a_{ij}^k a_k, its inverse and the dual basis
    M^j = b^{ji} K_i of a float basis; SingularMatrixError if b is
    degenerate."""
    b = np.asarray(a, dtype=float) @ np.asarray(covector, dtype=float)
    binv = inverse_form(b, covector)
    return b, binv, list(np.einsum("ji,irc->jrc", binv,
                                   np.asarray(mats, dtype=float)))


def loop_dual(mats, xi, covector):
    """(a, b, b^{-1}, [M^1 .. M^n]) over any scalar: the structure constants
    through xi, the form b_{ij} = a_{ij}^k a_k summed term by term, its
    ``loop_inv`` and M^j = b^{ji} K_i.  Raises SingularMatrixError naming
    the covector when the form is degenerate."""
    a, _ = loop_structure_constants(mats, xi)
    n = len(mats)
    covector = np.asarray(covector, dtype=float)
    b = np.empty((n, n), dtype=a.dtype)
    for i in range(n):
        for j in range(n):
            s = a[i, j, 0] * covector[0]
            for k in range(1, n):
                s = s + a[i, j, k] * covector[k]
            b[i, j] = s
    try:
        binv = loop_inv(b)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"Frobenius form is degenerate for covector "
                                  f"{covector.tolist()}: {exc}")
    mats = [np.asarray(M) for M in mats]
    dual = [reduce(operator.add, (binv[j, i] * mats[i] for i in range(n)))
            for j in range(n)]
    return a, b, binv, dual


def basis_jets(basis, u):
    """The fields of an operator basis at the point ``u`` as (n, n) object
    grids of first-order jets, one grid per field."""
    return [f.eval_jet(u) for f in basis.fields]


def full_flow_rhs(fields, u):
    """K_j(u) u_x of every flow at every coefficient, (m, n, size): each
    entry of K_j(u) times u_x as a whole truncated series product, and each
    row summed from 0 in order."""
    ux = [s.diff(0) for s in u]
    return np.array([[sum(k * v for k, v in zip(row, ux)).c
                      for row in f.eval_generic(list(u))] for f in fields])


def full_taylor_flow(fields, initial_curve, order, x0=0.0):
    """The coefficients (n, size) of ``taylor_flow``'s jet, filled t-level
    by t-level from ``full_flow_rhs`` over every coefficient, each level
    routed through the first flow along its t-multi-index."""
    xvar = MultiSeries.variable(0, 1 + len(fields), order)
    lay = xvar.layout
    U = np.zeros((len(initial_curve), lay.size))
    for row, coeffs in zip(U, initial_curve):
        for c in reversed([float(c) for c in coeffs]):
            row[:] = (xvar._like(row) * (xvar + x0) + c).c
    u = [xvar._like(row) for row in U]
    T = lay.exps[:, 1:]
    dst = np.flatnonzero(T.sum(axis=1))
    flow = np.argmax(T[dst] > 0, axis=1)
    src = lay.index(lay.codes[dst] - lay.radix[1 + flow])
    div, level = T[dst, flow].astype(float), T[dst].sum(axis=1)
    for t_degree in range(1, order + 1):
        k = level == t_degree
        U[:, dst[k]] = full_flow_rhs(fields, u)[flow[k], :, src[k]].T / div[k]
    return U


def full_jet_rhs(fields, U, order):
    """``JetSolution.rhs`` of the coefficients U (n, size): every flow's
    ``full_flow_rhs`` with degree ``order``, which the jet does not
    determine, set to zero."""
    xvar = MultiSeries.variable(0, 1 + len(fields), order)
    rhs = full_flow_rhs(fields, [xvar._like(row) for row in U])
    rhs[..., xvar.layout.deg == order] = 0.0
    return rhs


# ---------------------------------------------------------------------------
# einsum references for the batched contractions
# ---------------------------------------------------------------------------


def einsum_bracket(Lval, Lder, Mval, Mder):
    """T^i_jk = L^s_j d_s M^i_k - M^s_k d_s L^i_j - L^i_r d_j M^r_k
    + M^i_s d_k L^s_j over a leading batch axis."""
    return (np.einsum("...sj,...iks->...ijk", Lval, Mder)
            - np.einsum("...sk,...ijs->...ijk", Mval, Lder)
            - np.einsum("...ir,...rkj->...ijk", Lval, Mder)
            + np.einsum("...is,...sjk->...ijk", Mval, Lder))


def einsum_pullback_derivative(Mval, Mder, aval, ader):
    """d_k (alpha_i M^i_j) = d_k alpha_i M^i_j + alpha_i d_k M^i_j for one
    field over a batch, (B, j, k)."""
    return np.einsum("bik,bij->bjk", ader, Mval) \
        + np.einsum("bi,bijk->bjk", aval, Mder)


def einsum_associativity(a):
    """a_{ij}^m a_{mk}^l - a_{jk}^m a_{im}^l, (B, i, j, k, l)."""
    return np.einsum("bijm,bmkl->bijkl", a, a) \
        - np.einsum("bjkm,biml->bijkl", a, a)


def einsum_structure_tangent(V, dV, xi, a, Cinv):
    """d_m a_{ij}^s, (B, i, j, s, m), from dX = C^{-1}(dR - dC X) with
    C = [K_1 xi | .. | K_n xi] and X[s, i*n + j] = a_{ij}^s."""
    B, n = V.shape[:2]
    C = np.einsum("birc,bc->bri", V, xi)
    X = a.transpose(0, 3, 1, 2).reshape(B, n, n * n)
    dC = np.einsum("bircm,bc->brim", dV, xi)
    dR = np.einsum("bircm,bcj->brijm", dV, C)
    dR += np.einsum("birc,bcjm->brijm", V, dC)
    dR = dR.reshape(B, n, n * n, n)
    dR -= np.einsum("brsm,bsk->brkm", dC, X)
    return np.einsum("bsr,brkm->bskm", Cinv, dR).reshape(
        B, n, n, n, n).transpose(0, 2, 3, 1, 4)


def einsum_dual(binv, V):
    """M^j = b^{ji} K_i, (B, j, r, c)."""
    return np.einsum("bji,birc->bjrc", binv, V)


def einsum_dual_tangent(V, dV, binv, da, covector):
    """d_m M^j = d_m b^{ji} K_i + b^{ji} d_m K_i with
    d(b^{-1}) = -b^{-1} db b^{-1}, db_{ij} = d a_{ij}^s a_s."""
    dbinv = -np.einsum("bij,bjkm,bkl->bilm", binv,
                       np.einsum("bijsm,s->bijm", da, covector), binv)
    return np.einsum("bjim,birc->bjrcm", dbinv, V) \
        + np.einsum("bji,bircm->bjrcm", binv, dV)


def einsum_killing_tangent(K, dH, h1_inv):
    """dK_s = dh_s h_1^{-1} - K_s dh_1 h_1^{-1}, (B, s, i, k, m)."""
    return np.einsum("bsijm,bjk->bsikm", dH, h1_inv) \
        - np.einsum("bsij,bjkm,bkl->bsilm", K, dH[:, 0], h1_inv)


def einsum_phase_jets(A, dA, p):
    """F = h^{ij} p_i p_j, dF/dp_i = 2 h^{ik} p_k and dF/du^k =
    d_k h^{ij} p_i p_j over a batch."""
    return (np.einsum("bi,bij,bj->b", p, A, p),
            2.0 * np.einsum("bij,bj->bi", A, p),
            np.einsum("bi,bijk,bj->bk", p, dA, p))


def einsum_chart_tangent(da, Jinv):
    """d a_{ij}^s / d(chart^k) = d_m a_{ij}^s (J^{-1})^m_k."""
    return np.einsum("bijsm,bmk->bijsk", da, Jinv)
