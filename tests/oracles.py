"""Independent numerical oracles used to cross-check the library.

These deliberately avoid the library's jet/solve code paths: derivatives
come from central finite differences, structure constants from a dense
least-squares over vectorized matrices, and the bracket tensor from a
straight loop transcription of the coordinate formula.

The loop references at the end are the other kind of oracle: one draw,
one matrix or one product at a time, they spell out the arithmetic that
the library's stacked routines must reproduce bit for bit.
"""

import numpy as np

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


def loop_well_conditioned_vector(mats, samples, rng, tol=1e-9):
    """One draw at a time: the full-rank draw whose column matrix
    [K_1 xi | .. | K_n xi] has the smallest condition number, the earliest
    on ties."""
    values = [np.asarray(M, dtype=float) for M in mats]
    n = values[0].shape[0]
    best, best_cond = None, np.inf
    for _ in range(samples):
        xi = rng.uniform(-1.0, 1.0, n)
        cols = np.column_stack([V @ xi for V in values])
        if loop_mat_rank(cols, tol=tol) < n:
            continue
        c = np.linalg.cond(cols)
        if c < best_cond:
            best, best_cond = xi, c
    return best


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


def loop_momentum_nondegeneracy(grids_at, points, n, seed, draws=50):
    """(worst over points of the best relative determinant over draws,
    the point attaining it), one momentum draw at a time."""
    worst, worst_pt = np.inf, None
    rng = np.random.default_rng(seed)
    for u in points:
        grids = grids_at(u)
        best = 0.0
        for _ in range(draws):
            p = rng.uniform(-1.0, 1.0, n)
            D = np.stack([2.0 * A @ p for A in grids])
            bound = float(np.prod(np.linalg.norm(D, axis=1)))
            if bound == 0.0:
                continue
            best = max(best, abs(float(np.linalg.det(D))) / bound)
        if best < worst:
            worst, worst_pt = best, list(map(float, u))
    return worst, worst_pt
