"""Differential geometry of commuting operator fields.

The central object is the bracket of two commuting operator fields L, M,

    <L, M>(xi, eta) = L M [xi, eta] + [L xi, M eta] - L [xi, M eta]
                      - M [L xi, eta],

a (1,2)-tensor precisely when L M = M L.  In coordinates,

    T^i_jk = L^s_j d_s M^i_k - M^s_k d_s L^i_j - L^i_r d_j M^r_k
             + M^i_s d_k L^s_j,

with all partials read from a family's stacked jets, evaluated once per
command (``bracket_residuals``).  L and M are symmetries of each other when
the part of T symmetric in (j,k) vanishes, strong symmetries when all of T
vanishes; with L = M the bracket is the Nijenhuis torsion.  A closed 1-form
alpha is a conservation law of M when the pullback M^* alpha is closed
again.

Dualization follows the pointwise Frobenius pipeline: given a covector with
constant components a_k, the dual fields are M^j(x) = b^{ji}(x) K_i(x) for
b_{ij} = a_{ij}^k a_k, and for a family of mutual symmetries the dual family
again consists of mutual symmetries; that conclusion is verified numerically
here rather than assumed.  Over a sample batch the dual fields come from the
tangent pipeline; at a point of truncated series (Taylor flows of a dual
family) from the same construction on dense coefficient stacks.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import NonCommutingError, OneFormNotClosedError, OpfrobError
from .fields import OneFormField
from .frobalg import (
    OperatorBasis,
    commutator_norms,
    genericity_residuals,
    inverse_form,
    point_data,
    stacked_jets,
    structure_constants_at,  # kept: bench/test_bench.py traces it here
    well_conditioned_xi,
)
from .numkit import batch_max_abs
from .report import CheckResult, VerificationReport, failed_check, reduce_check

__all__ = [
    "bracket",
    "bracket_from_jets",
    "is_symmetry",
    "is_strong_symmetry",
    "nijenhuis_torsion_report",
    "conservation_law_check",
    "conservation_law_residuals",
    "bracket_residuals",
    "DualFamily",
    "dualize_family",
    "symmetry_coefficient_check",
]

DEFAULT_TOL = 1e-9


def bracket_from_jets(Lval, Lder, Mval, Mder) -> np.ndarray:
    """Coordinate components T^i_jk of <L, M> from values and partials, at
    one point or over a leading batch axis.

    When both arguments are literally the same arrays (the torsion case)
    the result is assembled in explicitly antisymmetrized form, so
    T^i_jk = -T^i_kj holds exactly, not just to rounding.
    """
    if Lval is Mval and Lder is Mder:
        t1 = np.einsum("...sj,...iks->...ijk", Mval, Mder)
        t3 = np.einsum("...ir,...rkj->...ijk", Mval, Mder)
        return (t1 - t1.swapaxes(-1, -2)) - (t3 - t3.swapaxes(-1, -2))
    t1 = np.einsum("...sj,...iks->...ijk", Lval, Mder)
    t2 = np.einsum("...sk,...ijs->...ijk", Mval, Lder)
    t3 = np.einsum("...ir,...rkj->...ijk", Lval, Mder)
    t4 = np.einsum("...is,...sjk->...ijk", Mval, Lder)
    return t1 - t2 - t3 + t4


def bracket_residuals(V, dV, pairs, points, tol, symmetric_part_only):
    """Bracket table (len(pairs), B): residual of <F_i, F_j> (or of its part
    symmetric in the lower indices) over 1 + s_i s_j, s_i = max |values| +
    max |partials|, for each pair at each of the (B, n) points, from the
    fields' values V (B, m, n, n) and partials dV (B, m, n, n, n); (i, i)
    is a torsion.  Raises NonCommutingError at the first point where a
    pair's values fail to commute (a bracket is a tensor only if they do)."""
    P = np.asarray(points, dtype=float)
    i, j = np.array([p for p in pairs if p[0] != p[1]], int).reshape(-1, 2).T
    norms = np.max(np.abs(V), axis=(-2, -1), initial=0.0)
    comm = commutator_norms(V, i, j) / (1.0 + norms[:, i] * norms[:, j])
    bad = np.flatnonzero(np.any(comm > tol, axis=1))
    if len(bad):
        b = int(bad[0])
        raise NonCommutingError(
            f"operators do not commute at {P[b].tolist()} "
            f"(residual {np.max(comm[b]):.3e})", index=b)
    # each slice taken once: a pair (i, i) passes the same arrays twice
    fields = [(V[:, k], dV[:, k]) for k in range(V.shape[1])]
    scales = [batch_max_abs(v) + batch_max_abs(d) for v, d in fields]
    out = np.empty((len(pairs), len(P)))
    for k, (i, j) in enumerate(pairs):
        T = bracket_from_jets(*fields[i], *fields[j])
        if symmetric_part_only:
            T = T + T.swapaxes(-1, -2)
        out[k] = batch_max_abs(T) / (1.0 + scales[i] * scales[j])
    return out


def _pair(L, M, points, tol, symmetric_part_only):
    """The batch, the stacked jets of L and M (L if M is L) and their table."""
    P = np.asarray(points, dtype=float).reshape(-1, L.dimension)
    V, dV = stacked_jets([L] if M is L else [L, M], P)
    return P, V, dV, bracket_residuals(V, dV, [(0, V.shape[1] - 1)], P, tol,
                                       symmetric_part_only)


def bracket(L, M, point, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Evaluate <L, M> at a point; raises NonCommutingError when the values
    fail to commute."""
    _, V, dV, _ = _pair(L, M, [point], tol, False)
    jets = [(V[0, k], dV[0, k]) for k in range(V.shape[1])]
    return bracket_from_jets(*jets[0], *jets[-1])


def is_symmetry(L, M, points, tol: float = DEFAULT_TOL,
                name: str = "symmetry") -> CheckResult:
    """Pass when the symmetric part of <L, M> vanishes at every point
    (residual scale-normalized by the field magnitudes)."""
    P, _, _, table = _pair(L, M, points, tol, True)
    return reduce_check(name, table, P, tol)


def is_strong_symmetry(L, M, points, tol: float = DEFAULT_TOL,
                       name: str = "strong_symmetry") -> CheckResult:
    """Pass when the entire bracket tensor vanishes at every point."""
    P, _, _, table = _pair(L, M, points, tol, False)
    return reduce_check(name, table, P, tol)


def nijenhuis_torsion_report(M, points, tol: float = DEFAULT_TOL,
                             name: str = "nijenhuis_torsion") -> CheckResult:
    """Torsion <M, M> as the strong-symmetry check of M with itself."""
    return is_strong_symmetry(M, M, points, tol=tol, name=name)


def conservation_law_residuals(Mval, Mder, alpha: OneFormField, points,
                               tol: float = DEFAULT_TOL) -> np.ndarray:
    """Scale-normalized curl of M^* alpha at each of the points, from the
    values Mval (B, n, n) and partials Mder (B, n, n, n) of M there.

    Raises OneFormNotClosedError when alpha itself fails to be closed: that
    is an input defect, distinct from a failed check.
    """
    P = np.asarray(points, dtype=float).reshape(-1, alpha.dimension)
    aval, ader = alpha.batch_jet_arrays(P)   # ader[b, i, j] = d alpha_i/du^j
    curl = batch_max_abs(ader - ader.swapaxes(1, 2))
    bad = np.flatnonzero(curl > tol * (1.0 + batch_max_abs(ader)))
    if len(bad):
        raise OneFormNotClosedError(
            f"alpha is not closed at {P[bad[0]].tolist()} "
            f"(curl residual {curl[bad[0]]:.3e})")
    # beta_j = alpha_i M^i_j ; d_k beta_j from the product rule
    bder = np.einsum("bik,bij->bjk", ader, Mval) \
        + np.einsum("bi,bijk->bjk", aval, Mder)
    scale = 1.0 + (batch_max_abs(aval) + batch_max_abs(ader)) \
        * (batch_max_abs(Mval) + batch_max_abs(Mder))
    return batch_max_abs(bder - bder.swapaxes(1, 2)) / scale


def conservation_law_check(M, alpha: OneFormField, points,
                           tol: float = DEFAULT_TOL,
                           name: str = "conservation_law") -> CheckResult:
    """Pass when M^* alpha is closed at every point; raises
    OneFormNotClosedError when alpha is not closed."""
    P = np.asarray(points, dtype=float).reshape(-1, alpha.dimension)
    return reduce_check(name, conservation_law_residuals(
        *M.batch_jet_arrays(P), alpha, P, tol), P, tol)


# ---------------------------------------------------------------------------
# dual families
# ---------------------------------------------------------------------------


class FamilyFieldView:
    """Member ``index`` of a pointwise family (anything with ``dimension``,
    ``eval`` and a stacked ``jet_data``) as an operator field."""

    def __init__(self, family, index):
        self.family = family
        self.index = index
        self.dimension = family.dimension

    def eval(self, u):
        return self.family.eval(u)[self.index]

    def batch_jet_arrays(self, points, partials=True):
        V, dV = self.family.jet_data(points)
        return V[:, self.index], dV[:, self.index] if partials else None

    def eval_generic(self, point):
        return self.family.eval_generic(point)[self.index]


class DualFamilyBase:
    """A family M^j = b^{ji} K_i dual to n operators K_i w.r.t. the fixed
    ``covector``.  A subclass's ``jet_data`` runs ``point_data`` with the
    partials of its K_i over a batch and returns its stack (``dual``,
    ``dual_tangent``): values and tangents from the same solve."""

    def eval(self, u):
        return list(self.jet_data([u])[0][0])

    def field(self, i: int) -> FamilyFieldView:
        return FamilyFieldView(self, i)

    @property
    def fields(self):
        return [self.field(i) for i in range(self.dimension)]


class DualFamily(DualFamilyBase):
    """Pointwise dual family M^1..M^n of an operator basis; ``eval_generic``
    runs the pointwise pipeline at a point of truncated series."""

    def __init__(self, basis: OperatorBasis, covector, tol: float = DEFAULT_TOL,
                 seed: int = 0):
        self.basis = basis
        self.covector = np.asarray(covector, dtype=float)
        self.dimension = basis.dimension
        self.tol = tol
        self.seed = seed

    def jet_data(self, points, jets=None):
        """Stacked dual jets over a batch, from its basis jets if given."""
        P = np.asarray(points, dtype=float)
        V, dV = jets or self.basis.batch_jet_arrays(P)
        data = point_data(V, P, self.covector, self.seed, self.tol, dV=dV)
        return data.dual, data.dual_tangent

    def eval_generic(self, point):
        """The dual fields (n x n grids of series) at a point of n truncated
        series, from the basis coefficients K[i, r, c, :] and xi of their
        constant terms; the errors are the float pipeline's there."""
        lay, n = point[0].layout, self.dimension
        K = point[0].dense(self.basis.eval_generic(point))
        xi = well_conditioned_xi(K[..., 0], self.seed, self.tol)
        C = np.einsum("jrcp,c->rjp", K, xi)      # [K_1 xi | .. | K_n xi]
        R = lay.matmul(K, C)                     # R[i, r, j] = K_i K_j xi
        X = lay.matmul(lay.inv(C), R.swapaxes(0, 1).reshape(n, n * n, -1))
        b = np.einsum("sijp,s->ijp", X.reshape(K.shape), self.covector)
        binv = inverse_form(b, self.covector, lay.inv)
        return point[0].grid(
            lay.matmul(binv, K.reshape(n, n * n, -1)).reshape(K.shape))


def dualize_family(
    basis: OperatorBasis,
    covector,
    points,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    check_inputs: bool = True,
):
    """Build the dual family and verify the duality conclusions.

    Returns (DualFamily, VerificationReport).  The report contains the
    mutual-symmetry check of the input basis (a precondition for the
    conclusion), and the mutual-symmetry check of the dual family, which is
    the content being certified.
    """
    report = VerificationReport(title="dualize_family", seed=seed)
    n = basis.dimension
    P = np.asarray(points, dtype=float).reshape(-1, n)
    pairs = list(combinations(range(n), 2))
    family = DualFamily(basis, covector, tol=tol, seed=seed)

    def symmetries(name, jets):
        try:
            return reduce_check(name, bracket_residuals(
                *jets(), pairs, P, tol, symmetric_part_only=True), P, tol)
        except OpfrobError as exc:
            return failed_check(name, exc, P, tol)

    stack = [basis.batch_jet_arrays(P) if check_inputs else None]
    if check_inputs:
        report.add(symmetries("input_mutual_symmetries", lambda: stack[0]))
        # stops at the first point without a generic vector and covector
        generic, detail = genericity_residuals(stack[0][0], P, seed, tol)
        bad = np.flatnonzero(generic)
        reached = bad[0] + 1 if len(bad) else len(P)
        report.add(reduce_check("genericity_A1_A2", generic[:reached],
                                P[:reached], 0.0, detail=detail))
    # the basis jets, evaluated once, are freed once the dual jets exist
    report.add(symmetries("dual_mutual_symmetries",
                          lambda: family.jet_data(P, stack.pop())))
    return family, report


def symmetry_coefficient_check(
    basis: OperatorBasis,
    h,
    points,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> CheckResult:
    """Check the covector identity K_i^* dh^j = a^j_{is} dh^s at the points.

    Passing is equivalent to K = sum_i h^i K_i being a common symmetry of
    the family.  ``h`` is a list of n coefficient expressions.
    """
    n = basis.dimension
    if len(h) != n:
        raise ValueError(f"need {n} coefficient functions, got {len(h)}")
    hform = OneFormField(h)  # reuse component-wise jet evaluation
    P, V = basis.values(points)
    a = point_data(V, P, seed=seed, tol=tol).structure
    dh = hform.batch_jet_arrays(P)[1]     # dh[b, j, m] = d h^j / du^m
    # row j of dh @ K_i is (K_i^* dh^j)_m
    diffs = dh[:, None] @ V - np.einsum("bisj,bsm->bijm", a, dh)
    scale = 1.0 + batch_max_abs(V) * (1.0 + batch_max_abs(dh))
    return reduce_check("symmetry_coefficients", batch_max_abs(diffs) / scale,
                        P, tol)
