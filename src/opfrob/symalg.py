"""Symmetry algebras of flat mutually-strong-symmetric families.

A flat basis is a family of constant matrices M^1..M^n spanning a pointwise
Frobenius algebra, supplied in coordinates normalized so that the designated
generic vector xi satisfies M^i xi = e_i (the coordinate frame is d/du^i =
M^i xi).  In that frame the canonical field

    U(u) = u^1 M^1 + ... + u^n M^n

is a common strong symmetry of the family, and so is f_1(U) M^1 + ... +
f_n(U) M^n for polynomial coefficient functions f_i; membership of an
arbitrary candidate is decided by pointwise decomposition in the basis
followed by strong-symmetry checks.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import OpfrobError
from .exprs import Const, linear_form, literal
from .fields import OperatorField, expression_add, expression_matmul
from .frobalg import (
    GENERIC_DRAWS,
    OperatorBasis,
    commutator_norms,
    find_generic_covector,
    point_data,
    stacked_jets,
    structure_constants_at,
)
from .numkit import batch_max_abs, batch_solve, max_abs
from .opfields import bracket_residuals
from .report import DEFAULT_TOL, VerificationReport, failed_check, reduce_check

__all__ = [
    "FlatBasis",
    "canonical_symmetry_U",
    "analytic_symmetry",
    "sym_membership",
]

class FlatBasis:
    """Constant matrices M^1..M^n with a designated generic vector xi
    normalized to M^i xi = e_i.

    Validation checks, to DEFAULT_TOL, pairwise commutation, the
    normalization and that xi^i M^i reproduces the identity (so Id lies in
    the span with constant coefficients), and that a generic covector exists.
    """

    def __init__(self, matrices, xi):
        tol = DEFAULT_TOL
        self.matrices = [np.asarray(M, dtype=float) for M in matrices]
        self.xi = np.asarray(xi, dtype=float)
        n = self.matrices[0].shape[0]
        if len(self.matrices) != n:
            raise OpfrobError(f"need {n} matrices in dimension {n}")
        self.dimension = n

        eye = np.eye(n)
        for i, M in enumerate(self.matrices):
            if max_abs(M @ self.xi - eye[i]) > tol:
                raise OpfrobError(
                    f"basis is not in normalized flat form: M^{i + 1} xi != "
                    f"e_{i + 1}; supply the basis in the coordinates with "
                    "d/du^i = M^i xi")
        i, j = np.triu_indices(n, 1)
        fails = commutator_norms(np.stack(self.matrices)[None], i, j)[0] > tol
        if fails.any():
            k = np.argmax(fails)    # the first failing pair
            raise OpfrobError(f"M^{i[k] + 1}, M^{j[k] + 1} do not commute")
        combo = sum(self.xi[i] * self.matrices[i] for i in range(n))
        if max_abs(combo - eye) > tol:
            raise OpfrobError("xi^i M^i does not reproduce the identity")
        if find_generic_covector(self.matrices, GENERIC_DRAWS,
                                 np.random.default_rng(0)) is None:
            raise OpfrobError("no generic covector found for the flat basis")

        # [M^1 xi | .. | M^n xi] is Id to within tol: no SVD regularity test
        self.structure, closure = structure_constants_at(
            self.matrices, self.xi,
            solve=lambda A, R: batch_solve(A[None], R[None])[0])
        if not closure <= tol:
            raise OpfrobError(f"flat span is not multiplicatively closed "
                              f"(residual {closure:.3e})")

    def operator_basis(self, name: str = "flat") -> OperatorBasis:
        return OperatorBasis.from_matrices(self.matrices, name=name)


def canonical_symmetry_U(flat: FlatBasis) -> OperatorField:
    """The field U(u) = sum_i u^i M^i in the flat coordinates."""
    n = flat.dimension
    return OperatorField([[linear_form([M[r, c] for M in flat.matrices])
                           for c in range(n)] for r in range(n)])


def _matrix_polynomial(coeffs, U) -> list:
    """Horner evaluation of a scalar polynomial at the matrix grid U."""
    n = len(U)
    scaled_identities = [[[literal(c * (i == j)) for j in range(n)]
                          for i in range(n)] for c in reversed(coeffs)]
    return reduce(lambda acc, cI: expression_add(expression_matmul(acc, U),
                                                 cI), scaled_identities)


def analytic_symmetry(flat: FlatBasis, polynomials) -> OperatorField:
    """Assemble f_1(U) M^1 + ... + f_n(U) M^n for polynomial f_i.

    ``polynomials`` is a sequence of n coefficient lists in ascending degree
    ([c0, c1, c2] means c0 + c1 t + c2 t^2); empty or all-zero lists drop out.
    """
    n = flat.dimension
    if len(polynomials) != n:
        raise ValueError(f"need {n} polynomials, got {len(polynomials)}")
    U = canonical_symmetry_U(flat).entries
    out = [[Const(0)] * n for _ in range(n)]
    for coeffs, M in zip(polynomials, flat.matrices):
        if any(c != 0 for c in coeffs):
            out = expression_add(out, expression_matmul(_matrix_polynomial(
                coeffs, U), [[literal(v) for v in row] for row in M.tolist()]))
    return OperatorField(out)


def sym_membership(
    basis: OperatorBasis,
    candidate: OperatorField,
    points,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> VerificationReport:
    """Decide membership of ``candidate`` in the symmetry algebra of the
    basis: pointwise decomposition candidate = sum_i g_i M^i (through the
    generic vector, then validated as a full matrix identity), followed by
    strong-symmetry checks against every basis field."""
    report = VerificationReport(title="sym_membership", seed=seed)
    P = np.asarray(points, dtype=float).reshape(-1, basis.dimension)
    V, dV = stacked_jets([candidate, *basis.fields], P)
    cand = V[:, 0]
    data = point_data(V[:, 1:], P, seed=seed)
    with np.errstate(all="ignore"):     # an overflow fails the check
        g = (data.columns_inv @ (cand @ data.xi[:, :, None]))[..., 0]
        recon = np.einsum("bi,birc->brc", g, V[:, 1:])
        report.add(reduce_check("decomposition_in_span", batch_max_abs(
            cand - recon) / (1.0 + batch_max_abs(cand)), P, tol))

    if report.passed:
        name = "strong_symmetry_vs_basis"
        pairs = [(0, i) for i in range(1, V.shape[1])]
        try:
            report.add(reduce_check(name, bracket_residuals(
                V, dV, pairs, P, tol, symmetric_part_only=False), P, tol))
        except OpfrobError as exc:
            report.add(failed_check(name, exc, P, tol))
    return report
