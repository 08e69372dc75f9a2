"""Poisson-commuting quadratic Hamiltonians from operator Frobenius algebras.

Direct construction: given a basis M^1..M^n of mutual strong symmetries and
a common conservation law alpha with pointwise-independent pullbacks
M^{i*} alpha, the canonical chart coordinates are fixed by ds^i = M^{i*}
alpha and the quadratic forms

    F_s(u, p) = a^{ij}_s(u) p_i p_j,       M^i M^j = a^{ij}_s M^s,

pairwise Poisson commute, satisfy det(dF/dp) != 0 at generic momenta, and
obey the matrix identity (p_i M^i)^2 = F_s M^s.  When the leading form h_1
is nondegenerate the Killing tensors are K_s = h_s h_1^{-1} and the basis is
recovered as M^i = a^{is}_1 K_s.

Inverse direction: for user-supplied quadratic Hamiltonians the hypotheses
(pairwise commutation, momentum nondegeneracy, algebraically commuting
Killing tensors) are checked, the Frobenius data of the K_i span is
validated pointwise, and the operators rebuilt from a chosen covector a as
    Mbar^i = bbar^{is} K_s,   bbar_{ij} = a_{ij}^s a_s,
are certified to be Nijenhuis operators and pairwise strong symmetries.

The differential of Hamilton's principal function on the level set
{F_s = c_s} is dW(u, c) = sqrt(c_1 M^{1*} + ... + c_n M^{n*}) alpha, with the
principal square root taken near the identity.
"""

from __future__ import annotations

import numpy as np

from .errors import (GenericityError, OpfrobError, SingularMatrixError,
                     SqrtConvergenceError)
from .exprs import (Const, Expression, linear_form, literal, parse_expr,
                    parse_grid)
from .fields import OneFormField, compile_grid, grid_floats, grid_jets
from .frobalg import (
    OperatorBasis,
    batch_generic_search,
    checked_inv,
    commutator_norms,
    point_data,
)
from .numkit import (batch_max_abs, hadamard_ratio, mat_rank, max_abs,
                     on_distinct_rows, sqrt_near_identity, take_rows)
from .opfields import (
    DualFamilyBase,
    bracket_residuals,
    conservation_law_residuals,
)
from .report import CheckResult, VerificationReport, failed_check, reduce_check

__all__ = [
    "QuadraticHamiltonian",
    "poisson_bracket",
    "verify_commuting_family",
    "IntegrableSystem",
    "generate_system",
    "killing_tensors",
    "hj_differential",
    "inverse_verify",
    "ReconstructedFamily",
]

DEFAULT_TOL = 1e-9


class QuadraticHamiltonian:
    """F(u, p) = h^{ij}(u) p_i p_j with a structurally symmetric grid of
    coefficient expressions."""

    def __init__(self, grid):
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise ValueError("coefficient grid must be square")
        self.grid = [[e if isinstance(e, Expression) else Const(e)
                      for e in row] for row in grid]
        self.dimension = n
        self.program = compile_grid([e for row in self.grid for e in row], n,
                                    "entry", "form")
        for i in range(n):
            for j in range(i + 1, n):
                # equal parsed texts are one node (exprs.parse_grid)
                a, b = self.grid[i][j], self.grid[j][i]
                if a is not b and str(a) != str(b):
                    raise ValueError(
                        f"grid is not structurally symmetric at ({i+1},{j+1}): "
                        f"{self.grid[i][j]} vs {self.grid[j][i]}"
                    )

    @classmethod
    def parse(cls, grid, dimension: int) -> "QuadraticHamiltonian":
        if len(grid) != dimension or any(len(r) != dimension for r in grid):
            raise ValueError(f"expected a {dimension}x{dimension} grid")
        return cls(parse_grid(grid, dimension))

    @classmethod
    def constant(cls, matrix) -> "QuadraticHamiltonian":
        matrix = np.asarray(matrix, dtype=float)
        if max_abs(matrix - matrix.T) > 0:
            raise ValueError("constant coefficient matrix must be symmetric")
        return cls([[literal(v) for v in row] for row in matrix.tolist()])

    def coeff(self, u) -> np.ndarray:
        n = self.dimension
        return grid_floats(self.program, u).reshape(n, n)

    def coeff_jets(self, points):
        """(A, dA) over a (B, n) batch of points, with A[b] = h at points[b]
        and dA[b, i, j, s] = d h^{ij} / du^s there."""
        n = self.dimension
        return grid_jets(self.program, (n, n), _batch(points, n))

    def value(self, u, p) -> float:
        p = np.asarray(p, dtype=float)
        return float(p @ self.coeff(u) @ p)


def _phase_jets(A, dA, p):
    """F, dF/dp and dF/du of a quadratic form at the phase points with
    momenta p[b], from its coefficient jets (A, dA) there; momentum
    derivatives are exact (2 h^{ik} p_k), position ones come from dA."""
    B, n = p.shape
    Ap = (A @ p[:, :, None])[..., 0]
    # p_i p_j d_k h^{ij}: i contracted by a product over [i, (j, k)], then j
    pdA = (p[:, None] @ dA.reshape(B, n, n * n)).reshape(B, n, n)
    return (p * Ap).sum(axis=1), 2.0 * Ap, (p[:, :, None] * pdA).sum(axis=1)


def _bracket_of(f, g):
    """{F, G} = dF/dp_i dG/du^i - dF/du^i dG/dp_i from two _phase_jets."""
    return np.einsum("bk,bk->b", f[1], g[2]) - np.einsum("bk,bk->b", f[2],
                                                         g[1])


def poisson_bracket(F, G, u, p):
    """Canonical bracket {F, G} of two quadratic forms sharing one
    canonical chart, at the phase point (u, p) as a float, or at every row
    of two (B, n) batches u and p as a (B,) array."""
    P, pv = (_batch(x, F.dimension) for x in (u, p))
    out = _bracket_of(*(_phase_jets(*H.coeff_jets(P), pv) for H in (F, G)))
    return float(out[0]) if np.ndim(u) == 1 else out


def verify_commuting_family(
    hams,
    u_points,
    p_points,
    tol: float = 1e-8,
    name: str = "pairwise_poisson_brackets",
    jets=None,
) -> CheckResult:
    """Max scale-normalized |{F_i, F_j}| over the phase sample; the residual
    is divided by 1 + |F_i||F_j| so rational Hamiltonians near their
    singular loci stay comparable.  ``jets`` are the Hamiltonians'
    ``coeff_jets`` at u_points when the caller already has them."""
    m, n = len(hams), hams[0].dimension
    P, p = _batch(u_points, n), _batch(p_points, n)
    jets = [_phase_jets(A, dA, p)
            for A, dA in jets or (H.coeff_jets(P) for H in hams)]
    residuals = [np.abs(_bracket_of(jets[i], jets[j]))
                 / (1.0 + np.abs(jets[i][0]) * np.abs(jets[j][0]))
                 for i in range(m) for j in range(i + 1, m)]
    # per point the worst pair (a NaN wins), 0 without pairs
    return reduce_check(name, np.max(np.reshape(residuals, (
        len(residuals), len(P))), axis=0, initial=0.0), np.hstack([P, p]), tol)


def _momentum_nondegeneracy(G, points, seed, draws=50, threshold=1e-9,
                            name="momentum_nondegeneracy") -> CheckResult:
    """det(dF/dp) != 0 at generic p: at every base point some seeded draw
    must give a relative determinant above the threshold (relative to the
    Hadamard bound of the matrix 2 a^{ij}_s p_i).  G[b, s] is the grid of
    F_s at points[b]; the draws for points[b] are rows b*draws.. of one
    (B*draws, n) draw, taken in chunks of points no larger than G."""
    B, n = len(points), G.shape[-1]
    rng = np.random.default_rng(seed)
    c = max(1, B * n // (2 * draws))
    best = np.empty(B)
    for s in range(0, B, c):
        G2 = (2.0 * G[s:s + c]).reshape(-1, n * n, n)
        p = rng.uniform(-1.0, 1.0, (len(G2), draws, n))
        # D[b, d] stacks the rows 2 A_s p_d, one product (2 A) @ p^T a point
        D = (G2 @ p.swapaxes(1, 2)).reshape(-1, n, n, draws).transpose(
            0, 3, 1, 2)
        best[s:s + c] = np.max(hadamard_ratio(D), axis=1)
    k = int(np.argmin(best)) if B else None
    return CheckResult(
        name=name, passed=bool(B > 0 and best[k] > threshold),
        residual=float(best[k]) if B else float("inf"), tolerance=threshold,
        worst_point=None if k is None else list(map(float, points[k])),
        samples=B, seed=seed,
        detail="pass requires residual above tolerance" if B
        else "no point evaluated",
    )


class _SystemForm:
    """Quadratic form F_s of a generated system, with coefficients and
    chart-frame derivatives evaluated at original coordinates."""

    def __init__(self, system, s):
        self.system = system
        self.s = s
        self.dimension = system.dimension

    def coeff_jets(self, points):
        a_val, a_der = self.system.structure_jets_at(points)
        return a_val[..., self.s], a_der[..., self.s, :]


def _batch(points, n) -> np.ndarray:
    return np.asarray(points, dtype=float).reshape(-1, n)


def _pullback_rows(aval, V) -> np.ndarray:
    """J[b, i] = M^{i*} alpha at points[b], from alpha (B, n) and the basis
    values V (B, n, n, n) there; each row rounds as ``alpha @ M^i``."""
    return (aval[:, None, None, :] @ V)[..., 0, :]


class IntegrableSystem:
    """A generated commuting family: basis, conservation law, chart, and the
    quadratic forms F_s in the chart's canonical coordinates.  Every
    pointwise quantity is evaluated over a (B, n) batch of points."""

    def __init__(self, basis: OperatorBasis, alpha: OneFormField, chart,
                 tol: float = DEFAULT_TOL, seed: int = 0):
        self.basis = basis
        self.alpha = alpha
        self.chart = list(chart)
        self.dimension = basis.dimension
        self.tol = tol
        self.seed = seed
        self.is_constant = basis.is_constant and alpha.is_constant
        self._batch = (b"",) + (None,) * 4  # points, V, data, alpha, a_chart
        self.hamiltonians = None
        if self.is_constant:
            # the grids are symmetric only up to rounding in a general frame
            grids = self.coefficient_grids(np.zeros((1, self.dimension)))[0]
            self.hamiltonians = [QuadraticHamiltonian.constant((A + A.T) / 2)
                                 for A in grids]

    # -- pointwise data ------------------------------------------------------

    def batch_data(self, points, tangents=False, jets=None):
        """(V, Frobenius data) over a (B, n) batch, with the basis values V
        (``jets`` = (V, dV, alpha's values) when given) and structure
        tangents if asked.  The last batch with tangents is kept, with alpha's
        values (points copied, arrays read-only), for any batch beginning it."""
        P = _batch(points, self.dimension)
        key, V, data = self._batch[:3]
        if V is None or not key.startswith(P.tobytes()):
            V, dV, a = jets or (*self.basis.batch_jet_arrays(P, tangents),
                                None)
            data = point_data(V, P, seed=self.seed, tol=self.tol, dV=dV)
            if not tangents:
                return None, data
            if a is None:
                a = self.alpha.batch_jet_arrays(P)[0]
            for x in (V, a, *vars(data).values()):
                if x is not None:
                    x.setflags(write=False)
            self._batch = (P.tobytes(), V, data, a, None)
        return V[:len(P)], take_rows(data, slice(len(P)))

    def coefficient_grids(self, points) -> np.ndarray:
        """G[b, s, i, j] = a^{ij}_s, the coefficient grid of F_s, at
        points[b]."""
        a = self.batch_data(points)[1].structure    # a kept one is copied
        return (a if a.flags.writeable else a.copy("K")).transpose(0, 3, 1, 2)

    def structure_jets_at(self, points):
        """Structure constants and their chart-frame derivatives over a
        (B, n) batch: (a_val[b,i,j,s], a_chart[b,i,j,s,k]) with
        d/d(chart^k); kept with the batch of ``batch_data``, read-only."""
        P = _batch(points, self.dimension)
        V, data = self.batch_data(P, tangents=True)
        a_chart = self._batch[4]
        if a_chart is None or len(a_chart) < len(P):
            Jinv = self._chart_inverse(
                _pullback_rows(self._batch[3][:len(P)], V), P)
            a_chart = data.structure_tangent @ Jinv[:, None, None]
            a_chart.setflags(write=False)
            self._batch = self._batch[:4] + (a_chart,)
        return data.structure, a_chart[:len(P)]

    @staticmethod
    def _chart_inverse(J, P):
        return on_distinct_rows(checked_inv, (J,), P, "the pullback rows "
                                "M^{i*} alpha are dependent")

    def chart_rows(self, points) -> np.ndarray:
        """Chart Jacobians J[b, i, m] = (M^{i*} alpha)_m at points[b]."""
        P, V = self.basis.values(points)
        return _pullback_rows(self.alpha.batch_jet_arrays(P)[0], V)

    def chart_frame_basis(self, points):
        """Basis values J M^i J^{-1} (B, n, n, n) and alpha J^{-1} (B, n)
        pushed to the chart frame at points[b]; read from the kept batch
        when it begins with the points."""
        P = _batch(points, self.dimension)
        key, V, _, aval, _ = self._batch
        if V is None or not key.startswith(P.tobytes()):
            P, V = self.basis.values(P)
            aval = self.alpha.batch_jet_arrays(P)[0]
        V, aval = V[:len(P)], aval[:len(P)]
        J = _pullback_rows(aval, V)
        Jinv = self._chart_inverse(J, P)
        return J[:, None] @ V @ Jinv[:, None], \
            (aval[:, None, :] @ Jinv)[:, 0]

    def forms(self):
        if self.hamiltonians is not None:
            return list(self.hamiltonians)
        return [_SystemForm(self, s) for s in range(self.dimension)]

    # -- derived objects -----------------------------------------------------

    def killing_at(self, points) -> np.ndarray:
        """K[b, s] = h_s h_1^{-1} at points[b] (chart frame)."""
        P = _batch(points, self.dimension)
        return _killing_values(self.coefficient_grids(P), P)[0]

    def hj_differential(self, points, c) -> np.ndarray:
        """dW(u, c) in chart components at each of the points, (B, n);
        substituting p = dW solves F_s(u, p) = c_s.  SqrtConvergenceError
        names the first point where the square root fails."""
        P = _batch(points, self.dimension)
        try:
            return hj_differential(*self.chart_frame_basis(P), c)
        except SqrtConvergenceError as exc:
            raise SqrtConvergenceError(
                f"dW at {list(map(float, P[exc.index]))}: {exc}",
                index=exc.index) from None

    def n15_residual(self, points, p) -> np.ndarray:
        """Residual of the matrix identity (p_i M^i)^2 = F_s M^s in the
        chart frame at each phase point (points[b], p[b])."""
        P = _batch(points, self.dimension)
        p = _batch(p, self.dimension)
        mats, _ = self.chart_frame_basis(P)
        lhs = np.einsum("bi,birc->brc", p, mats)
        lhs = lhs @ lhs
        F = np.einsum("bi,bsij,bj->bs", p, self.coefficient_grids(P), p)
        rhs = np.einsum("bs,bsrc->brc", F, mats)
        return batch_max_abs(lhs - rhs) / (1.0 + batch_max_abs(lhs))


def generate_system(
    basis: OperatorBasis,
    alpha: OneFormField,
    points,
    chart=None,
    tol: float = DEFAULT_TOL,
    bracket_tol: float | None = None,
    seed: int = 0,
):
    """Run the direct construction and certify its conclusions.

    Returns (IntegrableSystem, VerificationReport).  For a constant basis
    with constant alpha the chart is the linear map s^i = <M^{i*} alpha, u>
    computed automatically; otherwise chart expressions must be supplied and
    are validated against ds^i = M^{i*} alpha.
    """
    n = basis.dimension
    report = VerificationReport(title="generate_system", seed=seed)
    bracket_tol = tol if bracket_tol is None else bracket_tol
    P = _batch(points, n)
    tangents = not (basis.is_constant and alpha.is_constant)
    V, dV = basis.batch_jet_arrays(P, tangents)   # once; dV None if constant
    a, da = alpha.batch_jet_arrays(P)
    report.add(reduce_check("alpha_common_conservation_law",
                            conservation_law_residuals(V, dV, a, da, P, tol),
                            P, tol))

    pullbacks = _pullback_rows(a, V)
    del da      # not held through the Poisson and momentum checks
    min_rank = int(np.min(mat_rank(pullbacks, tol=tol), initial=n))
    report.add(CheckResult(
        name="pullback_independence",
        passed=len(P) > 0 and min_rank == n,
        residual=float(n - min_rank), tolerance=0.0, samples=len(P),
        detail=f"min rank {min_rank} of {n}" if len(P)
        else "no point evaluated",
    ))

    if chart is None:
        if not (basis.is_constant and alpha.is_constant):
            raise OpfrobError(
                "chart expressions are required for non-constant data; only "
                "a constant basis with constant alpha admits the automatic "
                "linear chart"
            )
        origin = np.zeros((1, n))
        C = _pullback_rows(alpha.batch_jet_arrays(origin)[0],
                           basis.values(origin)[1])[0]
        chart = [linear_form(row) for row in C]
    else:
        chart = [c if isinstance(c, Expression) else parse_expr(c, n)
                 for c in chart]

    # the chart gradients must be the pullback rows
    _, grads = OneFormField(chart).batch_jet_arrays(P)
    report.add(reduce_check("chart_validation", batch_max_abs(
        grads - pullbacks) / (1.0 + batch_max_abs(pullbacks)), P, tol))

    system = IntegrableSystem(basis, alpha, chart, tol=tol, seed=seed)

    _, data = system.batch_data(P, tangents, (V, dV, a))
    report.add(reduce_check("span_closure", data.closure_residual, P, tol))

    rng = np.random.default_rng(seed + 1)
    p_draws = rng.uniform(-1.0, 1.0, (len(P), n))
    try:
        report.add(verify_commuting_family(system.forms(), P, p_draws,
                                           tol=bracket_tol))
    except SingularMatrixError as exc:
        report.add(failed_check("pairwise_poisson_brackets", exc, P,
                                bracket_tol))
    report.add(_momentum_nondegeneracy(
        data.structure.transpose(0, 3, 1, 2), P, seed=seed + 2))
    return system, report


def _commutation_residuals(K) -> np.ndarray:
    """Worst commutator of the Killing tensors K (B, m, n, n) at each point,
    relative to 1 + the largest squared entry."""
    return np.max(commutator_norms(K, *np.triu_indices(K.shape[1], 1)),
                  axis=1, initial=0.0) / (1.0 + batch_max_abs(K) ** 2)


def _asymmetry(A) -> np.ndarray:
    """|A - A^T| / (1 + |A|) for each matrix of the stack A (..., n, n)."""
    norm = np.max(np.abs(A), axis=(-2, -1), initial=0.0)
    return np.max(np.abs(A - A.swapaxes(-1, -2)), axis=(-2, -1),
                  initial=0.0) / (1.0 + norm)


def _killing_values(G, points):
    """Killing tensors K[b, s] = h_s h_1^{-1} from the grids G[b, s] = h_s
    at points[b], and h_1^{-1}, once per distinct G[b]; SingularMatrixError
    at the first point where h_1 is singular."""
    return on_distinct_rows(_killing_rows, (G,), points)


def _killing_rows(G, points):
    h1_inv = checked_inv(G[:, 0], points, "h_1 is singular")
    return G @ h1_inv[:, None], h1_inv


def killing_tensors(system: IntegrableSystem, points, tol: float = DEFAULT_TOL):
    """Killing tensors K_s = h_s h_1^{-1} of a generated system together
    with the algebraic certificates: pairwise commutation, self-adjointness
    of the basis w.r.t. every form h_s, and the duality M^i = a^{is}_1 K_s.
    The checks cover the points before the first one where h_1 is
    singular; returns (K (B', n, n, n) at those points, report).
    """
    report = VerificationReport(title="killing_tensors")
    P = _batch(points, system.dimension)
    G = system.coefficient_grids(P)
    try:
        K, _ = _killing_values(G, P)
    except SingularMatrixError as exc:
        report.add(failed_check("h1_invertible", exc, P, tol,
                                detail="h_1 degenerate"))
        P, G = P[:exc.index], G[:exc.index]
        K, _ = _killing_values(G, P)
    mats, _ = system.chart_frame_basis(P)
    adj = np.max([_asymmetry(M[:, None] @ G) for M in mats.swapaxes(0, 1)],
                 axis=(0, 2), initial=0.0)
    recon = np.einsum("bis,bsrc->birc", G[:, 0], K)
    dual = np.max(np.max(np.abs(mats - recon), axis=(-2, -1), initial=0.0)
                  / (1.0 + np.max(np.abs(mats), axis=(-2, -1), initial=0.0)),
                  axis=1, initial=0.0)
    report.add(reduce_check("killing_pairwise_commutation",
                            _commutation_residuals(K), P, tol))
    report.add(reduce_check("basis_self_adjointness", adj, P, tol))
    report.add(reduce_check("killing_duality", dual, P, tol))
    return K, report


def hj_differential(mats, alpha_value, c) -> np.ndarray:
    """dW = sqrt(c_1 M^1 + ... + c_n M^n)^* alpha at one point, or at each
    point of a batch: ``mats`` (..., n, n, n), ``alpha_value`` (..., n).

    ``mats`` are basis values in the canonical chart frame, ``alpha_value``
    the conservation-law components in the same frame.  The square root is
    the principal branch near the identity, one stacked iteration over a
    batch; its failure to converge signals an inadmissible c.
    """
    c, mats = np.asarray(c, dtype=float), np.asarray(mats, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # sqrt then fails
        R = sqrt_near_identity(sum(c[i] * mats[..., i, :, :]
                                   for i in range(mats.shape[-3])))
    alpha = np.asarray(alpha_value, dtype=float)[..., None]
    return (R.swapaxes(-1, -2) @ alpha)[..., 0]


class ReconstructedFamily(DualFamilyBase):
    """Operators Mbar^i = bbar^{is} K_s rebuilt pointwise from quadratic
    Hamiltonians and a covector (bbar_{ij} = a_{ij}^s a_s in the K-basis).
    ``jet_data`` stacks values and exact first derivatives over a whole
    batch from the tangent pipeline: h grids -> Killing tensors -> structure
    constants -> form inverse; one bracket table certifies them."""

    def __init__(self, hams, covector, tol: float = DEFAULT_TOL, seed: int = 0):
        self.hams = list(hams)
        self.covector = np.asarray(covector, dtype=float)
        self.dimension = self.hams[0].dimension
        self.tol = tol
        self.seed = seed

    def _killing(self, points, jets=None):
        """K[b, s] = h_s h_1^{-1}, dK_s = dh_s h_1^{-1} - K_s dh_1 h_1^{-1} and
        h_1^{-1} over a (B, n) batch, from its coeff_jets ``jets`` if given."""
        jets = jets or [H.coeff_jets(points) for H in self.hams]
        return on_distinct_rows(_killing_jets, tuple(
            np.stack(x, axis=1) for x in zip(*jets)), points)

    def killing_values(self, points):
        return self._killing(_batch(points, self.dimension))[0]

    def jet_data(self, points, data=None):
        """Stacked jets over a (B, n) batch, or from its solved ``data``."""
        if data is None:
            P = _batch(points, self.dimension)
            K, dK, _ = self._killing(P)
            data = point_data(K, P, self.covector, self.seed, self.tol, dV=dK)
        return data.dual, data.dual_tangent


def _killing_jets(H, dH, points):
    K, h1_inv = _killing_values(H, points)
    B, n = len(H), H.shape[-1]
    # dh_s h_1^{-1}: row i of it is h_1^{-T} dh_si over [k, m], dh_si being
    # the (j, m) matrix dH[b, s, i]
    dK = h1_inv.swapaxes(1, 2)[:, None, None] @ dH
    # - K_s dh_1 h_1^{-1}, with dh_1 h_1^{-1} = dK[:, 0] over [j, (k, m)]
    dK -= (K @ dK[:, :1].reshape(B, 1, n, n * n)).reshape(dK.shape)
    return K, dK, h1_inv


def _hypothesis_checks(family, P, p_draws, tol):
    """The hypotheses, from one evaluation of the coefficient jets at P:
    Poisson commutation, momentum nondegeneracy, and for the Killing tensors
    K_s = h_s h_1^{-1} commutation, self-adjointness w.r.t. h_1^{-1} and the
    Frobenius certificates of their span; returns (checks, the span's Frobenius
    data with dual tangents).  The Frobenius checks stop at the first point
    where h_1 is singular, no generic vector is found or the point data fail;
    the Killing checks also cover that point when its Killing tensors exist."""
    jets = [H.coeff_jets(P) for H in family.hams]
    checks = [verify_commuting_family(family.hams, P, p_draws, tol, jets=jets),
              _momentum_nondegeneracy(np.stack([A for A, _ in jets], axis=1),
                                      P, seed=family.seed + 2)]
    fail_detail = ""
    try:
        K, dK, h1_inv = family._killing(P, jets)
        killed = stop = len(P)
    except SingularMatrixError as exc:
        killed = stop = exc.index
        fail_detail = str(exc)
        K, dK, h1_inv = family._killing(
            P[:stop], [(A[:stop], dA[:stop]) for A, dA in jets])
    del jets    # free the coefficient jets before the Frobenius data
    xi, a_cov = batch_generic_search(K, family.seed, DEFAULT_TOL)
    missed = np.flatnonzero(np.isnan(xi[:, 0]))
    if len(missed):
        stop = missed[0]
        fail_detail = f"no generic vector at {list(map(float, P[stop]))}"
    covector_ok = not np.isnan(a_cov[:stop, 0]).any()
    while True:
        try:
            data = point_data(K[:stop], P[:stop], family.covector,
                              family.seed, family.tol, dV=dK[:stop])
            break
        except (GenericityError, SingularMatrixError) as exc:
            stop, fail_detail = exc.index, str(exc)
    del dK      # and the Killing tangents before the Killing checks
    reached = min(stop + 1, killed)

    comm = reduce_check("killing_pairwise_commutation",
                        _commutation_residuals(K[:reached]), P[:reached], tol)
    adj = reduce_check("killing_self_adjointness", np.max(
        _asymmetry(h1_inv[:reached, None] @ K[:reached]), axis=1,
        initial=0.0), P[:reached], tol)
    span = reduce_check(
        "frobenius_span", [data.closure_residual,
                           data.associativity_residual], P[:stop], tol,
        detail=fail_detail
        or "A1/A2 searches, closure and associativity of the Killing span")
    span.passed = span.passed and not fail_detail and covector_ok
    duality = reduce_check("form_duality", data.duality_residual, P[:stop],
                           tol, detail="<a ; Mbar^i K_j> = delta")
    duality.passed = duality.passed and not fail_detail
    return checks + [comm, adj, span, duality], data


def inverse_verify(
    hams,
    covector,
    points,
    tol: float = 1e-8,
    seed: int = 0,
):
    """Verify that user-supplied quadratic Hamiltonians arise from the
    direct construction, checking every hypothesis instead of assuming any.

    Itemized checks: (i) pairwise Poisson commutation, (ii) momentum
    nondegeneracy, (iii) Killing tensors K_i = h_i h_1^{-1} commute
    algebraically; then the Frobenius certificates of the Killing span,
    self-adjointness w.r.t. h_1^{-1}, and the torsion/strong-symmetry
    certificates of the rebuilt operators Mbar^i = bbar^{is} K_s.

    Returns (VerificationReport, ReconstructedFamily | None).
    """
    n = hams[0].dimension
    P = _batch(points, n)
    report = VerificationReport(title="inverse_verify", seed=seed)
    rng = np.random.default_rng(seed + 1)
    p_draws = rng.uniform(-1.0, 1.0, (len(P), n))
    family = ReconstructedFamily(hams, covector, tol=DEFAULT_TOL, seed=seed)
    checks, data = _hypothesis_checks(family, P, p_draws, tol)
    report.checks.extend(checks)
    if not report.passed:
        return report, None
    names = ("reconstructed_nijenhuis_torsion",
             "reconstructed_strong_symmetries")
    pairs = [(i, i) for i in range(n)] + list(zip(*np.triu_indices(n, 1)))
    try:
        table = bracket_residuals(*family.jet_data(P, data), pairs, P, tol,
                                  symmetric_part_only=False)
        report.checks += [reduce_check(name, rows, P, tol) for name, rows
                          in zip(names, (table[:n], table[n:]))]
    except OpfrobError as exc:     # the values fail to commute
        report.checks += [failed_check(name, exc, P, tol) for name in names]
    return report, family
