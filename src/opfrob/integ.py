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

from .errors import OpfrobError, SingularMatrixError
from .exprs import Const, Expression, Var, parse_expr, parse_grid
from .fields import OneFormField, checked_grid, eval_grid, eval_grid_generic
from .frobalg import (
    OperatorBasis,
    find_generic_covector,
    find_generic_vector,
    frobenius_dual,
    point_data,
    structure_constants_at,
    well_conditioned_xi,
)
from .numkit import (
    jet_point,
    mat_inv,
    mat_rank,
    max_abs,
    split_jet_matrix,
    sqrt_near_identity,
)
from .opfields import (
    FamilyFieldView,
    bracket_from_jets,
    conservation_law_residuals,
)
from .report import CheckResult, VerificationReport, reduce_check

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
        checked_grid((e for row in self.grid for e in row), n, "entry", "form")
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
        return cls([[Const(v if v != int(v) else int(v)) for v in row]
                    for row in matrix.tolist()])

    def coeff(self, u) -> np.ndarray:
        return eval_grid(self.grid, u)

    def coeff_generic(self, point) -> np.ndarray:
        return eval_grid_generic(self.grid, point)

    def coeff_jets(self, u):
        """(A, dA) with dA[i,j,s] = d h^{ij} / du^s."""
        return split_jet_matrix(self.coeff_generic(jet_point(u)),
                                self.dimension)

    def value(self, u, p) -> float:
        p = np.asarray(p, dtype=float)
        return float(p @ self.coeff(u) @ p)


def poisson_bracket(F, G, u, p) -> float:
    """Canonical bracket {F, G} = dF/dp_i dG/du^i - dF/du^i dG/dp_i for two
    quadratic forms sharing one canonical chart.

    Momentum derivatives are exact (2 h^{ik} p_k); position derivatives come
    from jet evaluation of the coefficient grids.
    """
    p = np.asarray(p, dtype=float)
    AF, dAF = F.coeff_jets(u)
    AG, dAG = G.coeff_jets(u)
    Fp = 2.0 * AF @ p
    Gp = 2.0 * AG @ p
    Fu = np.einsum("i,ijk,j->k", p, dAF, p)
    Gu = np.einsum("i,ijk,j->k", p, dAG, p)
    return float(Fp @ Gu - Fu @ Gp)


def verify_commuting_family(
    hams,
    u_points,
    p_points,
    tol: float = 1e-8,
    name: str = "pairwise_poisson_brackets",
) -> CheckResult:
    """Max scale-normalized |{F_i, F_j}| over the phase sample; the residual
    is divided by 1 + |F_i||F_j| so rational Hamiltonians near their
    singular loci stay comparable."""
    m = len(hams)
    residuals, phase_points = [], []
    for u, p in zip(u_points, p_points):
        pv = np.asarray(p, dtype=float)
        vals, grads = [], []   # F and (dF/dp, dF/du) of each Hamiltonian
        for A, dA in (H.coeff_jets(u) for H in hams):
            vals.append(float(pv @ A @ pv))
            grads.append((2.0 * A @ pv, np.einsum("i,ijk,j->k", pv, dA, pv)))
        residuals.append(np.max([
            abs(float(grads[i][0] @ grads[j][1] - grads[i][1] @ grads[j][0]))
            / (1.0 + abs(vals[i]) * abs(vals[j]))
            for i in range(m) for j in range(i + 1, m)], initial=0.0))
        phase_points.append(list(map(float, u)) + list(map(float, p)))
    return reduce_check(name, residuals, phase_points, tol)


def _momentum_nondegeneracy(coeff_grids_at, points, n, seed, draws=50,
                            threshold=1e-9,
                            name="momentum_nondegeneracy") -> CheckResult:
    """det(dF/dp) != 0 at generic p: at every base point some seeded draw
    must give a relative determinant above the threshold (relative to the
    Hadamard bound of the matrix 2 a^{ij}_s p_i)."""
    worst = np.inf
    worst_pt = None
    rng = np.random.default_rng(seed)
    for u in points:
        G = np.stack([2.0 * A for A in coeff_grids_at(u)])
        P = rng.uniform(-1.0, 1.0, (draws, n))
        # D[d] stacks the rows 2 A_s p_d, each rounded as (2 A_s) @ p_d
        D = np.matmul(G[None], P[:, None, :, None])[..., 0]
        bound = np.prod(np.linalg.norm(D, axis=2), axis=1)
        det = np.linalg.det(D)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(det) / bound
        # draws with a zero bound are skipped and NaN ratios ignored
        ratio = ratio[(bound != 0.0) & ~np.isnan(ratio)]
        best = float(np.max(ratio, initial=0.0))
        if best < worst:
            worst, worst_pt = best, list(map(float, u))
    return CheckResult(
        name=name, passed=len(points) > 0 and worst > threshold,
        residual=float(worst), tolerance=threshold, worst_point=worst_pt,
        samples=len(points), seed=seed,
        detail="pass requires residual above tolerance" if len(points)
        else "no point evaluated",
    )


class _SystemForm:
    """Quadratic form F_s of a generated system, with coefficients and
    chart-frame derivatives evaluated pointwise at original coordinates."""

    def __init__(self, system, s):
        self.system = system
        self.s = s
        self.dimension = system.dimension

    def coeff_jets(self, u):
        a_val, a_der = self.system.structure_jets_at(u)
        return a_val[:, :, self.s], a_der[:, :, self.s, :]

    def coeff(self, u):
        return self.system.structure_at(u)[:, :, self.s]

    def value(self, u, p) -> float:
        p = np.asarray(p, dtype=float)
        return float(p @ self.coeff(u) @ p)


class IntegrableSystem:
    """A generated commuting family: basis, conservation law, chart, and the
    quadratic forms F_s in the chart's canonical coordinates."""

    def __init__(self, basis: OperatorBasis, alpha: OneFormField, chart,
                 tol: float = DEFAULT_TOL, seed: int = 0):
        self.basis = basis
        self.alpha = alpha
        self.chart = list(chart)
        self.dimension = basis.dimension
        self.tol = tol
        self.seed = seed
        self.is_constant = basis.is_constant and alpha.is_constant
        self._structure_cache = {}
        self._jets_cache = {}
        self.hamiltonians = None
        if self.is_constant:
            a = self.structure_at(np.zeros(self.dimension))
            self.hamiltonians = [
                QuadraticHamiltonian.constant(a[:, :, s])
                for s in range(self.dimension)
            ]

    # -- pointwise data ------------------------------------------------------

    def structure_at(self, u) -> np.ndarray:
        key = tuple(float(x) for x in u)
        hit = self._structure_cache.get(key)
        if hit is not None:
            return hit
        values = self.basis.eval(u)
        a, _ = structure_constants_at(
            values, well_conditioned_xi(values, self.seed, self.tol))
        if len(self._structure_cache) > 1024:
            self._structure_cache.clear()
        self._structure_cache[key] = a
        return a

    def structure_jets_at(self, u):
        """Structure constants and their chart-frame derivatives:
        (a_val[i,j,s], a_chart[i,j,s,k]) with d/d(chart^k); cached per
        point, read-only."""
        key = tuple(float(x) for x in u)
        hit = self._jets_cache.get(key)
        if hit is not None:
            return hit
        jets = self.basis.eval_jet(u)
        a_obj, _ = structure_constants_at(
            jets, well_conditioned_xi(jets, self.seed, self.tol))
        a_val, a_du = split_jet_matrix(a_obj, self.dimension)
        J = self.chart_rows(u)
        Jinv = np.linalg.inv(J)
        a_chart = np.einsum("ijsm,mk->ijsk", a_du, Jinv)
        if len(self._jets_cache) > 1024:
            self._jets_cache.clear()
        self._jets_cache[key] = (a_val, a_chart)
        return a_val, a_chart

    def chart_rows(self, u) -> np.ndarray:
        """Chart Jacobian J[i, m] = (M^{i*} alpha)_m(u)."""
        aval = self.alpha.eval(u)
        return np.vstack([aval @ M for M in self.basis.eval(u)])

    def chart_frame_basis(self, u):
        """Basis values pushed to the chart frame: J M J^{-1}."""
        J = self.chart_rows(u)
        Jinv = np.linalg.inv(J)
        return [J @ M @ Jinv for M in self.basis.eval(u)]

    def coefficient_grids(self, u):
        a = self.structure_at(u)
        return [a[:, :, s] for s in range(self.dimension)]

    def forms(self):
        if self.hamiltonians is not None:
            return list(self.hamiltonians)
        return [_SystemForm(self, s) for s in range(self.dimension)]

    # -- derived objects -----------------------------------------------------

    def killing_at(self, u):
        """K_s = h_s h_1^{-1} at the point (chart frame)."""
        grids = self.coefficient_grids(u)
        h1_inv = np.linalg.inv(grids[0])
        return [A @ h1_inv for A in grids]

    def hj_differential(self, u, c) -> np.ndarray:
        """dW(u, c) in chart components; substituting p = dW solves
        F_s(u, p) = c_s."""
        mats = self.chart_frame_basis(u)
        J = self.chart_rows(u)
        alpha_chart = np.linalg.solve(J.T, self.alpha.eval(u))
        return hj_differential(mats, alpha_chart, c)

    def n15_residual(self, u, p) -> float:
        """Residual of the matrix identity (p_i M^i)^2 = F_s M^s in the
        chart frame."""
        mats = self.chart_frame_basis(u)
        p = np.asarray(p, dtype=float)
        grids = self.coefficient_grids(u)
        lhs = sum(p[i] * mats[i] for i in range(self.dimension))
        lhs = lhs @ lhs
        rhs = sum(float(p @ grids[s] @ p) * mats[s]
                  for s in range(self.dimension))
        return max_abs(lhs - rhs) / (1.0 + max_abs(lhs))


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

    report.add(reduce_check(
        "alpha_common_conservation_law",
        [conservation_law_residuals(f, alpha, points, tol)
         for f in basis.fields], points, tol))

    pullbacks = np.empty((len(points), n, n))
    for k, u in enumerate(points):
        aval = alpha.eval(u)
        pullbacks[k] = [aval @ M for M in basis.eval(u)]
    min_rank = int(np.min(mat_rank(pullbacks, tol=tol), initial=n))
    report.add(CheckResult(
        name="pullback_independence",
        passed=len(points) > 0 and min_rank == n,
        residual=float(n - min_rank), tolerance=0.0, samples=len(points),
        detail=f"min rank {min_rank} of {n}" if len(points)
        else "no point evaluated",
    ))

    if chart is None:
        if not (basis.is_constant and alpha.is_constant):
            raise OpfrobError(
                "chart expressions are required for non-constant data; only "
                "a constant basis with constant alpha admits the automatic "
                "linear chart"
            )
        aval = alpha.eval(np.zeros(n))
        C = np.vstack([aval @ M for M in basis.eval(np.zeros(n))])
        chart = []
        for i in range(n):
            e: Expression = Const(0)
            for m in range(n):
                coeff = float(C[i, m])
                if coeff != 0.0:
                    term = Var(m + 1) if coeff == 1.0 else \
                        Const(coeff if coeff != int(coeff) else int(coeff)) \
                        * Var(m + 1)
                    e = term if (isinstance(e, Const) and e.value == 0) \
                        else e + term
            chart.append(e)
    else:
        chart = [c if isinstance(c, Expression) else parse_expr(c, n)
                 for c in chart]

    chart_form = OneFormField(chart)   # reuse component-wise jet evaluation
    residuals = []
    for u in points:
        aval = alpha.eval(u)
        rows = np.vstack([aval @ M for M in basis.eval(u)])
        _, grads = chart_form.jet_arrays(u)
        residuals.append(max_abs(grads - rows) / (1.0 + max_abs(rows)))
    report.add(reduce_check("chart_validation", residuals, points, tol))

    system = IntegrableSystem(basis, alpha, chart, tol=tol, seed=seed)

    residuals = []
    for u in points:
        values = basis.eval(u)
        residuals.append(structure_constants_at(
            values, well_conditioned_xi(values, seed, tol))[1])
    report.add(reduce_check("span_closure", residuals, points, tol))

    forms = system.forms()
    rng = np.random.default_rng(seed + 1)
    p_draws = rng.uniform(-1.0, 1.0, (len(points), n))
    report.add(verify_commuting_family(forms, points, p_draws,
                                       tol=bracket_tol))
    report.add(_momentum_nondegeneracy(system.coefficient_grids, points, n,
                                       seed=seed + 2))
    return system, report


def _commutation_residual(Ks) -> float:
    """Worst commutator of the Killing tensors at one point, relative to
    1 + the largest squared entry."""
    scale = 1.0 + max(max_abs(K) for K in Ks) ** 2
    return float(np.max([max_abs(Ks[i] @ Ks[j] - Ks[j] @ Ks[i])
                         for i in range(len(Ks))
                         for j in range(i + 1, len(Ks))], initial=0.0) / scale)


def _asymmetry(P) -> float:
    return max_abs(P - P.T) / (1.0 + max_abs(P))


def killing_tensors(system: IntegrableSystem, points, tol: float = DEFAULT_TOL):
    """Killing tensors K_s = h_s h_1^{-1} of a generated system together
    with the algebraic certificates: pairwise commutation, self-adjointness
    of the basis w.r.t. every form h_s, and the duality M^i = a^{is}_1 K_s.
    """
    report = VerificationReport(title="killing_tensors")
    n = system.dimension
    per_point = []   # Killing tensors at the points before a singular h_1
    comm, adj, dual = [], [], []
    for u in points:
        grids = system.coefficient_grids(u)
        try:
            Ks = system.killing_at(u)
        except np.linalg.LinAlgError:
            report.add(CheckResult(
                name="h1_invertible", passed=False, residual=float("inf"),
                tolerance=tol, worst_point=list(map(float, u)),
                samples=len(per_point) + 1, detail="h_1 degenerate",
            ))
            break
        per_point.append(Ks)
        mats = system.chart_frame_basis(u)
        a = system.structure_at(u)
        comm.append(_commutation_residual(Ks))
        adj.append(np.max([_asymmetry(M @ g) for M in mats for g in grids]))
        dual.append(np.max([
            max_abs(mats[i] - sum(a[i, s, 0] * Ks[s] for s in range(n)))
            / (1.0 + max_abs(mats[i])) for i in range(n)]))
    reached = points[:len(per_point)]
    report.add(reduce_check("killing_pairwise_commutation", comm, reached, tol))
    report.add(reduce_check("basis_self_adjointness", adj, reached, tol))
    report.add(reduce_check("killing_duality", dual, reached, tol))
    return per_point, report


def hj_differential(mats, alpha_value, c) -> np.ndarray:
    """dW = sqrt(c_1 M^1 + ... + c_n M^n)^* alpha at one point.

    ``mats`` are basis values in the canonical chart frame, ``alpha_value``
    the conservation-law components in the same frame.  The square root is
    the principal branch near the identity; its failure to converge signals
    an inadmissible c.
    """
    c = np.asarray(c, dtype=float)
    S = sum(c[i] * np.asarray(mats[i], dtype=float) for i in range(len(mats)))
    R = sqrt_near_identity(S)
    return R.T @ np.asarray(alpha_value, dtype=float)


class ReconstructedFamily:
    """Operators Mbar^i = bbar^{is} K_s rebuilt pointwise from quadratic
    Hamiltonians and a covector; jet evaluation threads the entire pipeline
    through jet arithmetic (h grids -> Killing tensors -> structure
    constants -> form inverse) for exact first derivatives."""

    def __init__(self, hams, covector, tol: float = DEFAULT_TOL, seed: int = 0):
        self.hams = list(hams)
        self.covector = np.asarray(covector, dtype=float)
        self.dimension = self.hams[0].dimension
        self.tol = tol
        self.seed = seed

    def _killing(self, grids):
        h1_inv = mat_inv(grids[0])
        return [np.asarray(g) @ h1_inv for g in grids]

    def _mbar(self, Ks):
        xi = well_conditioned_xi(Ks, self.seed, self.tol)
        a, _ = structure_constants_at(Ks, xi)
        # bbar_{ij} = a_{ij}^s a_s with the covector in the K-basis
        return frobenius_dual(a, self.covector, Ks)[2]

    def killing_values(self, u):
        return self._killing([H.coeff(u) for H in self.hams])

    def eval(self, u):
        return self._mbar(self.killing_values(u))

    def jet_data(self, u):
        grids = [H.coeff_generic(jet_point(u)) for H in self.hams]
        duals = self._mbar(self._killing(grids))
        return [split_jet_matrix(M, self.dimension) for M in duals]

    def field(self, i):
        return FamilyFieldView(self, i)

    @property
    def fields(self):
        return [self.field(i) for i in range(self.dimension)]


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
    report = VerificationReport(title="inverse_verify", seed=seed)
    rng = np.random.default_rng(seed + 1)
    p_draws = rng.uniform(-1.0, 1.0, (len(points), n))
    report.add(verify_commuting_family(hams, points, p_draws, tol=tol))
    report.add(_momentum_nondegeneracy(
        lambda u: [H.coeff(u) for H in hams], points, n, seed=seed + 2))

    family = ReconstructedFamily(hams, covector, tol=DEFAULT_TOL, seed=seed)
    # each list holds the residuals of the points reached before a failure
    comm, adj, closure, assoc, form = [], [], [], [], []
    a1_ok = covector_ok = True
    fail_detail = ""
    try:
        for u in points:
            grids = [H.coeff(u) for H in hams]
            Ks = family._killing(grids)
            comm.append(_commutation_residual(Ks))
            ginv = np.linalg.inv(grids[0])
            adj.append(np.max([_asymmetry(ginv @ K) for K in Ks]))
            rng_pt = np.random.default_rng(seed)
            xi = find_generic_vector(Ks, 32, rng_pt, DEFAULT_TOL)
            a_cov = find_generic_covector(Ks, 32, rng_pt, DEFAULT_TOL)
            if xi is None:
                a1_ok = False
                fail_detail = f"no generic vector at {list(map(float, u))}"
                break
            if a_cov is None:
                covector_ok = False
            data = point_data(Ks, covector=np.asarray(covector, dtype=float),
                              xi=xi)
            closure.append(data.closure_residual)
            assoc.append(data.associativity_residual)
            form.append(data.duality_residual)
    except (SingularMatrixError, np.linalg.LinAlgError, OpfrobError) as exc:
        fail_detail = str(exc)
        a1_ok = False

    report.add(reduce_check("killing_pairwise_commutation", comm,
                            points[:len(comm)], tol))
    report.add(reduce_check("killing_self_adjointness", adj,
                            points[:len(adj)], tol))
    span = report.add(reduce_check(
        "frobenius_span", [closure, assoc], points[:len(closure)], tol,
        detail=fail_detail
        or "A1/A2 searches, closure and associativity of the Killing span"))
    span.passed = span.passed and a1_ok and covector_ok
    duality = report.add(reduce_check(
        "form_duality", form, points[:len(form)], tol,
        detail="<a ; Mbar^i K_j> = delta"))
    duality.passed = duality.passed and a1_ok

    if not report.passed:
        return report, None

    torsion, strong = [], []
    for u in points:
        jets = family.jet_data(u)
        scales = [1.0 + (max_abs(v) + max_abs(d)) for v, d in jets]
        torsion.append(np.max([
            max_abs(bracket_from_jets(v, d, v, d)) / s ** 2
            for (v, d), s in zip(jets, scales)]))
        strong.append(np.max([
            max_abs(bracket_from_jets(*jets[i], *jets[j]))
            / (scales[i] * scales[j])
            for i in range(n) for j in range(i + 1, n)], initial=0.0))
    report.add(reduce_check("reconstructed_nijenhuis_torsion", torsion,
                            points, tol))
    report.add(reduce_check("reconstructed_strong_symmetries", strong,
                            points, tol))
    return report, family
