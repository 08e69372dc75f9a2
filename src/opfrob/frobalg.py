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

Every routine is generic over the scalar type, so running it on jet-valued
matrices yields the dual basis together with its exact first derivatives.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import GenericityError, OpfrobError, SingularMatrixError
from .fields import OperatorField
from .numkit import mat_inv, mat_rank, mat_solve, max_abs, value_array
from .report import CheckResult, VerificationReport, reduce_check

__all__ = [
    "OperatorBasis",
    "FrobeniusPointData",
    "check_generic_vector",
    "check_generic_covector",
    "structure_constants",
    "dual_basis",
    "algebra_report",
    "is_generic_vector",
    "is_generic_covector",
    "find_generic_vector",
    "find_generic_covector",
    "structure_constants_at",
    "well_conditioned_xi",
    "frobenius_dual",
    "point_data",
]

DEFAULT_TOL = 1e-9
DEFAULT_GENERIC_SAMPLES = 32


def _columns(mats, xi):
    """[K_1 xi | ... | K_n xi] over the scalars of ``mats``."""
    cols = [np.asarray(M) @ np.asarray(xi) for M in mats]
    generic = any(np.asarray(M).dtype == object for M in mats)
    return np.stack(cols, axis=-1) if not generic else np.array(
        [[cols[j][i] for j in range(len(mats))] for i in range(len(cols[0]))],
        dtype=object,
    )


def is_generic_vector(mats, xi, tol: float = DEFAULT_TOL) -> bool:
    values = [value_array(M) for M in mats]
    cols = np.column_stack([V @ np.asarray(xi, dtype=float) for V in values])
    return mat_rank(cols, tol=tol) == len(mats)


def is_generic_covector(mats, a, tol: float = DEFAULT_TOL) -> bool:
    values = [value_array(M) for M in mats]
    rows = np.vstack([np.asarray(a, dtype=float) @ V for V in values])
    return mat_rank(rows, tol=tol) == len(mats)


def find_generic_vector(mats, samples: int, rng, tol: float = DEFAULT_TOL):
    """Rejection-sample xi in [-1,1]^n; None after exhausting the draws."""
    n = value_array(mats[0]).shape[0]
    for _ in range(samples):
        xi = rng.uniform(-1.0, 1.0, n)
        if is_generic_vector(mats, xi, tol):
            return xi
    return None


def find_generic_covector(mats, samples: int, rng, tol: float = DEFAULT_TOL):
    n = value_array(mats[0]).shape[0]
    for _ in range(samples):
        a = rng.uniform(-1.0, 1.0, n)
        if is_generic_covector(mats, a, tol):
            return a
    return None


def find_well_conditioned_vector(mats, samples: int, rng,
                                 tol: float = DEFAULT_TOL):
    """Among the seeded draws, the generic vector whose column matrix
    [K_1 xi | .. | K_n xi] has the smallest condition number; the internal
    pipelines prefer this over the first hit because the accuracy of every
    downstream solve tracks that conditioning.

    All ``samples`` draws are taken and judged at once: one (samples, n)
    draw, one stacked rank and one stacked condition number over the
    full-rank draws with finite columns; ties go to the earliest draw."""
    V = np.stack([value_array(M) for M in mats])
    n = V.shape[-1]
    xis = rng.uniform(-1.0, 1.0, (samples, n))
    # cols[k] = [V_1 xi_k | .. | V_n xi_k], each product rounded as V_j @ xi_k
    cols = np.matmul(V[None], xis[:, None, :, None])[..., 0].swapaxes(1, 2)
    ok = np.flatnonzero((mat_rank(cols, tol=tol) == n)
                        & np.isfinite(cols).all(axis=(1, 2)))
    if not len(ok):
        return None
    conds = np.linalg.cond(cols[ok])
    best = int(np.argmin(conds))
    return xis[ok[best]] if conds[best] < np.inf else None


def well_conditioned_xi(mats, seed=0, tol: float = DEFAULT_TOL,
                        samples: int = DEFAULT_GENERIC_SAMPLES) -> np.ndarray:
    """The seeded well-conditioned generic vector of ``mats`` (floats or
    generic scalars, judged on their values); ``seed`` is an int or a
    numpy Generator.  Raises GenericityError when every draw fails."""
    xi = find_well_conditioned_vector(mats, samples,
                                      np.random.default_rng(seed), tol)
    if xi is None:
        raise GenericityError(f"no generic vector found in {samples} draws")
    return xi


def commutativity_residual(mats) -> float:
    V = [value_array(M) for M in mats]
    return float(np.max([
        max_abs(V[i] @ V[j] - V[j] @ V[i])
        / (1.0 + max_abs(V[i]) * max_abs(V[j]))
        for i in range(len(V)) for j in range(i + 1, len(V))], initial=0.0))


def structure_constants_at(mats, xi, tol: float = DEFAULT_TOL):
    """Structure constants a[i,j,s] with K_i K_j = a[i,j,s] K_s.

    Solved through the generic vector xi and validated against the full
    matrix identity; returns (a, scaled closure residual).  The residual is
    scaled by 1 + max entry magnitude so the default tolerance is usable on
    fields of any size.  One elimination serves all n^2 products: column
    i*n + j of the right-hand side is K_i K_j xi.
    """
    n = len(mats)
    mats = [np.asarray(M) for M in mats]
    cols = _columns(mats, xi)
    scale = 1.0 + max(max_abs(M) for M in mats)
    prods = [mats[i] @ mats[j] for i in range(n) for j in range(n)]
    coeffs = mat_solve(cols, np.stack([prod @ np.asarray(xi)
                                       for prod in prods], axis=-1))
    a = coeffs.T.reshape(n, n, n).copy()
    resid = []
    for k, prod in enumerate(prods):
        recon = prod.copy()
        for s in range(n):
            recon = recon - coeffs[s, k] * mats[s]
        resid.append(max_abs(recon))
    return a, float(np.max(resid) / scale)


def symmetry_residual_of_structure(a_val: np.ndarray) -> float:
    return float(np.max(np.abs(a_val - a_val.transpose(1, 0, 2))))


def associativity_residual(a_val: np.ndarray) -> float:
    """Residual of a_{ij}^m a_{mk}^l - a_{jk}^m a_{im}^l."""
    lhs = np.einsum("ijm,mkl->ijkl", a_val, a_val)
    rhs = np.einsum("jkm,iml->ijkl", a_val, a_val)
    return float(np.max(np.abs(lhs - rhs)))


def frobenius_form(a, covector):
    """b_{ij} = a_{ij}^k a_k over generic scalars."""
    a = np.asarray(a)
    n = a.shape[0]
    covector = np.asarray(covector, dtype=float)
    if a.dtype != object:
        return np.einsum("ijk,k->ij", a, covector)
    b = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            s = a[i, j, 0] * covector[0]
            for k in range(1, n):
                s = s + a[i, j, k] * covector[k]
            b[i, j] = s
    return b


def frobenius_dual(a, covector, mats):
    """Form b_{ij} = a_{ij}^k a_k, its inverse and the dual basis
    M^j = b^{ji} K_i over the scalars of ``a`` and ``mats``.

    Raises SingularMatrixError when the form is degenerate."""
    b = frobenius_form(a, covector)
    try:
        binv = mat_inv(b)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"Frobenius form is degenerate for covector "
            f"{np.asarray(covector, dtype=float).tolist()}: {exc}"
        )
    mats = [np.asarray(M) for M in mats]
    dual = [reduce(operator.add, (binv[j, i] * mats[i]
                                  for i in range(len(mats))))
            for j in range(len(mats))]
    return b, binv, dual


@dataclass
class FrobeniusPointData:
    """Structure constants, Frobenius form, dual basis and identity
    coordinates of a commuting family at one point."""

    dimension: int
    xi: np.ndarray
    structure: np.ndarray                  # (n,n,n) a_{ij}^k
    closure_residual: float                # scaled; see structure_constants_at
    associativity_residual: float
    symmetry_residual: float               # |a_{ij}^k - a_{ji}^k|
    covector: np.ndarray | None = None
    form: np.ndarray | None = None         # b_{ij}
    form_inv: np.ndarray | None = None     # b^{ij}
    dual: list | None = None               # matrices M^j = b^{ji} K_i
    identity_coords: np.ndarray | None = None
    duality_residual: float | None = None  # <a ; M^i K_j> - delta^i_j
    identity_residual: float | None = None  # |sum a^j K_j - Id|


def point_data(
    mats,
    covector=None,
    xi=None,
    tol: float = DEFAULT_TOL,
    rng=None,
    generic_samples: int = DEFAULT_GENERIC_SAMPLES,
) -> FrobeniusPointData:
    """Full pointwise pipeline on a list of matrix values.

    ``mats`` may hold floats or jets; with jets everything downstream (form,
    dual basis, identity coordinates) carries exact first derivatives.
    """
    n = len(mats)
    if xi is None:
        xi = well_conditioned_xi(mats, 0 if rng is None else rng, tol,
                                 generic_samples)
    a, closure = structure_constants_at(mats, xi, tol)
    a_val = value_array(a)
    assoc = associativity_residual(a_val)
    sym = symmetry_residual_of_structure(a_val)

    data = FrobeniusPointData(
        dimension=n,
        xi=np.asarray(xi, dtype=float),
        structure=a,
        closure_residual=closure,
        associativity_residual=assoc,
        symmetry_residual=sym,
    )
    if covector is None:
        return data

    covector = np.asarray(covector, dtype=float)
    b, binv, dual = frobenius_dual(a, covector, mats)

    # duality certificate <a ; M^i K_j> = delta^i_j via decomposition in K
    values = [value_array(M) for M in mats]
    cols_val = np.column_stack([V @ data.xi for V in values])
    pairing = [[float(np.linalg.solve(cols_val, Mi @ V @ data.xi) @ covector)
                for V in values] for Mi in map(value_array, dual)]
    duality = float(np.max(np.abs(np.array(pairing) - np.eye(n))))

    beta = np.linalg.solve(cols_val, data.xi)
    recon = sum(beta[s] * values[s] for s in range(n))
    identity_residual = max_abs(recon - np.eye(n))

    data.covector = covector
    data.form = b
    data.form_inv = binv
    data.dual = dual
    data.identity_coords = beta
    data.duality_residual = duality
    data.identity_residual = identity_residual
    return data


# ---------------------------------------------------------------------------
# operator-basis level API
# ---------------------------------------------------------------------------


class OperatorBasis:
    """n commuting operator fields K_1..K_n treated as a pointwise algebra.

    Constant bases cache their structure constants; point-dependent bases
    recompute them at every sample (the constants are functions of u).
    """

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
        self._cache = {}

    @classmethod
    def from_matrices(cls, matrices, name: str = "") -> "OperatorBasis":
        return cls([OperatorField.constant(M) for M in matrices], name=name)

    @property
    def is_constant(self) -> bool:
        return all(f.is_constant for f in self.fields)

    def eval(self, u):
        return [f.eval(u) for f in self.fields]

    def eval_jet(self, u):
        return [f.eval_jet(u) for f in self.fields]

    def eval_generic(self, point):
        return [f.eval_generic(point) for f in self.fields]

    def validate(self, points, tol: float = DEFAULT_TOL) -> VerificationReport:
        """Pairwise algebraic commutativity and linear independence at the
        sampled points."""
        report = VerificationReport(title=f"basis validation {self.name}".strip())
        n = self.dimension
        comm = []
        stacks = np.empty((len(points), n, n * n))
        for k, u in enumerate(points):
            values = self.eval(u)
            comm.append(commutativity_residual(values))
            stacks[k] = [V.ravel() for V in values]
        min_rank = int(np.min(mat_rank(stacks, tol=tol), initial=n))
        report.add(reduce_check("pairwise_commutativity", comm, points, tol))
        report.add(CheckResult(
            name="linear_independence",
            passed=len(points) > 0 and min_rank == n,
            residual=float(n - min_rank),
            tolerance=0.0,
            samples=len(points),
            detail=f"min rank {min_rank} of {n}" if len(points)
            else "no point evaluated",
        ))
        return report

    def point_data(
        self,
        point,
        covector=None,
        xi=None,
        tol: float = DEFAULT_TOL,
        seed: int = 0,
        generic_samples: int = DEFAULT_GENERIC_SAMPLES,
    ) -> FrobeniusPointData:
        key = None
        if self.is_constant and xi is None:
            key = (None if covector is None else tuple(np.asarray(covector)),
                   tol, seed)
            if key in self._cache:
                return self._cache[key]
        data = point_data(
            self.eval(point),
            covector=covector,
            xi=xi,
            tol=tol,
            rng=np.random.default_rng(seed),
            generic_samples=generic_samples,
        )
        if key is not None:
            self._cache[key] = data
        return data


def check_generic_vector(
    basis: OperatorBasis,
    point,
    samples: int = DEFAULT_GENERIC_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
):
    """Seeded search for a vector xi with rank [K_1 xi|..|K_n xi] = n at the
    point; returns the first hit or None after exhausting the draws."""
    rng = np.random.default_rng(seed)
    return find_generic_vector(basis.eval(point), samples, rng, tol)


def check_generic_covector(
    basis: OperatorBasis,
    point,
    samples: int = DEFAULT_GENERIC_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
):
    rng = np.random.default_rng(seed)
    return find_generic_covector(basis.eval(point), samples, rng, tol)


def structure_constants(
    basis: OperatorBasis,
    point,
    xi=None,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> FrobeniusPointData:
    """Structure constants of the basis at one point (no form data).

    Raises OpfrobError when the validated matrix identity K_i K_j =
    a_{ij}^s K_s leaves a residual above tolerance, i.e. the span is not
    multiplicatively closed at the point.
    """
    data = basis.point_data(point, covector=None, xi=xi, tol=tol, seed=seed)
    if data.closure_residual > tol:
        raise OpfrobError(
            f"span is not closed under multiplication at "
            f"{[float(x) for x in point]} (scaled residual "
            f"{data.closure_residual:.3e})"
        )
    return data


def dual_basis(
    basis: OperatorBasis,
    covector,
    point,
    xi=None,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> FrobeniusPointData:
    """Form, inverse form, dual basis M^j = b^{ji} K_i and identity
    coordinates at one point."""
    return basis.point_data(point, covector=covector, xi=xi, tol=tol, seed=seed)


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
    report.extend(basis.validate(points, tol=tol))

    generic_ok = True
    generic_detail = ""
    form_ok = True
    form_detail = ""
    evaluated = []   # the points that reached point_data
    residuals = []   # per evaluated point, in the order of the checks below
    for u in points:
        values = basis.eval(u)
        rng = np.random.default_rng(seed)
        xi = find_generic_vector(values, DEFAULT_GENERIC_SAMPLES, rng, tol)
        a_cov = find_generic_covector(values, DEFAULT_GENERIC_SAMPLES, rng, tol)
        if xi is None or a_cov is None:
            generic_ok = False
            missing = "vector" if xi is None else "covector"
            generic_detail = (f"no generic {missing} at "
                              f"{[float(x) for x in u]}")
            continue
        evaluated.append(u)
        # the residual computations pick their own well-conditioned xi
        rng = np.random.default_rng(seed)
        try:
            data = point_data(values, covector=covector, rng=rng, tol=tol)
        except SingularMatrixError as exc:
            form_ok = False
            form_detail = str(exc)
            data = point_data(values, covector=None,
                              rng=np.random.default_rng(seed), tol=tol)
        residuals.append((data.closure_residual, data.symmetry_residual,
                          data.associativity_residual, data.duality_residual,
                          data.identity_residual))
    report.add(CheckResult(
        name="genericity_A1_A2", passed=generic_ok,
        residual=0.0 if generic_ok else float("inf"), tolerance=0.0,
        samples=len(points), seed=seed, detail=generic_detail,
    ))
    # the checks below count only the points that reached point_data; the
    # duality residuals are None without a covector or a nondegenerate form
    closure, symmetry, assoc, duality, identity = np.array(
        residuals, dtype=float).reshape(len(evaluated), 5).T
    for name, res in (("span_closure", closure),
                      ("structure_symmetry", symmetry),
                      ("associativity", assoc)):
        report.add(reduce_check(name, res, evaluated, tol))
    if covector is not None:
        report.add(CheckResult(
            name="form_nondegenerate", passed=form_ok and bool(evaluated),
            residual=0.0 if form_ok else float("inf"), tolerance=0.0,
            samples=len(evaluated),
            detail=form_detail or ("" if evaluated else "no point evaluated"),
        ))
        if form_ok:
            report.add(reduce_check("duality_pairing", duality, evaluated, tol))
            report.add(reduce_check("identity_in_span", identity, evaluated,
                                    tol))
    return report
