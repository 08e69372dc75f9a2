"""Symbolic-numeric toolkit for operator Frobenius algebras, their duals,
symmetry algebras, and the commuting quadratic-in-momenta Hamiltonian
systems built from them."""

from .errors import (
    ExprEvalError,
    ExprSyntaxError,
    GenericityError,
    NonCommutingError,
    OneFormNotClosedError,
    OpfrobError,
    SingularMatrixError,
    SqrtConvergenceError,
)
from .exprs import Expression, eval_expr, parse_expr
from .fields import OneFormField, OperatorField
from .frobalg import (
    FrobeniusPointData,
    OperatorBasis,
    algebra_report,
    point_data,
)
from .hydroflow import (
    JetSolution,
    MultiSeries,
    flow_compatibility_residual,
    taylor_flow,
)
from .integ import (
    IntegrableSystem,
    QuadraticHamiltonian,
    ReconstructedFamily,
    generate_system,
    hj_differential,
    inverse_verify,
    killing_tensors,
    poisson_bracket,
    verify_commuting_family,
)
from .numkit import (
    Jet,
    jet_point,
    mat_inv,
    mat_rank,
    mat_solve,
    sqrt_near_identity,
)
from .opfields import (
    DualFamily,
    bracket,
    conservation_law_check,
    dualize_family,
    is_strong_symmetry,
    is_symmetry,
    nijenhuis_torsion_report,
    symmetry_coefficient_check,
)
from .report import CheckResult, VerificationReport, reduce_check
from .sampling import SampleConfig, sample_phase_points, sample_points
from .symalg import (
    FlatBasis,
    analytic_symmetry,
    canonical_symmetry_U,
    sym_membership,
)

__version__ = "0.1.0"
