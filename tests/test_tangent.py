"""The batched tangent pipeline (frobalg.point_data with partials, and the
families built on it) against independent
references: finite differences of the pointwise float pipeline for the
partials, the per-point loop pipeline over jets (oracles.loop_dual) for
values and partials, and the per-point seeded search for xi."""

import numpy as np
import pytest

from opfrob.errors import SingularMatrixError
from opfrob.exprs import Const
from opfrob.fields import OneFormField, OperatorField
from opfrob.fixtures import (
    demo4_chart_strings,
    demo4_one_form,
    demo4_rational_guards,
    demo4_rational_hamiltonians,
    demo4_tilde_basis,
)
from opfrob.frobalg import (
    OperatorBasis,
    batch_well_conditioned_xi,
    point_data,
    well_conditioned_xi,
)
from opfrob.integ import (
    IntegrableSystem,
    QuadraticHamiltonian,
    ReconstructedFamily,
    verify_commuting_family,
)
from opfrob.numkit import split_jet_matrix
from opfrob.opfields import DualFamily, dualize_family
from opfrob.sampling import SampleConfig, sample_points

from helpers import admissible_covector, guarded_config, random_power_basis
from oracles import (
    basis_jets,
    fd_matrix_derivatives,
    killing_values,
    loop_dual,
    loop_inv,
    loop_structure_constants,
    value_array,
)

SEED = 3
VALUE_RTOL = 1e-12
FD_RTOL = 1e-6


def example52():
    """Analytic example52: basis, covector, one-form, chart, Hamiltonians
    and sample points."""
    cfg = SampleConfig(seed=42, count=8, guards=demo4_rational_guards())
    return (demo4_tilde_basis(), np.array([1.0, 0.0, 0.0, 0.0]),
            demo4_one_form(), demo4_chart_strings(),
            demo4_rational_hamiltonians(), np.asarray(sample_points(4, cfg)))


def power_basis():
    """A random recombination K_1..K_3 of the powers of diag(u1, u2, u3), an
    admissible covector and, as Hamiltonians, h_1 = D and h_s = K_s D for a
    constant diagonal D (diagonal, so symmetric), whose Killing tensors are
    Id, K_2 and K_3."""
    basis, rng = random_power_basis("diag", 3, SEED)
    P = np.asarray(sample_points(3, guarded_config(3, seed=SEED, count=8)))
    covector = admissible_covector(basis, P, rng)
    d = rng.uniform(0.5, 1.5, 3)
    hams = [QuadraticHamiltonian(
        [[(Const(1) if s == 0 else K.entries[i][i]) * float(d[i]) if i == j
          else Const(0) for j in range(3)] for i in range(3)])
        for s, K in enumerate(basis.fields)]
    return basis, covector, OneFormField.constant(covector), [], hams, P


CASES = {"example52": example52, "power-basis": power_basis}


def jet_pipeline_duals(mats, covector):
    """Per-point reference: the loop pipeline over jets."""
    xi = well_conditioned_xi(value_array(mats), SEED)
    return loop_dual(mats, xi, covector)[3]


def killing_of(grids):
    h1_inv = loop_inv(grids[0])
    return [np.asarray(g) @ h1_inv for g in grids]


def assert_close(got, want, rtol):
    scale = 1.0 + np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= rtol * scale


def check_family(family, per_point_jets, per_point_values, P):
    """Values and partials of a dual family's batch against the per-point
    Jet pipeline, and its partials against finite differences of the
    pointwise float pipeline."""
    n = family.dimension
    V, dV = family.jet_data(P)
    assert V.shape == (len(P), n, n, n) and dV.shape == V.shape + (n,)
    for b, u in enumerate(P):
        for j, M in enumerate(per_point_jets(u)):
            val, der = split_jet_matrix(M, n)
            assert_close(V[b, j], val, VALUE_RTOL)
            assert_close(dV[b, j], der, VALUE_RTOL)
            fd = fd_matrix_derivatives(lambda v: per_point_values(v)[j], u)
            assert_close(dV[b, j], fd, FD_RTOL)


@pytest.mark.parametrize("case", sorted(CASES))
def test_dual_family_tangents(case):
    basis, covector, _, _, _, P = CASES[case]()
    family = DualFamily(basis, covector, seed=SEED)
    check_family(
        family,
        lambda u: jet_pipeline_duals(basis_jets(basis, u), covector),
        lambda u: basis.point_data([u], covector, seed=SEED).dual[0], P)


@pytest.mark.parametrize("case", sorted(CASES))
def test_reconstructed_family_tangents(case):
    _, covector, _, _, hams, P = CASES[case]()
    family = ReconstructedFamily(hams, covector, seed=SEED)

    def killing_jets(u):
        return killing_of([OperatorField(H.entries).eval_jet(u) for H in hams])

    check_family(
        family,
        lambda u: jet_pipeline_duals(killing_jets(u), covector),
        lambda u: point_data(killing_values(family, [u]), [u], covector,
                             seed=SEED).dual[0], P)


@pytest.mark.parametrize("case", sorted(CASES))
def test_structure_jets_tangents(case):
    basis, _, alpha, chart, _, P = CASES[case]()
    system = IntegrableSystem(basis, alpha, chart, seed=SEED)
    a_val, a_chart = system.structure_jets_at(P)
    n = basis.dimension
    for b, u in enumerate(P):
        jets = basis_jets(basis, u)
        a_obj, _ = loop_structure_constants(
            jets, well_conditioned_xi(value_array(jets), SEED))
        val, du = split_jet_matrix(a_obj, n)
        J = system.chart_rows([u])[0]
        assert_close(a_val[b], val, VALUE_RTOL)
        # a_chart = da/du J^{-1}, so a_chart J is the partial along u
        got_du = np.einsum("ijsk,km->ijsm", a_chart[b], J)
        assert_close(got_du, du, VALUE_RTOL)
        for s in range(n):
            fd = fd_matrix_derivatives(
                lambda v: system.coefficient_grids([v])[0, s], u)
            assert_close(got_du[:, :, s], fd, FD_RTOL)


def test_the_kept_batch_follows_its_points_and_stays_unchanged():
    basis, _, alpha, chart, _, P = example52()
    system = IntegrableSystem(basis, alpha, chart, seed=SEED)
    a_val, a_chart = system.structure_jets_at(P)
    grids = system.coefficient_grids(P)     # the caller edits a result
    grids[...] = 0.0
    assert system.coefficient_grids(P).tobytes() == \
        a_val.transpose(0, 3, 1, 2).tobytes()
    P[0] = P[1]     # the caller changes its points in place
    fresh = IntegrableSystem(basis, alpha, chart, seed=SEED)
    assert system.coefficient_grids(P[:2]).tobytes() == \
        fresh.coefficient_grids(P[:2]).tobytes()
    assert system.structure_jets_at(P)[1].tobytes() == \
        fresh.structure_jets_at(P)[1].tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_xi_is_the_per_point_xi(case):
    basis, _, _, _, _, P = CASES[case]()
    V, _ = basis.batch_jet_arrays(P)
    xi = batch_well_conditioned_xi(V, P, SEED)
    for b in range(len(P)):
        assert xi[b].tobytes() == well_conditioned_xi(list(V[b]),
                                                      SEED).tobytes()


def test_structure_constants_of_equal_bases_are_equal():
    basis = OperatorBasis.from_matrices([np.eye(2), [[1.0, 2.0], [0.0, 3.0]]])
    P = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.6]])
    V, dV = basis.batch_jet_arrays(P)
    data = point_data(V, P, dV=dV)
    a, da = data.structure, data.structure_tangent
    assert a[0].tobytes() == a[1].tobytes() == a[2].tobytes()
    assert not np.any(da)


def diag_pair():
    return OperatorBasis([OperatorField.identity(2),
                          OperatorField.parse([["u1", "0"], ["0", "u2"]], 2)])


def test_degenerate_form_is_named_at_its_point():
    # with the covector (1, 0) the form is diag(1, -u1 u2): degenerate on u1 = 0
    pts = sample_points(2, guarded_config(2, seed=6, count=5))
    bad = [0.0, 0.5]
    P = np.vstack([pts[:2], [bad], pts[2:]])
    with pytest.raises(SingularMatrixError, match=r"\[0\.0, 0\.5\]") as exc:
        DualFamily(diag_pair(), [1.0, 0.0]).jet_data(P)
    assert "Frobenius form is degenerate" in str(exc.value)

    _, report = dualize_family(diag_pair(), [1.0, 0.0], P)
    c = report.checks[-1]
    assert c.name == "dual_mutual_symmetries" and not c.passed
    assert c.detail == str(exc.value)


def test_batches_of_no_point():
    basis, covector, alpha, chart, hams, _ = example52()
    none = np.empty((0, 4))
    a_val, a_chart = IntegrableSystem(basis, alpha,
                                      chart).structure_jets_at(none)
    jets = [(a_val[..., s], a_chart[..., s, :]) for s in range(4)]
    c = verify_commuting_family(None, none, none, jets=jets)
    assert not c.passed and c.detail == "no point evaluated"
    for family in (DualFamily(basis, covector),
                   ReconstructedFamily(hams, covector)):
        val, der = family.jet_data(none)
        assert val.shape == (0, 4, 4, 4) and der.shape == (0, 4, 4, 4, 4)
