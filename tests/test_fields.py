"""One expression-grid type behind operator fields, one-forms and quadratic
forms: a grid that reads no coordinate is evaluated once when it is built
and broadcast after that, bit for bit what its Program gives over jets."""

import numpy as np
import pytest

from opfrob.errors import ExprEvalError
from opfrob.fields import (ExpressionGrid, OneFormField, OperatorField,
                           grid_floats, grid_jets)
from opfrob.fixtures import _builtin, builtin_names, emit_builtin
from opfrob.frobalg import OperatorBasis
from opfrob.integ import QuadraticHamiltonian, generate_system
from opfrob.sampling import SampleConfig, sample_points
from opfrob.sysfile import SystemFile

VARIANTS = [(name, variant) for name in builtin_names()
            for variant in ("constant", "analytic")
            if variant == "constant" or name == "example52"]


def builtin_grids(name, variant):
    """Every grid of a builtin: its basis fields, Hamiltonians and one-form
    as the library builds them, and the same keys of its emitted file as
    a file subcommand loads them."""
    b = _builtin(name, variant)
    grids = list(b.fields) + list(b.hamiltonians or [])
    if b.covector is not None:
        grids.append(OneFormField.constant(b.covector))
    sf = SystemFile(emit_builtin(name, variant))
    grids += list(sf.fields.values()) + list(sf.hamiltonians or [])
    return grids + ([sf.one_form] if sf.one_form else [])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def assert_broadcast_is_the_run(grid, points):
    """The constant grid's values and zero partials are the Program's run
    over jets and over float columns, bit for bit; each call returns new
    values, and the partials are a read-only broadcast."""
    assert grid.is_constant
    vals, ders = grid.batch_jet_arrays(points)
    want_vals, want_ders = grid_jets(grid.program, grid.shape, points)
    assert vals.shape == want_vals.shape and ders.shape == want_ders.shape
    assert (bits(vals), bits(ders)) == (bits(want_vals), bits(want_ders))
    assert not ders.any() and not ders.flags.writeable  # no allocation
    assert bits(grid.batch_jet_arrays(points, False)[0]) == bits(
        grid_jets(grid.program, grid.shape, points, False)[0])
    assert grid.batch_jet_arrays(points, False)[1] is None
    for u in points[:3]:
        assert bits(grid.eval(u)) == bits(
            grid_floats(grid.program, u).reshape(grid.shape))
    value = grid.eval(points[0])
    value += 1.0
    assert bits(grid.eval(points[0])) != bits(value)
    vals += 1.0
    assert bits(grid.batch_jet_arrays(points)[0]) == bits(want_vals)


@pytest.mark.parametrize("name,variant", VARIANTS)
def test_constant_grids_broadcast_what_their_program_runs(name, variant):
    grids = builtin_grids(name, variant)
    P = np.random.default_rng(7).uniform(-1.0, 1.0,
                                         (6, grids[0].dimension))
    for grid in grids:
        if grid.is_constant:
            assert_broadcast_is_the_run(grid, P)
        else:       # a grid that reads a coordinate runs its Program
            vals, ders = grid.batch_jet_arrays(P)
            want = grid_jets(grid.program, grid.shape, P)
            assert (bits(vals), bits(ders)) == tuple(map(bits, want))


@pytest.mark.parametrize("variant", ["constant", "analytic"])
def test_every_grid_of_the_emitted_example52_files(variant):
    sf = SystemFile(emit_builtin("example52", variant))
    grids = [*sf.fields.values(), sf.one_form, *sf.hamiltonians]
    # the one-form and M1 are constant in both files, the rest in one
    assert [g.is_constant for g in grids] == [True] \
        + [variant == "constant"] * 3 + [True] + [variant == "constant"] * 4
    P = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 4))
    for grid in grids:
        if grid.is_constant:
            assert_broadcast_is_the_run(grid, P)


def test_a_constant_systems_forms_broadcast():
    """The forms that generate_system builds from the origin's structure
    constants (a general frame, so symmetrised floats)."""
    b = _builtin("example52", "constant")
    P = sample_points(4, SampleConfig(seed=42, count=10))
    system, _ = generate_system(OperatorBasis(b.fields),
                                OneFormField.constant(b.covector), P)
    for H in system.hamiltonians:
        assert_broadcast_is_the_run(H, P)


@pytest.mark.parametrize("make", [
    lambda: OperatorField.parse([["1", "2.5"], ["-0.0", "-(3)"]], 2),
    lambda: OperatorField.constant([[1.0, -0.0], [0.5, 2.0]]),
    lambda: OperatorField([[1, -0.0], [2.5, 0]]),
    lambda: OneFormField.parse(["-0.0", "0", "1/4"], 3),
    lambda: OneFormField.constant([-0.0, 3, 0.25]),
    lambda: QuadraticHamiltonian.parse([["-0.0", "2"], ["2", "0.1"]], 2),
    lambda: QuadraticHamiltonian.constant([[-0.0, 2], [2, 1e300]]),
], ids=["field-parsed", "field-constant", "field-numbers", "form-parsed",
        "form-constant", "hamiltonian-parsed", "hamiltonian-constant"])
def test_int_float_and_negative_zero_constants(make):
    grid = make()
    P = np.random.default_rng(1).uniform(-1.0, 1.0, (4, grid.dimension))
    assert_broadcast_is_the_run(grid, P)


def test_the_sign_of_a_parsed_zero_is_kept():
    # the exact int 0 negates to 0, the float 0.0 to -0.0
    grid = OneFormField.parse(["-0.0", "0.0", "-0"], 3)
    assert np.signbit(grid.eval([0.0, 0.0, 0.0])).tolist() == \
        [True, False, False]
    assert np.signbit(grid.batch_jet_arrays(np.zeros((2, 3)))[0]).tolist() \
        == [[True, False, False]] * 2


def test_coeff_is_eval():
    H = QuadraticHamiltonian.parse([["u1", "1"], ["1", "u2^2"]], 2)
    A = H.coeff([2.0, 3.0])
    assert A.tolist() == [[2.0, 1.0], [1.0, 9.0]]
    A[0, 0] = 7.0
    assert H.coeff([2.0, 3.0])[0, 0] == 2.0
    assert H.value([2.0, 3.0], [1.0, 1.0]) == 13.0


@pytest.mark.parametrize("make,message", [
    (lambda: OneFormField.parse(["1", "1e400"], 2),
     "component inf is inf, not a finite number"),
    (lambda: OneFormField.parse(["1e400*0", "0"], 2),
     "component inf*0 is nan, not a finite number"),
    (lambda: QuadraticHamiltonian.parse([["1", "1e400"], ["1e400", "1"]], 2),
     "entry inf is inf, not a finite number"),
    (lambda: OperatorField.parse([["1", "0"], ["-1e400", "1"]], 2),
     "entry -inf is -inf, not a finite number"),
    (lambda: OneFormField.constant([1.0, np.nan]),
     "component nan is nan, not a finite number"),
], ids=["form-inf", "form-nan", "hamiltonian", "field", "form-constant"])
def test_a_non_finite_constant_grid_raises_where_it_is_built(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("text,message", [
    ("1e400", "component inf is inf, not a finite number"),
    ("1/0", "division by zero evaluating 0"),
    ("10^400", "overflow evaluating 10^400"),
    ("1" + "0" * 400, "overflow evaluating 1" + "0" * 400),
], ids=["1e400", "1/0", "10^400", "400-digit-int"])
def test_a_constant_entry_is_evaluated_when_its_grid_is_built(text, message):
    # beside an entry that reads a coordinate as beside a constant one
    for other in ("u1", "1"):
        with pytest.raises((ValueError, ExprEvalError)) as err:
            OneFormField.parse([text, other], 2)
        assert str(err.value) == message
    grid = OneFormField.parse(["2*3", "1/u1"], 2)
    assert grid.eval([4.0, 1.0]).tolist() == [6.0, 0.25]


@pytest.mark.parametrize("cls,texts,message", [
    (OperatorField, [["1", "2"]], "expected a 2x2 grid"),
    (QuadraticHamiltonian, [["1"], ["1", "2"]], "expected a 2x2 grid"),
    (OneFormField, ["1"], "expected 2 components"),
])
def test_parse_checks_the_shape(cls, texts, message):
    with pytest.raises(ValueError, match=message):
        cls.parse(texts, 2)


@pytest.mark.parametrize("cls", [OperatorField, OneFormField,
                                 QuadraticHamiltonian])
def test_the_grid_types_share_parse_and_constant_detection(cls):
    assert issubclass(cls, ExpressionGrid)
    assert not {"parse", "is_constant", "program"} & set(vars(cls))
