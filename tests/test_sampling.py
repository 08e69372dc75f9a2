"""The block sampler keeps the points, and raises the errors, of the
draw-by-draw loop in ``oracles.loop_sample_points``."""

import numpy as np
import pytest

from opfrob.exprs import parse_expr
from opfrob.fixtures import demo4_rational_guards
from opfrob.sampling import SampleConfig, sample_points

from oracles import loop_sample_points

SEEDS = [42, 7, 0, 123]


def outcome(n, config, sample=sample_points):
    """The sampled points' bytes, or the type and text of the error."""
    try:
        return sample(n, config).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def reference(n, config):
    return outcome(n, config, loop_sample_points)


def guards(n, *pairs):
    return tuple((parse_expr(text, n), floor) for text, floor in pairs)


def draw(seed, k, n, box=1.0):
    """Coordinate u1 of draw k of the stream of ``seed``, as exact text."""
    rng = np.random.default_rng(seed)
    return repr(float(rng.uniform(-box, box, (k + 1, n))[k, 0]))


@pytest.mark.parametrize("count", [1, 50, 200])
@pytest.mark.parametrize("seed", SEEDS)
def test_unguarded_and_analytic_example52_guards(seed, count):
    for n, config in ((4, SampleConfig(seed=seed, count=count)),
                      (3, SampleConfig(seed=seed, count=count, box=2.5)),
                      (4, SampleConfig(seed=seed, count=count,
                                       guards=demo4_rational_guards()))):
        got = outcome(n, config)
        assert isinstance(got, bytes) and got == reference(n, config)


@pytest.mark.parametrize("k", [0, 3, 9, 14, 19, 25])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_divisor_vanishing_at_one_draw(seed, k):
    """1/(u1 - x) where x is u1 of draw k: behind a guard that rejects
    draw k it is never met; alone it raises at draw k if the loop gets
    there (k < 10) and not if it stops first, though the block does."""
    x = draw(seed, k, 2)
    rejected = guards(2, (f"u1 - {x}", 1e-9), (f"1/(u1 - {x})", 1e-3))
    accepted = guards(2, (f"1/(u1 - {x})", 1e-3))
    for config in (SampleConfig(seed=seed, count=10, guards=rejected),
                   SampleConfig(seed=seed, count=10, guards=accepted)):
        assert outcome(2, config) == reference(2, config)
    got = outcome(2, SampleConfig(seed=seed, count=10, guards=accepted))
    assert isinstance(got, bytes) == (k >= 10)
    if k < 10:
        assert "division by zero" in got[1]


@pytest.mark.parametrize("seed", SEEDS)
def test_overflowing_and_nan_guards(seed):
    """A guard that overflows is inf, and a NaN guard is not below its
    floor: both keep the loop's points, and numpy stays quiet (its
    overflow warning is an error in this suite), as it does when the
    caller already ignores floating-point errors."""
    config = SampleConfig(seed=seed, count=20, box=1e3, guards=guards(
        1, ("u1^400", 1e-3)))
    nan = SampleConfig(seed=seed, count=20, box=1e3, guards=guards(
        1, ("u1^400 - u1^400", 1e-3)))
    for c in (config, nan):
        got = outcome(1, c)
        assert isinstance(got, bytes) and got == reference(1, c)
        with np.errstate(all="ignore"):
            assert outcome(1, c) == reference(1, c) == got


def test_a_guard_reading_past_the_dimension():
    config = SampleConfig(seed=42, count=5, guards=guards(5, ("u5", 0.1)))
    got = outcome(3, config)
    assert got == reference(3, config)
    assert "variable u5 out of range" in got[1]


@pytest.mark.parametrize("count", [0, 1, 3])
def test_the_budget_and_its_message(count):
    config = SampleConfig(seed=42, count=count, guards=guards(2, ("u1", 2.0)))
    got = outcome(2, config)
    assert got == reference(2, config)
    assert got[1] == (f"guard rejection exhausted {1000 * count} draws; "
                      "guards too tight")
    unguarded = SampleConfig(seed=42, count=0)
    assert outcome(2, unguarded) == reference(2, unguarded)
