"""Seeded sample-point generation with denominator guards.

Rationale for guards: rational fields have singular loci; a guard pair
(expression, floor) rejects draws where |expression| falls below the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InputError, OpfrobError
from .exprs import Program

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 50
DEFAULT_GUARD = 1e-3
MAX_DRAW_FACTOR = 1000   # draws allowed per requested point


@dataclass(frozen=True)
class SampleConfig:
    seed: int = DEFAULT_SEED
    count: int = DEFAULT_SAMPLES
    box: float = 1.0
    guards: tuple = ()  # pairs (Expression, floor)


def guards_ok(point, guards) -> bool:
    """Whether every (guard, floor) pair has |guard| >= floor at ``point``,
    the guards taken in order; a guard is an Expression or its Program.
    numpy stays quiet: an overflow gives inf, an invalid operation NaN."""
    with np.errstate(all="ignore"):
        for guard, floor in guards:
            program = guard if isinstance(guard, Program) \
                else Program([guard])
            if abs(program.run(list(point))[0]) < floor:
                return False
    return True


def sample_points(n: int, config: SampleConfig) -> np.ndarray:
    """Draw ``config.count`` points from [-box, box]^n, rejecting guarded
    draws.  Deterministic for a fixed config; drawn in blocks, each guard
    run once on a block's columns, and the points kept are those that a
    loop over the draws keeps."""
    if 2.0 * config.box > np.finfo(float).max:
        raise InputError(f"sampling box {config.box!r} is too large: "
                         "[-box, box] has no finite width")
    rng = np.random.default_rng(config.seed)
    budget = MAX_DRAW_FACTOR * config.count
    guards = [(Program([e]), floor) for e, floor in config.guards]
    points, drawn = np.empty((0, n)), 0
    while drawn < budget:
        need = config.count - len(points)
        block = rng.uniform(-config.box, config.box,
                            (min(2 * need, budget - drawn), n))
        drawn += len(block)
        try:
            ok = np.ones(len(block), dtype=bool)
            with np.errstate(all="ignore"):
                for program, floor in guards:
                    value = np.abs(program.run(list(block.T))[0])
                    if not np.isfinite(value).all():
                        raise ArithmeticError
                    ok &= value >= floor
            block = block[ok]
        except Exception:   # then draw by draw: raised if a loop meets it
            rows = (p for p in block if guards_ok(p, guards))
            block = np.array([*islice(rows, need)]).reshape(-1, n)
        points = np.concatenate([points, block[:need]])
        if len(points) == config.count:
            return points
    raise OpfrobError(
        f"guard rejection exhausted {budget} draws; guards too tight"
    )


def sample_phase_points(n: int, config: SampleConfig):
    """Draw count (u, p) pairs; u obeys the guards, p is unguarded."""
    u = sample_points(n, config)
    rng = np.random.default_rng(config.seed + 1)
    p = rng.uniform(-config.box, config.box, (config.count, n))
    return u, p
