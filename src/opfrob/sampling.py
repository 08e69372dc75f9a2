"""Seeded sample-point generation with denominator guards.

Rationale for guards: rational fields have singular loci; a guard pair
(expression, floor) rejects draws where |expression| falls below the floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OpfrobError
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
    the guards taken in order; a guard is an Expression or its Program."""
    for guard, floor in guards:
        program = guard if isinstance(guard, Program) else Program([guard])
        if abs(program.run(list(point))[0]) < floor:
            return False
    return True


def sample_points(n: int, config: SampleConfig) -> np.ndarray:
    """Draw ``config.count`` points from [-box, box]^n, rejecting guarded
    draws.  Deterministic for a fixed config."""
    rng = np.random.default_rng(config.seed)
    points = np.empty((config.count, n))
    kept = 0
    budget = MAX_DRAW_FACTOR * config.count
    guards = [(Program([e]), floor) for e, floor in config.guards]
    for _ in range(budget):
        p = rng.uniform(-config.box, config.box, n)
        if guards_ok(p, guards):
            points[kept] = p
            kept += 1
            if kept == config.count:
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
