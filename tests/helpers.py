"""Shared randomized fixture builders and process runners for the test
suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import opfrob
from opfrob.exprs import parse_expr
from opfrob.fields import OperatorField
from opfrob.fixtures import segre_algebra
from opfrob.frobalg import OperatorBasis
from opfrob.sampling import SampleConfig
from opfrob.symalg import FlatBasis, canonical_symmetry_U


def guarded_config(n, seed=42, count=20, extra=()):
    """Sample config keeping diagonal-type fixtures away from coordinate
    collisions and zeros."""
    guards = [(parse_expr(f"u{i + 1}", n), 0.15) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            guards.append((parse_expr(f"u{i + 1}-u{j + 1}", n), 0.1))
    guards.extend(extra)
    return SampleConfig(seed=seed, count=count, box=1.0, guards=tuple(guards))


def canonical_field(kind, n):
    """The canonical symmetry U of the n-dimensional centraliser family:
    diag(u1, .., un) for "diag" (Segre type [1 .. 1]), sum_k u^k J^(k-1)
    for "jordan" (Segre type [n])."""
    matrices, _, unit = segre_algebra([1] * n if kind == "diag" else [n])
    return canonical_symmetry_U(FlatBasis(matrices, unit))


def random_power_basis(kind, n, seed):
    """Random invertible recombination of the powers Id, U, .., U^(n-1) of
    the canonical symmetry field of an n-dimensional centraliser family;
    Id stays in the span and the fields remain mutual strong symmetries."""
    L = canonical_field(kind, n)
    powers = [OperatorField.identity(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ L)
    rng = np.random.default_rng(seed)
    while True:
        T = rng.uniform(-1.0, 1.0, (n, n))
        if abs(np.linalg.det(T)) > 0.2:
            break
    fields = []
    for i in range(n):
        f = powers[0].scaled(float(T[i, 0]))
        for j in range(1, n):
            if T[i, j] != 0.0:
                f = f + powers[j].scaled(float(T[i, j]))
        fields.append(f)
    return OperatorBasis(fields, name=f"{kind}-recombined-{seed}"), rng


def admissible_covector(basis, points, rng, tries=20):
    """Covector whose induced form stays away from degeneracy: among the
    draws, the one minimizing the worst condition number of b over the
    probe points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    structures = basis.point_data(points).structure
    best, best_cond = None, np.inf
    for _ in range(tries):
        a = rng.uniform(-1.0, 1.0, basis.dimension)
        worst = max(np.linalg.cond(np.einsum("ijk,k->ij", s, a))
                    for s in structures)
        if worst < best_cond:
            best, best_cond = a, worst
    if best is None:
        raise AssertionError("no admissible covector found")
    return best


def opfrob_env():
    """The environment in which a child Python process imports the package
    under test, installed or not."""
    src = str(Path(opfrob.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_opfrob(*args, cwd=None):
    """(exit code, stdout, stderr) of ``python -m opfrob ARGS`` run in a
    fresh process on the package under test, so the streams hold what a
    terminal would show: warnings and tracebacks included."""
    proc = subprocess.run([sys.executable, "-m", "opfrob", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd,
                          env=opfrob_env())
    return proc.returncode, proc.stdout, proc.stderr
