"""The benchmark's workloads: their system files, job lists and golden
outcomes.

Each workload is a closed loop of ``opfrob`` command-line jobs run one at a
time in one process.  The workload seed goes to every sampled job as
``--seed`` and draws the ``flow-series`` initial curve, so the same seed
gives the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from opfrob.cli import load_system_file, main as cli_main
from opfrob.numkit import mat_rank
from opfrob.sampling import guards_ok

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# job id -> end-to-end metric holding that job's wall time
JOB_METRICS = {
    "verify-algebra": "verify_algebra_s",
    "dualize": "dualize_s",
    "generate": "generate_s",
    "inverse": "inverse_s",
    "hj": "hj_s",
    "flow": "flow_s",
    "builtin-example52": "builtin_s",
}

FLOW_ORDER = 6          # the cap of hydroflow.taylor_flow
CURVE_DRAWS = 100


@dataclass
class Job:
    id: str
    argv: list


@dataclass
class Workload:
    name: str
    samples: int
    files: list          # system files loaded by the jobs (for setup_s)
    jobs: list


def run_cli(argv):
    """Run one command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _emit(name, path, variant="constant"):
    code, _, err = run_cli(["builtin", name, "--variant", variant,
                         "--emit", str(path)])
    if code != 0:
        raise RuntimeError(f"emitting {name}: {err.strip()}")
    return path


def flow_curve(fields, guards, seed):
    """A seed-drawn affine initial curve u0 + x u0' whose vectors
    K_i(u0) u0' are independent.  Draws whose u0 fails the system file's
    sampling guards (the fields' poles) are rejected, and so are
    rank-deficient draws, with the same rank test taylor_flow applies."""
    rng = np.random.default_rng(seed)
    for _ in range(CURVE_DRAWS):
        u0, du0 = rng.uniform(-1.0, 1.0, (2, len(fields)))
        if not guards_ok(u0, guards):
            continue
        cols = np.column_stack([f.eval(u0) @ du0 for f in fields])
        if mat_rank(cols) == len(fields):
            return [[float(a), float(b)] for a, b in zip(u0, du0)]
    raise RuntimeError(f"no generic initial curve in {CURVE_DRAWS} draws")


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's system files into ``workdir`` and list its
    jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    s = ["--seed", str(seed), "--json"]
    if name == "analytic52":
        f = str(_emit("example52", workdir / "analytic52.json", "analytic"))
        jobs = [Job(cmd, [cmd, f] + s) for cmd in
                ("verify-algebra", "dualize", "generate", "inverse",
                 "poisson-check")]
        jobs.append(Job("builtin-example52",
                        ["builtin", "example52", "--variant", "analytic"] + s))
        return Workload(name, 50, [f], jobs)
    if name == "constant52":
        f = str(_emit("example52", workdir / "constant52.json"))
        s = ["--samples", "200"] + s
        jobs = [Job(cmd, [cmd, f] + s) for cmd in
                ("verify-algebra", "dualize", "symcheck", "generate",
                 "poisson-check", "inverse")]
        jobs += [
            Job("hj", ["hj", f, "--c", "1,0.1,0.1,0.1", "--hj-points", "200"]
                + s),
            Job("builtin-example52", ["builtin", "example52"] + s),
            Job("builtin-not-closed", ["builtin", "not-closed"] + s),
        ]
        return Workload(name, 200, [f], jobs)
    if name == "flow-series":
        src = _emit("example52", workdir / "analytic-fields.json", "analytic")
        doc = json.loads(src.read_text(encoding="utf-8"))
        sf = load_system_file(str(src))
        fields = [sf.fields[b] for b in sf.basis_names]
        guards = sf.sample_config(argparse.Namespace(
            seed=None, samples=None, guard=None)).guards
        flow_doc = {
            "schema": 1,
            "dimension": doc["dimension"],
            "fields": doc["fields"],
            "basis": doc["basis"],
            "initial_curve": flow_curve(fields, guards, seed),
            "flow_order": FLOW_ORDER,
        }
        f = workdir / "flow-series.json"
        f.write_text(json.dumps(flow_doc, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")
        src.unlink()
        neg = str(_emit("nonsymmetric-pair", workdir / "nonsymmetric.json"))
        jobs = [Job("flow", ["flow", str(f)] + s),
                Job("flow-nonsymmetric-pair", ["flow", neg] + s)]
        return Workload(name, 1, [str(f), neg], jobs)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ["analytic52", "constant52", "flow-series"]


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


def outcome(code: int, stdout: str):
    """(exit code, ordered [check name, passed] list) of one job, or a
    reason string when a passing check has a non-finite residual."""
    try:
        doc = json.loads(stdout) if stdout.strip() else {"checks": []}
        checks = [[c["name"], c["passed"]] for c in doc["checks"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    for c in doc["checks"]:
        if c["passed"] and not math.isfinite(c["max_residual"]):
            return f"check {c['name']} passed with residual " \
                   f"{c['max_residual']}"
    return {"exit": code, "checks": checks}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["outcomes"]


def mismatch(workload: str, job: Job, got, golden: dict):
    """None when ``got`` matches the golden outcome, else the reason."""
    if isinstance(got, str):
        return got
    want = golden[workload][job.id]
    if got["exit"] != want["exit"]:
        return f"exit {got['exit']}, golden {want['exit']}"
    if got["checks"] != want["checks"]:
        return f"checks {got['checks']}, golden {want['checks']}"
    return None
