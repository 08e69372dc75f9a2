"""Benchmark of opfrob certificate jobs, end to end and per layer.

Each run executes one workload's job list as in-process
``opfrob.cli.main([...])`` calls, pass after pass, in this single-threaded
process until ``--seconds`` are used up, and checks every job's report
against the golden outcomes in ``golden.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(tracing off); with ``--trace 1`` untraced and traced passes alternate and
the metrics are the per-layer ones from the traced passes.

Run from the repository root:

    python3 bench/run.py --workload analytic52 --seed 42 --seconds 35 --trace 0
    python3 bench/run.py --smoke            # every workload once, asserted
"""

import os

# one BLAS thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 42
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
KERNEL_N = 24_000
KERNEL_SHARE = 0.06     # kernel seconds per job second (one run at least)
# kernel seconds that define reference speed: about its mean time between
# jobs on a 2-vCPU x86-64 VM with Python 3.11.7 and numpy 2.4.6
REFERENCE_KERNEL_S = 0.037

END_TO_END = [("setup_s", "s"), ("certify_s", "s"), ("peak_rss_mb", "MiB")]


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def import_opfrob() -> bool:
    """Import opfrob from this checkout's src/ (and nowhere else)."""
    if not (SRC / "opfrob" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import opfrob
    return Path(opfrob.__file__).resolve().is_relative_to(SRC)


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------


def src_digest():
    """Line count and content hash of src/ (the checkout may lack .git)."""
    lines, h = 0, hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    return lines, h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() or None


def node_counts(paths):
    """Tree size (shared subtrees counted each time they occur) and number
    of distinct node objects over the operator-field entries of the
    files."""
    from opfrob.cli import load_system_file
    from opfrob.exprs import Expression

    def children(e):
        vals = (vars(e).values() if hasattr(e, "__dict__")
                else (getattr(e, s) for s in e.__slots__))
        for v in vals:
            if isinstance(v, Expression):
                yield v
            elif isinstance(v, (tuple, list)):
                yield from (x for x in v if isinstance(x, Expression))

    size = {}
    roots = [e for p in paths
             for f in load_system_file(p).fields.values()
             for row in f.entries for e in row]
    for root in roots:
        stack = [root]
        while stack:
            e = stack[-1]
            if id(e) in size:
                stack.pop()
                continue
            kids = list(children(e))
            todo = [k for k in kids if id(k) not in size]
            if todo:
                stack.extend(todo)
                continue
            size[id(e)] = 1 + sum(size[id(k)] for k in kids)
            stack.pop()
    return sum(size[id(e)] for e in roots), len(size)


def context(wl, seed):
    import numpy as np
    lines, digest = src_digest()
    tree, unique = node_counts(wl.files)
    return {
        "workload": wl.name, "seed": seed,
        "git_sha": git_sha(), "src_sha256": digest, "src_lines": lines,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "samples": wl.samples,
        "exprs.nodes_tree": tree, "exprs.nodes_unique": unique,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def mix(self, other):
        return self.a * other.b + self.b


_KERNEL_B = [[1.0, 0.2, 0.0, 0.1], [0.3, 1.0, 0.2, 0.0],
             [0.0, 0.1, 1.0, 0.3], [0.2, 0.0, 0.4, 1.0]]


def kernel_time() -> float:
    """Seconds for a fixed kernel of the work opfrob's jobs do: small
    objects, float arithmetic, dict traffic and 4x4 numpy products.

    The host's speed drifts by tens of percent within a run and between
    runs, and this kernel drifts with it, so reported times are scaled to
    the speed at which the kernel takes REFERENCE_KERNEL_S."""
    import numpy as np
    b = np.array(_KERNEL_B)
    gc.collect()
    t0 = time.perf_counter()
    acc, table, a = 0.0, {}, np.eye(4)
    for i in range(KERNEL_N):
        v = _Pair(i * 0.5, 1.0 / (i + 1.0))
        key = (i & 7, (i >> 3) & 7)
        table[key] = table.get(key, 0.0) + v.mix(v)
        if i & 7 == 0:
            a = a @ b
            a = a / np.abs(a).max()
            acc += a[0, 0]
    if not acc > 0.0:
        raise AssertionError("speed kernel went wrong")
    return time.perf_counter() - t0


def setup_time(wl) -> float:
    """Seconds of one cold set-up in a fresh interpreter."""
    r = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + wl.files,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if r.returncode != 0:
        raise RuntimeError(f"setup probe failed: {r.stderr.strip()}")
    return float(r.stdout.split()[-1])


class Passes:
    """Runs whole passes over a workload's jobs and keeps raw samples.

    The host's speed drifts by tens of percent over seconds, so a pass's
    time is estimated as the sum over jobs of each job's median time: a
    slow stretch then spoils single job samples, not whole passes."""

    def __init__(self, wl, golden, tracer=None, probes=0):
        self.wl, self.golden, self.tracer = wl, golden, tracer
        # traced? -> job id -> seconds, one sample per pass
        self.job_s = {t: {j.id: [] for j in wl.jobs} for t in (False, True)}
        self.pass_s = {False: [], True: []}     # raw pass sums
        self.setup_s = []
        self.kernel_s = []
        self.probes = probes
        self.attempted = self.failed = 0
        self.problems = []
        self.job_windows = {}                   # traced job id -> (t0, t1)

    def certify_s(self, traced: bool) -> float:
        return sum(statistics.median(v)
                   for v in self.job_s[traced].values())

    def run_pass(self, traced: bool):
        from workloads import mismatch, outcome, run_cli
        if traced:
            self.tracer.install()
        gc.collect()
        total = 0.0
        try:
            for job in self.wl.jobs:
                job_id = self.attempted
                self.attempted += 1
                if traced:
                    self.tracer.begin_job(job_id)
                t0 = time.perf_counter()
                try:
                    code, out, _ = run_cli(job.argv)
                    error = None
                except Exception:  # a job that raises is a failed job
                    error = traceback.format_exc(limit=3)
                t1 = time.perf_counter()
                total += t1 - t0
                self.job_s[traced][job.id].append(t1 - t0)
                if traced:
                    self.job_windows[job_id] = (t0, t1)
                reason = error or mismatch(self.wl.name, job,
                                           outcome(code, out), self.golden)
                if reason:
                    self.failed += 1
                    self.problems.append(f"{job.id}: {reason}")
                # the speed kernel and the set-up probes run between jobs,
                # outside job timing, so they sample the whole run; kernel
                # time is kept in proportion to job time
                spent = 0.0
                while not spent or spent < KERNEL_SHARE * (t1 - t0):
                    self.kernel_s.append(kernel_time())
                    spent += self.kernel_s[-1]
                if len(self.setup_s) < self.probes:
                    self.setup_s.append(setup_time(self.wl))
        finally:
            if traced:
                self.tracer.remove()
        self.pass_s[traced].append(total)

    def run(self, seconds: float, trace: bool):
        """Passes until the next one would end more than half a pass after
        ``seconds``; at least one untraced pass, and one traced pass when
        tracing."""
        begin = time.perf_counter()
        while True:
            traced = trace and len(self.pass_s[True]) < len(self.pass_s[False])
            self.run_pass(traced)
            nxt = trace and len(self.pass_s[True]) < len(self.pass_s[False])
            if trace and not self.pass_s[True]:
                continue
            expected = self.certify_s(nxt)
            if time.perf_counter() - begin + expected / 2 > seconds:
                break
        while len(self.setup_s) < self.probes:
            self.setup_s.append(setup_time(self.wl))


def stat(samples):
    """Median with the raw samples and their count.  No high percentile:
    runs hold far fewer than the 20 samples that would put ten beyond
    even the 50th."""
    return {"median": statistics.median(samples), "n": len(samples),
            "samples": samples}


def run_workload(name, seed, seconds, trace):
    from tracing import (LAYER_METRICS, SELF_MS, Tracer, layer_metrics,
                         root_cover)
    from workloads import JOB_METRICS, load_golden, prepare

    workdir = WORK / f"{name}-{seed}"
    wl = prepare(name, seed, workdir)
    ctx = context(wl, seed)
    tracer = Tracer() if trace else None
    runner = Passes(wl, load_golden(), tracer,
                    probes=0 if trace else SETUP_PROBES)
    runner.run(seconds, trace)
    # times are reported at reference speed, raw wall times stay in ctx;
    # the mean, because the host flips between fast and slow states and
    # jobs run through both
    scale = REFERENCE_KERNEL_S / statistics.fmean(runner.kernel_s)
    untraced = runner.certify_s(False)
    ctx["speed"] = {"scale": scale, "reference_kernel_s": REFERENCE_KERNEL_S,
                    "kernel_s": dict(stat(runner.kernel_s),
                                     mean=statistics.fmean(runner.kernel_s))}
    ctx["passes"] = len(runner.pass_s[False])
    ctx["raw_certify_s"] = untraced
    ctx["raw_pass_s"] = stat(runner.pass_s[False])
    ctx["raw_job_s"] = {JOB_METRICS.get(j, j): stat(v)
                        for j, v in runner.job_s[False].items()}
    ctx["job_s"] = {JOB_METRICS.get(j, j): scale * statistics.median(v)
                    for j, v in runner.job_s[False].items()}
    ctx["fail_ratio"] = {"value": runner.failed / runner.attempted,
                         "failed": runner.failed,
                         "attempted": runner.attempted}
    ctx["problems"] = runner.problems[:20]
    if trace:
        traced = runner.certify_s(True)
        values = layer_metrics(tracer, len(runner.pass_s[True]))
        for m in SELF_MS:
            values[m] *= scale
        values["exprs.nodes_tree"] = ctx["exprs.nodes_tree"]
        values["exprs.nodes_unique"] = ctx["exprs.nodes_unique"]
        job_wall = sum(t1 - t0 for t0, t1 in runner.job_windows.values())
        covered = root_cover(tracer.spans, runner.job_windows)
        values["trace.coverage"] = covered / job_wall
        values["trace.overhead_ratio"] = traced / untraced
        ctx["traced_passes"] = len(runner.pass_s[True])
        ctx["trace.coverage_base"] = {"in_spans_s": covered,
                                      "job_wall_s": job_wall}
        ctx["trace.overhead_ratio_base"] = {
            "raw_traced_certify_s": traced,
            "raw_untraced_certify_s": untraced}
        ctx["spans"] = len(tracer.spans)
        tracer.spans.write_jsonl(workdir / "spans.jsonl")
        units = dict(LAYER_METRICS)
    else:
        values = {
            "setup_s": scale * statistics.median(runner.setup_s),
            "certify_s": scale * untraced,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        ctx["raw_setup_s"] = stat(runner.setup_s)
        units = dict(END_TO_END)
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, ctx


def report(result, ctx, trace):
    print(f"workload {ctx['workload']} seed {ctx['seed']}: "
          f"{ctx['passes']} untraced passes, {result['attempted']} jobs, "
          f"{result['failed']} failed "
          f"(fail_ratio {ctx['fail_ratio']['value']:.3g})")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:12.6g} {m['unit']}")
    if trace:
        cov, ovh = ctx["trace.coverage_base"], ctx["trace.overhead_ratio_base"]
        print(f"  trace.coverage {result['metrics']['trace.coverage']['value']:.4f}"
              f" = {cov['in_spans_s']:.3f} s in spans / "
              f"{cov['job_wall_s']:.3f} s traced job wall time")
        print(f"  trace.overhead_ratio "
              f"{result['metrics']['trace.overhead_ratio']['value']:.4f}"
              f" = traced certify_s {ovh['raw_traced_certify_s']:.3f} s"
              f" / untraced certify_s {ovh['raw_untraced_certify_s']:.3f} s"
              " (wall)")
    else:
        for name, v in ctx["job_s"].items():
            print(f"  {name:34s} {v:12.6g} s (median of "
                  f"{ctx['raw_job_s'][name]['n']})")
    sp = ctx["speed"]
    print(f"  times at reference speed: wall times x {sp['scale']:.4f} = "
          f"{sp['reference_kernel_s']} s / {sp['kernel_s']['mean']:.4f} s "
          f"mean of {sp['kernel_s']['n']} speed-kernel runs")
    for line in ctx["problems"]:
        print(f"  MISMATCH {line}")
    print("context: " + json.dumps(ctx, sort_keys=True))
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# smoke mode
# ---------------------------------------------------------------------------


def smoke() -> int:
    """Each workload once, untraced and traced, as separate processes;
    every named metric must appear with its unit and nothing may fail."""
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(DEFAULT_SEED), "--seconds", "0",
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, cwd=ROOT)
            if r.returncode != 0:
                bad.append(f"{name} trace {trace}: exit {r.returncode}: "
                           f"{r.stderr.strip()[-500:]}")
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            if got != want:
                bad.append(f"{name} trace {trace}: metrics {got} != {want}")
            if res["failed"] or not res["correct"]:
                bad.append(f"{name} trace {trace}: {res['failed']} of "
                           f"{res['attempted']} jobs failed")
            print(f"smoke {name} trace {trace}: "
                  f"{res['attempted']} jobs, {res['failed']} failed")
    for line in bad:
        print(f"SMOKE FAILURE {line}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload once and assert the result")
    args = p.parse_args(argv)
    if not import_opfrob():
        return fail(f"no opfrob package under {SRC}")
    sys.path.insert(0, str(HERE))
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return fail(f"--workload must be one of {WORKLOADS}")
    result, ctx = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    report(result, ctx, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
