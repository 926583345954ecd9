"""lvf benchmark: one workload, one fresh single-threaded process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload g2-obstruction --seed 1 --seconds 20 --trace 0

Workloads (closed loops: one caller, jobs back to back in a fixed order):

* ``g2-obstruction`` -- ``g2_obstruction`` of A2 forms 1-3 at degree 8, then
  ``b2_sanity_control``: the paper's headline verdict.  Tall sparse
  eliminations (2.5-3.2k rows x 495 columns) dominate, then the matrix
  build in ``solve``.
* ``catalog-verify`` -- a text round trip of the builtin catalog, then
  ``verify_realization`` of all 16 entries at seeded parameters: expr
  kernels, brackets, generic rank, closure, structure tensor, Killing
  determinant and parsing.  It makes no ``rref`` call, so a change to the
  elimination must leave it unchanged.
* ``constraint-solve`` -- per entry, ``centralizer`` at degree 3 with the
  generic rank of its basis, and an affine system ``[g_i, X] = [g_i, X0]``
  for a seeded ``X0``; odd-indexed entries get one seeded extra target term
  that makes the system inconsistent.  Elimination on exponential
  coefficients, the nullspace rref and the witness search.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median over fresh processes that import lvf and build the builtin
catalog), ``pass_s`` (median pass), ``job_p50_s``, ``job_tail_s`` (a fixed
percentile per workload, TAIL_PERCENTILE) and ``peak_rss_mb``.  Times are
scaled to a reference speed by an interleaved calibration kernel (see
CAL_REF_S); the raw wall times are printed and recorded beside them.  With
``--trace 1`` it runs untraced passes for half the time and traced passes
for the rest, and reports the per-layer metrics of ``tracing.py`` (wall
time) plus the tracing overhead.  Every job's output is checked outside the
timed region; a failing job counts towards ``fail_rate`` and never stops
the run.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also appends its full record,
environment header included, to ``perfbench/results/<workload>.jsonl``;
``compare.py`` reads two such result sets.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 11

# The speed of a shared host drifts by up to a quarter within seconds (the
# same catalog-verify seed read pass medians of 0.186 and 0.257 s, with
# nothing else running in the container).  Times are therefore scaled to a
# reference speed.  Between jobs, at most every CAL_EVERY_S, the runner takes
# a calibration point: the median of CAL_REPS runs of a fixed kernel that
# does lvf's kind of work, sparse exact elimination with Fraction entries in
# dict rows.  A job's time is multiplied by CAL_REF_S / (mean of the points
# before and after it).  Points interleaved with the workload see the same
# cache and frequency state it does.  Raw wall times are printed and recorded
# beside the scaled ones.
CAL_REF_S = 0.05  # kernel time at the reference speed
CAL_EVERY_S = 0.25
CAL_REPS = 3

# Percentile reported as job_tail_s, fixed per workload: the highest that a
# run of the default length leaves ten job samples beyond.  A run goes on
# past --seconds until it has that many samples (min_samples).
TAIL_PERCENTILE = {"g2-obstruction": 50, "catalog-verify": 99, "constraint-solve": 93}

SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import lvf\n"
    "from lvf import catalog\n"
    "catalog.load_builtin()\n"
    "print(time.perf_counter() - start)\n"
)


def source_id() -> str:
    """The git commit of the checkout, or a digest of its lvf sources."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        else:
            return head
    except OSError:
        pass
    sha = hashlib.sha256()
    for path in sorted((SRC / "lvf").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            sha.update(path.relative_to(SRC).as_posix().encode())
            sha.update(path.read_bytes())
    return "src-" + sha.hexdigest()[:16]


def measure_setup(n: int) -> list:
    """Seconds to import lvf and build the builtin catalog, in fresh processes."""
    times = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip()))
    return times


def _calibration_rows():
    rng = random.Random(0)
    return [
        {c: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for c in rng.sample(range(40), 4)}
        for _ in range(60)
    ]


_CAL_ROWS = _calibration_rows()


def calibration_kernel():
    """Reduced echelon form of a fixed sparse rational matrix."""
    active = [dict(r) for r in _CAL_ROWS]
    done = []
    for col in range(40):
        pivot = next((r for r in active if col in r), None)
        if pivot is None:
            continue
        active.remove(pivot)
        inv = 1 / pivot[col]
        pivot = {c: v * inv for c, v in pivot.items()}
        for r in active + done:
            f = r.get(col)
            if f:
                for c, v in pivot.items():
                    s = r.get(c, 0) - f * v
                    if s:
                        r[c] = s
                    else:
                        r.pop(c, None)
        done.append(pivot)
    return done


def min_samples(percentile: int) -> int:
    """Fewest job samples that leave ten beyond the percentile (nearest rank)."""
    n = 10
    while n - math.ceil(percentile / 100 * n) < 10:
        n += 1
    return n


def nearest_rank(samples: list, percentile: int) -> float:
    return sorted(samples)[max(1, math.ceil(percentile / 100 * len(samples))) - 1]


class Checker:
    """Checks each job output once per distinct canonical text."""

    def __init__(self, digest):
        self.digest = digest
        self.verified = {}  # job name -> digest of an output that passed

    def __call__(self, job, output) -> list:
        try:
            text_digest = self.digest(job.text(output))
            if self.verified.get(job.name) == text_digest:
                return []
            problems = job.check(output)
        except Exception as exc:  # a broken output must not stop the run
            return [f"check raised {exc!r}"]
        if not problems:
            self.verified[job.name] = text_digest
        return problems


class Runner:
    """Runs passes of one workload and keeps timings, calibration and failures."""

    def __init__(self, workload, checker, tracer=None):
        self.workload = workload
        self.checker = checker
        self.tracer = tracer
        self.attempted = 0
        self.failures = []  # (job name, problems), one entry per failed job
        self.jobs = {}  # traced job id -> job name
        self.passes_run = 0
        self.cal = []  # calibration points: median kernel seconds
        self.last_cal = -math.inf

    def calibrate(self) -> float:
        """Take a calibration point; returns the seconds it took."""
        start = time.perf_counter()
        reps = []
        gc.disable()  # the kernel makes no cycles; keep collections of the
        try:  # workload's heap out of its timing
            for _ in range(CAL_REPS):
                t0 = time.perf_counter()
                calibration_kernel()
                reps.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.cal.append(statistics.median(reps))
        self.last_cal = time.perf_counter()
        return self.last_cal - start

    def scale(self, point: int) -> float:
        """Factor to the reference speed for work between points ``point``
        and ``point + 1``."""
        return CAL_REF_S / ((self.cal[point] + self.cal[point + 1]) / 2)

    def run_pass(self, traced=False):
        """One pass; returns its segments, (seconds, last calibration point),
        for ``begin_pass`` and then each job.  Calibration is not timed."""
        tracer = self.tracer if traced else None
        gc.collect()
        outputs, segments = [], []
        label = f"p{self.passes_run}"
        self.passes_run += 1
        if tracer is not None:
            tracer.job = label + ".begin"
            tracer.reset_expr()
            tracer.install()
        try:
            start = time.perf_counter()
            ctx = self.workload.begin_pass()
            segments.append((time.perf_counter() - start, len(self.cal) - 1))
            for j, job in enumerate(self.workload.jobs):
                if time.perf_counter() - self.last_cal >= CAL_EVERY_S:
                    self.calibrate()
                if tracer is not None:
                    tracer.job = f"{label}.j{j}"
                    self.jobs[tracer.job] = job.name
                t0 = time.perf_counter()
                try:
                    output, error = job.run(ctx), None
                except Exception:  # counted as a failed job
                    output, error = None, traceback.format_exc(limit=3)
                segments.append((time.perf_counter() - t0, len(self.cal) - 1))
                outputs.append((job, output, error))
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += len(outputs)
        for job, output, error in outputs:
            problems = [error] if error else self.checker(job, output)
            if problems:
                self.failures.append((job.name, problems))
        return segments

    def run_for(self, seconds, min_jobs=0, traced=False, on_pass=None):
        """Whole passes until ``seconds`` have elapsed and ``min_jobs`` job
        latencies are in.  Returns (pass seconds, job latencies), each as a
        pair of lists: wall time and time at the reference speed."""
        runs = []
        deadline = time.perf_counter() + seconds
        if time.perf_counter() - self.last_cal >= CAL_EVERY_S:
            self.calibrate()
        while not runs or time.perf_counter() < deadline or sum(len(r) - 1 for r in runs) < min_jobs:
            lo = len(self.tracer.spans) if traced else 0
            runs.append(self.run_pass(traced))
            if on_pass is not None:
                on_pass(lo)
        self.calibrate()
        scaled = [[t * self.scale(i) for t, i in segments] for segments in runs]
        wall = [[t for t, _ in segments] for segments in runs]
        return (
            ([sum(w) for w in wall], [sum(s) for s in scaled]),
            ([t for w in wall for t in w[1:]], [t for s in scaled for t in s[1:]]),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lvf" / "__init__.py").is_file():
        print(f"perfbench: no lvf source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import lvf  # noqa: E402  (from the checkout's source tree)
    from lvf import catalog
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not Path(lvf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: lvf imported from {lvf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = {
        "python": platform.python_version(),
        "kernel_backend": lvf.kernel_backend,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "commit": source_id(),
    }
    print("env " + json.dumps(env, sort_keys=True))
    reference = json.loads((HERE / "reference.json").read_text())

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        for point in tracer.absent:
            print(f"wrap point absent: {point}", file=sys.stderr)
        tracer.job = "setup"
        tracer.install()
    try:
        catalog.load_builtin()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_spans = len(tracer.spans) if tracer is not None else 0

    workload = workloads.WORKLOADS[args.workload](args.seed, reference)
    runner = Runner(workload, Checker(workloads.digest), tracer)
    runner.run_pass()  # warm-up: lets allocator and caches settle; checked, not timed

    if tracer is None:
        setup_point = len(runner.cal)
        runner.calibrate()
        setup = measure_setup(SETUP_PROBES)
        runner.calibrate()
        p = TAIL_PERCENTILE[args.workload]
        (passes, scaled_passes), (latencies, scaled_latencies) = runner.run_for(
            args.seconds, min_jobs=min_samples(p)
        )
        wall = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(passes),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": nearest_rank(latencies, p),
        }
        values = {
            "setup_s": wall["setup_s"] * runner.scale(setup_point),
            "pass_s": statistics.median(scaled_passes),
            "job_p50_s": statistics.median(scaled_latencies),
            "job_tail_s": nearest_rank(scaled_latencies, p),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra = {
            "wall": wall,
            "job_tail_percentile": p,
            "job_samples": len(latencies),
            "setup_samples": setup,
            "calibration_samples": runner.cal,
        }
        wanted = spec["end_to_end"]
    else:
        (plain, plain_scaled), _ = runner.run_for(args.seconds / 2)
        per_pass = []
        (traced, traced_scaled), _ = runner.run_for(
            args.seconds / 2, traced=True,
            on_pass=lambda lo: per_pass.append(tracer.pass_metrics(lo)),
        )
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["catalog.load_s"] = sum(
            s[2] - s[1] for s in tracer.spans[:setup_spans] if s[0] == "catalog.load"
        )
        # at the reference speed, so that drift between the halves cancels
        values["trace.overhead_s"] = statistics.median(traced_scaled) - statistics.median(
            plain_scaled
        )
        extra = {
            "untraced_pass_s": statistics.median(plain),
            "traced_pass_s": statistics.median(traced),
            "rref_share_of_traced_pass": None if tracer.is_absent("linalg.rref.s")
            else values["linalg.rref.s"] / statistics.median(traced),
            "absent_wrap_points": tracer.absent,
        }
        passes = plain + traced
        wanted = spec["per_layer"]

    failures = list(runner.failures)
    if tracer is not None:
        failures += [("prediction", [msg]) for msg in check_predictions(args.workload, values, tracer)]
    for name, problems in failures:
        for problem in problems:
            print(f"FAIL {name}: {problem}", file=sys.stderr)

    metrics = {}
    for m in wanted:
        if tracer is not None and tracer.is_absent(m["name"]):
            metrics[m["name"]] = {"value": None, "unit": m["unit"], "absent": True}
        else:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failed_jobs = len(runner.failures)
    attempted = runner.attempted
    fail_rate = failed_jobs / attempted

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"fail_rate = {fail_rate} ({failed_jobs}/{attempted} jobs, {len(passes)} timed passes)")
    for key, value in extra.items():
        if not isinstance(value, list):
            print(f"{key} = {value}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_jobs,
        "metrics": metrics,
    }
    record = {
        "env": env,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.inputs,
        "fail_rate": fail_rate,
        "pass_times": passes,
        **extra,
        **result,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.dump(str(RESULTS / f"spans-{args.workload}.json"), runner.jobs)
    print(json.dumps(result))
    return 0


def check_predictions(workload: str, values: dict, tracer) -> list:
    """Layer attribution expected at the seed commit; absent metrics are skipped."""
    problems = []
    if not tracer.is_absent("linalg.rref.calls"):
        calls = values["linalg.rref.calls"]
        if workload == "catalog-verify" and calls != 0:
            problems.append(f"linalg.rref.calls is {calls} on catalog-verify, expected 0")
        if workload != "catalog-verify" and calls <= 0:
            problems.append(f"linalg.rref.calls is 0 on {workload}, expected > 0")
    if not tracer.is_absent("linalg.affine.calls"):
        calls = values["linalg.affine.calls"]
        if (calls > 0) != (workload == "constraint-solve"):
            problems.append(f"linalg.affine.calls is {calls} on {workload}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
