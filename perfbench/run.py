"""End-to-end and per-layer benchmark of the waveforce identification pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each is there):

  invert-single-320  `waveforce invert --example 2 --M 320 --noise-pct 1
                     --reg-order 2 --lambda lcurve`, a fresh noise seed per job
  noise-study-160    scenario 4 at M = N = 160 assembled once in set-up; a job
                     is one noise draw solved at orders 0, 1, 2 at the corner
  invert-dual-160    the same command with `--example 5 --M 160`
  paper-tables       `waveforce tables`

The package is imported from `src/`. Jobs run one at a time in a closed
loop in this one process for `--seconds`; per-job noise seeds derive from
`--seed`. Every job's output is checked outside the timed region.

Job times are stated twice. `job_s.*`, `jobs_per_s` and `cpu_s_per_job`
(the median over jobs of process CPU time, BLAS threads included) are
plain wall and CPU seconds. On a host whose CPUs are shared with
other tenants, those swing by 1.5-2x from minute to minute, more than any
regression worth catching. So a fixed reference kernel (a dense
least-squares solve) is timed after every job, and `job_ref.*`,
`jobs_per_ref` and `cpu_ref_per_job` state each job's time in multiples
of the kernel time measured around it. Those are the gated metrics.

With `--trace 0` the last line of standard output is a JSON object with
the gated end-to-end metrics: job_ref.p50, job_ref.tail (the highest
percentile with at least ten jobs above it, or the fastest job when a run
has fewer than eleven), jobs_per_ref, cpu_ref_per_job, setup_s,
peak_rss_mb and accuracy_error. The lines above it print those, the plain
seconds and failed_ratio.

With `--trace 1` the run first measures jobs untraced for half the time,
then traced for the other half, and reports the per-layer metrics of
spans.py as medians over the traced jobs, plus trace.overhead_s.

Each run appends its record (environment, metrics, and each metric's
median and quartiles over all recorded runs of the same workload,
package source and benchmark code) to perfbench/results/<workload>.jsonl; traced runs also write
their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
TMP = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 5
TAIL_BEYOND = 10

GATED_UNITS = {
    "job_ref.p50": "ref",
    "job_ref.tail": "ref",
    "jobs_per_ref": "1/ref",
    "cpu_ref_per_job": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_error": "norm",
}
PLAIN_UNITS = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "cpu_s_per_job": "s",
    "ref_s": "s",
    "failed_ratio": "ratio",
}

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import waveforce; print(time.perf_counter() - t)")


class ReferenceKernel:
    """Fixed work whose time tracks the machine's current speed.

    A dense least-squares solve through the same numpy and BLAS threads
    the package uses for its sweeps. Its inputs never change, so only the
    machine can change its time. Tried against an added elementwise
    Python-loop part (the FDM march's kind of work): with it, the
    normalized medians of noise-study-160 spread twice as much between
    runs, and no other workload gained.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((240, 200))
        self.b = rng.standard_normal(240)

    def _solve(self):
        t0 = time.perf_counter()
        np.linalg.lstsq(self.A, self.b, rcond=None)
        return time.perf_counter() - t0

    def seconds(self):
        """Kernel time, the fastest of three tries."""
        return min(self._solve() for _ in range(3))


def import_seconds():
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    i = max(len(ordered) - TAIL_BEYOND - 1, 0)
    percentile = 100.0 * i / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return ordered[i], percentile


def digest(directory):
    """Short hash of the Python files in a directory."""
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be read."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "source": digest(SRC / "waveforce"),
        "benchmark": digest(HERE),
        "machine": platform.machine(),
        "seed": seed,
    }


class NoJobCompleted(Exception):
    """Every timed job failed, so there is nothing to measure."""


class Loop:
    """Closed loop: one job at a time, each checked before the next starts."""

    def __init__(self, workload, seed, tmp):
        self.workload = workload
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.reference = ReferenceKernel()
        self.attempted = 0
        self.failed = 0

    def fail(self, what):
        self.failed += 1
        print(f"FAILED {self.workload.name}: {what}", file=sys.stderr)

    def run(self, seconds, tracer=None):
        """Run jobs for `seconds`.

        Returns one (job id, wall s, CPU s, reference-kernel s) tuple per
        job that passed its check; the kernel time is the mean of the
        kernel runs just before and just after the job.
        """
        jobs = []
        first = self.attempted
        start = time.perf_counter()
        ref_before = self.reference.seconds()
        while self.attempted == first or time.perf_counter() - start < seconds:
            self.attempted += 1
            out = str(self.tmp / f"job{self.attempted}")
            try:
                wall, cpu, result = self._timed(self.rng.randrange(2, 2 ** 31 - 1), out, tracer)
                ref_after = self.reference.seconds()
                self.workload.check(result, out)
            except Exception:  # a failed job is counted, and the loop goes on
                self.fail(traceback.format_exc())
                ref_before = self.reference.seconds()
                continue
            finally:
                shutil.rmtree(out, ignore_errors=True)
            jobs.append((self.attempted, wall, cpu, 0.5 * (ref_before + ref_after)))
            ref_before = ref_after
        if not jobs:
            raise NoJobCompleted
        return jobs

    def _timed(self, seed, out, tracer):
        if tracer is not None:
            tracer.job = self.attempted
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            result = self.workload.job(seed, out)
            return time.perf_counter() - t0, time.process_time() - c0, result
        finally:
            if tracer is not None:
                tracer.job = None


def end_to_end(jobs):
    """Job-time metrics, plain and in reference-kernel units, and the tail percentile."""
    _, walls, cpus, refs = zip(*jobs)
    rel = [w / r for w, r in zip(walls, refs)]
    rel_tail, percentile = tail(rel)
    metrics = {
        "job_ref.p50": statistics.median(rel),
        "job_ref.tail": rel_tail,
        "jobs_per_ref": len(rel) / sum(rel),
        "cpu_ref_per_job": statistics.median(c / r for c, r in zip(cpus, refs)),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail(walls)[0],
        "jobs_per_s": len(walls) / sum(walls),
        "cpu_s_per_job": statistics.median(cpus),
        "ref_s": statistics.median(refs),
    }
    return metrics, percentile


def spread(records, metric):
    values = [r["metrics"][metric] for r in records if metric in r["metrics"]]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def record(workload, trace, record_doc):
    """Append this run and return the spread of each metric over the recorded runs."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}.jsonl"
    previous = []
    if path.exists():
        with open(path) as fh:
            previous = [json.loads(line) for line in fh if line.strip()]
    same = [r for r in previous
            if r["trace"] == trace
            and all(r["env"].get(k) == record_doc["env"][k] for k in ("source", "benchmark"))]
    same.append(record_doc)
    record_doc["spread"] = {m: spread(same, m) for m in record_doc["metrics"]}
    with open(path, "a") as fh:
        fh.write(json.dumps(record_doc, sort_keys=True) + "\n")
    return record_doc["spread"]


def measure(args, workloads, wf, tmp):
    """Set up, warm up, check and time one workload.

    Returns (loop, metrics, units of the reported metrics, notes)."""
    workload = workloads.make(args.workload, wf, str(tmp))
    setup_import = import_seconds()
    inputs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        inputs.append(time.perf_counter() - t0)

    loop = Loop(workload, args.seed, tmp)
    loop.attempted += 3  # two warm-up jobs and the library check
    accuracy = 0.0
    try:
        accuracy = workload.warmup()
    except Exception:
        loop.fail(traceback.format_exc())
    try:
        workload.library_check()
    except Exception:
        loop.fail(traceback.format_exc())

    if args.trace:
        import spans
        untraced = loop.run(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = loop.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics([job[0] for job in traced])
        metrics["trace.overhead_s"] = (statistics.median(job[1] for job in traced)
                                       - statistics.median(job[1] for job in untraced))
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
        notes = {"absent": tracer.absent, "traced_jobs": len(traced), "untraced_jobs": len(untraced)}
        return loop, metrics, spans.UNITS, notes

    jobs = loop.run(args.seconds)
    metrics, percentile = end_to_end(jobs)
    metrics.update({
        "setup_s": setup_import + statistics.median(inputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_error": accuracy,
        "failed_ratio": loop.failed / loop.attempted,
    })
    notes = {"jobs": [job[1:] for job in jobs], "tail_percentile": percentile,
             "setup_import_s": setup_import, "setup_inputs_s": inputs}
    return loop, metrics, GATED_UNITS, notes


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "waveforce" / "__init__.py").is_file():
        print(f"error: no waveforce package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import waveforce
    import waveforce.cli

    tmp = TMP / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        loop, metrics, units, notes = measure(args, workloads, waveforce, tmp)
    except NoJobCompleted:
        print(f"error: no {args.workload} job completed; see the failures above", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    env = environment(args.seed)
    doc = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
           "env": env, "metrics": metrics, "notes": notes,
           "attempted": loop.attempted, "failed": loop.failed}
    spreads = record(args.workload, args.trace, doc)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        s = spreads[name]
        unit = units.get(name) or PLAIN_UNITS[name]
        print(f"  {name:34s} {value:<14.6g} {unit:5s} "
              f"median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  over {s['runs']} runs")
    if args.trace:
        print(f"  traced {notes['traced_jobs']} jobs, untraced {notes['untraced_jobs']}")
        for name, reason in notes["absent"].items():
            print(f"  absent {name}: {reason}")
    else:
        print(f"  {loop.failed} of {loop.attempted} operations failed; "
              f"job_ref.tail is p{notes['tail_percentile']:.0f} of {len(notes['jobs'])} jobs")

    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
