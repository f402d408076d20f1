"""Per-stage timing grid of `waveforce invert --lambda lcurve` over sizes.

Usage, from the root of a source checkout:

    python3 bench/grid.py LABEL[=SRC] [LABEL=SRC ...] [--repeats 9] [--out-dir bench]

Each LABEL times the package under SRC (default: this checkout's `src/`).
For scenarios 2 (one unknown profile), 3 (one, with the only modulation
that varies in x, so the one lag-loop assembly), 4 (one, the worst
conditioned, as in the noise study) and 5 (two) at M = N in
{80, 160, 320, 640}, the script runs

    python -m waveforce invert --example E --M M --noise-pct 1 --reg-order 2
        --lambda lcurve --seed 1 --timings FILE

in a fresh process `--repeats` times per cell (default 9: with 5, a
pair's medians of stages that neither side changed moved 40-60% with the
host, which 9 repeats held level). One more cell runs

    python -m waveforce tables --timings FILE

whose stages are data (the tables' 16 problems and 10 flux series),
assembly (their 16 matrices), cond, flux_tables, solves and output. Repeats are the outer loop
and the labels the inner one, so two checkouts given together alternate
run by run and share the host's drift. It writes BENCH_<LABEL>.json into
`--out-dir`: for every cell, the median and minimum of each stage of the
`--timings` file (for invert: data, assembly, sweep, corner, solve, cond,
output), of their sum (`stages`) and of the process wall time from start to exit
(`process`, which adds interpreter start-up and imports), all in
seconds; plus nproc, the Python and numpy versions, the name and version
of the BLAS numpy was built with (`np.show_config`), the environment's
BLAS thread variables (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS, null when unset; the runs inherit them, and the
artifacts' bytes depend on them), the platform, the git commit of SRC's
checkout with whether its tree differs from that commit, and `source`, a digest of SRC's `waveforce/*.py`. A label measured
on uncommitted work carries its parent's commit, so `source` is what names
the code it timed. Each SRC must lie in a git checkout, so that its commit
is recorded: the script stops before the first run when one does not (a
`git archive` export, say); check such a commit out with
`git worktree add <dir> <commit>` and pass `<dir>/src`. Nothing is
asserted: the file is a record, and a speed-up is read off a pair of files
measured together.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = (2, 3, 4, 5)
SIZES = (80, 160, 320, 640)
FLAGS = ["--noise-pct", "1", "--reg-order", "2", "--lambda", "lcurve", "--seed", "1"]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(src):
    """(commit, dirty) of the git checkout holding `src`, or (None, None)."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "."))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def source_digest(src):
    """sha256 of the package's Python files under `src`, by name and content."""
    h = hashlib.sha256()
    for path in sorted((Path(src) / "waveforce").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas():
    """Name and version of the BLAS numpy was built with."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version")}


def cells():
    """(cell record, CLI arguments) of every cell: the invert grid, then tables."""
    grid = [({"example": ex, "M": M, "N": M},
             ["invert", "--example", str(ex), "--M", str(M), *FLAGS])
            for ex in EXAMPLES for M in SIZES]
    return grid + [({"command": "tables"}, ["tables"])]


def run_once(src, argv, tmp):
    """Stage seconds of one CLI run, plus its process wall time."""
    timings = Path(tmp) / "timings.json"
    cmd = [sys.executable, "-m", "waveforce", *argv, "--out", str(Path(tmp) / "out"),
           "--timings", str(timings)]
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    stages = json.loads(timings.read_text())
    stages["stages"] = sum(stages.values())
    stages["process"] = wall
    return stages


def summary(runs):
    return {stat: {k: fn([r[k] for r in runs]) for k in runs[0]}
            for stat, fn in (("median", statistics.median), ("min", min))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("labels", nargs="+", metavar="LABEL[=SRC]")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out-dir", default=str(ROOT / "bench"))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not Path(args.out_dir).is_dir():
        parser.error(f"--out-dir {args.out_dir} is no directory")
    sources, commits = {}, {}
    for spec in args.labels:
        label, _, src = spec.partition("=")
        sources[label] = Path(src or ROOT / "src").resolve()
        if not (sources[label] / "waveforce").is_dir():
            parser.error(f"{sources[label]} holds no waveforce package")
        commits[label] = git_commit(sources[label])
        if commits[label][0] is None:
            parser.error(f"{label}: {sources[label]} is in no git checkout, so no commit would "
                         "be recorded; check the commit out with `git worktree add <dir> "
                         "<commit>` and pass <dir>/src")

    grid = cells()
    runs = {(label, i): [] for label in sources for i in range(len(grid))}
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(args.repeats):
            for i, (_, argv) in enumerate(grid):
                for label, src in sources.items():
                    runs[label, i].append(run_once(src, argv, tmp))
            print(f"repeat {rep + 1}/{args.repeats} done", file=sys.stderr)

    for label, src in sources.items():
        commit, dirty = commits[label]
        doc = {
            "label": label,
            "command": "waveforce invert --example E --M M " + " ".join(FLAGS)
                       + "; waveforce tables",
            "unit": "s",
            "repeats": args.repeats,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas(),
            "blas_threads": {var: os.environ.get(var) for var in THREAD_VARIABLES},
            "platform": platform.platform(),
            "commit": commit,
            "dirty": dirty,
            "source": source_digest(src),
            "cells": [{**cell, **summary(runs[label, i])} for i, (cell, _) in enumerate(grid)],
        }
        path = Path(args.out_dir) / f"BENCH_{label}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(path)


if __name__ == "__main__":
    main()
