"""The four benchmark workloads and the output checks of their jobs.

Each workload has a set-up (timed, repeated), a job (timed, one at a time
in a closed loop), a check of each job's output (untimed), a warm-up
that also yields the reference accuracy, and a once-per-run check of the
problem assembled through the library. The checks use closed forms and
tolerances of their own, so that a change inside the package cannot
weaken them.

`accuracy_error` is measured on the reference noise draw (seed 1, the
command-line default) rather than on the timed jobs' draws: the error of
an L-curve solve swings by a factor of ten between draws, so a median
over the few jobs of one run would not repeat between workload seeds,
while the reference draw moves only when the computed answer does.
"""

from __future__ import annotations

import filecmp
import math
import os
import shutil

import numpy as np

# ||A f_exact - b|| / ||b|| for on-mesh data; acceptance criterion 9 of
# the package uses the same tolerance.
FLUX_AFFINITY_TOL = 1e-10
# Scenario 5's analytic data carry the scheme's O(dx^2) discretization
# error: 1.3e-4 at M = 160.
DISCRETIZATION_TOL = 1e-3
# ||A^T (A f - b) + lam D^T D f|| / ||A^T b|| of a regularized solve.
NORMAL_EQUATIONS_TOL = 1e-8
# A recomputed error must agree with the one the command reports.
REPORTED_ERROR_RTOL = 1e-9
REFERENCE_NOISE_SEED = 1


class CheckFailed(Exception):
    """A job's output, or the library's assembly, failed a check."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def exact_profile(example, M):
    """Exact interior force values of a scenario: the hat profile of
    scenarios 2-4, or f then g stacked for scenario 5."""
    x = np.arange(1, M) / M
    if example == 5:
        return np.concatenate([1.0 + np.pi ** 2 * np.sin(np.pi * x), np.full(M - 1, -2.0)])
    return np.where(x <= 0.5, x, 1.0 - x)


def difference(order, m):
    """Order-k difference operator built independently of the package."""
    D = np.eye(m)
    for _ in range(order):
        D = D[:-1] - D[1:]
    return D


def read_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def read_metrics(path):
    _, rows = read_rows(path)
    return {name: value for name, value in rows}


def same_tree(a, b):
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def relative_residual(A, f, b):
    return float(np.linalg.norm(A @ f - b) / np.linalg.norm(b))


class Workload:
    name = ""

    def __init__(self, wf, tmp):
        self.wf = wf
        self.tmp = tmp

    def setup(self):
        """Build what jobs need; timed as part of setup_s."""

    def job(self, seed, out):
        raise NotImplementedError

    def check(self, result, out):
        """Raise CheckFailed unless the job's output is right; return its error norm."""
        raise NotImplementedError

    def warmup(self):
        """Run the reference draw twice, check that the two outputs agree
        exactly, and return the reference accuracy error."""
        raise NotImplementedError

    def library_check(self):
        raise NotImplementedError


class CliWorkload(Workload):
    """One job is one `waveforce.cli.main` call writing into a fresh directory."""

    def argv(self, seed, out):
        raise NotImplementedError

    def job(self, seed, out):
        return self.wf.cli.main(self.argv(seed, out))

    def warmup(self):
        # both runs write to the same --out, which the manifest records
        out = os.path.join(self.tmp, "warmup")
        first = out + "-first"
        error = self.check(self.job(REFERENCE_NOISE_SEED, out), out)
        os.rename(out, first)
        self.check(self.job(REFERENCE_NOISE_SEED, out), out)
        _require(same_tree(first, out), "two runs of one configuration wrote different artifacts")
        shutil.rmtree(first)
        shutil.rmtree(out)
        return error


class Invert(CliWorkload):
    def __init__(self, wf, tmp, name, example, M):
        super().__init__(wf, tmp)
        self.name, self.example, self.M = name, example, M

    def argv(self, seed, out):
        return ["invert", "--example", str(self.example), "--M", str(self.M),
                "--noise-pct", "1", "--reg-order", "2", "--lambda", "lcurve",
                "--seed", str(seed), "--out", out]

    def setup(self):
        self.exact = exact_profile(self.example, self.M)

    def check(self, status, out):
        _require(status == 0, f"exit status {status}")
        header, rows = read_rows(os.path.join(out, "force.csv"))
        dual = self.example == 5
        _require(header == (["x", "f", "g"] if dual else ["x", "f"]), f"force.csv header {header}")
        _require(len(rows) == self.M - 1, f"force.csv has {len(rows)} rows, want {self.M - 1}")
        table = np.array(rows, dtype=float)
        _require(np.all(np.isfinite(table)), "force.csv holds non-finite values")
        _require(np.allclose(table[:, 0], np.arange(1, self.M) / self.M, rtol=0, atol=1e-12),
                 "force.csv nodes are not the interior grid")
        values = np.concatenate([table[:, 1], table[:, 2]]) if dual else table[:, 1]
        error = math.sqrt(math.fsum((values - self.exact) ** 2))
        reported = float(read_metrics(os.path.join(out, "metrics.csv"))["accuracy_error"])
        _require(abs(error - reported) <= REPORTED_ERROR_RTOL * max(1.0, reported),
                 f"recomputed error {error!r} differs from reported {reported!r}")
        return error

    def library_check(self):
        wf = self.wf
        grid = wf.GridSpec(1.0, 1.0, self.M, self.M)
        problem = wf.inverse_problem(self.example, grid)
        if self.example == 5:
            system = wf.assemble_dual(problem, wf.measured_flux(5, grid, wf.LEFT),
                                      wf.measured_flux(5, grid, wf.RIGHT))
            residual = relative_residual(system.A, self.exact, system.b)
            _require(residual <= DISCRETIZATION_TOL, f"discretization residual {residual:.3e}")
        else:
            system = wf.assemble_single(problem, wf.measured_flux(self.example, grid))
            residual = relative_residual(system.A, self.exact, system.b)
            _require(residual <= FLUX_AFFINITY_TOL, f"flux affinity residual {residual:.3e}")


class NoiseStudy(Workload):
    """Scenario 4: one assembly in set-up, then per job a fresh noise draw
    solved at orders 0, 1 and 2 with the weight at the L-curve corner."""

    name = "noise-study-160"
    example, M = 4, 160

    def setup(self):
        wf = self.wf
        grid = wf.GridSpec(1.0, 1.0, self.M, self.M)
        self.measured = wf.measured_flux(self.example, grid)
        self.system = wf.assemble_single(wf.inverse_problem(self.example, grid), self.measured)
        self.exact = exact_profile(self.example, self.M)

    def job(self, seed, out):
        wf = self.wf
        noisy = self.system.with_measurement(self.measured, noise=wf.NoiseSpec(0.01, seed))
        exact = wf.exact_force(self.example, noisy.grid)
        solutions = []
        for order in (0, 1, 2):
            lam = wf.corner(wf.sweep(noisy, order)).lam
            f = wf.tikhonov_solve(noisy, wf.RegConfig(order=order, lam=lam))
            solutions.append((order, lam, f, wf.accuracy_error(f, exact)))
        return noisy, solutions

    def check(self, result, out):
        noisy, solutions = result
        A, b = np.asarray(noisy.A), np.asarray(noisy.b)
        scale = np.linalg.norm(A.T @ b)
        errors = []
        for order, lam, f, reported in solutions:
            f = np.asarray(f.values)
            _require(f.shape == (self.M - 1,) and np.all(np.isfinite(f)), f"order {order}: bad solution")
            D = difference(order, f.size)
            gradient = A.T @ (A @ f - b) + lam * (D.T @ (D @ f))
            residual = np.linalg.norm(gradient) / scale
            _require(residual <= NORMAL_EQUATIONS_TOL,
                     f"order {order}: normal-equations residual {residual:.3e}")
            error = math.sqrt(math.fsum((f - self.exact) ** 2))
            _require(abs(error - reported) <= REPORTED_ERROR_RTOL * max(1.0, reported),
                     f"order {order}: accuracy_error {reported!r}, recomputed {error!r}")
            errors.append(error)
        return math.fsum(errors)

    def warmup(self):
        first, second = (self.job(REFERENCE_NOISE_SEED, None) for _ in range(2))
        for (_, lam1, f1, _), (_, lam2, f2, _) in zip(first[1], second[1]):
            _require(lam1 == lam2 and np.array_equal(f1.values, f2.values),
                     "two solves of one draw differ")
        self.check(second, None)
        return self.check(first, None)

    def library_check(self):
        residual = relative_residual(self.system.A, self.exact, self.system.b)
        _require(residual <= FLUX_AFFINITY_TOL, f"flux affinity residual {residual:.3e}")


class PaperTables(CliWorkload):
    name = "paper-tables"

    def argv(self, seed, out):
        # the tables use fixed noise seeds, so the job seed does not enter
        return ["tables", "--out", out]

    def check(self, status, out):
        wf = self.wf
        _require(status == 0, f"exit status {status}")
        _, rows = read_rows(os.path.join(out, "table1.csv"))
        _require(len(rows) == len(wf.REFERENCE_CONDITION_NUMBERS), f"table1 has {len(rows)} rows")
        for ex, m, cond in rows:
            ref = wf.REFERENCE_CONDITION_NUMBERS[(int(ex), int(m))]
            _require(abs(float(cond) - ref) <= 0.02 * ref, f"table1 ({ex}, {m}): {cond} vs {ref}")
        for ex, table, tol in ((1, "table2.csv", 5e-4), (2, "table3.csv", 5e-5)):
            _, rows = read_rows(os.path.join(out, table))
            _require(len(rows) == 20, f"{table} has {len(rows)} rows")
            for m, t, q in rows:
                ref = wf.REFERENCE_LEFT_FLUX[(ex, int(m))][float(t)]
                _require(abs(float(q) - ref) <= tol, f"{table} M={m} t={t}: {q} vs {ref}")
        errors = []
        for table in ("table4.csv", "table5.csv", "table6.csv"):
            _, rows = read_rows(os.path.join(out, table))
            _require(len(rows) == 9, f"{table} has {len(rows)} rows")
            errors += [float(row[-1]) for row in rows]
        _require(all(math.isfinite(e) for e in errors), "non-finite accuracy error in table4-6")
        return math.fsum(errors)

    def library_check(self):
        wf = self.wf
        grid = wf.GridSpec(1.0, 1.0, 80, 80)
        system = wf.assemble_single(wf.inverse_problem(2, grid), wf.measured_flux(2, grid))
        residual = relative_residual(system.A, exact_profile(2, 80), system.b)
        _require(residual <= FLUX_AFFINITY_TOL, f"flux affinity residual {residual:.3e}")


def make(name, wf, tmp):
    """The workload called `name`, bound to the imported package and a scratch directory."""
    if name == "invert-single-320":
        return Invert(wf, tmp, name, 2, 320)
    if name == "invert-dual-160":
        return Invert(wf, tmp, name, 5, 160)
    if name == "noise-study-160":
        return NoiseStudy(wf, tmp)
    if name == "paper-tables":
        return PaperTables(wf, tmp)
    raise KeyError(name)


NAMES = ("invert-single-320", "noise-study-160", "invert-dual-160", "paper-tables")
