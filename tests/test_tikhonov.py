"""Regularized solves against the stacked least-squares and normal-equations
oracles, the shared factorization, SVD diagnostics."""

import dataclasses
import os
import re
import subprocess
import sys
import traceback
import warnings
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import waveforce as wf
from test_inverse import fabricated_system
from waveforce import tikhonov

# Largest max|f - f_oracle| / max|f_oracle| of the LU route (lu_route,
# the factored solve before the eigenbasis) against stacked_lstsq over
# scenarios 1-5 at M = N = 40 and 80, orders 0-2, with noise-free and
# 1%-noise data: 4.1e-10 over the extended weight grid (scenario 5, order
# 2, lambda = 1e-9, M = 80, noise-free) and 2.5e-7 at lambda = 1e-14
# (scenario 4, order 0, M = 40, noise-free), where the normal equations'
# squared conditioning shows.
# The tolerances leave a factor of about 2.5-4 to that route; the
# standard form reads 3.0e-12 and 3.7e-10 on the same cells up to M = 160
# (test_factored_solve_matches_stacked_lstsq prints its figures).
ORACLE_GRID_TOL = 1e-9
ORACLE_TINY_LAMBDA_TOL = 1e-6

# Largest relative gap of a sweep's closed-form norms to the norms of the
# refined oracle's solutions (refined_sweep) on the extended grid, over
# scenarios 1-5 with noise-free and 1%-noise data, orders 0-2: 1.7e-11 at
# M = N = 40, 6.6e-12 at 80, 8.2e-12 at 160, 2.4e-10 at 320 (scenario 5,
# order 2, the noise-free residual at lambda = 1e-9) and 2.2e-10 at 640,
# where the tests do not reach. Against the norms of the public solve's own
# solutions (test_lcurve's per_weight_sweep) it reads 5.9e-10 at M = 40
# (scenario 2, order 0, the noise-free residual at lambda = 1e-9). Both
# are the rounding of a residual A f - b formed from a solution, largest
# where the residual is small against b. The unrefined eigenbasis filter
# that preceded the closed forms read 1.2e-7 at M = 160, 2.4e-6 at 320 and
# 3.2e-5 at 640.
SWEEP_NORM_TOL = 2e-9


def penalty(order, m, components=1):
    """Dense D_k, block-diagonal over the components."""
    D = wf.difference_operator(order, m)
    if components == 2:
        Z = np.zeros_like(D)
        D = np.block([[D, Z], [Z, D]])
    return D


def normal_equations(A, b, order, lam, components=1):
    """Independent oracle: (A^T A + lam D^T D)^-1 A^T b, dense solve."""
    D = penalty(order, A.shape[1] // components, components)
    return np.linalg.solve(A.T @ A + lam * (D.T @ D), A.T @ b)


def stacked_lstsq(A, b, order, lam, components=1):
    """Oracle: least squares on [A; sqrt(lam) D_k] f = [b; 0], one stable
    factorization of the stacked matrix per weight."""
    D = penalty(order, A.shape[1] // components, components)
    return np.linalg.lstsq(np.vstack([A, np.sqrt(lam) * D]),
                           np.concatenate([b, np.zeros(D.shape[0])]), rcond=None)[0]


def lu_route(A, b, order, lambdas, components=1):
    """Oracle: the factored solve before the eigenbasis. The Cholesky
    factor L of K = A^T A + mu^2 D^T D whitens the system; each weight then
    takes one LU solve of (G + (lambda / mu^2) H) y = L^-1 A^T b, with
    G = (L^-1 A^T)(L^-1 A^T)^T, H = mu^2 (L^-1 D^T)(L^-1 D^T)^T and
    f = L^-T y. The whole system is solved, split or not."""
    D = penalty(order, A.shape[1] // components, components)
    mu2 = np.vdot(A, A) / np.vdot(D, D)
    Linv = np.linalg.inv(np.linalg.cholesky(A.T @ A + mu2 * (D.T @ D)))
    Z, Y = Linv @ A.T, Linv @ D.T
    G, H = Z @ Z.T, mu2 * (Y @ Y.T)
    rhs = Linv @ (A.T @ b)
    return [Linv.T @ np.linalg.solve(G + lam / mu2 * H, rhs) for lam in lambdas]


def refined_eigenbasis(A, order, components=1):
    """Oracle: the solve the standard form replaced, on the whole system;
    returns solve(b, lambda). The Cholesky factors L of K = A^T A + mu^2 D^T D
    and C of the whitened L^-1 K L^-T as computed, and eigh of the
    re-whitened gram, give X with X^T A^T A X = diag(g) and
    mu^2 X^T D^T D X = I - diag(g); each weight is the diagonal filter
    s = g + (lambda / mu^2)(1 - g) plus one step of iterative refinement on
    the normal equations."""
    D = penalty(order, A.shape[1] // components, components)
    mu2 = np.vdot(A, A) / np.vdot(D, D)
    Linv = np.linalg.inv(np.linalg.cholesky(A.T @ A + mu2 * (D.T @ D)))
    Z, Y = Linv @ A.T, Linv @ D.T
    G = Z @ Z.T
    Cinv = np.linalg.inv(np.linalg.cholesky(G + mu2 * (Y @ Y.T)))
    g, Q = np.linalg.eigh(Cinv @ G @ Cinv.T)
    X, g = Linv.T @ Cinv.T @ Q, np.clip(g, 0.0, 1.0)

    def solve(b, lam):
        s = g + lam / mu2 * (1.0 - g)
        f = X @ ((X.T @ (A.T @ b)) / s)
        r = A.T @ (b - A @ f) - lam * (D.T @ (D @ f))
        return f + X @ ((X.T @ r) / s)

    return solve


def unsplit(system, order, monkeypatch):
    """A copy of a dual system holding the factors of `order` of A whole,
    as every system without the mirror relation has them: the oracle of the
    mirror split. Its with_measurement copies share them."""
    copy = dataclasses.replace(system)  # a copy without factors
    with monkeypatch.context() as patch:
        patch.setattr(tikhonov, "_has_mirror", lambda A, components: False)
        tikhonov._factors([copy], order)
    assert split(copy._factors[order], order) == (0,)
    return copy


def split(factors, order):
    """The mirror split's parities tau, read from each part's sigma =
    (-1)^k tau: (1, -1) for a system factored in halves, (0,) for one
    factored whole."""
    return tuple((-1) ** order * part[0] for part in factors.parts)


def test_difference_operator_forms():
    assert np.array_equal(wf.difference_operator(0, 3), np.eye(3))
    assert np.array_equal(wf.difference_operator(1, 3),
                          [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    D2 = wf.difference_operator(2, 4)
    assert D2.shape == (2, 4)
    assert np.array_equal(D2[0], [1.0, -2.0, 1.0, 0.0])
    # first differences kill constants, second differences kill affine maps
    assert not np.any(wf.difference_operator(1, 6) @ np.full(6, 3.7))
    x = np.linspace(0, 1, 6)
    assert np.max(np.abs(wf.difference_operator(2, 6) @ (2.0 + 5.0 * x))) <= 1e-12
    # no entry is -0.0
    for order in (0, 1, 2):
        for m in (order + 1, 5):
            D = wf.difference_operator(order, m)
            assert not np.any(np.signbit(D[D == 0]))


def test_difference_operator_needs_enough_nodes():
    for order, m in ((0, 0), (1, 1), (2, 2)):
        with pytest.raises(wf.InvalidDimension):
            wf.difference_operator(order, m)
    for order, m in ((3, 10), (True, 3), (1, 3.5)):
        with pytest.raises(wf.InvalidDimension):
            wf.difference_operator(order, m)


def test_config_validation():
    with pytest.raises(wf.InvalidDimension):
        wf.RegConfig(order=3, lam=0.1)
    with pytest.raises(wf.InvalidDimension):
        wf.RegConfig(order=0, lam=-1e-9)
    # the rule is stated whole: a non-finite weight is not "below 0"
    for lam in ("inf", "nan"):
        with pytest.raises(wf.InvalidDimension, match=f"^lambda must be finite and >= 0, got {lam}$"):
            wf.RegConfig(lam=float(lam))
    for order in (True, 1.5, "1"):
        with pytest.raises(wf.InvalidDimension):
            wf.RegConfig(order=order)
    # an int too long for Python to print is refused without printing it
    with pytest.raises(wf.InvalidDimension, match="^lambda lies beyond the range of the doubles$"):
        wf.RegConfig(0, 10**5000)
    # an integral float is stored as the int it names
    assert type(wf.RegConfig(order=1.0).order) is int


def test_identity_system_closed_form():
    # A = I, k = 0: minimizer is b / (1 + lam)
    b = np.array([3.0, -1.0, 2.0])
    sys_ = fabricated_system(np.eye(3), b)
    for lam in (0.0, 1e-3, 0.5, 2.0):
        got = wf.tikhonov_solve(sys_, wf.RegConfig(order=0, lam=lam)).values
        assert np.max(np.abs(got - b / (1.0 + lam))) <= 1e-12


def test_matches_normal_equations_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(5, 12))
        m = int(rng.integers(3, n + 1))
        A = rng.normal(size=(n, m))
        b = rng.normal(size=n)
        order = int(rng.integers(0, 3))
        lam = float(10.0 ** rng.uniform(-8, 0))
        got = wf.tikhonov_solve(fabricated_system(A, b),
                                wf.RegConfig(order=order, lam=lam)).values
        want = normal_equations(A, b, order, lam)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_factored_solve_matches_stacked_lstsq(bench):
    # the standard form against stacked_lstsq and against the LU route,
    # within the oracle tolerances at M = 40 and 80; at M = 160, where the
    # LU route itself exceeds ORACLE_GRID_TOL (1.2e-8 at scenario 4, order
    # 2, lambda = 0.5), no worse than it
    worst = {}  # (M, route, tolerance) -> largest gap to stacked_lstsq
    for example in (1, 2, 3, 4, 5):
        for m in (40, 80, 160):
            a = bench(example, m)
            series = (a.measured,) if a.measured_right is None else (a.measured, a.measured_right)
            for noise in (None, wf.NoiseSpec(0.01, 1)):
                s = a.system.with_measurement(*series, noise=noise)
                for order in (0, 1, 2):
                    lams = [*wf.EXTENDED_LAMBDA_GRID, 1e-14]
                    for lam, lu in zip(lams, lu_route(s.A, s.b, order, lams, s.components)):
                        got = wf.tikhonov_solve(s, wf.RegConfig(order=order, lam=lam)).values
                        want = stacked_lstsq(s.A, s.b, order, lam, s.components)
                        tol = ORACLE_TINY_LAMBDA_TOL if lam == 1e-14 else ORACLE_GRID_TOL
                        for route, f in (("standard form", got), ("lu", lu)):
                            rel = np.max(np.abs(f - want)) / np.max(np.abs(want))
                            worst[m, route, tol] = max(worst.get((m, route, tol), 0.0), rel)
                        if m < 160:
                            assert np.max(np.abs(got - lu)) <= tol * np.max(np.abs(lu))
                    # scenario 5 takes the mirror split
                    assert split(s._factors[order], order) == ((1, -1) if example == 5 else (0,))
    for key in sorted(worst):
        print(f"vs stacked lstsq, M = {key[0]}, {key[1]} route, tolerance {key[2]:g}: "
              f"{worst[key]:.2e}")
    for (m, route, tol), w in worst.items():
        if route == "standard form":
            assert w <= tol and w <= worst[m, "lu", tol]


def test_one_factorization_per_system_and_order(bench, monkeypatch):
    # per (system, order), one QR of A W, the condition number of its R_T
    # and R_T's inverse (k x k per component), and one thin SVD per part
    calls = []
    for name in ("qr", "cond", "svd", "inv"):
        routine = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda X, *args, routine=routine, name=name, **kw:
                            calls.append((name, X.shape)) or routine(X, *args, **kw))
    a = bench(2, 40)
    system = dataclasses.replace(a.system)  # a copy without factors
    noisy = system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, 1))
    lam = wf.corner(wf.sweep(noisy, 2)).lam
    f = wf.tikhonov_solve(noisy, wf.RegConfig(order=2, lam=lam))
    # m = 39 nodes, 37 second differences
    assert calls == [("qr", (1, 40, 2)), ("cond", (1, 2, 2)), ("inv", (1, 2, 2)), ("svd", (1, 40, 37))]
    # a new draw shares A, so it shares the factors
    draw = system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, 2))
    g = wf.tikhonov_solve(draw, wf.RegConfig(order=2, lam=lam))
    wf.sweep(draw, 2)
    assert len(calls) == 4
    for s, sol in ((noisy, f), (draw, g)):
        want = stacked_lstsq(s.A, s.b, 2, lam)
        assert np.max(np.abs(sol.values - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))
    # another order factors again, and lambda = 0 never factors
    wf.sweep(draw, 1)
    wf.tikhonov_solve(noisy, wf.RegConfig(order=1, lam=1e-4))
    wf.tikhonov_solve(noisy, wf.RegConfig())
    assert calls[4:] == [("qr", (1, 40, 1)), ("cond", (1, 1, 1)), ("inv", (1, 1, 1)), ("svd", (1, 40, 38))]
    # each order keeps its factors: going back to order 2 factors nothing
    wf.sweep(draw, 2)
    wf.tikhonov_solve(noisy, wf.RegConfig(order=1, lam=1e-3))
    assert len(calls) == 8
    assert sorted(noisy._factors) == [1, 2]
    # a mirrored dual system factors its even and odd halves once per
    # order, each from its left rows and about half the differences, and
    # its draws share them
    calls.clear()
    d = bench(5, 40)
    dual = dataclasses.replace(d.system)
    noisy = dual.with_measurement(d.measured, d.measured_right, noise=wf.NoiseSpec(0.01, 1))
    lam = wf.corner(wf.sweep(noisy, 2)).lam
    wf.tikhonov_solve(noisy, wf.RegConfig(order=2, lam=lam))
    # 37 second differences per profile: 19 even and 18 odd
    assert calls == [("qr", (1, 80, 4)), ("cond", (1, 4, 4)), ("inv", (1, 4, 4)),
                     ("svd", (1, 40, 38)), ("svd", (1, 40, 36))]
    draw = dual.with_measurement(d.measured, d.measured_right, noise=wf.NoiseSpec(0.01, 2))
    wf.tikhonov_solve(draw, wf.RegConfig(order=2, lam=lam))
    wf.sweep(draw, 2)
    assert len(calls) == 5
    wf.sweep(draw, 1)
    assert len(calls) == 10


# Peak memory of sweep(system, 2) on a 1%-noise draw, in units of one
# m x m array (8 m^2 bytes), m the columns of A: readings 4.00 at scenario
# 2, M = 320 (m = 319), 4.00 at M = 640 and 2.38 at the dual scenario 5,
# M = 160 (m = 318, its SVD taken as two halves): U, V^T, D_k^+ and
# D_k^+ V alive together. Without the build's `del Abar` before it forms
# D_k^+ V the whole system reads 5.00 and breaks its bound (the halves read
# 2.88). The SVD's own workspace is LAPACK's, which tracemalloc does not
# see.
@pytest.mark.parametrize("example, M, bound", [(2, 320, 4.75), (2, 640, 4.75), (5, 160, 3.8)])
def test_build_memory_is_bounded(bench, example, M, bound):
    a = bench(example, M)
    series = (a.measured,) if a.measured_right is None else (a.measured, a.measured_right)
    system = dataclasses.replace(a.system)  # a copy without factors
    noisy = system.with_measurement(*series, noise=wf.NoiseSpec(0.01, 1))
    tracemalloc.start()
    try:
        wf.sweep(noisy, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = system.A.shape[1]
    print(f"scenario {example}, M = {M}: peak {peak / (8 * columns ** 2):.2f} m^2")
    assert peak <= bound * 8 * columns ** 2


# Growth of the process's peak resident set over one `invert` run in a
# fresh interpreter, past its reading after the import: what tracemalloc
# misses, the LAPACK workspace of the SVDs and the BLAS buffers included.
# The peak is VmHWM, that of the process's own memory map: ru_maxrss keeps
# the forking process's peak across exec, so under a large test runner it
# would not move. It read 11.9-12.1 MB (about 14.8 m x m arrays, m = 319)
# with numpy 2.4 and OpenBLAS on x86-64 Linux.
RSS_GROWTH_BOUND_MB = 14.0
_RSS_PROBE = """
import sys, tempfile
import waveforce.cli

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak_kb()
with tempfile.TemporaryDirectory() as out:
    status = waveforce.cli.main(sys.argv[1:] + ["--out", out])
print(status, peak_kb() - before)
"""


def test_run_memory_is_bounded():
    argv = ["invert", "--example", "2", "--M", "320", "--reg-order", "2", "--lambda", "lcurve"]
    src = str(Path(wf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = subprocess.run([sys.executable, "-c", _RSS_PROBE, *argv], env=env,
                           capture_output=True, text=True, check=True)
    status, growth_kb = map(int, probe.stdout.split())
    print(f"peak resident set growth {growth_kb / 1024:.2f} MB")
    assert status == 0
    assert growth_kb / 1024 <= RSS_GROWTH_BOUND_MB


def refined_points(sys, order, lambdas, solutions):
    """The L-curve points of refined solutions, one per weight, with the
    norms taken by np.linalg.norm and np.diff: the oracle of sweep."""
    return [wf.LCurvePoint(float(lam), float(np.linalg.norm(sys.A @ f - sys.b)),
                           float(np.linalg.norm(np.diff(f.reshape(sys.components, -1), n=order))))
            for lam, f in zip(lambdas, solutions)]


def norm_gap(points, oracle):
    """The largest relative gap of either norm between two sweeps of the
    same weights."""
    assert [p.lam for p in points] == [q.lam for q in oracle]
    return max(max(abs(p.residual_norm - q.residual_norm) / q.residual_norm,
                   abs(p.solution_norm - q.solution_norm) / q.solution_norm)
               for p, q in zip(points, oracle))


def refined_sweep(sys, order, lambdas, solve=None):
    """The oracle of sweep: the points of refined_eigenbasis's solutions,
    by solve, a refined_eigenbasis of the system's A, built here when not
    given."""
    solve = solve or refined_eigenbasis(sys.A, order, sys.components)
    return refined_points(sys, order, lambdas, [solve(sys.b, lam) for lam in lambdas])


def test_sweep_norms_match_the_refined_oracle(bench):
    # the sweep's closed-form norms against the refined oracle's within
    # SWEEP_NORM_TOL on the extended grid, noise-free and 1% noise, orders
    # 0-2: scenarios 1-5 at M = 40, scenario 2 at M = 80, scenarios 4 (the
    # noise study's) and 5 at M = 160, and scenarios 2, 4 and 5 at M = 320
    cells = [(example, 40) for example in (1, 2, 3, 4, 5)] + [(2, 80), (4, 160), (5, 160)]
    cells += [(2, 320), (4, 320), (5, 320)]
    worst = {}
    for example, m in cells:
        a = bench(example, m)
        series = (a.measured,) if a.measured_right is None else (a.measured, a.measured_right)
        for noise in (None, wf.NoiseSpec(0.01, 1)):
            s = a.system.with_measurement(*series, noise=noise)
            for order in (0, 1, 2):
                oracle = refined_sweep(s, order, wf.EXTENDED_LAMBDA_GRID)
                gap = norm_gap(wf.sweep(s, order, wf.EXTENDED_LAMBDA_GRID), oracle)
                worst[m] = max(worst.get(m, 0.0), gap)
    print("sweep norms vs the refined oracle: "
          + ", ".join(f"M = {m} {w:.2e}" for m, w in sorted(worst.items())))
    assert max(worst.values()) <= SWEEP_NORM_TOL


def test_spectrum_splits_the_data_by_range():
    # on a grid of more time steps than nodes (M = 20, N = 30), where A
    # has rows outside its range and the factors cut no mode, a 1%-noise
    # draw of scenario 2 and of the mirrored dual scenario 5 at orders 0-2:
    # the part of the data outside range(Abar), the squared residual norm
    # of norms at lambda = 1e-300 (where the weight's own part underflows),
    # is the least-squares residual ||A lstsq(A, b) - b||^2, since
    # range(A) = range(Q_T) + range(Abar), and each beta is U^T times its
    # part's fold of bbar = (I - Q_T Q_T^T) b, which spectrum returns with
    # it. Measured: 1.5e-10 relative for the outside part (1.7e-10 over
    # seeds 1-10), 1.5e-14 for beta and 4.9e-14 for the folded data. Where
    # the factors cut modes (scenario 2 at M = 40, N = 60 cuts one) the
    # data along those modes is outside too, and lstsq fits it
    grid = wf.GridSpec(1.0, 1.0, 20, 30, 1.0)
    worst = [0.0, 0.0, 0.0]
    for example, assemble in ((2, wf.assemble_single), (5, wf.assemble_dual)):
        problem = wf.inverse_problem(example, grid)
        series = [wf.measured_flux(example, grid, end) for end in (wf.LEFT, wf.RIGHT)]
        system = assemble(problem, *series[:problem.source.unknowns], wf.NoiseSpec(0.01, 1))
        A, b = system.A, system.b
        r = A @ np.linalg.lstsq(A, b, rcond=None)[0] - b
        for order in (0, 1, 2):
            factors, = tikhonov._factors([system], order)
            assert sum(s.size for _, _, s, _ in factors.parts) == A.shape[1] - order * system.components
            outside = factors.norms(b, np.array([1e-300]))[0][0] ** 2
            worst[0] = max(worst[0], abs(outside - r @ r) / (r @ r))
            bbar = (np.eye(b.size) - factors.Q @ factors.Q.T) @ b
            h = b.size // 2
            for (sigma, Ut, _, _), beta, x in zip(factors.parts, *factors.spectrum(b)):
                fold = (bbar[:h] + sigma * bbar[h:]) / np.sqrt(2) if sigma else bbar
                worst[2] = max(worst[2], np.max(np.abs(x - fold)) / np.max(np.abs(fold)))
                want = Ut @ fold
                worst[1] = max(worst[1], np.max(np.abs(beta - want)) / np.max(np.abs(want)))
    print(f"spectrum: outside {worst[0]:.2e}, beta {worst[1]:.2e}, data {worst[2]:.2e}")
    assert worst[0] <= 1e-9 and worst[1] <= 1e-13 and worst[2] <= 1e-13


def test_fold_is_orthonormal():
    from waveforce.tikhonov import _fold
    rng = np.random.default_rng(3)
    # the whole system's part is the identity: no copy, no arithmetic
    X = rng.normal(size=(3, 10))
    assert _fold(X, 0, 2) is X
    for m in (4, 5):
        # the parity bases, m - m // 2 even columns and m // 2 odd ones
        even, odd = (_fold(np.eye(m), parity, 1) for parity in (1, -1))
        assert even.shape == (m, m - m // 2) and odd.shape == (m, m // 2)
        for V in (even, odd):
            assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 1e-15
        # the halves are orthogonal and together span every profile
        assert np.max(np.abs(even.T @ odd)) <= 1e-15
        assert np.max(np.abs(even @ even.T + odd @ odd.T - np.eye(m))) <= 1e-15
        # each m-long block folds on its own, by its parity's basis
        X = rng.normal(size=(3, 2 * m))
        for parity, V in ((1, even), (-1, odd)):
            want = np.hstack([X[:, :m] @ V, X[:, m:] @ V])
            assert np.max(np.abs(_fold(X, parity, 2) - want)) <= 1e-15
        # an even block has no odd part
        profile = np.concatenate([np.arange(m) * (m - 1 - np.arange(m)), np.ones(m)])
        assert not np.any(_fold(profile, -1, 2))


def test_null_basis_and_pseudo_inverse():
    # W is an orthonormal basis of D_k's null space and D_k^+ D_k's
    # pseudo-inverse, block by block: D W = 0, W^T W = I and D D^+ = I to
    # rounding, and D^+ within 5e-12 of max|pinv(D)| of np.linalg.pinv. At
    # m = 319, order 2, two components the readings are 1.4e-17, 3.6e-15,
    # 1.1e-13 and 1.2e-12, where pinv(D) itself misses D pinv(D) = I by
    # 2.6e-13: the gap is pinv's rounding (cond(D_2) is 1.8e4)
    from waveforce.tikhonov import _block_product, _null_basis, _pseudo_inverse
    for order in (1, 2):
        for m in (order + 1, 7, 319):
            for components in (1, 2):
                D = penalty(order, m, components)
                W = _null_basis(order, m)
                Dp = _block_product(np.eye(components * m), _pseudo_inverse(W, order, m), components)
                W = _block_product(np.eye(components * m), W, components)
                assert W.shape == (components * m, components * order)
                assert Dp.shape == (components * m, components * (m - order))
                assert np.max(np.abs(D @ W)) <= 1e-14
                assert np.max(np.abs(W.T @ W - np.eye(W.shape[1]))) <= 1e-14
                assert np.max(np.abs(D @ Dp - np.eye(D.shape[0]))) <= 1e-12
                pinv = np.linalg.pinv(D)
                assert np.max(np.abs(Dp - pinv)) <= 5e-12 * np.max(np.abs(pinv))


def mirrored(n, m, odd_scale):
    """A dual [L; L J] with the mirror relation, n rows and m nodes per
    profile in L, whose rows' odd parts are odd_scale times their even ones."""
    L = np.random.default_rng(0).normal(size=(n, 2, m))
    L = (L + L[..., ::-1]) + odd_scale * (L - L[..., ::-1])
    return np.vstack([L, L[..., ::-1]]).reshape(2 * n, 2 * m)


def svd_ratio(A):
    """Oracle: the largest over the smallest singular value of one SVD of A."""
    sv = np.linalg.svd(A, compute_uv=False)
    return sv.max() / sv.min()


def test_mirror_split_condition_number(bench):
    # a mirrored dual takes its singular values from the two halves
    for m in (40, 80):
        s = bench(5, m).system
        assert tikhonov._has_mirror(s.A, 2)
        want = svd_ratio(s.A)
        assert abs(wf.condition_number(s.A) - want) <= 1e-12 * want
    # the odd half holds the smallest singular values and the even half the
    # largest: both halves count
    A = mirrored(8, 3, 0.1)
    assert tikhonov._has_mirror(A, 2)
    assert abs(wf.condition_number(A) - svd_ratio(A)) <= 1e-12 * svd_ratio(A)
    # any other system takes the SVD of A itself
    s = bench(2, 40).system
    assert not tikhonov._has_mirror(s.A, 2) and wf.condition_number(s.A) == svd_ratio(s.A)


# Largest |cond - svd_ratio| / svd_ratio of the QR route, in units of
# eps * cond, over scenarios 2-4 at M = N = 160 and 320: 0.021 (scenario 4,
# M = 320, cond 3.3e9); 0.11 at M = 640. Both methods resolve the smallest
# singular value only to about eps * cond, so that is the scale of the
# tolerance.
QR_ROUTE_TOL = 1.0


def assert_qr_route(A):
    """condition_number(A) came from the QR route, within QR_ROUTE_TOL eps
    cond of the SVD's ratio."""
    got, want = wf.condition_number(A), svd_ratio(A)
    assert got == tikhonov._qr_ratio(A)
    assert abs(got - want) <= QR_ROUTE_TOL * np.finfo(float).eps * want * want


def test_qr_route_matches_the_svd(bench):
    eps = np.finfo(float).eps
    for example in (2, 3, 4):
        # below the threshold the SVD answers, above it the route
        A = bench(example, 160).system.A
        assert A.shape[1] < tikhonov._QR_ROUTE_MIN and wf.condition_number(A) == svd_ratio(A)
        assert abs(tikhonov._qr_ratio(A) - svd_ratio(A)) <= QR_ROUTE_TOL * eps * svd_ratio(A) ** 2
        A = bench(example, 320).system.A
        assert A.shape[1] >= tikhonov._QR_ROUTE_MIN and not tikhonov._has_mirror(A, 2)
        assert_qr_route(A)


def test_qr_route_is_deterministic(bench):
    # the start block comes from a private generator of a fixed seed
    A = bench(2, 320).system.A
    before = np.random.get_state()
    first, second = wf.condition_number(A), wf.condition_number(A)
    after = np.random.get_state()
    assert first == second
    assert before[0] == after[0] and np.array_equal(before[1], after[1]) and before[2:] == after[2:]


def clustered(rows, singular_values, seed=0):
    """A rows x len(singular_values) matrix of the given singular values,
    with random orthonormal singular vectors."""
    rng = np.random.default_rng(seed)
    n = len(singular_values)
    U = np.linalg.qr(rng.normal(size=(rows, n)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return (U * singular_values) @ V.T


def test_qr_route_falls_back_on_a_clustered_sigma_min(bench):
    # scenario 5's six smallest singular values lie within 0.12% of sigma_min
    # at M = 160: the route would not converge on the whole system, so a
    # mirrored dual keeps the split SVD
    A = bench(5, 160).system.A
    assert tikhonov._has_mirror(A, 2) and tikhonov._qr_ratio(A) is None
    assert abs(wf.condition_number(A) - svd_ratio(A)) <= 1e-12 * svd_ratio(A)
    # ten smallest singular values within 0.1% of each other in a whole
    # system: the iteration on R^-1 cannot separate sigma_min within the
    # cap, and the SVD answers
    n = tikhonov._QR_ROUTE_MIN + 10
    sv = np.geomspace(1.0, 1e-3, n)
    sv[0] = 4.0  # sigma_max stands alone
    sv[-10:] = 1e-3 * (1.0 + 1e-4 * np.arange(10))
    A = clustered(n + 20, sv)
    R = np.linalg.qr(A, mode="r")
    start = np.random.default_rng(0).standard_normal((n, tikhonov._ITERATION_BLOCK))
    assert tikhonov._largest_singular_value(R, start) is not None
    assert tikhonov._largest_singular_value(tikhonov._upper_inverse(R), start) is None
    assert tikhonov._qr_ratio(A) is None
    assert wf.condition_number(A) == svd_ratio(A)
    # spread out, the same smallest values are separated and the route answers
    sv[-10:] = 1e-3 * 1.5 ** np.arange(10)
    assert_qr_route(clustered(n + 20, np.sort(sv)[::-1]))


def test_qr_route_keeps_the_svd_verdicts():
    # above the threshold, an exactly singular matrix still reads inf, an
    # all-zero one raises ZeroMatrix, and one with two equal columns (R's
    # diagonal spans 1 / eps) reads the SVD's rounding-level ratio
    n = tikhonov._QR_ROUTE_MIN
    A = np.eye(n + 10)[:, :n]
    A[:, 7] = 0.0
    assert wf.condition_number(A) == np.inf
    with pytest.raises(wf.ZeroMatrix):
        wf.condition_number(np.zeros((n + 10, n)))
    B = np.random.default_rng(1).normal(size=(n + 10, n))
    B[:, 5] = B[:, 9]
    assert tikhonov._qr_ratio(B) is None and wf.condition_number(B) == svd_ratio(B) > 1e15
    # a wide matrix, whose R would not be square, takes the SVD
    assert wf.condition_number(B.T) == svd_ratio(B.T)


def test_the_upper_inverse_by_halves():
    R = np.triu(np.random.default_rng(2).normal(size=(150, 150))) + 20.0 * np.eye(150)
    X = tikhonov._upper_inverse(R)
    assert not np.tril(X, -1).any()
    assert np.max(np.abs(X @ R - np.eye(150))) <= 1e-13


def null_space_cond(A, order, components=1):
    """Oracle of the rank rule: cond(A W), W an orthonormal basis of the
    null space of the block penalty D_k from one SVD of D_k."""
    D = penalty(order, A.shape[1] // components, components)
    return svd_ratio(A @ np.linalg.svd(D)[2][D.shape[0]:].T)


def test_rank_rule_counts_both_halves():
    # an odd half that order 2 leaves nearly singular (D_2 has an odd null
    # vector, the linear profile) and a well-conditioned even half: the
    # rule reads cond(A W) over the null vectors of both parities (1.99e4
    # and 1.99e7 here), so the split system fails it where the even half
    # would pass
    for odd_scale, fails in ((1e-4, False), (1e-7, True)):
        A = mirrored(12, 5, odd_scale)
        cond = null_space_cond(A, 2, 2)
        assert tikhonov._has_mirror(A, 2) and (cond >= tikhonov.COND_LIMIT) == fails
        system = wf.InverseSystem(A, np.ones(24), wf.GridSpec(1.0, 1.0, 6, 12), (np.zeros(12),) * 2,
                                  wf.Source((np.ones((7, 13)),) * 2))
        if fails:
            with pytest.raises(wf.SingularSystem):
                wf.tikhonov_solve(system, wf.RegConfig(2, 1e-3))
        else:
            wf.tikhonov_solve(system, wf.RegConfig(2, 1e-3))
            assert split(system._factors[2], 2) == (1, -1)


def test_split_with_one_difference_per_profile(bench, tmp_path):
    # profiles of k + 1 nodes have one difference each, so the odd half has
    # no column and no singular value; the split still solves and sweeps
    from waveforce.cli import main
    for M, order in ((3, 1), (4, 2)):
        s = bench(5, M).system
        for lam in (1e-8, 1e-3, 0.5):
            got = wf.tikhonov_solve(s, wf.RegConfig(order=order, lam=lam)).values
            want = stacked_lstsq(s.A, s.b, order, lam, 2)
            assert np.max(np.abs(got - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))
        assert split(s._factors[order], order) == (1, -1)
        points = wf.sweep(s, order)
        assert len(points) == 18
        assert np.all(np.isfinite([(p.residual_norm, p.solution_norm) for p in points]))
        assert main(["invert", "--example", "5", "--M", str(M), "--reg-order", str(order),
                     "--lambda", "1e-3", "--out", str(tmp_path / f"M{M}")]) == 0


def test_folded_product_gives_orthonormal_singular_vectors(bench):
    # D_k (D_k^+ V_tau Vt^T) = V_tau Vt^T: the rows of DVt D_k^T are each
    # half's right singular vectors in difference coordinates, orthonormal
    # within a half and orthogonal across the halves
    s = bench(5, 40).system
    for order in (1, 2):
        D = penalty(order, s.A.shape[1] // 2, 2)
        even, odd = (DVt @ D.T for _, _, _, DVt in tikhonov._factors([s], order)[0].parts)
        for V in (even, odd):
            assert np.max(np.abs(V @ V.T - np.eye(V.shape[0]))) <= 1e-13
        assert np.max(np.abs(even @ odd.T)) <= 1e-13


def test_off_mirror_dual_falls_back_to_the_whole_system(bench):
    # one entry of the second modulation moved off its mirror image: A
    # loses the mirror relation and is factored whole, within the oracle
    a = bench(5, 40)
    problem = wf.inverse_problem(5, a.grid)
    h, theta = problem.source.modulations
    theta = theta.copy()
    theta[5, 7] += 1e-3
    off = wf.WaveProblem(a.grid, problem.initial, problem.boundary, wf.Source((h, theta)))
    s = wf.assemble_dual(off, a.measured, a.measured_right, noise=wf.NoiseSpec(0.01, 1))
    assert not tikhonov._has_mirror(s.A, 2)
    for order in (0, 1, 2):
        for lam in (1e-8, 1e-5, 1e-2):
            got = wf.tikhonov_solve(s, wf.RegConfig(order=order, lam=lam)).values
            want = stacked_lstsq(s.A, s.b, order, lam, 2)
            assert np.max(np.abs(got - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))
    assert all(split(s._factors[order], order) == (0,) for order in (0, 1, 2))


def test_other_A_never_reuses_factors(bench):
    a = bench(2, 40)
    first = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, 1))
    cfg = wf.RegConfig(order=1, lam=1e-4)
    wf.tikhonov_solve(first, cfg)
    tilted = first.A * np.linspace(1.0, 2.0, first.A.shape[1])
    for other in (dataclasses.replace(first, A=tilted), fabricated_system(tilted, first.b)):
        got = wf.tikhonov_solve(other, cfg).values
        want = stacked_lstsq(tilted, first.b, 1, 1e-4)
        assert np.max(np.abs(got - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))
    # and the first system still solves with its own factors
    got = wf.tikhonov_solve(first, cfg).values
    want = stacked_lstsq(first.A, first.b, 1, 1e-4)
    assert np.max(np.abs(got - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))


def test_near_degenerate_stack_raises():
    # A = ones(5, 3) annihilates the null vector (-1, 0, 1) of D_2; tilting
    # one entry by eps leaves cond(A W) about 6.1 / eps
    cfg = wf.RegConfig(order=2, lam=1e-3)
    for eps, cond_limit_hit in ((1e-5, False), (3e-6, True), (1e-7, True)):
        A = np.ones((5, 3))
        A[0, 2] += eps
        assert (null_space_cond(A, 2) >= tikhonov.COND_LIMIT) == cond_limit_hit
        s = fabricated_system(A, np.ones(5))
        if cond_limit_hit:
            with pytest.raises(wf.SingularSystem, match="condition number") as solved:
                wf.tikhonov_solve(s, cfg)
            with pytest.raises(wf.SingularSystem, match=f"^{re.escape(str(solved.value))}$"):
                wf.sweep(s, 2)
        else:
            assert np.all(np.isfinite(wf.tikhonov_solve(s, cfg).values))
    # an exactly annihilated null vector: A W has a zero column; and one
    # row, so that A W (1 x 2) has fewer rows than columns
    for A in (np.ones((5, 3)), np.arange(1.0, 6.0)[None, :]):
        with pytest.raises(wf.SingularSystem, match="condition number inf"):
            wf.tikhonov_solve(fabricated_system(A, np.ones(A.shape[0])), cfg)


def test_standard_form_near_the_rank_limit():
    # The tilted ones(5, 3) of test_near_degenerate_stack_raises at eps =
    # 1e-5 sits just under COND_LIMIT (cond(A W) about 6.1e5), scaled by
    # 1e-3 and 1e-5. A has rank 2 there, so A W spans its range and Abar is
    # rounding. The factors stay orthonormal to rounding (U^T U - I,
    # Q_T^T Q_T - I and V^T V - I, with V = D_k (D_k^+ V), read at most
    # 6.7e-16), and Abar V = U S holds to 6.4e-18 of ||A||.
    lams = 10.0 ** np.arange(-9, 2)
    D = wf.difference_operator(2, 3)
    for scale in (1e-3, 1e-5):
        A = np.ones((5, 3))
        A[0, 2] += 1e-5
        A *= scale
        s = fabricated_system(A, np.arange(1.0, 6.0))
        factors, = tikhonov._factors([s], 2)
        (_, Ut, sv, DVt), = factors.parts
        Q, V = factors.Q, D @ DVt.T
        for X in (Ut.T, Q, V):
            assert np.max(np.abs(X.T @ X - np.eye(X.shape[1]))) <= 1e-14
        AV = A @ DVt.T
        assert np.max(np.abs(AV - Q @ (Q.T @ AV) - Ut.T * sv)) <= 1e-15 * np.linalg.norm(A, 2)
        # the solutions stay as close to stacked_lstsq as the LU route's
        # (4.7e-8 and 4.0e-6 for both: the oracle's own error at this
        # conditioning)
        gaps = {"standard form": 0.0, "lu": 0.0}
        for lam, lu in zip(lams, lu_route(A, s.b, 2, lams)):
            want = stacked_lstsq(A, s.b, 2, lam)
            got = wf.tikhonov_solve(s, wf.RegConfig(order=2, lam=lam)).values
            for route, f in (("standard form", got), ("lu", lu)):
                gaps[route] = max(gaps[route], np.max(np.abs(f - want)) / np.max(np.abs(want)))
        assert gaps["standard form"] <= 2.0 * gaps["lu"]


def test_failed_factorization_raises_a_fresh_error(monkeypatch):
    # a failed build stores nothing: each solve tries again, and stops after
    # the QR of A W and the condition number of R_T, before any thin SVD;
    # each raises a new error, so the traceback does not grow call by call
    calls, conds, svds = [], [], []
    qr, cond, svd = np.linalg.qr, np.linalg.cond, np.linalg.svd
    monkeypatch.setattr(np.linalg, "qr", lambda X: calls.append(X.shape) or qr(X))
    monkeypatch.setattr(np.linalg, "cond", lambda X: conds.append(X.shape) or cond(X))
    monkeypatch.setattr(np.linalg, "svd", lambda X, **kw: svds.append(kw) or svd(X, **kw))
    s = fabricated_system(np.ones((5, 3)), np.ones(5))
    cfg = wf.RegConfig(order=2, lam=1e-3)
    errors = []
    for _ in range(100):
        with pytest.raises(wf.SingularSystem) as info:
            wf.tikhonov_solve(s, cfg)
        errors.append(info.value)
    assert calls == [(1, 5, 2)] * 100
    assert conds == [(1, 2, 2)] * 100 and svds == []
    assert s._factors == {}
    assert len({id(e) for e in errors}) == len(errors)
    assert {str(e) for e in errors} == {str(errors[0])}
    depth = [len(traceback.extract_tb(e.__traceback__)) for e in errors]
    assert max(depth) <= depth[0]


def same_factors(f, g):
    """Whether two _Factors hold the same arrays, bit for bit."""
    return (np.array_equal(f.Q, g.Q)
            and np.array_equal(f.WRinv, g.WRinv) and len(f.parts) == len(g.parts)
            and all(p[0] == q[0] and all(np.array_equal(x, y) for x, y in zip(p[1:], q[1:]))
                    for p, q in zip(f.parts, g.parts)))


def test_stacked_build_matches_one_system_builds(bench):
    # scenarios 2-4 at M = 80 at each order, the stacks tables builds: each
    # slot is the build of its system alone, bit for bit, and keeps that
    # system's own A
    systems = [bench(ex, 80).system for ex in (2, 3, 4)]
    for order in (0, 1, 2):
        stack = tikhonov._factor_stack([s.A for s in systems], order, 1)
        for s, built in zip(systems, stack):
            assert built.A is s.A
            assert same_factors(built, tikhonov._factors([dataclasses.replace(s)], order)[0])
    # a mirrored dual and an off-mirror one do not share a split
    A = bench(5, 40).system.A
    B = A.copy()
    B[0, 0] += 1.0
    with pytest.raises(ValueError, match="mirror split"):
        tikhonov._factor_stack([A, B], 2, 2)


def test_stack_slot_failing_the_rank_rule(bench):
    # ones(80, 79) annihilates the linear null vector of D_2: its slot fails
    # the stack with the message it raises alone, and no store is filled;
    # the systems around it then build alone as before
    bad = fabricated_system(np.ones((80, 79)), np.ones(80))
    with pytest.raises(wf.SingularSystem) as alone:
        tikhonov._factors([dataclasses.replace(bad)], 2)
    systems = [dataclasses.replace(bench(ex, 80).system) for ex in (2, 4)]
    with pytest.raises(wf.SingularSystem, match=f"^{re.escape(str(alone.value))}$"):
        tikhonov._factors([systems[0], bad, systems[1]], 2)
    assert all(2 not in s._factors for s in (systems[0], bad, systems[1]))
    with pytest.raises(wf.SingularSystem, match=f"^{re.escape(str(alone.value))}$"):
        wf.tikhonov_solve(bad, wf.RegConfig(order=2, lam=1e-3))
    for s in systems:
        assert same_factors(tikhonov._factors([s], 2)[0], tikhonov._factors([dataclasses.replace(s)], 2)[0])


def test_zero_lambda_equals_plain_lstsq(bench):
    a = bench(1, 20)
    oracle = np.linalg.lstsq(a.system.A, a.system.b, rcond=None)[0]
    via_solve = wf.tikhonov_solve(a.system, wf.RegConfig()).values
    assert np.array_equal(oracle, via_solve)


def test_zero_lambda_rank_deficient_raises():
    A = np.ones((5, 3))
    with pytest.raises(wf.SingularSystem):
        wf.tikhonov_solve(fabricated_system(A, np.ones(5)),
                          wf.RegConfig(order=0, lam=0.0))


def test_zero_lambda_keeps_every_mode_the_rank_rule_accepts():
    # 5,000 rows put lstsq's default cut, eps * rows * sigma_max = 1.1e-12,
    # above RANK_TOL * sigma_max: a solve at that cut drops the weak mode
    # sigma = 1.06e-12, which the rank rule accepts, and returns its
    # coefficient as rounding (-3e-16). The solve keeps it: V^T f is
    # 1 / sigma = 9.43e11 along it, measured 6.4e-7 relative off the
    # whole solution of the exact factors
    rng = np.random.default_rng(7)
    U = np.linalg.qr(rng.standard_normal((5000, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    s = np.array([1.0, 0.5, 1.06e-12])
    want = V @ (1.0 / s)
    got = wf.tikhonov_solve(fabricated_system((U * s) @ V.T, U @ np.ones(3)), wf.RegConfig()).values
    assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)


def test_penalty_norm_decreases_with_lambda(bench):
    a = bench(2, 40)
    noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, seed=1))
    for order in (0, 1, 2):
        D = wf.difference_operator(order, 39)
        prev = None
        for lam in (1e-8, 1e-6, 1e-4, 1e-2):
            f = wf.tikhonov_solve(noisy, wf.RegConfig(order=order, lam=lam)).values
            norm = np.linalg.norm(D @ f)
            if prev is not None:
                assert norm <= prev * (1.0 + 1e-12)
            prev = norm


def test_dual_penalty_blocks(bench):
    # the dual penalty smooths each component independently; against the
    # block normal-equations oracle
    a = bench(5, 20)
    got = wf.tikhonov_solve(a.system, wf.RegConfig(order=1, lam=1e-4)).values
    want = normal_equations(a.system.A, a.system.b, 1, 1e-4, components=2)
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= 1e-9 * scale


def test_regularized_accuracy_benchmark(bench):
    # hat-profile scenario, zeroth order, 1% noise at the tabulated weight:
    # median accuracy error over 5 seeds within a factor 2 of the reference
    a = bench(2, 80)
    lam, ref = wf.REFERENCE_REGULARIZATION[(2, 0, 1)]
    errs = []
    for seed in range(1, 6):
        noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, seed))
        f = wf.tikhonov_solve(noisy, wf.RegConfig(order=0, lam=lam))
        errs.append(wf.accuracy_error(f, a.exact))
    med = float(np.median(errs))
    assert ref / 2.0 <= med <= ref * 2.0


def test_unregularized_noise_blowup(bench):
    # the whole reason regularization exists: with 1% noise and lam = 0 the
    # recovered profile overshoots the true one severalfold in sup norm
    a = bench(1, 80)
    worst = 0.0
    for seed in range(1, 6):
        noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, seed))
        f = wf.tikhonov_solve(noisy, wf.RegConfig(order=0, lam=0.0))
        worst = max(worst, np.max(np.abs(f.values)))
    assert worst >= 2.0 * np.max(np.abs(a.exact.values))


def test_condition_number_basics(bench):
    assert wf.condition_number(np.eye(4)) == 1.0
    assert abs(wf.condition_number(np.diag([3.0, 1.0])) - 3.0) <= 1e-12
    ref = wf.REFERENCE_CONDITION_NUMBERS[(1, 20)]
    assert abs(wf.condition_number(bench(1, 20).system.A) - ref) / ref <= 0.02
    with pytest.raises(wf.ZeroMatrix):
        wf.condition_number(np.zeros((3, 3)))
    for not_a_matrix in (np.ones(3), np.ones((2, 2, 2)), 5.0):
        with pytest.raises(wf.DimensionMismatch):
            wf.condition_number(not_a_matrix)
    with pytest.raises(wf.WaveforceError):
        wf.condition_number([[np.nan, 1.0], [1.0, 2.0]])
    # exactly singular: infinite when the small singular value underflows
    # to zero, astronomically large otherwise
    assert wf.condition_number(np.diag([1.0, 0.0])) == np.inf
    assert wf.condition_number(np.ones((3, 3))) > 1e15


def test_condition_number_at_extreme_magnitudes():
    # a subnormal smallest singular value reads inf, and a matrix of
    # subnormal entries, where the QR route's iteration met subnormal
    # iterates and the SVD of R Q did not converge, reads X's condition
    # number up to the few bits its subnormals keep
    X = np.random.default_rng(0).standard_normal((230, 225))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wf.condition_number(np.diag([1.0, 1e-320])) == np.inf
        cond = wf.condition_number(X)
        assert wf.condition_number(1e-320 * X) == pytest.approx(cond, rel=1e-3)
        assert wf.condition_number(1e-310 * X) == pytest.approx(cond, rel=1e-12)


def test_accuracy_error_norm():
    assert wf.accuracy_error([3.0, 4.0], [0.0, 0.0]) == 5.0
    fv = wf.ForceVector(np.array([1.0, 1.0]))
    assert wf.accuracy_error(fv, np.array([1.0, 1.0])) == 0.0
    with pytest.raises(wf.DimensionMismatch):
        wf.accuracy_error(np.ones(3), np.ones(4))
    # 2-D arrays and ragged or non-numeric input are not profiles
    for bad in (np.ones((2, 2)), [[1.0], [1.0, 2.0]], ["a", "b"]):
        with pytest.raises(wf.DimensionMismatch):
            wf.accuracy_error(bad, np.ones(2))
        with pytest.raises(wf.DimensionMismatch):
            wf.accuracy_error(np.ones(2), bad)
    # a dual profile is not comparable with a single one of equal length
    dual, single = wf.ForceVector(np.ones(4), 2), wf.ForceVector(np.ones(4))
    with pytest.raises(wf.DimensionMismatch):
        wf.accuracy_error(dual, single)
    assert wf.accuracy_error(dual, np.ones(4)) == 0.0


def test_accuracy_error_near_the_largest_doubles():
    # the difference of entries near 1e300 overflows in the plain norm;
    # the norm of the profiles scaled by their largest magnitude does not,
    # and no floating-point warning is printed
    big = np.full(3, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wf.accuracy_error(big, np.zeros(3)) == pytest.approx(np.sqrt(3.0) * 1e300, rel=1e-15)
        assert wf.accuracy_error(big, -big) == pytest.approx(2.0 * np.sqrt(3.0) * 1e300, rel=1e-15)
        assert wf.accuracy_error(wf.ForceVector(big), big) == 0.0


def extreme_system(M, scales, flux_scale, seed=0):
    """A system on external data of extreme magnitude, N = M: zero initial
    and boundary data, one modulation per entry of `scales` (that scale
    times 1 plus uniform draws) and each end's flux of standard normal
    draws times flux_scale."""
    rng = np.random.default_rng(seed)
    grid = wf.GridSpec(1.0, 1.0, M, M)
    zeros = np.zeros(M + 1)
    source = wf.Source(tuple(s * (1.0 + rng.random((M + 1, M + 1))) for s in scales))
    problem = wf.WaveProblem(grid, wf.InitialData(zeros, zeros), wf.BoundaryData(zeros, zeros), source)
    fluxes = [wf.FluxSeries(end, flux_scale * rng.standard_normal(M)) for end in (wf.LEFT, wf.RIGHT)]
    return wf.assemble_single(problem, fluxes[0]) if len(scales) == 1 else wf.assemble_dual(problem, *fluxes)


def test_solve_near_overflow_is_refused_without_a_warning():
    # flux near 1e300: S beta overflows in the filter S beta / (S^2 +
    # lambda), and the null step W R_T^-1 Q_T^T (b - A z) meets inf - inf;
    # the non-finite solution meets ForceVector's intake
    s = extreme_system(3, (1e150,), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wf.WaveforceError, match="non-finite"):
            wf.tikhonov_solve(s, wf.RegConfig(1, 1e-3))


def test_overflowed_norms_read_inf():
    # singular values near 1e299 and beta near 1e159: S^2 + lambda and
    # S beta both overflow, and their quotient inf / inf reads inf, not
    # nan, with no warning; the corner has no usable point
    s = extreme_system(4, (1e300,), 1e159)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = wf.sweep(s, 0)
        assert np.all(np.isposinf([(p.residual_norm, p.solution_norm) for p in points]))
        with pytest.raises(wf.DegenerateCurve, match="got 0"):
            wf.corner(points)


def test_rank_rule_overflow_reads_inf():
    # a dual whose second modulation is near 1e-320: cond(A W) at order 1
    # overflows the doubles, and reads inf with no warning
    s = extreme_system(4, (1.0, 1e-320), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wf.SingularSystem, match="condition number inf,"):
            wf.tikhonov_solve(s, wf.RegConfig(1, 1e-3))


def test_build_overflow_is_refused_without_a_warning():
    # a modulation near 1e-320: R_T^-1 overflows, and its product with W^T
    # in the build meets inf - inf; the non-finite solution meets
    # ForceVector's intake
    s = extreme_system(4, (1e-320,), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wf.WaveforceError, match="non-finite"):
            wf.tikhonov_solve(s, wf.RegConfig(2, 1e-3))
