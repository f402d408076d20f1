"""Weight sweep and corner selection."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

import waveforce as wf


def test_default_grids():
    g = wf.DEFAULT_LAMBDA_GRID
    assert g[0] == 1e-9 and g[-1] == 5e-2 and g.size == 16
    assert np.all(np.diff(g) > 0)
    e = wf.EXTENDED_LAMBDA_GRID
    assert e[-1] == 5e-1 and e.size == 18


def test_sweep_norm_monotonicity(bench):
    # residual grows and the penalty seminorm shrinks as lambda grows
    a = bench(2, 40)
    noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, seed=1))
    pts = wf.sweep(noisy, 0)
    assert len(pts) == wf.DEFAULT_LAMBDA_GRID.size
    res = [p.residual_norm for p in pts]
    sol = [p.solution_norm for p in pts]
    assert np.all(np.diff(res) >= -1e-12)
    assert np.all(np.diff(sol) <= 1e-12)


def test_sweep_grid_validation(bench):
    s = bench(2, 10).system
    with pytest.raises(wf.InvalidDimension):
        wf.sweep(s, 0, [])
    with pytest.raises(wf.InvalidDimension):
        wf.sweep(s, 0, [1e-6, 1e-6, 1e-5])
    with pytest.raises(wf.InvalidDimension):
        wf.sweep(s, 0, [1e-5, 1e-6])
    with pytest.raises(wf.InvalidDimension):
        wf.sweep(s, 0, [0.0, 1e-6])
    for not_a_grid in ([[1e-3, 1e-2, 1e-1]], 1e-3, [[1e-3], [1e-2, 1e-1]], ["a", "b"]):
        with pytest.raises(wf.InvalidDimension):
            wf.sweep(s, 0, not_a_grid)


def synthetic_l(n_arm=5):
    """Axis-aligned L in log-log space with the bend at index n_arm."""
    pts = []
    for i in range(2 * n_arm + 1):
        lam = 1e-9 * 10.0 ** i
        if i <= n_arm:
            pts.append(wf.LCurvePoint(lam, 1e-8, 10.0 ** (n_arm - i)))
        else:
            pts.append(wf.LCurvePoint(lam, 10.0 ** (i - n_arm - 8), 1.0))
    return pts


def test_corner_right_angle():
    pts = synthetic_l()
    assert wf.corner(pts) is pts[5]


def scalar_menger(x, y):
    """Slow predecessor of lcurve._menger: one point at a time."""
    k = np.full(x.size, np.nan)
    for i in range(1, x.size - 1):
        x1, y1 = x[i - 1], y[i - 1]
        x2, y2 = x[i], y[i]
        x3, y3 = x[i + 1], y[i + 1]
        area2 = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        denom = np.hypot(x2 - x1, y2 - y1) * np.hypot(x3 - x2, y3 - y2) \
            * np.hypot(x3 - x1, y3 - y1)
        if denom > 0:
            k[i] = 2.0 * area2 / denom
    return k


def test_menger_matches_scalar_loop():
    from waveforce.lcurve import _menger
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 18):
        x, y = rng.random(n), rng.random(n)
        np.testing.assert_array_equal(_menger(x, y), scalar_menger(x, y))
    # coincident neighbours leave NaN, as does every end point
    x = np.array([0.0, 0.5, 0.5, 1.0])
    y = np.array([1.0, 0.5, 0.5, 0.0])
    k = _menger(x, y)
    assert np.isnan(k).all()
    np.testing.assert_array_equal(k, scalar_menger(x, y))


def test_corner_tie_goes_to_larger_weight():
    # a staircase on the normalized axes: right, down, right, down, down in
    # steps of exact binary fractions, so the three right-angle turns have
    # bit-equal curvature and the last, straight point has none
    res = [1.0, 3.0, 3.0, 5.0, 5.0, 5.0]
    sol = [5.0, 5.0, 4.0, 4.0, 3.0, 1.0]
    pts = [wf.LCurvePoint(10.0 ** (e - 9), r, s) for e, (r, s) in enumerate(zip(res, sol))]
    from waveforce.lcurve import _menger, _normalize
    kappa = np.abs(_menger(_normalize(np.array(res)), _normalize(np.array(sol))))
    assert kappa[1] == kappa[2] == kappa[3] > kappa[4] == 0.0
    assert wf.corner(pts) is pts[3]
    # a point whose curvature is not finite is skipped, not picked
    dup = pts[:4] + [dataclasses.replace(pts[3], lam=5e-6)] + pts[4:]
    assert wf.corner(dup) is pts[2]


def test_corner_needs_three_points():
    pts = synthetic_l()[:2]
    with pytest.raises(wf.DegenerateCurve):
        wf.corner(pts)
    # non-finite and nonpositive entries do not count as usable
    bad = [wf.LCurvePoint(1e-9, np.nan, 1.0),
           wf.LCurvePoint(1e-8, 1.0, 0.0)] + synthetic_l()[:2]
    with pytest.raises(wf.DegenerateCurve):
        wf.corner(bad)


def test_corner_rejects_collinear_curve():
    # exactly collinear on log-log axes: eta = 1 / rho
    pts = [wf.LCurvePoint(10.0 ** -e, 10.0 ** -e, 10.0 ** e) for e in range(6, 0, -1)]
    with pytest.raises(wf.DegenerateCurve):
        wf.corner(pts)
    # a constant norm is a constant log axis, so the curve is collinear and
    # corner never normalizes a norm with no spread
    for res, sol in (([2.0] * 4, [4.0, 3.0, 1.0, 0.5]), ([4.0, 3.0, 1.0, 0.5], [2.0] * 4)):
        pts = [wf.LCurvePoint(10.0 ** -e, r, s) for e, r, s in zip(range(6, 2, -1), res, sol)]
        with pytest.raises(wf.DegenerateCurve, match="collinear"):
            wf.corner(pts)


def degenerate_corner(pairs):
    """The message corner raises on the points of these (residual, penalty)
    pairs, at increasing weights."""
    pts = [wf.LCurvePoint(10.0 ** (e - 9), r, s) for e, (r, s) in enumerate(pairs)]
    with pytest.raises(wf.DegenerateCurve) as info:
        wf.corner(pts)
    return str(info.value)


def test_corner_without_a_finite_curvature():
    # the ends coincide: no chord to measure collinearity against
    assert degenerate_corner([(1, 1), (2, 2), (1, 1)]) == "all points coincide"
    # each interior point has a coincident neighbour, so no curvature is finite
    pairs = [(1, 1), (1, 1), (2, 3), (2, 3), (5, 2), (5, 2)]
    assert degenerate_corner(pairs) == "no interior point has finite curvature"


def test_corner_on_noisy_benchmark(bench):
    # smooth scenario, 1% noise: corner lands within one decade of 1e-6
    a = bench(1, 80)
    noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, seed=1))
    lam = wf.corner(wf.sweep(noisy, 0)).lam
    assert abs(np.log10(lam) - np.log10(1e-6)) <= 1.0 + 1e-9


def test_corner_invariant_under_data_scaling(bench):
    a = bench(2, 40)
    noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.03, seed=2))
    scaled = dataclasses.replace(noisy, b=37.0 * noisy.b)
    pts = wf.sweep(noisy, 0)
    pts_scaled = wf.sweep(scaled, 0)
    assert wf.corner(pts).lam == wf.corner(pts_scaled).lam
    for p, q in zip(pts, pts_scaled):
        assert abs(q.residual_norm - 37.0 * p.residual_norm) <= 1e-9 * max(1.0, q.residual_norm)


def test_sweep_deterministic(bench):
    a = bench(2, 20)
    noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.05, seed=4))
    p1 = wf.sweep(noisy, 1)
    p2 = wf.sweep(noisy, 1)
    assert [(p.lam, p.residual_norm, p.solution_norm) for p in p1] == \
           [(p.lam, p.residual_norm, p.solution_norm) for p in p2]


def test_sweep_raises_the_rank_rule_and_takes_tiny_weights():
    # rank-1 matrix: an identity penalty fixes it at every positive weight,
    # but the second-difference penalty shares the null vector (-1, 0, 1)
    # with it, so no weight helps and the sweep raises what the solve does
    from test_inverse import fabricated_system
    from test_tikhonov import ORACLE_GRID_TOL, stacked_lstsq
    A = np.ones((5, 3))
    s = fabricated_system(A, np.ones(5))
    assert len(wf.sweep(s, 0)) == wf.DEFAULT_LAMBDA_GRID.size
    with pytest.raises(wf.SingularSystem) as solved:
        wf.tikhonov_solve(s, wf.RegConfig(order=2, lam=1e-3))
    with pytest.raises(wf.SingularSystem, match=f"^{re.escape(str(solved.value))}$"):
        wf.sweep(s, 2)
    # no positive weight divides by zero: the smallest doubles keep finite
    # norms and raise no floating-point warning. This A's two zero singular
    # values compute as about 1e-16, far above sqrt(lambda); cut as rounding,
    # they leave the minimum-norm least-squares solution, which the sweep's
    # norms describe. On a full-rank A the solutions are the least-squares
    # solution too; stacked_lstsq gives both
    tiny = [5e-324, 1e-300, 1e-3]
    full = fabricated_system(np.vander(np.arange(1.0, 6.0), 3), np.arange(5.0) ** 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = wf.sweep(s, 0, tiny)
        assert [p.lam for p in points] == tiny
        for p in points:
            f = wf.tikhonov_solve(s, wf.RegConfig(order=0, lam=p.lam)).values
            want = stacked_lstsq(s.A, s.b, 0, p.lam)
            assert np.max(np.abs(f - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))
            assert abs(p.residual_norm - np.linalg.norm(s.A @ f - s.b)) <= 1e-12 * np.linalg.norm(s.b)
            assert abs(p.solution_norm - np.linalg.norm(f)) <= 1e-12 * np.linalg.norm(f)
        for p in wf.sweep(full, 0, tiny):
            f = wf.tikhonov_solve(full, wf.RegConfig(order=0, lam=p.lam)).values
            want = stacked_lstsq(full.A, full.b, 0, p.lam)
            assert np.max(np.abs(f - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))
            assert abs(p.solution_norm - np.linalg.norm(want)) <= 1e-12 * np.linalg.norm(want)
        # a penalty norm whose squares overflow is infinite, and only it:
        # sigma = 1e-160 and lambda = 1e-320 give sigma / (sigma^2 + lambda)
        # = 5e159, while the residual's lambda / (sigma^2 + lambda) is 1/2
        small = fabricated_system(1e-160 * np.eye(3), np.ones(3))
        point, = wf.sweep(small, 0, [1e-320])
        assert np.isinf(point.solution_norm) and point.residual_norm == pytest.approx(np.sqrt(0.75))


def per_weight_sweep(sys, order, lambdas=None):
    """Slow predecessor of sweep: one public tikhonov_solve per weight, its
    norms taken from the solution by refined_points. Returns the points and
    the solution of each point."""
    from test_tikhonov import refined_points
    if lambdas is None:
        lambdas = wf.DEFAULT_LAMBDA_GRID if order == 0 else wf.EXTENDED_LAMBDA_GRID
    lams, solutions = [], []
    for lam in lambdas:
        try:
            f = wf.tikhonov_solve(sys, wf.RegConfig(order=order, lam=float(lam)))
        except wf.WaveforceError:
            continue
        lams.append(lam)
        solutions.append(f.values)
    return refined_points(sys, order, lams, solutions), solutions


def _draws(a, noises=(None, wf.NoiseSpec(0.01, 1))):
    series = (a.measured,) if a.measured_right is None else (a.measured, a.measured_right)
    return [a.system.with_measurement(*series, noise=noise) for noise in noises]


@pytest.mark.parametrize("example", [1, 2, 3, 4, 5])
def test_sweep_matches_per_weight_solves_bit_for_bit(bench, example):
    from test_tikhonov import SWEEP_NORM_TOL, norm_gap
    for s in _draws(bench(example, 40)):
        for order in (0, 1, 2):
            # the oracle on a copy without factors: its own build
            want, solutions = per_weight_sweep(dataclasses.replace(s), order)
            got = wf.sweep(s, order)
            assert norm_gap(got, want) <= SWEEP_NORM_TOL
            # a solve on the swept system's factors is the per-weight solve
            # on a fresh copy, bit for bit, at every weight: the corner's too
            for p, f in zip(got, solutions):
                cfg = wf.RegConfig(order=order, lam=p.lam)
                assert np.array_equal(wf.tikhonov_solve(s, cfg).values, f)


def test_sweep_keeps_the_refined_corner(bench):
    # the corner of the closed-form norms is the corner of the refined
    # oracle's (refined_sweep) on 30 noise draws each of scenario 4 (the
    # noise study's) at M = 160, orders 0-2, scenario 2 at M = 320 and
    # scenario 5 at M = 160, order 2; and on the noise-free draws of
    # scenarios 1-5 at M = 80, where the residual is smallest, the norms
    # stay within SWEEP_NORM_TOL of the public solve's own
    from test_tikhonov import SWEEP_NORM_TOL, norm_gap, refined_eigenbasis, refined_sweep
    noises = [wf.NoiseSpec(0.01, seed) for seed in range(1, 31)]
    cells = [(4, 160, order) for order in (0, 1, 2)] + [(2, 320, 2), (5, 160, 2)]
    for example, m, order in cells:
        draws = _draws(bench(example, m), noises)
        solve = refined_eigenbasis(draws[0].A, order, draws[0].components)
        for s in draws:
            points = wf.sweep(s, order)
            oracle = refined_sweep(s, order, [p.lam for p in points], solve)
            assert wf.corner(points).lam == wf.corner(oracle).lam
    worst = 0.0
    for example in (1, 2, 3, 4, 5):
        s, = _draws(bench(example, 80), [None])
        for order in (0, 1, 2):
            worst = max(worst, norm_gap(wf.sweep(s, order), per_weight_sweep(s, order)[0]))
    print(f"noise-free sweep norms vs refined at M = 80: {worst:.2e}")
    assert worst <= SWEEP_NORM_TOL


def test_split_sweep_matches_stacked_lstsq(bench):
    from test_tikhonov import ORACLE_GRID_TOL, ORACLE_TINY_LAMBDA_TOL, split, stacked_lstsq
    grid = [1e-14, *wf.EXTENDED_LAMBDA_GRID]
    worst = {ORACLE_GRID_TOL: 0.0, ORACLE_TINY_LAMBDA_TOL: 0.0}
    for m in (40, 80):
        for s in _draws(bench(5, m)):
            for order in (0, 1, 2):
                assert [p.lam for p in wf.sweep(s, order, grid)] == grid
                assert split(s._factors[order], order) == (1, -1)
                for lam in grid:
                    f = wf.tikhonov_solve(s, wf.RegConfig(order=order, lam=lam)).values
                    want = stacked_lstsq(s.A, s.b, order, lam, 2)
                    tol = ORACLE_TINY_LAMBDA_TOL if lam == 1e-14 else ORACLE_GRID_TOL
                    worst[tol] = max(worst[tol], np.max(np.abs(f - want)) / np.max(np.abs(want)))
    print(f"split sweep vs stacked lstsq: grid {worst[ORACLE_GRID_TOL]:.2e}, "
          f"lambda 1e-14 {worst[ORACLE_TINY_LAMBDA_TOL]:.2e}")
    assert all(w <= tol for tol, w in worst.items())


def test_split_keeps_the_corner(bench, monkeypatch):
    # the corner of the dual scenario at M = 160, order 2, on 30 noise
    # draws: the same weight from the split as from the whole system
    from test_tikhonov import split, unsplit
    a = bench(5, 160)
    whole = unsplit(a.system, 2, monkeypatch)
    for seed in range(1, 31):
        noise = wf.NoiseSpec(0.01, seed)
        mirrored = a.system.with_measurement(a.measured, a.measured_right, noise=noise)
        oracle = whole.with_measurement(a.measured, a.measured_right, noise=noise)
        assert wf.corner(wf.sweep(mirrored, 2)).lam == wf.corner(wf.sweep(oracle, 2)).lam
    assert split(mirrored._factors[2], 2) == (1, -1) and split(oracle._factors[2], 2) == (0,)
