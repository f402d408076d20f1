"""Weight sweep and corner selection."""

import dataclasses

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
    for not_a_grid in ([[1e-3, 1e-2, 1e-1]], 1e-3):
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


def test_sweep_skips_failing_weights():
    # rank-1 matrix: an identity penalty fixes it at every positive weight,
    # but the second-difference penalty shares the null vector (-1, 0, 1)
    # with it, so no weight helps and every sweep entry is skipped
    from test_inverse import fabricated_system
    A = np.ones((5, 3))
    s = fabricated_system(A, np.ones(5))
    assert len(wf.sweep(s, 0)) == wf.DEFAULT_LAMBDA_GRID.size
    assert wf.sweep(s, 2) == []
