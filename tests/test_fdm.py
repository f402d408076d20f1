"""Direct solver and flux extraction against independent oracles."""

import numpy as np
import pytest

import waveforce as wf


def scalar_reference(grid, u0, v0, left, right, F):
    """Plain-Python reimplementation of the march, kept loop-by-loop scalar
    so it shares no code path with the vectorized solver."""
    M, N = grid.M, grid.N
    r2 = grid.r ** 2
    dt = grid.dt
    u = [[0.0] * (N + 1) for _ in range(M + 1)]
    for i in range(M + 1):
        u[i][0] = u0[i]
    for j in range(N + 1):
        u[0][j] = left[j]
        u[M][j] = right[j]
    for i in range(1, M):
        u[i][1] = (0.5 * r2 * (u0[i + 1] + u0[i - 1]) + (1.0 - r2) * u0[i]
                   + dt * v0[i] + 0.5 * dt * dt * F[i][0])
    for j in range(1, N):
        for i in range(1, M):
            u[i][j + 1] = (r2 * (u[i + 1][j] + u[i - 1][j]) + 2.0 * (1.0 - r2) * u[i][j]
                           - u[i][j - 1] + dt * dt * F[i][j])
    return np.array(u)


def random_problem(rng, M, N):
    # T = 1 keeps r <= 1 when N >= M; otherwise shrink T to stay stable
    grid = wf.GridSpec(1.0, 1.0, M, N) if N >= M else wf.GridSpec(1.0, 0.5 * N / M, M, N)
    u0 = rng.normal(size=M + 1)
    v0 = rng.normal(size=M + 1)
    left = rng.normal(size=N + 1)
    right = rng.normal(size=N + 1)
    left[0] = u0[0]
    right[0] = u0[M]
    F = rng.normal(size=(M + 1, N + 1))
    prob = wf.WaveProblem(grid, wf.InitialData(u0, v0),
                          wf.BoundaryData(left, right), wf.KnownForce(F))
    return prob, u0, v0, left, right, F


def test_matches_scalar_oracle_on_small_grids():
    rng = np.random.default_rng(42)
    for _ in range(25):
        M = int(rng.integers(2, 5))
        N = int(rng.integers(1, 5))
        prob, u0, v0, left, right, F = random_problem(rng, M, N)
        got = wf.solve_direct(prob).values
        want = scalar_reference(prob.grid, u0, v0, left, right, F)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_zero_data_stays_zero():
    g = wf.GridSpec(1.0, 1.0, 10, 10)
    prob = wf.WaveProblem(g, wf.InitialData.zero(g), wf.BoundaryData.zero(g),
                          wf.KnownForce(np.zeros((11, 11))))
    assert not np.any(wf.solve_direct(prob).values)


def test_prescribed_rows_and_columns():
    rng = np.random.default_rng(7)
    prob, u0, v0, left, right, _ = random_problem(rng, 4, 4)
    u = wf.solve_direct(prob).values
    # boundary columns carry the Dirichlet data verbatim
    assert np.array_equal(u[0, :], left)
    assert np.array_equal(u[-1, :], right)
    # initial row: interior nodes carry u0 verbatim; the corners belong to
    # the boundary series (compatible within 1e-12 by construction)
    assert np.array_equal(u[1:-1, 0], u0[1:-1])


def test_superposition():
    # the scheme is affine in (u0, v0, boundary, F); with one of two data
    # sets all-zero at the corners, solutions add
    rng = np.random.default_rng(3)
    g = wf.GridSpec(1.0, 1.0, 6, 9)
    probs = []
    fields = []
    for _ in range(2):
        u0 = rng.normal(size=7)
        v0 = rng.normal(size=7)
        left = rng.normal(size=10)
        right = rng.normal(size=10)
        left[0] = u0[0]
        right[0] = u0[6]
        F = rng.normal(size=(7, 10))
        probs.append((u0, v0, left, right, F))
        fields.append(wf.solve_direct(wf.WaveProblem(
            g, wf.InitialData(u0, v0), wf.BoundaryData(left, right),
            wf.KnownForce(F))).values)
    summed = wf.solve_direct(wf.WaveProblem(
        g,
        wf.InitialData(probs[0][0] + probs[1][0], probs[0][1] + probs[1][1]),
        wf.BoundaryData(probs[0][2] + probs[1][2], probs[0][3] + probs[1][3]),
        wf.KnownForce(probs[0][4] + probs[1][4]))).values
    assert np.max(np.abs(summed - fields[0] - fields[1])) <= 1e-12


def test_rejects_unbound_source():
    g = wf.GridSpec(1.0, 1.0, 4, 4)
    prob = wf.WaveProblem(g, wf.InitialData.zero(g), wf.BoundaryData.zero(g),
                          wf.Source((np.ones((5, 5)),)))
    with pytest.raises(wf.UnresolvedForce):
        wf.solve_direct(prob)


def test_smooth_benchmark_field_accuracy():
    g = wf.GridSpec(1.0, 1.0, 80, 80)
    u = wf.solve_direct(wf.direct_problem(1, g)).values
    exact = wf.exact_field(1, g).values
    assert np.max(np.abs(u - exact)) <= 2e-3


def test_flux_exact_on_quadratics():
    # one-sided 3-point stencils differentiate quadratics exactly
    g = wf.GridSpec(2.0, 1.0, 8, 8)
    vals = np.tile((g.x ** 2)[:, None], (1, g.N + 1))
    field = wf.WaveField(g, vals)
    ql = wf.flux(field, wf.LEFT).values
    qr = wf.flux(field, wf.RIGHT).values
    assert np.max(np.abs(ql)) <= 1e-12          # -d/dx x^2 at x=0
    assert np.max(np.abs(qr - 2.0 * g.L)) <= 1e-12


def test_flux_of_constant_field_is_zero():
    # dyadic constant so the stencil cancellation is exact in floating point
    g = wf.GridSpec(1.0, 1.0, 5, 5)
    field = wf.WaveField(g, np.full((6, 6), 2.5))
    assert not np.any(wf.flux(field, wf.LEFT).values)
    assert not np.any(wf.flux(field, wf.RIGHT).values)


def test_flux_series_layout_and_end_check():
    g = wf.GridSpec(1.0, 1.0, 4, 7)
    field = wf.WaveField(g, np.zeros((5, 8)))
    q = wf.flux(field, wf.LEFT)
    assert q.values.size == g.N  # levels 1..N, t=0 excluded
    with pytest.raises(wf.DimensionMismatch):
        wf.flux(field, "middle")


def test_flux_convergence_to_reference_table():
    # simulated left flux at the tabulated (M, t) pairs; exact value is -pi
    for (ex, m), cells in wf.REFERENCE_LEFT_FLUX.items():
        if ex != 1:
            continue
        g = wf.GridSpec(1.0, 1.0, m, m)
        q = wf.flux(wf.solve_direct(wf.direct_problem(1, g)), wf.LEFT)
        for t, ref in cells.items():
            j = round(t * g.N)
            assert abs(q.values[j - 1] - ref) <= 5e-4, (m, t)
    # and the end value approaches -pi monotonically as the mesh refines
    end_vals = []
    for m in (10, 20, 40, 80):
        g = wf.GridSpec(1.0, 1.0, m, m)
        q = wf.flux(wf.solve_direct(wf.direct_problem(1, g)), wf.LEFT)
        end_vals.append(abs(q.values[-1] + np.pi))
    assert end_vals[0] > end_vals[1] > end_vals[2] > end_vals[3]
