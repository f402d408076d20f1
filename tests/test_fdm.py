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


def test_mirror_symmetry_bit_for_bit():
    # the string reversed along x, with the ends swapped: the march gives the
    # reversed field, and the right flux is the left stencil on the mirror
    rng = np.random.default_rng(7)
    for M, N in ((2, 3), (9, 12), (16, 9), (31, 31)):
        prob, u0, v0, left, right, F = random_problem(rng, M, N)
        mirror = wf.WaveProblem(prob.grid, wf.InitialData(u0[::-1], v0[::-1]),
                                wf.BoundaryData(right, left), wf.KnownForce(F[::-1]))
        field, image = wf.solve_direct(prob), wf.solve_direct(mirror)
        assert np.array_equal(image.values, field.values[::-1])
        assert np.array_equal(wf.flux(field, wf.RIGHT).values, wf.flux(image, wf.LEFT).values)


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


def single_march(problem):
    """The march before the stack, one problem in its own time loop: the
    slow predecessor of fdm._march, kept as its oracle. Returns the
    (M+1, N+1) node array."""
    g = problem.grid
    M, N = g.M, g.N
    dt = g.dt
    r2 = g.r ** 2
    F = problem.source.values
    u0 = problem.initial.displacement
    v0 = problem.initial.velocity
    u = np.empty((N + 1, M + 1))
    np.multiply(F.T[:-1], dt * dt, out=u[1:])
    u[0] = u0
    u[:, 0] = problem.boundary.left
    u[:, M] = problem.boundary.right
    u[1, 1:M] = (0.5 * r2 * (u0[2:] + u0[:M - 1]) + (1.0 - r2) * u0[1:M]
                 + dt * v0[1:M] + 0.5 * dt * dt * F[1:M, 0])
    centre = 2.0 * (1.0 - r2)
    acc, term = np.empty(M - 1), np.empty(M - 1)
    for j in range(1, N):
        np.add(u[j, 2:], u[j, :M - 1], out=acc)
        acc *= r2
        np.multiply(u[j, 1:M], centre, out=term)
        acc += term
        acc -= u[j - 1, 1:M]
        nxt = u[j + 1, 1:M]
        np.add(acc, nxt, out=nxt)
    return u.T


def bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def stack_problems(g, rng):
    """Four problems on grid g: nonzero data with a random force; data of
    -0.0 under the force 0*h of a modulation with negative values, which
    holds -0.0 at every node; a zero-data drive (stencil weights times a
    series of both signs), the one kind of slot the assembly stacks; and
    zero data with a random sparse force."""
    prob = random_problem(rng, g.M, g.N)[0]
    data = wf.WaveProblem(g, prob.initial, prob.boundary, prob.source)
    h = wf.sample_grid(g, lambda x, t: np.cos(4.0 * x) - t)
    nz = np.full(g.M + 1, -0.0), np.full(g.N + 1, -0.0)
    signed = wf.WaveProblem(g, wf.InitialData(nz[0], nz[0]), wf.BoundaryData(nz[1], nz[1]),
                            wf.Source((h,))).with_force(np.zeros(g.M - 1))
    w = np.zeros(g.M + 1)
    w[1:3] = wf.fdm._FLUX_STENCIL[1:]
    quiet = wf.InitialData.zero(g), wf.BoundaryData.zero(g)
    drive = wf.WaveProblem(g, *quiet, wf.KnownForce(np.outer(w, np.sin(7.0 * g.t))))
    sparse = rng.normal(size=(g.M + 1, g.N + 1)) * (rng.random((g.M + 1, g.N + 1)) < 0.1)
    return [data, signed, drive, wf.WaveProblem(g, *quiet, wf.KnownForce(sparse))]


@pytest.mark.parametrize("M, N", [(12, 12), (12, 24), (2, 2)])  # r = M / N: 1, 1/2, 1
def test_stacked_march_matches_single_march_bit_for_bit(M, N):
    g = wf.GridSpec(1.0, 1.0, M, N)
    problems = stack_problems(g, np.random.default_rng(M + N))
    want = [single_march(p) for p in problems]
    # the case is meant: the background slot's oracle field holds -0.0
    assert np.any((want[1] == 0) & np.signbit(want[1]))
    for K in range(1, 5):
        for first in range(4):
            slots = [(first + i) % 4 for i in range(K)]
            stack = [problems[s] for s in slots]
            u = wf.fdm._march(g, [(p.initial, p.boundary) for p in stack],
                              (p.source.values for p in stack))
            assert u.shape == (N + 1, M + 1, K)
            for k, s in enumerate(slots):
                assert bitwise_equal(u[:, :, k].T, want[s]), (K, first, k)
    # solve_direct is the stack of one; _fluxes stacks the flux series
    for p, field in zip(problems, want):
        assert bitwise_equal(wf.solve_direct(p).values, field)
    for end in (wf.LEFT, wf.RIGHT):
        for p, q in zip(problems, wf.fdm._fluxes(problems, end)):
            assert q.end == end
            assert bitwise_equal(q.values, wf.flux(wf.solve_direct(p), end).values)
