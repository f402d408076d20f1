"""System assembly: superposition structure, conventions, rank guards."""

import dataclasses

import numpy as np
import pytest

import waveforce as wf
from test_fdm import bitwise_equal


def fabricated_system(A, b):
    """Wrap a raw matrix into an InverseSystem for solver-level tests."""
    A = np.asarray(A, dtype=float)
    n, m = A.shape
    # N = n rows; a wave speed of half the bound keeps r = 1/2
    grid = wf.GridSpec(1.0, 1.0, m + 1, n, 0.5 * n / (m + 1))
    bg = wf.FluxSeries(wf.LEFT, np.zeros(grid.N))
    src = wf.Source((np.ones((grid.M + 1, grid.N + 1)),))
    return wf.InverseSystem(A, b, grid, (bg,), src)


def test_shapes_single(bench):
    a = bench(2, 40)
    assert a.system.A.shape == (40, 39)
    assert a.system.b.shape == (40,)
    assert a.system.components == 1


def test_shapes_dual(bench):
    a = bench(5, 20)
    assert a.system.A.shape == (40, 38)
    assert a.system.components == 2


def test_condition_number_small_grid(bench):
    ref = wf.REFERENCE_CONDITION_NUMBERS[(1, 10)]
    cond = wf.condition_number(bench(1, 10).system.A)
    assert abs(cond - ref) / ref <= 0.02


def test_same_mesh_data_satisfy_the_system_exactly(bench):
    # data simulated on the assembly mesh make A f_exact = b an identity
    a = bench(2, 40)
    resid = a.system.A @ a.exact.values - a.system.b
    assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, np.max(np.abs(a.system.b)))


def test_affinity_flux_decomposition(bench):
    # for any profile: flux(solve(f)) = background + (A f) / (2 dx)
    a = bench(3, 20)
    rng = np.random.default_rng(17)
    f = rng.normal(size=19)
    prob = wf.inverse_problem(3, a.grid)
    q = wf.flux(wf.solve_direct(prob.with_force(f)), wf.LEFT)
    predicted = a.system.background[0].values + (a.system.A @ f) / (2.0 * a.grid.dx)
    assert np.max(np.abs(q.values - predicted)) <= 1e-10


def test_background_measurement_recovers_zero_force(bench):
    a = bench(2, 20)
    sys0 = a.system.with_measurement(a.system.background[0])
    f = wf.tikhonov_solve(sys0, wf.RegConfig())
    assert np.max(np.abs(f.values)) <= 1e-10


def test_matches_normal_equations_on_fabricated_system():
    rng = np.random.default_rng(123)
    A = rng.normal(size=(6, 3))
    b = rng.normal(size=6)
    got = wf.tikhonov_solve(fabricated_system(A, b), wf.RegConfig()).values
    want = np.linalg.solve(A.T @ A, A.T @ b)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_rank_deficient_detected():
    A = np.ones((5, 3))
    A[:, 1] = A[:, 0]  # duplicate column
    with pytest.raises(wf.SingularSystem):
        wf.tikhonov_solve(fabricated_system(A, np.ones(5)), wf.RegConfig())


def test_wide_system_is_singular_at_lambda_zero():
    # lstsq returns min(rows, columns) singular values, so a system with
    # fewer rows than columns has a null space its smallest one misses
    A = np.random.default_rng(5).normal(size=(4, 7))
    with pytest.raises(wf.SingularSystem):
        wf.tikhonov_solve(fabricated_system(A, np.ones(4)), wf.RegConfig())


def test_underdetermined_rejected():
    g = wf.GridSpec(1.0, 0.2, 10, 4)  # N=4 < M-1=9, r=0.5
    prob = wf.WaveProblem(g, wf.InitialData.zero(g), wf.BoundaryData.zero(g),
                          wf.Source((np.ones((11, 5)),)))
    with pytest.raises(wf.UnderdeterminedSystem):
        wf.assemble_single(prob, np.zeros(4))


def test_assembly_requires_matching_source_kind():
    g = wf.GridSpec(1.0, 1.0, 4, 4)
    dual = wf.WaveProblem(g, wf.InitialData.zero(g), wf.BoundaryData.zero(g),
                          wf.Source((np.ones((5, 5)), np.ones((5, 5)))))
    with pytest.raises(wf.WaveforceError):
        wf.assemble_single(dual, np.zeros(4))
    single = wf.WaveProblem(g, wf.InitialData.zero(g), wf.BoundaryData.zero(g),
                            wf.Source((np.ones((5, 5)),)))
    with pytest.raises(wf.WaveforceError):
        wf.assemble_dual(single, np.zeros(4), np.zeros(4))


def test_system_b_matches_the_rows_of_A():
    g = wf.GridSpec(1.0, 1.0, 10, 10)
    source = wf.Source((np.ones((11, 11)),))
    with pytest.raises(wf.DimensionMismatch, match=r"^A is \(10, 9\) but b has 9 entries$"):
        wf.InverseSystem(np.zeros((10, 9)), np.zeros(9), g, (np.zeros(10),), source)


def test_measured_series_validation(bench):
    a = bench(2, 10)
    prob = wf.inverse_problem(2, a.grid)
    with pytest.raises(wf.DimensionMismatch):
        wf.assemble_single(prob, np.zeros(7))
    wrong_end = wf.FluxSeries(wf.RIGHT, a.measured.values)
    with pytest.raises(wf.DimensionMismatch):
        wf.assemble_single(prob, wrong_end)


def test_dual_first_block_matches_single_assembly(bench):
    # a dual source whose second modulation vanishes reduces to the single
    # case: the f-block of A must be bit-identical, the g-block zero
    a = bench(2, 10)
    g = a.grid
    single = wf.inverse_problem(2, g)
    dual_prob = wf.WaveProblem(
        g, single.initial, single.boundary,
        wf.Source(single.source.modulations + (np.zeros((g.M + 1, g.N + 1)),)))
    qr = wf.flux(wf.solve_direct(dual_prob.with_force(np.zeros(9), np.zeros(9))), wf.RIGHT)
    dual_sys = wf.assemble_dual(dual_prob, a.measured, qr)
    m = g.M - 1
    assert np.array_equal(dual_sys.A[: g.N, :m], a.system.A)
    assert not np.any(dual_sys.A[:, m:])


def test_dual_same_mesh_identity_and_recovery():
    g = wf.GridSpec(1.0, 1.0, 40, 40)
    prob = wf.inverse_problem(5, g)
    exact = wf.exact_force(5, g)
    field = wf.solve_direct(wf.direct_problem(5, g))
    sys_ = wf.assemble_dual(prob, wf.flux(field, wf.LEFT), wf.flux(field, wf.RIGHT))
    resid = sys_.A @ exact.values - sys_.b
    assert np.max(np.abs(resid)) <= 1e-9 * max(1.0, np.max(np.abs(sys_.b)))
    f = wf.tikhonov_solve(sys_, wf.RegConfig())
    rel = np.linalg.norm(f.f - exact.f) / np.linalg.norm(exact.f)
    assert rel <= 0.05


def test_exact_data_recovery_smooth_benchmark(bench):
    a = bench(1, 80)
    f = wf.tikhonov_solve(a.system, wf.RegConfig())
    rel = np.linalg.norm(f.values - a.exact.values) / np.linalg.norm(a.exact.values)
    assert rel <= 0.05


def test_assembly_deterministic(bench):
    a = bench(1, 10)
    prob = wf.inverse_problem(1, a.grid)
    again = wf.assemble_single(prob, wf.measured_flux(1, a.grid))
    assert np.array_equal(again.A, a.system.A)
    assert np.array_equal(again.b, a.system.b)


def test_with_measurement_equals_fresh_noisy_assembly(bench):
    a = bench(2, 20)
    spec = wf.NoiseSpec(0.01, seed=9)
    rebuilt = a.system.with_measurement(a.measured, noise=spec)
    prob = wf.inverse_problem(2, a.grid)
    fresh = wf.assemble_single(prob, a.measured, noise=spec)
    assert np.array_equal(rebuilt.b, fresh.b)
    assert rebuilt.A is a.system.A  # shared, not recomputed
    with pytest.raises(wf.DimensionMismatch):
        a.system.with_measurement(a.measured, measured_right=a.measured)

    d = bench(5, 20)
    rebuilt = d.system.with_measurement(d.measured, d.measured_right, noise=spec)
    fresh = wf.assemble_dual(wf.inverse_problem(5, d.grid), d.measured, d.measured_right,
                             noise=spec)
    assert np.array_equal(rebuilt.b, fresh.b)
    assert rebuilt.A is d.system.A
    with pytest.raises(wf.DimensionMismatch):
        d.system.with_measurement(d.measured)


def test_with_measurement_takes_only_b_through_the_intake(bench, monkeypatch):
    import waveforce.inverse
    import waveforce.model
    a = bench(2, 20)
    wf.tikhonov_solve(a.system, wf.RegConfig(order=1, lam=1e-4))
    names = []
    readonly = waveforce.model._readonly

    def counted(arr, name, ndim=1):
        names.append(name)
        return readonly(arr, name, ndim)

    for module in (waveforce.model, waveforce.inverse):
        monkeypatch.setattr(module, "_readonly", counted)
    copy = a.system.with_measurement(a.measured)
    assert names == ["b"]
    assert copy.A is a.system.A and copy._factors is a.system._factors
    assert copy.background is a.system.background and copy.source is a.system.source
    assert np.array_equal(copy.b, a.system.b) and not copy.b.flags.writeable
    # a noise draw adds the noisy series' own intake, never A's
    names.clear()
    noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, 3))
    assert names.count("b") == 1 and "A" not in names
    assert noisy.noise == wf.NoiseSpec(0.01, 3) and noisy.A is a.system.A


def test_bad_measurement_rejected_before_any_march(bench, monkeypatch):
    a = bench(2, 10)
    d = bench(5, 10)
    single = wf.inverse_problem(2, a.grid)
    dual = wf.inverse_problem(5, d.grid)

    def no_march(*args):
        raise AssertionError("assembly marched before validating the measurement")

    monkeypatch.setattr("waveforce.inverse._march", no_march)
    short = np.zeros(a.grid.N - 1)
    right = wf.FluxSeries(wf.RIGHT, a.measured.values)
    for call in (lambda: wf.assemble_single(single, short),
                 lambda: wf.assemble_single(single, right),
                 lambda: wf.assemble_dual(dual, short, d.measured_right),
                 lambda: wf.assemble_dual(dual, d.measured, short),
                 lambda: wf.assemble_dual(dual, d.measured_right, d.measured_right),
                 lambda: wf.assemble_dual(dual, d.measured, d.measured)):
        with pytest.raises(wf.DimensionMismatch):
            call()


def _column_oracle(problem):
    """Slow predecessor of the reciprocity assembly: one homogeneous march
    per unknown, each column read off the flux stencils of the observed ends."""
    g = problem.grid
    m = g.M - 1
    components = problem.source.unknowns
    ends = (wf.LEFT, wf.RIGHT)[:components]
    hom = wf.WaveProblem(g, wf.InitialData.zero(g), wf.BoundaryData.zero(g), problem.source)
    A = np.empty((len(ends) * g.N, components * m))
    for c in range(components):
        for k in range(m):
            profiles = [np.zeros(m) for _ in range(components)]
            profiles[c][k] = 1.0
            fld = wf.solve_direct(hom.with_force(*profiles))
            for r, end in enumerate(ends):
                A[r * g.N:(r + 1) * g.N, c * m + k] = 2.0 * g.dx * wf.flux(fld, end).values
    return A


def _assemble_zero_data(problem):
    # A does not depend on the measurement
    zeros = [np.zeros(problem.grid.N)] * problem.source.unknowns
    assemble = wf.assemble_single if len(zeros) == 1 else wf.assemble_dual
    return assemble(problem, *zeros)


def _stretched_problem(dual, M=30, modulations=None):
    # L, T and c away from 1 (r = 0.73 at M = 30), nonzero data,
    # space-time modulations unless others are given
    g = wf.GridSpec(2.0, 1.5, M, M + M // 3, 1.3)
    if modulations is None:
        h = wf.sample_grid(g, lambda x, t: np.cos(x) * (1.0 + t) + x * t)
        h2 = wf.sample_grid(g, lambda x, t: np.exp(-t) * x)
        modulations = (h, h2) if dual else (h,)
    return wf.WaveProblem(g,
                          wf.InitialData.from_callables(g, lambda x: np.sin(np.pi * x / 2), lambda x: x),
                          wf.BoundaryData.from_callables(g, lambda t: 0.0 * t, lambda t: t),
                          wf.Source(modulations))


def _external_time_only_problem(dual, perturbed=False):
    # modulations given as full (M+1) x (N+1) matrices that do not vary in x
    # on the interior; the end rows hold other values, which no march reads.
    # One perturbed interior entry makes the first one depend on x.
    g = _stretched_problem(dual).grid
    h = np.tile(1.0 + np.sin(3.0 * g.t), (g.M + 1, 1))
    h[0], h[-1] = 7.0, -3.0
    if perturbed:
        h[g.M // 2, g.N // 3] += 0.25
    theta = np.tile(np.exp(-g.t), (g.M + 1, 1))
    return _stretched_problem(dual, modulations=(h, theta)[:1 + dual])


def _random_problem(dual, mirrored=False):
    # modulations given as arbitrary (M+1) x (N+1) matrices, as external
    # data may hold them; a mirrored one equals its mirror image on the
    # interior nodes, bit for bit (h[k] + h[M-k] is h[M-k] + h[k]). Every
    # modulation varies in x, so A is the kernel's convolution; it reads at
    # most 2.6e-15 column-relative from the column oracle
    g = _stretched_problem(dual).grid
    rng = np.random.default_rng(29)
    modulations = [rng.normal(size=(g.M + 1, g.N + 1)) for _ in range(1 + dual)]
    if mirrored:
        for h in modulations:
            h[1:g.M] = h[1:g.M] + h[1:g.M][::-1]
    return _stretched_problem(dual, modulations=tuple(modulations))


_ORACLE_CASES = {
    **{f"scenario{ex}": (lambda ex=ex: wf.inverse_problem(ex, wf.GridSpec(1.0, 1.0, 40, 40)))
       for ex in (1, 2, 3, 4, 5)},
    "scenario3-N80": lambda: wf.inverse_problem(3, wf.GridSpec(1.0, 1.0, 40, 80)),
    "scenario5-N57": lambda: wf.inverse_problem(5, wf.GridSpec(1.0, 1.0, 40, 57)),
    "stretched-single": lambda: _stretched_problem(dual=False),
    "stretched-dual": lambda: _stretched_problem(dual=True),
    **{f"external-{kind}-{'dual' if dual else 'single'}":
       (lambda dual=dual, kind=kind: _external_time_only_problem(dual, kind == "perturbed"))
       for dual in (False, True) for kind in ("time-only", "perturbed")},
    "random-single": lambda: _random_problem(dual=False),
    "random-dual": lambda: _random_problem(dual=True),
    "random-mirrored-dual": lambda: _random_problem(dual=True, mirrored=True),
}

# Largest column-relative difference measured over these cases is 1.4e-14
# (scenario3-N80); it grows with N (2.4e-14 at M = 40, N = 100, 4.9e-14 at
# M = N = 320), since the convolution sums the march's products in another
# order. The bound leaves room for another CPU, not for a wrong column.
ORACLE_COLUMN_TOL = 1e-13


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_reciprocity_assembly_matches_column_oracle(case):
    problem = _ORACLE_CASES[case]()
    A = _assemble_zero_data(problem).A
    want = _column_oracle(problem)
    col_err = np.linalg.norm(A - want, axis=0) / np.linalg.norm(want, axis=0)
    assert np.max(col_err) <= ORACLE_COLUMN_TOL
    assert np.array_equal(A == 0, want == 0)  # causal zeros stay exact


def capture_marches(monkeypatch):
    """Patch the assembly's march; returns the list that collects, per
    march, its grid and the force of each slot."""
    marches = []
    march = wf.inverse._march

    def capturing(grid, data, forces):
        forces = list(forces)
        marches.append((grid, forces))
        return march(grid, data, forces)

    monkeypatch.setattr("waveforce.inverse._march", capturing)
    return marches


@pytest.mark.parametrize("example, slots", [(2, 2), (5, 3), (3, 2), ("stretched-dual", 2)])
def test_assembly_march_count_independent_of_M(example, slots, monkeypatch):
    # one march per assembly, whatever M; its slots are the background
    # (all-zero data, as in scenarios 2 and 3, included) plus one drive per
    # time-only modulation, or one impulse shared by the x-dependent ones;
    # never one per column
    marches = capture_marches(monkeypatch)
    for m in (10, 40):
        marches.clear()
        if example == "stretched-dual":
            problem = _stretched_problem(dual=True, M=m)
        else:
            problem = wf.inverse_problem(example, wf.GridSpec(1.0, 1.0, m, m))
        _assemble_zero_data(problem)
        assert [len(forces) for _, forces in marches] == [slots]


def impulse_force(grid):
    """The force of the kernel's slot: the left flux stencil's inward
    weights at t_0, at 1 / fdm._FIRST_LEVEL."""
    F = np.zeros((grid.M + 1, grid.N + 1))
    F[1:3, 0] = np.array(wf.fdm._FLUX_STENCIL[1:]) / wf.fdm._FIRST_LEVEL
    return F


@pytest.mark.parametrize("dual", [False, True])
def test_only_x_dependent_modulations_use_the_kernel(dual, monkeypatch):
    marches = capture_marches(monkeypatch)

    def impulses():
        (grid, forces), = marches
        marches.clear()
        return sum(np.array_equal(F, impulse_force(grid)) for F in forces)

    _assemble_zero_data(_external_time_only_problem(dual))
    assert impulses() == 0
    _assemble_zero_data(_external_time_only_problem(dual, perturbed=True))
    assert impulses() == 1


@pytest.mark.parametrize("case", ["scenario5", "stretched-dual", "external-perturbed-dual"])
def test_right_rows_mirror_left_rows(case):
    # the homogeneous march is mirror-symmetric bit for bit: the right rows
    # of A are the left rows for the mirrored modulations, each component
    # block reversed
    problem = _ORACLE_CASES[case]()
    mirrored = dataclasses.replace(
        problem, source=wf.Source(tuple(h[::-1] for h in problem.source.modulations)))
    n, m = problem.grid.N, problem.grid.M - 1
    system = _assemble_zero_data(problem)
    right = system.A[n:]
    left = _assemble_zero_data(mirrored).A[:n]
    for c in range(2):
        assert np.array_equal(right[:, c * m:(c + 1) * m], left[:, c * m:(c + 1) * m][:, ::-1])
    # so A has the mirror relation the regularized solve splits on exactly
    # when every modulation is its own mirror image on the interior nodes
    interior = [h[1:-1] for h in problem.source.modulations]
    mirrored = wf.tikhonov._has_mirror(system.A, 2)
    assert mirrored == all(np.array_equal(h, h[::-1]) for h in interior)
    # (the perturbed entry sits on the middle node, its own mirror image)
    assert mirrored == (case != "stretched-dual")


def same_system(s, s1):
    """A and background bit for bit, signed zeros included."""
    assert bitwise_equal(s.A, s1.A)
    for q, q1 in zip(s.background, s1.background, strict=True):
        assert bitwise_equal(q.values, q1.values)


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5, "stretched-dual"])
def test_matrix_is_the_assembled_A(case, bench):
    # _systems gives the zero-data system of a problem: the A and
    # background of an assembly with nonzero data or measurement, b all
    # +0.0, and the problem's grid and source; its A reads the grid and the
    # source alone, so it is that of the same source with zero data
    if case == "stretched-dual":  # x-varying modulations, nonzero data
        problem = _stretched_problem(dual=True)
        noise = np.random.default_rng(3).normal(size=(2, problem.grid.N))
        system = wf.assemble_dual(problem, *noise)
    else:
        system = bench(case, 20).system
        problem = wf.inverse_problem(case, system.grid)
    zero, = wf.inverse._systems([problem])
    same_system(zero, system)
    assert zero.grid is problem.grid and zero.source is problem.source and zero.noise is None
    assert bitwise_equal(zero.b, np.zeros(len(system.b)))
    g = problem.grid
    quiet = dataclasses.replace(problem, initial=wf.InitialData.zero(g),
                                boundary=wf.BoundaryData.zero(g))
    assert bitwise_equal(wf.inverse._systems([quiet])[0].A, zero.A)


def test_matrices_of_one_grid_share_one_march(monkeypatch):
    # the problems of one grid as slots of one march: each system is, bit
    # for bit, that of the problem alone
    g = wf.GridSpec(1.0, 1.0, 20, 20)
    problems = [wf.inverse_problem(ex, g) for ex in (1, 2, 3, 4, 5)]
    alone = [wf.inverse._systems([p])[0] for p in problems]
    marches = capture_marches(monkeypatch)
    together = wf.inverse._systems(problems)
    # drives: 1 + 1 + 1 + 2, one impulse (scenario 3), one background each
    assert [len(forces) for _, forces in marches] == [11]
    for p, s, s1 in zip(problems, together, alone, strict=True):
        same_system(s, s1)
        assert bitwise_equal(s.b, s1.b) and s.source is s1.source is p.source


def test_background_is_the_zero_force_flux(monkeypatch):
    # a background slot is the stencil's drive of the zero series under the
    # problem's own data, which binds no force: its flux is, bit for bit and
    # signed zeros included, that of the direct solve with a zero
    # KnownForce, alone or stacked with other problems. The drive holds
    # -0.0 at node 1 (the weight -4 times +0.0), where the solve holds
    # +0.0; on a grid of M >= 4 only the left flux stencil reads node 1,
    # and its node 2 (+0.0 or not zero) absorbs the sign
    def zero_force_flux(p):
        g = p.grid
        zero = wf.KnownForce(np.zeros((g.M + 1, g.N + 1)))
        field = wf.solve_direct(wf.WaveProblem(g, p.initial, p.boundary, zero))
        return [wf.flux(field, end).values for end in wf.inverse._observed_ends(p.source.unknowns)]

    g = wf.GridSpec(1.0, 1.0, 20, 20)
    stacks = [[wf.inverse_problem(ex, g)] for ex in (1, 5)]
    for M, N in ((10, 12), (30, 41)):
        g = wf.GridSpec(1.0, 1.0, M, N)
        nz = np.full(M + 1, -0.0), np.full(N + 1, -0.0)
        negative = wf.sample_grid(g, lambda x, t: -1.0 - t + 0.0 * x), -np.ones((M + 1, N + 1))
        signed = wf.WaveProblem(g, wf.InitialData(nz[0], nz[0]), wf.BoundaryData(nz[1], nz[1]),
                                wf.Source(negative))
        quiet = dataclasses.replace(signed, initial=wf.InitialData.zero(g),
                                    boundary=wf.BoundaryData.zero(g))
        stacks += [[signed], [quiet, signed]]
    marches = capture_marches(monkeypatch)
    monkeypatch.setattr(wf.WaveProblem, "with_force", None)  # no slot binds a force
    for problems in stacks:
        for k, (p, s) in enumerate(zip(problems, wf.inverse._systems(problems), strict=True)):
            for q, want in zip(s.background, zero_force_flux(p), strict=True):
                assert bitwise_equal(q.values, want), (p.grid, k, q.end)
    # all +0.0 data, as in scenarios 2-4, give a +0.0 background bit for
    # bit, on every grid down to M = 2
    for M in range(2, 25):
        for N in (M, M + 3, 2 * M):
            g = wf.GridSpec(1.0, 1.0, M, N)
            for s in wf.inverse._systems([wf.inverse_problem(ex, g) for ex in (2, 3, 4)]):
                assert bitwise_equal(s.background[0].values, np.zeros(N)), g
    # every slot's force is a drive: the stencil's weights at nodes 1 and 2
    # times a series, and zero at every other node
    for _, forces in marches:
        assert all(not np.any(F[[0, *range(3, len(F))]]) for F in forces)


def test_random_mirrored_dual_split_matches_stacked_lstsq():
    # a dual whose arbitrary modulations are mirror-symmetric on the
    # interior has the mirror relation, and its split solve agrees with the
    # whole system's least squares (1.6e-13 at most; the unmirrored random
    # dual, solved whole, reads 8.1e-14)
    from test_tikhonov import ORACLE_GRID_TOL, split, stacked_lstsq
    for mirrored in (True, False):
        problem = _random_problem(dual=True, mirrored=mirrored)
        x = problem.grid.interior_x
        field = wf.solve_direct(problem.with_force(np.sin(x), 1.0 - x))
        system = wf.assemble_dual(problem, wf.flux(field, wf.LEFT), wf.flux(field, wf.RIGHT))
        assert wf.tikhonov._has_mirror(system.A, 2) == mirrored
        for order in (0, 1, 2):
            for lam in (1e-8, 1e-4, 1e-1):
                got = wf.tikhonov_solve(system, wf.RegConfig(order=order, lam=lam)).values
                want = stacked_lstsq(system.A, system.b, order, lam, 2)
                assert np.max(np.abs(got - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))
            assert split(system._factors[order], order) == ((1, -1) if mirrored else (0,))


def test_flux_affinity_at_M_640():
    g = wf.GridSpec(1.0, 1.0, 640, 640)
    system = wf.assemble_single(wf.inverse_problem(2, g), wf.measured_flux(2, g, wf.LEFT))
    resid = system.A @ wf.exact_force(2, g).values - system.b
    assert np.linalg.norm(resid) / np.linalg.norm(system.b) <= 1e-10


def test_system_arrays_readonly(bench):
    s = bench(2, 10).system
    with pytest.raises(ValueError):
        s.A[0, 0] = 1.0
    with pytest.raises(ValueError):
        s.b[0] = 1.0
