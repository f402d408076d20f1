"""System assembly: superposition structure, conventions, rank guards."""

import dataclasses

import numpy as np
import pytest

import waveforce as wf


def fabricated_system(A, b):
    """Wrap a raw matrix into an InverseSystem for solver-level tests."""
    A = np.asarray(A, dtype=float)
    n, m = A.shape
    grid = wf.GridSpec(1.0, 1.0, m + 1, max(n, m + 1))
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


def test_bad_measurement_rejected_before_any_march(bench, monkeypatch):
    a = bench(2, 10)
    d = bench(5, 10)
    single = wf.inverse_problem(2, a.grid)
    dual = wf.inverse_problem(5, d.grid)

    def no_march(problem):
        raise AssertionError("assembly marched before validating the measurement")

    monkeypatch.setattr("waveforce.inverse.solve_direct", no_march)
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


def _stretched_problem(dual):
    # L, T and c away from 1 (r = 0.73), nonzero data, space-time modulations
    g = wf.GridSpec(2.0, 1.5, 30, 40, 1.3)
    h = wf.sample_grid(g, lambda x, t: np.cos(x) * (1.0 + t) + x * t)
    h2 = wf.sample_grid(g, lambda x, t: np.exp(-t) * x)
    source = wf.Source((h, h2) if dual else (h,))
    return wf.WaveProblem(g,
                          wf.InitialData.from_callables(g, lambda x: np.sin(np.pi * x / 2), lambda x: x),
                          wf.BoundaryData.from_callables(g, lambda t: 0.0 * t, lambda t: t),
                          source)


_ORACLE_CASES = {
    **{f"scenario{ex}": (lambda ex=ex: wf.inverse_problem(ex, wf.GridSpec(1.0, 1.0, 40, 40)))
       for ex in (1, 2, 3, 4, 5)},
    "scenario3-N80": lambda: wf.inverse_problem(3, wf.GridSpec(1.0, 1.0, 40, 80)),
    "scenario5-N57": lambda: wf.inverse_problem(5, wf.GridSpec(1.0, 1.0, 40, 57)),
    "stretched-single": lambda: _stretched_problem(dual=False),
    "stretched-dual": lambda: _stretched_problem(dual=True),
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


@pytest.mark.parametrize("example, marches", [(2, 2), (5, 3)])
def test_assembly_march_count_independent_of_M(example, marches, monkeypatch):
    # background plus one kernel march per observed end, never one per column
    calls = []

    def counting(problem):
        calls.append(problem)
        return wf.solve_direct(problem)

    monkeypatch.setattr("waveforce.inverse.solve_direct", counting)
    for m in (10, 40):
        calls.clear()
        _assemble_zero_data(wf.inverse_problem(example, wf.GridSpec(1.0, 1.0, m, m)))
        assert len(calls) == marches


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
