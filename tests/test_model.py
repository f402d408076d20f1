"""Construction-time validation of grids, data containers, and force binding."""

import numpy as np
import pytest

import waveforce as wf


def test_grid_properties():
    g = wf.GridSpec(2.0, 1.0, 4, 8, 1.0)
    assert g.dx == 0.5
    assert g.dt == 0.125
    assert g.r == 0.25
    assert np.allclose(g.x, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.t.size == 9
    assert np.allclose(g.interior_x, [0.5, 1.0, 1.5])


def test_grid_cfl_boundary_inclusive():
    # r = 1 is the exact-propagation case and must construct
    g = wf.GridSpec(1.0, 1.0, 20, 20)
    assert g.r == 1.0
    with pytest.raises(wf.CFLViolation):
        wf.GridSpec(1.0, 1.0, 21, 20)


def test_grid_rejects_bad_extents_and_counts():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(wf.InvalidDimension):
            wf.GridSpec(bad, 1.0, 4, 4)
        with pytest.raises(wf.InvalidDimension):
            wf.GridSpec(1.0, bad, 4, 4)
    with pytest.raises(wf.InvalidDimension):
        wf.GridSpec(1.0, 1.0, 1, 4)
    with pytest.raises(wf.InvalidDimension):
        wf.GridSpec(1.0, 1.0, 4, 0)
    with pytest.raises(wf.InvalidDimension):
        wf.GridSpec(1.0, 1.0, 4, 4, c=0.0)
    # counts are integers: neither truncated nor taken from a bool
    for m, n in ((10.9, 10.9), (10, 10.5), (True, 4), ("4", 4)):
        with pytest.raises(wf.InvalidDimension):
            wf.GridSpec(1.0, 1.0, m, n)
    g = wf.GridSpec(1.0, 1.0, 10.0, np.int64(10))
    assert type(g.M) is int and type(g.N) is int and g.M == g.N == 10


def test_sample_grid_shapes_and_values():
    g = wf.GridSpec(1.0, 2.0, 4, 8)  # dt = dx, r = 1
    s = wf.sample_grid(g, lambda x, t: x + 10.0 * t)
    assert s.shape == (5, 9)
    assert s[2, 0] == 0.5
    assert s[0, 2] == 5.0
    assert s[4, 8] == 21.0
    const = wf.sample_grid(g, lambda x, t: 3.0)
    assert np.all(const == 3.0)
    assert not s.flags.writeable


def test_initial_and_boundary_size_checks():
    with pytest.raises(wf.DimensionMismatch):
        wf.InitialData(np.zeros(5), np.zeros(4))
    with pytest.raises(wf.DimensionMismatch):
        wf.BoundaryData(np.zeros(3), np.zeros(5))
    with pytest.raises(wf.DimensionMismatch):
        wf.InitialData(np.zeros((2, 3)), np.zeros(6))
    with pytest.raises(wf.WaveforceError):
        wf.InitialData(np.array([1.0, np.nan, 0.0]), np.zeros(3))


def _zero_problem(g):
    return wf.WaveProblem(g, wf.InitialData.zero(g), wf.BoundaryData.zero(g),
                          wf.Source((np.ones((g.M + 1, g.N + 1)),)))


def test_problem_size_checks():
    g = wf.GridSpec(1.0, 1.0, 4, 4)
    with pytest.raises(wf.DimensionMismatch):
        wf.WaveProblem(g, wf.InitialData(np.zeros(6), np.zeros(6)),
                       wf.BoundaryData.zero(g), wf.Source((np.ones((5, 5)),)))
    with pytest.raises(wf.DimensionMismatch):
        wf.WaveProblem(g, wf.InitialData.zero(g),
                       wf.BoundaryData(np.zeros(6), np.zeros(6)),
                       wf.Source((np.ones((5, 5)),)))
    with pytest.raises(wf.DimensionMismatch):
        wf.WaveProblem(g, wf.InitialData.zero(g), wf.BoundaryData.zero(g),
                       wf.Source((np.ones((4, 5)),)))


def test_corner_compatibility_enforced():
    g = wf.GridSpec(1.0, 1.0, 4, 4)
    u0 = np.zeros(5)
    u0[0] = 1.0  # disagrees with left(0) = 0
    with pytest.raises(wf.IncompatibleData):
        wf.WaveProblem(g, wf.InitialData(u0, np.zeros(5)), wf.BoundaryData.zero(g),
                       wf.Source((np.ones((5, 5)),)))
    # mismatch below tolerance passes
    u0[0] = 1e-13
    wf.WaveProblem(g, wf.InitialData(u0, np.zeros(5)), wf.BoundaryData.zero(g),
                   wf.Source((np.ones((5, 5)),)))


def test_with_force_profile_lengths():
    g = wf.GridSpec(1.0, 1.0, 4, 4)
    prob = _zero_problem(g)
    interior = prob.with_force(np.array([1.0, 2.0, 3.0]))
    assert isinstance(interior.source, wf.KnownForce)
    # interior profile is zero-padded at the ends
    assert interior.source.values[0, 0] == 0.0
    assert interior.source.values[2, 3] == 2.0
    full = prob.with_force(np.arange(5.0))
    assert full.source.values[4, 0] == 4.0
    with pytest.raises(wf.DimensionMismatch):
        prob.with_force(np.zeros(4))
    with pytest.raises(wf.DimensionMismatch):
        prob.with_force(np.zeros(3), np.zeros(3))


def test_source_modulation_count_and_shapes():
    ones = np.ones((5, 5))
    assert wf.Source((ones,)).unknowns == 1
    assert wf.Source([ones, ones]).unknowns == 2
    for mods in ((), (ones, ones, ones)):
        with pytest.raises(wf.InvalidDimension):
            wf.Source(mods)
    with pytest.raises(wf.DimensionMismatch):
        wf.Source((ones, np.ones((5, 4))))
    with pytest.raises(wf.DimensionMismatch):
        wf.Source((np.ones(5),))


def test_with_force_on_dual_and_known():
    g = wf.GridSpec(1.0, 1.0, 4, 4)
    ones = np.ones((5, 5))
    dual = wf.WaveProblem(g, wf.InitialData.zero(g), wf.BoundaryData.zero(g),
                          wf.Source((ones, 2.0 * ones)))
    bound = dual.with_force(np.ones(3), np.ones(3))
    # F = 1*1 + 1*2 = 3 at interior nodes
    assert bound.source.values[2, 2] == 3.0
    with pytest.raises(wf.DimensionMismatch):
        dual.with_force(np.ones(3))
    with pytest.raises(wf.WaveforceError):
        bound.with_force(np.ones(3))


def test_flux_series_validation():
    with pytest.raises(wf.WaveforceError):
        wf.FluxSeries("top", np.ones(3))
    with pytest.raises(wf.DimensionMismatch):
        wf.FluxSeries(wf.LEFT, np.array([]))
    q = wf.FluxSeries(wf.RIGHT, [1.0, 2.0])
    assert q.values.dtype == float
    assert not q.values.flags.writeable


def test_force_vector_blocks():
    single = wf.ForceVector(np.array([1.0, 2.0, 3.0]))
    assert single.block_size == 3
    assert single.g is None
    dual = wf.ForceVector(np.arange(6.0), components=2)
    assert np.array_equal(dual.f, [0.0, 1.0, 2.0])
    assert np.array_equal(dual.g, [3.0, 4.0, 5.0])
    for components in (3, True, 1.5):
        with pytest.raises(wf.InvalidDimension):
            wf.ForceVector(np.ones(4), components=components)
    with pytest.raises(wf.DimensionMismatch):
        wf.ForceVector(np.ones(5), components=2)


def test_payloads_are_readonly_copies():
    raw = np.ones(5)
    init = wf.InitialData(raw, raw)
    raw[0] = 99.0
    assert init.displacement[0] == 1.0
    with pytest.raises(ValueError):
        init.displacement[0] = 0.0
