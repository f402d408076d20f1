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
    # each axis is formed once, read-only, and equals np.linspace bit for bit
    for axis, extent, intervals in (("x", 2.0, 4), ("t", 1.0, 8)):
        nodes = getattr(g, axis)
        assert getattr(g, axis) is nodes and not nodes.flags.writeable
        assert np.array_equal(nodes, np.linspace(0.0, extent, intervals + 1))
        with pytest.raises(ValueError):
            nodes[0] = 1.0
    assert np.shares_memory(g.interior_x, g.x)


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


def test_callables_are_sampled_through_one_rule():
    # every callable slot: WrongType for a non-callable and for a signature
    # that cannot take the slot's axes, DimensionMismatch for output that
    # does not broadcast, a constant broadcast to the axes, and the stored
    # samples a read-only copy of what the callable returned; a TypeError
    # raised inside the callable is its own, and a callable with no
    # signature (a builtin) is called as it is
    g = wf.GridSpec(1.0, 1.0, 4, 4)
    out = np.arange(5.0)
    calls = ((2, lambda fn: wf.sample_grid(g, fn)),
             (1, lambda fn: wf.InitialData.from_callables(g, fn, fn).velocity),
             (1, lambda fn: wf.BoundaryData.from_callables(g, fn, fn).right))
    for axes, call in calls:
        with pytest.raises(wf.WrongType, match="must be a callable, got float"):
            call(3.0)
        for wrong in (lambda: 0.0, lambda x, t, s: 0.0, (lambda x: x) if axes == 2 else (lambda x, t: x)):
            with pytest.raises(wf.WrongType, match=f"must take {axes} positional argument"):
                call(wrong)
        with pytest.raises(TypeError, match="unsupported operand") as info:
            call(lambda *axes: 1.0 + "a")
        assert not isinstance(info.value, wf.WaveforceError)
        with pytest.raises(TypeError, match="missing 1 required positional argument") as info:
            call(lambda *axes: (lambda x, t: x)(axes[0]))  # a wrong call inside the body
        assert not isinstance(info.value, wf.WaveforceError)
        if axes == 1:
            assert np.all(call(max) == 1.0)  # no signature: max(x) and max(t) are 1
            with pytest.raises(TypeError, match="getattr expected") as info:
                call(getattr)  # no signature to check the one argument against
            assert not isinstance(info.value, wf.WaveforceError)
        with pytest.raises(wf.DimensionMismatch, match="does not broadcast"):
            call(lambda *axes: np.ones(3))
        assert np.all(call(lambda *axes: 2.0) == 2.0)
        sampled = call(lambda *axes: out)
        assert not sampled.flags.writeable and not np.shares_memory(sampled, out)


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
    # each data pair against its grid axis, the message naming the pair
    g = wf.GridSpec(1.0, 1.0, 10, 12)
    source = wf.Source((np.ones((11, 13)),))
    with pytest.raises(wf.DimensionMismatch, match="^initial data has 10 samples, grid needs 11$"):
        wf.WaveProblem(g, wf.InitialData(np.zeros(10), np.zeros(10)), wf.BoundaryData.zero(g), source)
    with pytest.raises(wf.DimensionMismatch, match="^boundary data has 5 samples, grid needs 13$"):
        wf.WaveProblem(g, wf.InitialData.zero(g), wf.BoundaryData(np.zeros(5), np.zeros(5)), source)
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
    for end, node in ((wf.LEFT, 0), (wf.RIGHT, -1)):
        u0 = np.zeros(5)
        u0[node] = 1.0  # disagrees with the end's boundary value 0 at t = 0
        with pytest.raises(wf.IncompatibleData, match=f"{end} boundary at t=0"):
            wf.WaveProblem(g, wf.InitialData(u0, np.zeros(5)), wf.BoundaryData.zero(g),
                           wf.Source((np.ones((5, 5)),)))
        # mismatch below tolerance passes
        u0[node] = 1e-13
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


def test_field_shape_check():
    g = wf.GridSpec(1.0, 1.0, 10, 10)
    shapes = r"^field shape \(11, 10\) does not match grid \(11, 11\)$"
    with pytest.raises(wf.DimensionMismatch, match=shapes):
        wf.WaveField(g, np.zeros((11, 10)))


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
