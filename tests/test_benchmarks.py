"""Benchmark scenario definitions: closed forms, simulated data, references."""

import numpy as np
import pytest

import waveforce as wf


def test_unknown_ids_rejected():
    for bad in (0, 6, -1, "2", None):
        with pytest.raises(wf.UnknownExample):
            wf.example_spec(bad)


def test_grid_preconditions():
    with pytest.raises(wf.WaveforceError):
        wf.inverse_problem(1, wf.GridSpec(2.0, 2.0, 10, 10))  # L != 1
    with pytest.raises(wf.WaveforceError):
        wf.inverse_problem(2, wf.GridSpec(1.0, 2.0, 10, 20))  # T != 1
    # the smooth scenario allows any horizon
    wf.inverse_problem(1, wf.GridSpec(1.0, 2.0, 10, 20))


def test_all_scenarios_construct():
    g = wf.GridSpec(1.0, 1.0, 10, 10)
    for ex in wf.ALL_EXAMPLES:
        prob = wf.inverse_problem(ex, g)
        force = wf.exact_force(ex, g)
        assert prob.grid is g
        assert force.block_size == 9
        assert force.components == prob.source.unknowns == (2 if ex == 5 else 1)


def test_analytic_fluxes():
    g = wf.GridSpec(1.0, 1.0, 16, 16)
    q1 = wf.measured_flux(1, g, wf.LEFT)
    assert np.all(q1.values == -np.pi)
    q5l = wf.measured_flux(5, g, wf.LEFT)
    q5r = wf.measured_flux(5, g, wf.RIGHT)
    assert np.all(q5l.values == -np.pi)
    assert np.max(np.abs(q5r.values - (2.0 * g.t[1:] - np.pi))) <= 1e-15


def test_hat_profile():
    g = wf.GridSpec(1.0, 1.0, 20, 20)
    for ex in (2, 3, 4):
        f = wf.exact_force(ex, g).values
        assert f[9] == 0.5  # x = 1/2 is interior node 10 of 19
        assert np.max(f) == 0.5
        assert np.allclose(f[:10], g.interior_x[:10])
        assert np.allclose(f[10:], 1.0 - g.interior_x[10:])


def test_dual_scenario_profiles():
    g = wf.GridSpec(1.0, 1.0, 12, 12)
    sol = wf.exact_force(5, g)
    assert np.all(sol.g == -2.0)
    assert np.max(np.abs(sol.f - (1.0 + np.pi ** 2 * np.sin(np.pi * g.interior_x)))) <= 1e-15


def test_exact_field_sampling_identities():
    # the closed-form field must reproduce the problem data exactly at nodes
    g = wf.GridSpec(1.0, 1.0, 14, 14)
    for ex in (1, 5):
        spec = wf.example_spec(ex)
        u = wf.exact_field(ex, g).values
        assert np.max(np.abs(u[:, 0] - spec.u0(g.x))) <= 1e-15
        assert np.max(np.abs(u[0, :] - spec.left(g.t))) <= 1e-15
        assert np.max(np.abs(u[-1, :] - spec.right(g.t))) <= 1e-15
    assert wf.exact_field(2, g) is None


def test_dual_direct_solve_accuracy():
    g = wf.GridSpec(1.0, 1.0, 80, 80)
    u = wf.solve_direct(wf.direct_problem(5, g)).values
    assert np.max(np.abs(u - wf.exact_field(5, g).values)) <= 2e-3


def test_simulated_flux_reference_cells():
    # hat scenario with h = 1 + t: simulated left flux at the tabulated
    # (M, t) pairs, tight tolerance
    for (ex, m), cells in wf.REFERENCE_LEFT_FLUX.items():
        if ex != 2:
            continue
        g = wf.GridSpec(1.0, 1.0, m, m)
        q = wf.measured_flux(2, g, wf.LEFT)
        for t, ref in cells.items():
            j = round(t * g.N)
            assert abs(q.values[j - 1] - ref) <= 5e-5, (m, t)


def test_simulated_flux_converges_under_refinement():
    # worst-conditioned scenario: flux curves at increasing resolution
    # approach each other at shared time nodes
    qs = {}
    for m in (5, 10, 20, 40, 80):
        g = wf.GridSpec(1.0, 1.0, m, m)
        qs[m] = wf.measured_flux(4, g, wf.LEFT).values
    shared = np.arange(1, 6) / 5.0  # t = 0.2 .. 1.0 exist on every mesh
    gaps = []
    for coarse, fine in ((5, 10), (10, 20), (20, 40), (40, 80)):
        qc = qs[coarse][[round(t * coarse) - 1 for t in shared]]
        qf = qs[fine][[round(t * fine) - 1 for t in shared]]
        gaps.append(np.max(np.abs(qc - qf)))
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


def test_data_refine_changes_data_little():
    g = wf.GridSpec(1.0, 1.0, 20, 20)
    q1 = wf.measured_flux(3, g, wf.LEFT).values
    q2 = wf.measured_flux(3, g, wf.LEFT, data_refine=2).values
    assert q1.size == q2.size == 20
    d = np.max(np.abs(q1 - q2))
    assert 0.0 < d < 5e-3
    for bad in (0, 1.5, True):
        with pytest.raises(wf.InvalidDimension):
            wf.measured_flux(3, g, wf.LEFT, data_refine=bad)


def test_reference_tables_complete():
    assert len(wf.REFERENCE_CONDITION_NUMBERS) == 16
    assert len(wf.REFERENCE_REGULARIZATION) == 27
    assert set(wf.REFERENCE_FLUX_TIMES) == {0.1, 0.2, 0.8, 0.9, 1.0}
    for (ex, m), cells in wf.REFERENCE_LEFT_FLUX.items():
        assert ex in (1, 2) and m in (10, 20, 40, 80)
        assert set(cells) == set(wf.REFERENCE_FLUX_TIMES)
