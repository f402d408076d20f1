"""Shared fixtures: benchmark assemblies are expensive, so cache them per session."""

import collections

import pytest

import waveforce as wf

Assembled = collections.namedtuple("Assembled", "system measured measured_right exact grid")

_cache = {}


@pytest.fixture(scope="session")
def bench():
    """Callable fixture: bench(example_id, m=80) -> Assembled, cached.

    The returned system is noise-free; tests add noise via
    system.with_measurement(measured, noise=...) without re-assembling.
    """

    def get(example_id, m=80):
        key = (example_id, m)
        if key not in _cache:
            grid = wf.GridSpec(1.0, 1.0, m, m, 1.0)
            problem = wf.inverse_problem(example_id, grid)
            measured = wf.measured_flux(example_id, grid, wf.LEFT)
            exact = wf.exact_force(example_id, grid)
            if problem.source.unknowns == 2:
                measured_right = wf.measured_flux(example_id, grid, wf.RIGHT)
                system = wf.assemble_dual(problem, measured, measured_right)
            else:
                measured_right = None
                system = wf.assemble_single(problem, measured)
            _cache[key] = Assembled(system, measured, measured_right, exact, grid)
        return _cache[key]

    return get
