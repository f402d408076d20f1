"""Benchmark identification scenarios with closed-form data.

Five canonical problems exercise the whole pipeline. Each one fixes
initial/boundary data, the known space-time modulation of the source, and
the exact force profile the inversion should recover; scenarios 1 and 5
also have a closed-form displacement field and analytic boundary fluxes.

  1. f(x) = 1 + pi^2 sin(pi x), h = 1, smooth nonzero data. The exact
     field is sin(pi x) + t + t^2/2 and the left flux is constantly -pi.
  2. Triangular hat profile, h = 1 + t, zero data.
  3. Same hat profile, h = 1 + x + t.
  4. Same hat profile, h = t^2. The vanishing modulation near t = 0 makes
     this the worst conditioned of the four.
  5. Two unknown profiles driven by h = 1 and theta = t, identified from
     flux at both ends; exact f = 1 + pi^2 sin(pi x), g = -2.

Scenarios 2-4 have no closed-form flux; their "measured" data come from a
direct solve with the exact force, by default on the very mesh used for
inversion (data_refine > 1 generates data on a finer mesh instead and
keeps every r-th time sample, for honest out-of-mesh testing).

The REFERENCE_* dictionaries freeze the regression targets used by the
table-reproduction command and the test suite: condition numbers, left
flux samples at selected times, and regularized accuracy errors at the
tabulated weight for each (scenario, order, noise) combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidDimension, UnknownExample, WaveforceError
from .fdm import flux, solve_direct
from .model import (
    LEFT,
    RIGHT,
    BoundaryData,
    FluxSeries,
    ForceVector,
    GridSpec,
    InitialData,
    Source,
    WaveField,
    WaveProblem,
    _integer,
    sample_grid,
)

ALL_EXAMPLES = (1, 2, 3, 4, 5)


def _hat(x):
    # rises to 0.5 at x = 1/2, falls back to 0 at x = 1; both branches
    # agree at the peak
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.5, x, 1.0 - x)


@dataclass(frozen=True, eq=False)
class ExampleSpec:
    """Closed forms defining one benchmark scenario.

    All callables take and return arrays (broadcasting scalars is fine).
    modulations and exact_forces pair up: one modulation and one exact
    profile per unknown component (two for the dual scenario). exact_field
    and the analytic flux closures are set only where a closed form exists.
    """

    id: int
    u0: Callable
    v0: Callable
    left: Callable
    right: Callable
    modulations: tuple
    exact_forces: tuple
    exact_field: Callable | None = None
    flux_left: Callable | None = None
    flux_right: Callable | None = None


_EXAMPLES = {
    1: ExampleSpec(
        id=1,
        u0=lambda x: np.sin(np.pi * x),
        v0=lambda x: np.ones_like(x),
        left=lambda t: t + 0.5 * t * t,
        right=lambda t: t + 0.5 * t * t,
        modulations=(lambda x, t: np.ones(np.broadcast_shapes(np.shape(x), np.shape(t))),),
        exact_forces=(lambda x: 1.0 + np.pi ** 2 * np.sin(np.pi * x),),
        exact_field=lambda x, t: np.sin(np.pi * x) + t + 0.5 * t * t,
        flux_left=lambda t: np.full_like(np.asarray(t, dtype=float), -np.pi),
        flux_right=lambda t: np.full_like(np.asarray(t, dtype=float), -np.pi),
    ),
    2: ExampleSpec(
        id=2,
        u0=lambda x: np.zeros_like(x),
        v0=lambda x: np.zeros_like(x),
        left=lambda t: np.zeros_like(t),
        right=lambda t: np.zeros_like(t),
        modulations=(lambda x, t: 1.0 + t + 0.0 * x,),
        exact_forces=(_hat,),
    ),
    3: ExampleSpec(
        id=3,
        u0=lambda x: np.zeros_like(x),
        v0=lambda x: np.zeros_like(x),
        left=lambda t: np.zeros_like(t),
        right=lambda t: np.zeros_like(t),
        modulations=(lambda x, t: 1.0 + x + t,),
        exact_forces=(_hat,),
    ),
    4: ExampleSpec(
        id=4,
        u0=lambda x: np.zeros_like(x),
        v0=lambda x: np.zeros_like(x),
        left=lambda t: np.zeros_like(t),
        right=lambda t: np.zeros_like(t),
        modulations=(lambda x, t: t * t + 0.0 * x,),
        exact_forces=(_hat,),
    ),
    5: ExampleSpec(
        id=5,
        u0=lambda x: np.sin(np.pi * x),
        v0=lambda x: x * x + 1.0,
        left=lambda t: t + 0.5 * t * t,
        right=lambda t: 2.0 * t + 0.5 * t * t,
        modulations=(lambda x, t: np.ones(np.broadcast_shapes(np.shape(x), np.shape(t))),
                     lambda x, t: t + 0.0 * x),
        exact_forces=(lambda x: 1.0 + np.pi ** 2 * np.sin(np.pi * x),
                      lambda x: np.full_like(np.asarray(x, dtype=float), -2.0)),
        exact_field=lambda x, t: x * x * t + np.sin(np.pi * x) + t + 0.5 * t * t,
        flux_left=lambda t: np.full_like(np.asarray(t, dtype=float), -np.pi),
        flux_right=lambda t: 2.0 * np.asarray(t, dtype=float) - np.pi,
    ),
}


def example_spec(example_id: int) -> ExampleSpec:
    """Closed-form definition of one scenario.

    Raises
    ------
    UnknownExample
        For ids outside 1..5.
    """
    try:
        return _EXAMPLES[example_id]
    except (KeyError, TypeError):
        raise UnknownExample(f"no benchmark scenario with id {example_id!r}") from None


def _check_grid(spec: ExampleSpec, grid: GridSpec):
    # closed forms are written for a unit-speed unit-length string; the
    # zero-data scenarios and the dual one additionally fix T = 1 so the
    # tabulated references apply
    if grid.c != 1.0 or grid.L != 1.0:
        raise WaveforceError(
            f"scenario {spec.id} is defined for c = L = 1, got c={grid.c}, L={grid.L}"
        )
    if spec.id != 1 and grid.T != 1.0:
        raise WaveforceError(f"scenario {spec.id} is defined for T = 1, got T={grid.T}")


def inverse_problem(example_id: int, grid: GridSpec) -> WaveProblem:
    """Identification problem for a scenario: source profile(s) left unknown."""
    spec = example_spec(example_id)
    _check_grid(spec, grid)
    return WaveProblem(grid,
                       InitialData.from_callables(grid, spec.u0, spec.v0),
                       BoundaryData.from_callables(grid, spec.left, spec.right),
                       Source(tuple(sample_grid(grid, h) for h in spec.modulations)))


def direct_problem(example_id: int, grid: GridSpec) -> WaveProblem:
    """Same scenario with the exact force bound: ready for a direct solve."""
    spec = example_spec(example_id)
    return inverse_problem(example_id, grid).with_force(*(f(grid.x) for f in spec.exact_forces))


def exact_force(example_id: int, grid: GridSpec) -> ForceVector:
    """Exact profile(s) at the interior nodes, stacked f then g for the dual case."""
    forces = example_spec(example_id).exact_forces
    return ForceVector(np.concatenate([f(grid.interior_x) for f in forces]), len(forces))


def exact_field(example_id: int, grid: GridSpec) -> WaveField | None:
    """Closed-form displacement sampled on the grid, or None when unavailable."""
    spec = example_spec(example_id)
    if spec.exact_field is None:
        return None
    return WaveField(grid, sample_grid(grid, spec.exact_field))


def measured_flux(example_id: int, grid: GridSpec, end: str = LEFT,
                  data_refine: int = 1) -> FluxSeries:
    """Noise-free measured flux series q(t_1..t_N) at one end.

    Scenarios 1 and 5 have analytic fluxes, returned exactly. The others
    are simulated by a direct solve with the exact force on the same mesh
    (data_refine = 1, the default) or on a mesh refined by that integer
    factor in both directions, keeping every data_refine-th time sample.
    """
    if end not in (LEFT, RIGHT):
        raise WaveforceError(f"end must be {LEFT!r} or {RIGHT!r}, got {end!r}")
    r = _integer(data_refine, "data_refine")
    if r < 1:
        raise InvalidDimension(f"data_refine must be a positive integer, got {data_refine!r}")
    spec = example_spec(example_id)
    _check_grid(spec, grid)
    analytic = spec.flux_left if end == LEFT else spec.flux_right
    if analytic is not None:
        return FluxSeries(end, analytic(grid.t[1:]))
    fine = GridSpec(grid.L, grid.T, r * grid.M, r * grid.N, grid.c)
    q = flux(solve_direct(direct_problem(example_id, fine)), end)
    return FluxSeries(end, q.values[r - 1::r])


#: Reference 2-norm condition numbers of the assembled matrix, keyed by
#: (scenario id, M) with N = M. Regression targets at 2% relative.
REFERENCE_CONDITION_NUMBERS = {
    (1, 10): 28.55, (1, 20): 110.98, (1, 40): 437.93, (1, 80): 1740.25,
    (2, 10): 39.53, (2, 20): 152.38, (2, 40): 596.91, (2, 80): 2361.22,
    (3, 10): 33.73, (3, 20): 131.29, (3, 40): 518.51, (3, 80): 2061.53,
    (4, 10): 3394.55, (4, 20): 53232.36, (4, 40): 826827.12, (4, 80): 12956244.4,
}

#: Reference simulated left-flux samples keyed by (scenario id, M) with
#: N = M, mapping selected times to values. Scenario 1 targets +-5e-4,
#: scenario 2 targets +-5e-5. The exact scenario-1 flux is -pi at all t.
REFERENCE_LEFT_FLUX = {
    (1, 10): {0.1: -3.2427, 0.2: -3.2465, 0.8: -3.2899, 0.9: -3.2937, 1.0: -3.295},
    (1, 20): {0.1: -3.1675, 0.2: -3.1685, 0.8: -3.1790, 0.9: -3.1799, 1.0: -3.1802},
    (1, 40): {0.1: -3.1481, 0.2: -3.1483, 0.8: -3.1510, 0.9: -3.1512, 1.0: -3.1513},
    (1, 80): {0.1: -3.1432, 0.2: -3.1433, 0.8: -3.1439, 0.9: -3.1440, 1.0: -3.1440},
    (2, 10): {0.1: -0.00500, 0.2: -0.02100, 0.8: -0.31900, 0.9: -0.35900, 1.0: -0.39000},
    (2, 20): {0.1: -0.00512, 0.2: -0.02125, 0.8: -0.3095, 0.9: -0.34862, 1.0: -0.37875},
    (2, 40): {0.1: -0.00515, 0.2: -0.02131, 0.8: -0.30712, 0.9: -0.34603, 1.0: -0.37593},
    (2, 80): {0.1: -0.00516, 0.2: -0.02132, 0.8: -0.30653, 0.9: -0.34538, 1.0: -0.37523},
}

#: Reference regularized accuracy keyed by (scenario id, order, noise
#: percent): (weight used, accuracy error). M = N = 80, one noise draw.
REFERENCE_REGULARIZATION = {
    (2, 0, 1): (1e-6, 0.2987), (2, 0, 3): (1e-5, 0.5389), (2, 0, 5): (1e-5, 0.6259),
    (2, 1, 1): (1e-4, 0.1433), (2, 1, 3): (1e-4, 0.3112), (2, 1, 5): (1e-3, 0.4494),
    (2, 2, 1): (1e-3, 0.1264), (2, 2, 3): (1e-1, 0.2876), (2, 2, 5): (1e-1, 0.3576),
    (3, 0, 1): (1e-5, 0.35490), (3, 0, 3): (1e-5, 0.49093), (3, 0, 5): (1e-5, 0.65283),
    (3, 1, 1): (1e-4, 0.14821), (3, 1, 3): (1e-3, 0.35679), (3, 1, 5): (1e-3, 0.45932),
    (3, 2, 1): (1e-3, 0.13326), (3, 2, 3): (1e-1, 0.27424), (3, 2, 5): (1e-1, 0.39021),
    (4, 0, 1): (1e-8, 0.5947), (4, 0, 3): (1e-8, 0.8082), (4, 0, 5): (1e-8, 1.0863),
    (4, 1, 1): (1e-6, 0.1826), (4, 1, 3): (1e-6, 0.2668), (4, 1, 5): (1e-5, 0.4053),
    (4, 2, 1): (1e-5, 0.4313), (4, 2, 3): (1e-4, 0.2178), (4, 2, 5): (1e-4, 0.6912),
}

#: Times at which the flux references are tabulated.
REFERENCE_FLUX_TIMES = (0.1, 0.2, 0.8, 0.9, 1.0)
