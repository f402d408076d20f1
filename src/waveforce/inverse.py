"""Reduction of the identification problem to a dense linear system.

The discrete map from a force profile to a boundary flux series is affine:
flux(data, f) = flux(data, 0) + (linear response to f). Column k of A is
the flux response to the unit profile e_k with homogeneous data, and the
data contribution moves to the right-hand side:

    column k of A ~ flux response to the unit profile e_k,
    b ~ measured flux - background flux (zero-force solve with true data).

The columns are not marched one by one. The homogeneous scheme is linear
and shift-invariant in time, and its interior operator (the constant-
coefficient three-point stencil with Dirichlet ends) is symmetric. By
reciprocity the flux stencil's response to an impulse at node k equals
the response at node k to the stencil's weights used as an impulse. So one
zero-data march per observed end, started from the flux stencil, yields
the flux kernel of every node at once, and each column is the causal
convolution of that kernel with the node's modulation (first time level
at half weight, as in the first marched row). This relies on the symmetric
constant-coefficient interior operator; a space-dependent wave speed or
other boundary conditions would break it.

Row convention: each row is stated in cleared-denominator stencil units,
i.e. both the columns and b carry a factor 2*dx relative to raw flux units.
In these units row j of the single-source system is literally the identity
3u[0,j] - 4u[1,j] + u[2,j] = 2*dx*q(t_j) with unit coefficients, which is
the form the eliminated global FDM system takes. Least-squares solutions,
condition numbers, and normalized singular values are invariant to this
uniform row scale; the Tikhonov lambda axis is stated in these units.

A dual measurement (both ends observed, two unknown profiles) stacks left
flux rows then right flux rows, and first-component columns then
second-component columns.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, UnderdeterminedSystem, WaveforceError
from .fdm import flux, solve_direct
from .model import (
    LEFT,
    RIGHT,
    BoundaryData,
    FluxSeries,
    GridSpec,
    InitialData,
    KnownForce,
    Source,
    WaveProblem,
)
from .noise import NoiseSpec, add_noise


@dataclass(frozen=True, eq=False)
class InverseSystem:
    """Dense system A f = b plus the metadata needed to rebuild or audit it.

    A has N rows and M-1 columns for a single-source identification,
    2N rows and 2(M-1) columns for a dual one. `background` holds the
    zero-force flux series (left, and right for dual) in raw flux units.
    `noise` records the perturbation applied to the measurement, if any.
    """

    A: np.ndarray
    b: np.ndarray
    grid: GridSpec
    background: tuple
    source: Source
    noise: NoiseSpec | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != b.size:
            raise DimensionMismatch(f"A is {A.shape} but b has {b.size} entries")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def components(self):
        return self.source.unknowns

    @property
    def n_unknowns(self):
        return self.A.shape[1]

    def with_measurement(self, measured, measured_right=None, noise=None):
        """New system sharing this one's A and backgrounds, with b rebuilt
        from a different measurement (and optional noise).

        Avoids re-running the assembly marches when sweeping seeds or
        swapping data on a fixed problem.
        """
        series = (measured,) if measured_right is None else (measured, measured_right)
        series = _checked_measurement(series, self.components, self.grid.N)
        if noise is not None:
            series = [add_noise(s, noise) for s in series]
        b = 2.0 * self.grid.dx * np.concatenate(
            [s.values - bg.values for s, bg in zip(series, self.background)])
        return replace(self, b=b, noise=noise)


def _observed_ends(components):
    """Ends whose flux a measurement covers: the left end for a single
    source, left then right for a dual one."""
    return (LEFT, RIGHT)[:components]


def _checked_measurement(series, components, N):
    """Validate one measured series per observed end, in end order."""
    ends = _observed_ends(components)
    if len(series) != len(ends):
        raise DimensionMismatch(
            f"a {components}-component system takes {len(ends)} measured series, got {len(series)}")
    return [_checked(s, end, N) for s, end in zip(series, ends)]


def _checked(series, end, N):
    if not isinstance(series, FluxSeries):
        series = FluxSeries(end, series)
    if series.end != end:
        raise DimensionMismatch(f"expected a {end} flux series, got {series.end}")
    if series.values.size != N:
        raise DimensionMismatch(f"measured series has {series.values.size} samples, grid needs {N}")
    return series


def _assemble(problem, measured, noise):
    """Reciprocity assembly shared by the single and dual systems.

    Column c*(M-1) + k holds the flux response, at every observed end, to
    the unit profile e_k in source component c; row block r belongs to the
    r-th observed end. Each block is the causal convolution of the end's
    flux kernel with the component's modulation. b comes from
    with_measurement.
    """
    components = len(measured)
    if problem.source.unknowns != components:
        raise WaveforceError(f"expected a source with {components} unknown profile(s), "
                             f"got {problem.source.unknowns}")
    g = problem.grid
    if g.N < g.M - 1:
        raise UnderdeterminedSystem(f"N={g.N} observations cannot determine M-1={g.M - 1} unknowns")
    measured = _checked_measurement(measured, components, g.N)

    m = g.M - 1
    ends = _observed_ends(components)
    bg_field = solve_direct(problem.with_force(*[np.zeros(m)] * components))
    background = tuple(flux(bg_field, end) for end in ends)
    kernels = [_flux_kernel(g, end) for end in ends]
    A = np.zeros((len(ends) * g.N, components * m))
    for c, h in enumerate(problem.source.modulations):
        # force weights of the levels t_0..t_{N-1}, time-major; the first
        # marched row takes the level-0 force at half weight
        hw = h[1:g.M, :g.N].T.copy()
        hw[0] *= 0.5
        for r, G in enumerate(kernels):
            blk = A[r * g.N:(r + 1) * g.N, c * m:(c + 1) * m]
            for s in range(g.N):
                blk[s:] += hw[s] * G[:g.N - s]
    system = InverseSystem(A, np.zeros(A.shape[0]), g, background, problem.source)
    return system.with_measurement(*measured, noise=noise)


def _flux_kernel(grid, end):
    """Flux kernel of one observed end for every interior node at once.

    G[n, k-1] is the 2*dx-scaled flux at t_{n+1} of a zero-data march whose
    only input is a unit force at node k entering level t_1 at full weight
    (u[k, 1] = dt^2). By reciprocity it equals the field at node k and
    level n+1 of a zero-data march whose first marched row is dt^2 times
    the flux stencil's weights; the boundary node's term drops out, its
    value being zero. Returned as an N x (M-1) array.
    """
    M = grid.M
    w = np.zeros(M + 1)
    if end == LEFT:
        w[1], w[2] = -4.0, 1.0
    else:
        w[M - 1], w[M - 2] = -4.0, 1.0
    problem = WaveProblem(grid, InitialData(np.zeros(M + 1), grid.dt * w),
                          BoundaryData.zero(grid), KnownForce(np.zeros((M + 1, grid.N + 1))))
    return np.ascontiguousarray(solve_direct(problem).values[1:M, 1:].T)


def assemble_single(problem: WaveProblem, measured, noise: NoiseSpec | None = None) -> InverseSystem:
    """Build the single-source system from a left-end flux measurement.

    Parameters
    ----------
    problem : WaveProblem
        Must carry a Source with one modulation. Its initial/boundary
        data are the true data of the experiment.
    measured : FluxSeries or array of length N
        Observed left flux at t_1..t_N.
    noise : NoiseSpec, optional
        Perturbation applied to the measurement before assembly.

    Returns
    -------
    InverseSystem
        N x (M-1), rows in cleared-denominator units (see module docstring).

    Raises
    ------
    UnderdeterminedSystem
        When N < M-1.
    """
    return _assemble(problem, (measured,), noise)


def assemble_dual(problem: WaveProblem, measured_left, measured_right,
                  noise: NoiseSpec | None = None) -> InverseSystem:
    """Build the dual-source system (a Source with two modulations) from
    flux measurements at both ends.

    Row order: left flux rows then right flux rows. Column order: first
    component block then second component block.

    Returns
    -------
    InverseSystem
        2N x 2(M-1).
    """
    return _assemble(problem, (measured_left, measured_right), noise)
