"""Reduction of the identification problem to a dense linear system.

The discrete map from a force profile to a boundary flux series is affine:
flux(data, f) = flux(data, 0) + (linear response to f). Assembly therefore
builds the system column by column from unit-force solves with homogeneous
data, and moves the data contribution to the right-hand side:

    column k of A ~ flux response to the unit profile e_k,
    b ~ measured flux - background flux (zero-force solve with true data).

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
    DualSource,
    FluxSeries,
    GridSpec,
    InitialData,
    SingleSource,
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
    source: SingleSource | DualSource
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

        Avoids re-running the unit-force solves when sweeping seeds or
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


def _assemble(problem, source_kind, measured, noise):
    """Unit-force assembly shared by the single and dual systems.

    Column c*(M-1) + k holds the flux response, at every observed end, to
    the unit profile e_k in source component c; row block r belongs to the
    r-th observed end. b comes from with_measurement.
    """
    if not isinstance(problem.source, source_kind):
        raise WaveforceError(f"expected a problem with a {source_kind.__name__}, "
                             f"got a {type(problem.source).__name__}")
    g = problem.grid
    if g.N < g.M - 1:
        raise UnderdeterminedSystem(f"N={g.N} observations cannot determine M-1={g.M - 1} unknowns")
    components = source_kind.unknowns
    measured = _checked_measurement(measured, components, g.N)

    m = g.M - 1
    ends = _observed_ends(components)
    zeros = [np.zeros(m)] * components
    bg_field = solve_direct(problem.with_force(*zeros))
    background = tuple(flux(bg_field, end) for end in ends)
    hom = _homogeneous(problem)
    scale = 2.0 * g.dx
    A = np.empty((len(ends) * g.N, components * m))
    e = np.zeros(m)
    for c in range(components):
        profiles = list(zeros)
        profiles[c] = e
        for k in range(m):
            e[k] = 1.0
            fld = solve_direct(hom.with_force(*profiles))
            for r, end in enumerate(ends):
                A[r * g.N:(r + 1) * g.N, c * m + k] = scale * flux(fld, end).values
            e[k] = 0.0
    system = InverseSystem(A, np.zeros(A.shape[0]), g, background, problem.source)
    return system.with_measurement(*measured, noise=noise)


def _homogeneous(problem):
    return WaveProblem(problem.grid, InitialData.zero(problem.grid),
                       BoundaryData.zero(problem.grid), problem.source)


def assemble_single(problem: WaveProblem, measured, noise: NoiseSpec | None = None) -> InverseSystem:
    """Build the single-source system from a left-end flux measurement.

    Parameters
    ----------
    problem : WaveProblem
        Must carry a SingleSource. Its initial/boundary data are the true
        data of the experiment.
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
    return _assemble(problem, SingleSource, (measured,), noise)


def assemble_dual(problem: WaveProblem, measured_left, measured_right,
                  noise: NoiseSpec | None = None) -> InverseSystem:
    """Build the dual-source system from flux measurements at both ends.

    Row order: left flux rows then right flux rows. Column order: first
    component block then second component block.

    Returns
    -------
    InverseSystem
        2N x 2(M-1).
    """
    return _assemble(problem, DualSource, (measured_left, measured_right), noise)
