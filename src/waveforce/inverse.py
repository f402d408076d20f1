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
the response at node k to the stencil's weights used as an impulse. So a
modulation that depends on time only gets its whole left block from one
zero-data march driven by the stencil's weights times the modulation: the
field at node k is column k. A modulation that varies in x is instead a
causal convolution of each node's modulation with the left flux kernel
(first time level weighted as the first marched row weights it); one
impulse-driven march gives that kernel for every node at once. The march
is mirror-symmetric bit for bit (its neighbor sum a + b is b + a), so the
right end's blocks and kernel are the left ones with the columns
reversed, and no march is made for the right end. This relies on the
symmetric constant-coefficient interior operator; a space-dependent wave
speed or other boundary conditions would break it.

Mirror relation. When, in addition, every modulation equals its own
mirror image on the interior nodes (h(x_k, t) = h(x_{M-k}, t), as for
any modulation that depends on time only), the right block of each
component is its left block with the columns reversed, so a dual A reads
[[B, C], [B J, C J]] for the reversal J of the M-1 unknowns, bit for bit,
and the regularized solve splits the system into an even and an odd half
(see tikhonov).

Row convention: each row is stated in cleared-denominator stencil units,
i.e. both the columns and b carry a factor 2*dx relative to raw flux units.
In these units row j of the single-source system is literally fdm's flux
stencil (fdm._FLUX_STENCIL) on the end node and its two inward neighbours
at t_j, equal to 2*dx*q(t_j), which is the form the eliminated global FDM
system takes. Least-squares solutions and condition numbers are invariant
to this uniform row scale; the Tikhonov lambda axis is stated in these
units.

A dual measurement (both ends observed, two unknown profiles) stacks left
flux rows then right flux rows, and first-component columns then
second-component columns.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, UnderdeterminedSystem, WaveforceError
from .fdm import _FIRST_LEVEL, _FLUX_STENCIL, flux, solve_direct
from .model import (
    LEFT,
    RIGHT,
    BoundaryData,
    FluxSeries,
    GridSpec,
    InitialData,
    KnownForce,
    Source,
    WaveField,
    WaveProblem,
    _instance,
    _readonly,
)
from .noise import NoiseSpec, add_noise


@dataclass(frozen=True, eq=False)
class InverseSystem:
    """Dense system A f = b plus the metadata needed to rebuild or audit it.

    A has N rows and M-1 columns for a single-source identification,
    2N rows and 2(M-1) columns for a dual one. `background` holds the
    zero-force flux series (left, and right for dual) in raw flux units.
    `noise` records the perturbation applied to the measurement, if any.
    A and b are read-only copies of the caller's arrays. Copies made by
    with_measurement share A and the factors of the regularized solve; any
    other copy starts without them.
    """

    A: np.ndarray
    b: np.ndarray
    grid: GridSpec
    background: tuple
    source: Source
    noise: NoiseSpec | None = None
    # {order: tikhonov._Factors (the standard form), or its failed rank rule's message}
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _instance(self.grid, (GridSpec,), "grid")
        _instance(self.source, (Source,), "source")
        _instance(self.noise, (NoiseSpec, type(None)), "noise")
        A, b = _readonly(self.A, "A", ndim=2), _readonly(self.b, "b")
        k, g = self.components, self.grid
        shape = (k * g.N, k * (g.M - 1))
        if A.shape != shape:
            raise DimensionMismatch(f"a {k}-component system on M={g.M}, N={g.N} takes A "
                                    f"of shape {shape}, got {A.shape}")
        if A.shape[0] != b.size:
            raise DimensionMismatch(f"A is {A.shape} but b has {b.size} entries")
        background = tuple(_checked_measurement(self.background, self.components, self.grid.N))
        for name, value in (("A", A), ("b", b), ("background", background)):
            object.__setattr__(self, name, value)

    @property
    def components(self):
        return self.source.unknowns

    def with_measurement(self, measured, measured_right=None, noise=None):
        """New system sharing this one's A and backgrounds, with b rebuilt
        from a different measurement (and optional noise).

        Avoids re-running the assembly marches, and the factorization of
        the regularized solve, when sweeping seeds or swapping data on a
        fixed problem.
        """
        series = (measured,) if measured_right is None else (measured, measured_right)
        series = _checked_measurement(series, self.components, self.grid.N)
        if noise is not None:
            series = [add_noise(s, noise) for s in series]
        b = 2.0 * self.grid.dx * np.concatenate(
            [s.values - bg.values for s, bg in zip(series, self.background)])
        # only b passes the intake: A, the metadata and the factors are
        # this system's own, already checked and read-only
        copy = object.__new__(type(self))
        vars(copy).update(vars(self), b=_readonly(b, "b"), noise=noise)
        return copy


def _observed_ends(components):
    """Ends whose flux a measurement covers: the left end for a single
    source, left then right for a dual one."""
    return (LEFT, RIGHT)[:components]


def _checked_measurement(series, components, N):
    """One FluxSeries of N samples per observed end, in end order; a plain
    array is taken as the series of its end."""
    ends = _observed_ends(components)
    if not isinstance(series, (tuple, list)) or len(series) != len(ends):
        raise DimensionMismatch(f"a {components}-component system takes a tuple of "
                                f"{len(ends)} measured series")
    series = [s if isinstance(s, FluxSeries) else FluxSeries(end, s) for s, end in zip(series, ends)]
    for s, end in zip(series, ends):
        if s.end != end or s.values.size != N:
            raise DimensionMismatch(f"expected a {end} flux series of {N} samples, "
                                    f"got a {s.end} one of {s.values.size}")
    return series


def _assemble(problem, measured, noise):
    """Reciprocity assembly shared by the single and dual systems: the
    intake checks, the zero-force background flux at every observed end,
    A from _matrix, and b from with_measurement."""
    _instance(problem, (WaveProblem,), "problem")
    components = len(measured)
    if problem.source.unknowns != components:
        raise WaveforceError(f"expected a source with {components} unknown profile(s), "
                             f"got {problem.source.unknowns}")
    g = problem.grid
    if g.N < g.M - 1:
        raise UnderdeterminedSystem(f"N={g.N} observations cannot determine M-1={g.M - 1} unknowns")
    measured = _checked_measurement(measured, components, g.N)

    data = np.concatenate([problem.initial.displacement, problem.initial.velocity,
                           problem.boundary.left, problem.boundary.right])
    if np.any(data) or np.any(np.signbit(data)):
        bg_field = solve_direct(problem.with_force(*[np.zeros(g.M - 1)] * components))
    else:  # all data +0.0: the march would give +0.0 everywhere
        bg_field = WaveField(g, np.zeros((g.M + 1, g.N + 1)))
    background = tuple(flux(bg_field, end) for end in _observed_ends(components))
    return InverseSystem(_matrix(problem), np.zeros(components * g.N), g, background,
                         problem.source).with_measurement(*measured, noise=noise)


def _matrix(problem):
    """A of the problem's system, from its grid and source alone.

    Column c*(M-1) + k holds the flux response, at every observed end, to
    the unit profile e_k in source component c; row block r belongs to the
    r-th observed end. A modulation that does not vary in x gets its left
    block from one driven march; any other is convolved with the left flux
    kernel. The right block is the mirror image (see the module
    docstring). The initial and boundary data are not read.
    """
    g, components = problem.grid, problem.source.unknowns
    m = g.M - 1
    A = np.zeros((components * g.N, components * m))
    kernel = None
    for c, h in enumerate(problem.source.modulations):
        blocks = [A[r * g.N:(r + 1) * g.N, c * m:(c + 1) * m] for r in range(components)]
        # force weights of the levels t_0..t_{N-1}, time-major
        hw = h[1:g.M, :g.N].T
        if np.all(hw == hw[:, :1]):
            left = _left_block(g, h[1])
            for blk, image in zip(blocks, (left, left[:, ::-1])):
                blk[:] = image
            continue
        if kernel is None:
            kernel = _flux_kernel(g)
        hw = hw.copy()
        hw[0] *= _FIRST_LEVEL  # as the first marched row weights the level-0 force
        for blk, G in zip(blocks, (kernel, kernel[:, ::-1])):
            for s in range(g.N):
                blk[s:] += hw[s] * G[:g.N - s]
    return A


def _left_block(grid, series):
    """Left-end block of a modulation that depends on time only.

    `series` holds the modulation at the N+1 time levels. Returns the
    N x (M-1) array whose entry [n, k-1] is the 2*dx-scaled left flux at
    t_{n+1} of a zero-data march forced by the unit profile e_k times the
    modulation. By reciprocity it is the field at node k and level n+1 of
    one zero-data march forced by the left flux stencil's inward weights
    (fdm._FLUX_STENCIL at nodes 1 and 2) times the modulation; the scheme's
    first level weights the level-0 force as the unit-profile march does.
    """
    w = np.zeros(grid.M + 1)
    w[1:3] = _FLUX_STENCIL[1:]
    problem = WaveProblem(grid, InitialData.zero(grid), BoundaryData.zero(grid),
                          KnownForce(np.outer(w, series)))
    return solve_direct(problem).values[1:grid.M, 1:].T


def _flux_kernel(grid):
    """Left flux kernel of every interior node at once, N x (M-1).

    G[n, k-1] is the 2*dx-scaled left flux at t_{n+1} of a zero-data march
    whose only input is a unit force at node k entering level t_1 at full
    weight: the left block of an impulse modulation of height
    1 / fdm._FIRST_LEVEL at t_0, which the first level's weight turns into 1.
    """
    impulse = np.zeros(grid.N + 1)
    impulse[0] = 1.0 / _FIRST_LEVEL
    return np.ascontiguousarray(_left_block(grid, impulse))


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
