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
impulse-driven march gives that kernel for every node at once. Every
slot of one stacked march (fdm._march) is such a drive, each problem's
zero-force background included: it is the drive of the zero series under
that problem's data. So the problems of one grid, a dual's two
modulations and its background included, cost one time loop. _systems
returns each such problem's system with zero data (b = 0); an assembly
is that system with b rebuilt from the measurement by with_measurement.
The march is mirror-symmetric bit for bit (its neighbor sum a + b is
b + a), so the right end's blocks and kernel are the left ones with the
columns reversed, and no march is made for the right end. This relies on
the symmetric constant-coefficient interior operator; a space-dependent
wave speed or other boundary conditions would break it.

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
from .fdm import _FIRST_LEVEL, _FLUX_STENCIL, _flux, _march
from .model import (
    LEFT,
    RIGHT,
    BoundaryData,
    FluxSeries,
    GridSpec,
    InitialData,
    Source,
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
    # {order: tikhonov._Factors, the standard form of the regularized solve}
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
    """Reciprocity assembly of the single and dual systems, whose kind is
    the count of measured series (assemble_single and assemble_dual pass
    one and two, the CLI as many as it read): the intake checks, then the
    problem's zero-data system from _systems with b rebuilt by
    with_measurement."""
    _instance(problem, (WaveProblem,), "problem")
    components = len(measured)
    if problem.source.unknowns != components:
        raise WaveforceError(f"expected a source with {components} unknown profile(s), "
                             f"got {problem.source.unknowns}")
    g = problem.grid
    if g.N < g.M - 1:
        raise UnderdeterminedSystem(f"N={g.N} observations cannot determine M-1={g.M - 1} unknowns")
    measured = _checked_measurement(measured, components, g.N)
    return _systems([problem])[0].with_measurement(*measured, noise=noise)


def _systems(problems):
    """The zero-data InverseSystem of each of `problems`, which lie on one
    grid, from one stacked march (fdm._march): its A, the zero-force
    background flux at every observed end, its grid and source, and b = 0.
    A measurement enters by with_measurement.

    Column c*(M-1) + k of A holds the flux response, at every observed end,
    to the unit profile e_k in source component c; row block r belongs to
    the r-th observed end. Every slot of the march is a drive: a march
    forced by the left flux stencil's inward weights (fdm._FLUX_STENCIL at
    nodes 1 and 2) times one time series. The slots are:
    - one per modulation that does not vary in x: the drive of the
      modulation with zero data, whose field at node k and level n+1 is
      entry [n, k-1] of the left block;
    - one impulse, when a modulation varies in x: the drive of the series
      1 / fdm._FIRST_LEVEL at t_0 and 0 after it with zero data, whose
      field is the left flux kernel G (a unit force at node k entering
      level t_1 at full weight), which such a modulation is convolved with;
    - the background of each problem: the drive of the zero series under
      its data, whose flux is the zero-force flux.
    The right blocks are the left ones mirrored (see the module
    docstring). A reads the grid and the sources alone.
    """
    g = problems[0].grid
    N, m = g.N, g.M - 1
    quiet = (InitialData.zero(g), BoundaryData.zero(g))
    # slot k marches data[k] driven by the stencil's weights times series[k]
    series, data, plans = [], [], []

    def slot(x, pair=quiet):
        series.append(x)
        data.append(pair)
        return len(series) - 1

    for p in problems:
        # driven: a modulation with one value across the interior nodes at
        # each of the levels t_0..t_{N-1}, the ones whose force a march reads
        drives = [slot(h[1]) if np.all(h[1:g.M, :N] == h[1, :N]) else None
                  for h in p.source.modulations]
        plans.append((drives, slot(np.zeros(N + 1), (p.initial, p.boundary))))
    kernel = None
    if any(None in drives for drives, _ in plans):
        impulse = np.zeros(N + 1)
        impulse[0] = 1.0 / _FIRST_LEVEL
        kernel = slot(impulse)
    w = np.zeros(g.M + 1)
    w[1:3] = _FLUX_STENCIL[1:]
    u = _march(g, data, (np.outer(w, x) for x in series))
    if kernel is not None:
        kernel = np.ascontiguousarray(u[1:, 1:g.M, kernel])

    built = []
    for p, (drives, bg) in zip(problems, plans):
        components = p.source.unknowns
        A = np.zeros((components * N, components * m))
        for c, (h, d) in enumerate(zip(p.source.modulations, drives)):
            blocks = [A[r * N:(r + 1) * N, c * m:(c + 1) * m] for r in range(components)]
            if d is not None:
                left = u[1:, 1:g.M, d]
                for blk, image in zip(blocks, (left, left[:, ::-1])):
                    blk[:] = image
                continue
            # force weights of the levels t_0..t_{N-1}, time-major, the
            # level-0 one weighted as the first marched row weights it
            hw = h[1:g.M, :N].T.copy()
            hw[0] *= _FIRST_LEVEL
            for blk, G in zip(blocks, (kernel, kernel[:, ::-1])):
                for s in range(N):
                    blk[s:] += hw[s] * G[:N - s]
        background = tuple(_flux(u[:, :, bg].T, end, g.dx) for end in _observed_ends(components))
        built.append(InverseSystem(A, np.zeros(components * N), g, background, p.source))
    return built


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
