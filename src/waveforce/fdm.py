"""Explicit finite-difference solver for the direct problem, plus flux extraction.

The scheme is the standard central-difference march for u_tt = c^2 u_xx + F
on a uniform grid with ratio r = c*dt/dx <= 1:

    u[i, j+1] = r^2 u[i+1, j] + 2(1 - r^2) u[i, j] + r^2 u[i-1, j]
                - u[i, j-1] + dt^2 F[i, j]

The first marched row folds the initial velocity in through the usual ghost
elimination, which halves the force and neighbor contributions:

    u[i, 1] = r^2/2 (u0[i+1] + u0[i-1]) + (1 - r^2) u0[i]
              + dt v0[i] + dt^2/2 F[i, 0]

Boundary columns i = 0 and i = M carry the prescribed Dirichlet data at
every level; row j = 0 carries the initial displacement.

One kernel, _march, marches K problems on one grid at once. It holds them
in a time-major (N+1, M+1, K) array: a level is one contiguous row of
(M+1) x K values, the K problems (the stack's slots) innermost, so the
interior nodes of every slot form one contiguous run and each level costs
the same six ufunc calls whatever K is. Every slot gets the products of
the formulas above in their order, so it is bit for bit the march of its
problem alone; solve_direct is the case K = 1. _fluxes reads one end's
flux series of every slot straight off the stack, building no WaveField:
it serves the simulated measurement and the flux tables.
"""

from __future__ import annotations

import numpy as np

from .errors import UnresolvedForce
from .model import LEFT, FluxSeries, KnownForce, WaveField, WaveProblem, _checked_end, _instance

#: 2*dx times the flux at an end, as weights of the end node and its two
#: inward neighbours: the one-sided three-point stencil, exact on quadratics
_FLUX_STENCIL = (3.0, -4.0, 1.0)
#: weight of the force and the neighbour terms in the first marched row,
#: from the ghost elimination of the velocity condition
_FIRST_LEVEL = 0.5


def solve_direct(problem: WaveProblem) -> WaveField:
    """March the explicit scheme over the full grid.

    Parameters
    ----------
    problem : WaveProblem
        Must carry a KnownForce source. A problem built around a Source
        with unknown profiles is bound first via WaveProblem.with_force.

    Returns
    -------
    WaveField
        Displacement samples on the (M+1, N+1) node array. Row j=0 and
        columns i=0, i=M equal the prescribed data bit-exactly.

    Raises
    ------
    UnresolvedForce
        If the source still has unknown components.
    """
    _instance(problem, (WaveProblem,), "problem")
    if not isinstance(problem.source, KnownForce):
        raise UnresolvedForce("direct solve needs a fully specified force; use with_force")
    u = _march(problem.grid, [(problem.initial, problem.boundary)], [problem.source.values])
    return WaveField(problem.grid, u[:, :, 0].T)


def _march(grid, data, forces):
    """March K problems on `grid` as one stack (see the module docstring).

    `data` holds the K slots' (InitialData, BoundaryData) pairs; `forces`
    yields their K force arrays F, each (M+1, N+1), in slot order. Each F
    is read only while its slot is set up, so a generator keeps one alive.
    Returns u of shape (N+1, M+1, K): u[j, i, k] is slot k's displacement
    at node i and level j.
    """
    M, N, K = grid.M, grid.N, len(data)
    dt = grid.dt
    r2 = grid.r ** 2
    # Row j + 1 holds dt^2 F at level j until that level is marched onto
    # it; the update runs in place, in the operation order of the formula.
    u = np.empty((N + 1, M + 1, K))
    for k, ((initial, boundary), F) in enumerate(zip(data, forces)):
        u0, v0 = initial.displacement, initial.velocity
        np.multiply(F.T[:-1], dt * dt, out=u[1:, :, k])
        u[0, :, k] = u0
        u[:, 0, k] = boundary.left
        u[:, M, k] = boundary.right
        # first marched row: velocity condition folded in, half-weight force
        u[1, 1:M, k] = (_FIRST_LEVEL * r2 * (u0[2:] + u0[:M - 1]) + (1.0 - r2) * u0[1:M]
                        + dt * v0[1:M] + _FIRST_LEVEL * dt * dt * F[1:M, 0])
    # a level as one row of nodes times slots: node i of every slot is the
    # run [i*K, (i+1)*K), so the interior nodes of all slots are [K, M*K);
    # each level's views of its right and left neighbours and its interior
    # are made once, outside the loop
    rows = u.reshape(N + 1, (M + 1) * K)
    lo, hi = K, M * K
    right, left, inner = list(rows[:, lo + K:]), list(rows[:, :hi - K]), list(rows[:, lo:hi])
    centre = 2.0 * (1.0 - r2)
    acc, term = np.empty(hi - lo), np.empty(hi - lo)
    for j in range(1, N):
        np.add(right[j], left[j], out=acc)
        acc *= r2
        np.multiply(inner[j], centre, out=term)
        acc += term
        acc -= inner[j - 1]
        np.add(acc, inner[j + 1], out=inner[j + 1])
    return u


def _fluxes(problems, end):
    """flux(solve_direct(p), end) of each of `problems`, which lie on one
    grid and carry a KnownForce, from one stacked march and with no
    WaveField built."""
    g = problems[0].grid
    u = _march(g, [(p.initial, p.boundary) for p in problems], [p.source.values for p in problems])
    return [_flux(u[:, :, k].T, end, g.dx) for k in range(len(problems))]


def flux(field: WaveField, end: str) -> FluxSeries:
    """Boundary flux series from a solved field via the one-sided stencil
    _FLUX_STENCIL.

    For the left end the series is -du/dx(0, t_j); for the right end it is
    +du/dx(L, t_j), which is the left end's stencil applied to the mirrored
    string. j runs 1..N (the initial level is never reported).

    Parameters
    ----------
    field : WaveField
    end : str
        "left" or "right".

    Returns
    -------
    FluxSeries
    """
    _instance(field, (WaveField,), "field")
    return _flux(field.values, _checked_end(end), field.grid.dx)


def _flux(values, end, dx):
    """The flux series at `end` of the (M+1, N+1) node array `values`."""
    u = values if end == LEFT else values[::-1]
    s0, s1, s2 = _FLUX_STENCIL
    return FluxSeries(end, ((s1 * u[1, 1:] + s2 * u[2, 1:]) + s0 * u[0, 1:]) / (2.0 * dx))
