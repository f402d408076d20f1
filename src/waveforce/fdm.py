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
    g = problem.grid
    M, N = g.M, g.N
    dt = g.dt
    r2 = g.r ** 2
    F = problem.source.values
    u0 = problem.initial.displacement
    v0 = problem.initial.velocity

    # Time-major, so that each level is a contiguous row. Row j + 1 holds
    # dt^2 F at level j until that level is marched onto it; the update
    # runs in place, in the operation order of the formula above.
    u = np.empty((N + 1, M + 1))
    np.multiply(F.T[:-1], dt * dt, out=u[1:])
    u[0] = u0
    u[:, 0] = problem.boundary.left
    u[:, M] = problem.boundary.right
    # first marched row: velocity condition folded in, half-weight force
    u[1, 1:M] = (_FIRST_LEVEL * r2 * (u0[2:] + u0[:M - 1]) + (1.0 - r2) * u0[1:M]
                 + dt * v0[1:M] + _FIRST_LEVEL * dt * dt * F[1:M, 0])
    centre = 2.0 * (1.0 - r2)
    acc, term = np.empty(M - 1), np.empty(M - 1)
    for j in range(1, N):
        np.add(u[j, 2:], u[j, :M - 1], out=acc)
        acc *= r2
        np.multiply(u[j, 1:M], centre, out=term)
        acc += term
        acc -= u[j - 1, 1:M]
        nxt = u[j + 1, 1:M]
        np.add(acc, nxt, out=nxt)
    return WaveField(g, u.T)


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
    u = field.values if _checked_end(end) == LEFT else field.values[::-1]
    s0, s1, s2 = _FLUX_STENCIL
    return FluxSeries(end, ((s1 * u[1, 1:] + s2 * u[2, 1:]) + s0 * u[0, 1:]) / (2.0 * field.grid.dx))
