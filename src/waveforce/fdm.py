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

from .errors import DimensionMismatch, UnresolvedForce
from .model import LEFT, RIGHT, FluxSeries, KnownForce, WaveField, WaveProblem


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
    if not isinstance(problem.source, KnownForce):
        raise UnresolvedForce("direct solve needs a fully specified force; use with_force")
    g = problem.grid
    M, N = g.M, g.N
    dt = g.dt
    r2 = g.r ** 2
    F = problem.source.values
    u0 = problem.initial.displacement
    v0 = problem.initial.velocity

    u = np.zeros((M + 1, N + 1))
    u[:, 0] = u0
    u[0, :] = problem.boundary.left
    u[M, :] = problem.boundary.right
    # first marched row: velocity condition folded in, half-weight force
    u[1:M, 1] = (0.5 * r2 * (u0[2:] + u0[:M - 1]) + (1.0 - r2) * u0[1:M]
                 + dt * v0[1:M] + 0.5 * dt * dt * F[1:M, 0])
    for j in range(1, N):
        u[1:M, j + 1] = (r2 * (u[2:, j] + u[:M - 1, j]) + 2.0 * (1.0 - r2) * u[1:M, j]
                         - u[1:M, j - 1] + dt * dt * F[1:M, j])
    return WaveField(g, u)


def flux(field: WaveField, end: str) -> FluxSeries:
    """Boundary flux series from a solved field via one-sided 3-point stencils.

    The stencils are exact on quadratics. For the left end the series is
    -du/dx(0, t_j); for the right end it is +du/dx(L, t_j); j runs 1..N
    (the initial level is never reported).

    Parameters
    ----------
    field : WaveField
    end : str
        "left" or "right".

    Returns
    -------
    FluxSeries
    """
    u = field.values
    g = field.grid
    if g.M < 2:
        raise DimensionMismatch("flux stencil needs at least three space nodes")
    two_dx = 2.0 * g.dx
    if end == LEFT:
        vals = -(4.0 * u[1, 1:] - u[2, 1:] - 3.0 * u[0, 1:]) / two_dx
    elif end == RIGHT:
        vals = (3.0 * u[g.M, 1:] - 4.0 * u[g.M - 1, 1:] + u[g.M - 2, 1:]) / two_dx
    else:
        raise DimensionMismatch(f"end must be {LEFT!r} or {RIGHT!r}, got {end!r}")
    return FluxSeries(end, vals)
