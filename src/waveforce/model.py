"""Shared domain types: grids, problem data, fields, fluxes, force vectors.

No algorithms live here. Construction validates everything the solvers rely
on (sizes, stability ratio, boundary/initial compatibility) so downstream
code can assume well-formed inputs. All array payloads are copied and marked
read-only; instances are safe to share.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    CFLViolation,
    DimensionMismatch,
    IncompatibleData,
    InvalidDimension,
    WaveforceError,
)

LEFT = "left"
RIGHT = "right"

#: tolerance for the boundary/initial compatibility check at the corners
COMPATIBILITY_TOL = 1e-12


def _integer(value, name="value"):
    """`value` as an int. Bools and non-integral numbers are rejected, never truncated."""
    # bool is an int subclass; int(10.9) would silently give 10
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real) \
            or not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise InvalidDimension(f"{name} must be an integer, got {value!r}")
    return int(value)


def _readonly(a, shape_name, ndim=1):
    arr = np.array(a, dtype=float)
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{shape_name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise WaveforceError(f"{shape_name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time mesh for the string of length L over horizon T.

    Parameters
    ----------
    L : float
        Space extent, > 0. Nodes x_i = i*dx, i = 0..M.
    T : float
        Time extent, > 0. Levels t_j = j*dt, j = 0..N.
    M : int
        Space subintervals, >= 2 (the flux stencil needs three nodes).
    N : int
        Time subintervals, >= 1.
    c : float
        Wave speed, > 0.

    The ratio r = c*dt/dx must satisfy r <= 1; the explicit scheme is
    unstable otherwise and construction fails with CFLViolation. r = 1
    is allowed (it is the exact-propagation case).
    """

    L: float
    T: float
    M: int
    N: int
    c: float = 1.0

    def __post_init__(self):
        for name in ("L", "T", "c"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0:
                raise InvalidDimension(f"{name} must be a positive real, got {getattr(self, name)}")
            object.__setattr__(self, name, v)
        m, n = _integer(self.M, "M"), _integer(self.N, "N")
        if m < 2:
            raise InvalidDimension(f"M must be >= 2, got {self.M}")
        if n < 1:
            raise InvalidDimension(f"N must be >= 1, got {self.N}")
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "N", n)
        if self.r > 1.0:
            raise CFLViolation(f"r = c*dt/dx = {self.r:.6g} exceeds the stability bound 1")

    @property
    def dx(self):
        return self.L / self.M

    @property
    def dt(self):
        return self.T / self.N

    @property
    def r(self):
        return self.c * self.dt / self.dx

    @property
    def x(self):
        """Space nodes x_0..x_M."""
        return np.linspace(0.0, self.L, self.M + 1)

    @property
    def t(self):
        """Time levels t_0..t_N."""
        return np.linspace(0.0, self.T, self.N + 1)

    @property
    def interior_x(self):
        """Space nodes x_1..x_{M-1}, where unknown forces are sampled."""
        return self.x[1:-1]


def sample_grid(grid, fn):
    """Sample a function of (x, t) onto the full (M+1, N+1) node array.

    `fn` is called once with broadcastable arrays and may return a scalar
    (constant functions) or any broadcast-compatible array.
    """
    X = grid.x[:, None]
    Tm = grid.t[None, :]
    out = np.asarray(fn(X, Tm), dtype=float)
    out = np.broadcast_to(out, (grid.M + 1, grid.N + 1)).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class InitialData:
    """Initial displacement and velocity sampled at the M+1 space nodes."""

    displacement: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "displacement", _readonly(self.displacement, "displacement"))
        object.__setattr__(self, "velocity", _readonly(self.velocity, "velocity"))
        if self.displacement.shape != self.velocity.shape:
            raise DimensionMismatch(
                f"displacement and velocity lengths differ: "
                f"{self.displacement.size} vs {self.velocity.size}"
            )

    @classmethod
    def from_callables(cls, grid, u0, v0):
        x = grid.x
        return cls(np.broadcast_to(np.asarray(u0(x), float), x.shape),
                   np.broadcast_to(np.asarray(v0(x), float), x.shape))

    @classmethod
    def zero(cls, grid):
        z = np.zeros(grid.M + 1)
        return cls(z, z)


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Dirichlet values at the two ends, sampled at the N+1 time levels.

    left holds u(0, t_j); right holds u(L, t_j).
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "left", _readonly(self.left, "left boundary"))
        object.__setattr__(self, "right", _readonly(self.right, "right boundary"))
        if self.left.shape != self.right.shape:
            raise DimensionMismatch(
                f"boundary series lengths differ: {self.left.size} vs {self.right.size}"
            )

    @classmethod
    def from_callables(cls, grid, p0, pl):
        t = grid.t
        return cls(np.broadcast_to(np.asarray(p0(t), float), t.shape),
                   np.broadcast_to(np.asarray(pl(t), float), t.shape))

    @classmethod
    def zero(cls, grid):
        z = np.zeros(grid.N + 1)
        return cls(z, z)


@dataclass(frozen=True, eq=False)
class KnownForce:
    """Fully specified source term F(x_i, t_j) on the (M+1, N+1) node array."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values, "force values", ndim=2))

    unknowns = 0


@dataclass(frozen=True, eq=False)
class Source:
    """Source F(x, t) = f(x) h(x, t) [+ g(x) theta(x, t)] with the space profiles unknown.

    `modulations` holds the known space-time factors (h, or h and theta),
    each sampled on the full node array. Every modulation carries one
    unknown profile, identified at the M-1 interior nodes.
    """

    modulations: tuple

    def __post_init__(self):
        if len(self.modulations) not in (1, 2):
            raise InvalidDimension(f"a source takes 1 or 2 modulations, got {len(self.modulations)}")
        mods = tuple(_readonly(h, "modulation", ndim=2) for h in self.modulations)
        if mods[-1].shape != mods[0].shape:
            raise DimensionMismatch(f"modulation shapes differ: {mods[0].shape} vs {mods[-1].shape}")
        object.__setattr__(self, "modulations", mods)

    @property
    def unknowns(self):
        return len(self.modulations)


def _as_full_profile(values, M, what):
    """Accept a space profile at interior nodes (M-1) or all nodes (M+1).

    Interior profiles are padded with zero ends; the solver never reads the
    end entries of a force array (boundary rows are prescribed data), so the
    padding is inert.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size == M - 1:
        return np.concatenate(([0.0], v, [0.0]))
    if v.size == M + 1:
        return v.copy()
    raise DimensionMismatch(f"{what} must have M-1={M - 1} or M+1={M + 1} entries, got {v.size}")


@dataclass(frozen=True, eq=False)
class WaveProblem:
    """One direct-solve instance: grid, initial data, boundary data, source.

    Construction checks every size against the grid and enforces the
    corner compatibility conditions left(0) = u0(x_0) and
    right(0) = u0(x_M) within 1e-12.
    """

    grid: GridSpec
    initial: InitialData
    boundary: BoundaryData
    source: KnownForce | Source

    def __post_init__(self):
        g = self.grid
        if self.initial.displacement.size != g.M + 1:
            raise DimensionMismatch(
                f"initial data has {self.initial.displacement.size} samples, grid needs {g.M + 1}"
            )
        if self.boundary.left.size != g.N + 1:
            raise DimensionMismatch(
                f"boundary data has {self.boundary.left.size} samples, grid needs {g.N + 1}"
            )
        shape = (g.M + 1, g.N + 1)
        arrays = (self.source.values,) if isinstance(self.source, KnownForce) \
            else self.source.modulations
        for a in arrays:
            if a.shape != shape:
                raise DimensionMismatch(f"source array shape {a.shape} does not match grid {shape}")
        u0 = self.initial.displacement
        if abs(self.boundary.left[0] - u0[0]) > COMPATIBILITY_TOL:
            raise IncompatibleData(
                f"left boundary at t=0 is {self.boundary.left[0]!r} but initial "
                f"displacement at x=0 is {u0[0]!r}"
            )
        if abs(self.boundary.right[0] - u0[-1]) > COMPATIBILITY_TOL:
            raise IncompatibleData(
                f"right boundary at t=0 is {self.boundary.right[0]!r} but initial "
                f"displacement at x=L is {u0[-1]!r}"
            )

    def with_force(self, *profiles):
        """Bind one concrete space profile to each unknown source component.

        Returns a new WaveProblem whose source is the resulting KnownForce
        F = sum over components of profile * modulation. Profiles may be
        given at interior nodes (length M-1) or at all nodes (length M+1).
        """
        if isinstance(self.source, KnownForce):
            raise WaveforceError("source has no unknown components to bind")
        mods = self.source.modulations
        if len(profiles) != len(mods):
            raise DimensionMismatch(
                f"a {len(mods)}-component source takes {len(mods)} profiles, got {len(profiles)}")
        terms = [_as_full_profile(f, self.grid.M, "force profile")[:, None] * h
                 for f, h in zip(profiles, mods)]
        # folded from the first term, not from 0: 0 + (-0.0) is +0.0, so a
        # sum() would flip the signed zeros of F
        return WaveProblem(self.grid, self.initial, self.boundary,
                           KnownForce(functools.reduce(np.add, terms)))


@dataclass(frozen=True, eq=False)
class WaveField:
    """Displacement samples u_{i,j} on the full (M+1, N+1) node array."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values, "field values", ndim=2))
        shape = (self.grid.M + 1, self.grid.N + 1)
        if self.values.shape != shape:
            raise DimensionMismatch(f"field shape {self.values.shape} does not match grid {shape}")


@dataclass(frozen=True, eq=False)
class FluxSeries:
    """Boundary flux samples q(t_j), j = 1..N, at one end of the string.

    Sign convention: the left series carries -du/dx(0, t), the right series
    carries +du/dx(L, t). Time level j = 0 is never included.
    """

    end: str
    values: np.ndarray

    def __post_init__(self):
        if self.end not in (LEFT, RIGHT):
            raise WaveforceError(f"end must be {LEFT!r} or {RIGHT!r}, got {self.end!r}")
        object.__setattr__(self, "values", _readonly(self.values, "flux values"))
        if self.values.size < 1:
            raise DimensionMismatch("flux series is empty")


@dataclass(frozen=True, eq=False)
class ForceVector:
    """Recovered force profile(s) at the interior nodes x_1..x_{M-1}.

    For a dual-source identification the two blocks are stacked first
    component then second, total 2(M-1) entries.
    """

    values: np.ndarray
    components: int = 1

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values, "force vector"))
        object.__setattr__(self, "components", _integer(self.components, "components"))
        if self.components not in (1, 2):
            raise InvalidDimension(f"components must be 1 or 2, got {self.components}")
        if self.values.size % self.components:
            raise DimensionMismatch(
                f"length {self.values.size} not divisible into {self.components} blocks"
            )

    @property
    def block_size(self):
        return self.values.size // self.components

    @property
    def f(self):
        """First (or only) component block."""
        return self.values[: self.block_size]

    @property
    def g(self):
        """Second component block, or None for single-source results."""
        if self.components == 1:
            return None
        return self.values[self.block_size:]
