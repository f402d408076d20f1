"""Shared domain types: grids, problem data, fields, fluxes, force vectors.

No algorithms live here. Construction validates everything the solvers rely
on (sizes, stability ratio, boundary/initial compatibility) so downstream
code can assume well-formed inputs. Every caller array enters through
_checked_array, the one intake rule of the package, every object-valued
argument through _instance, every end through _checked_end and every
callable through _sampled; array payloads are copied and marked
read-only, so instances are safe to share.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    CFLViolation,
    DimensionMismatch,
    IncompatibleData,
    InvalidDimension,
    WaveforceError,
    WrongType,
)

LEFT = "left"
RIGHT = "right"

#: tolerance for the boundary/initial compatibility check at the corners
COMPATIBILITY_TOL = 1e-12


def _real(value, name="value"):
    """`value` as a float. Bools, text and arrays are rejected, never converted."""
    if type(value) in (float, int):  # the common cases, without the abstract-class check
        return float(value)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise InvalidDimension(f"{name} must be a real number, got {value!r}")
    return float(value)


def _integer(value, name="value"):
    """`value` as an int. Bools and non-integral numbers are rejected, never truncated."""
    # int(10.9) would silently give 10
    if not _real(value, name).is_integer():
        raise InvalidDimension(f"{name} must be an integer, got {value!r}")
    return int(value)


def _float_array(a):
    """`a` as a float array, or None unless it holds real numbers only;
    complex input is refused, since the conversion would drop its
    imaginary part."""
    try:
        return None if np.iscomplexobj(a) else np.asarray(a, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


def _checked_array(a, name, ndim=1):
    """`a` as an `ndim`-dimensional float array with finite entries: the
    intake rule for caller arrays. The result may share memory with `a`;
    _readonly gives a read-only copy, for a payload a type stores."""
    arr = _float_array(a)
    if arr is None:
        raise DimensionMismatch(f"{name} must be an array of real numbers")
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise WaveforceError(f"{name} contains non-finite entries")
    return arr


def _readonly(a, name, ndim=1):
    arr = _checked_array(a, name, ndim).copy()
    arr.setflags(write=False)
    return arr


def _instance(value, types, name):
    """WrongType unless `value` is an instance of one of `types`: the
    intake rule for object-valued arguments."""
    if not isinstance(value, types):
        raise WrongType(f"{name} must be a {' or '.join(t.__name__ for t in types)}, "
                        f"got {type(value).__name__}")


def _checked_end(end):
    """`end` if it names an end of the string, else DimensionMismatch: the
    intake rule for end arguments."""
    if not isinstance(end, str) or end not in (LEFT, RIGHT):
        raise DimensionMismatch(f"end must be {LEFT!r} or {RIGHT!r}, got {end!r}")
    return end


def _sampled(fn, axes, name):
    """`fn(*axes)` broadcast to the shape the `axes` span, as a view: the
    sampling rule for callable arguments. WrongType unless `fn` is
    callable and its signature takes len(axes) positional arguments;
    DimensionMismatch when its output does not broadcast. An error raised
    inside `fn` is not translated. The type that stores the samples
    copies them."""
    if not callable(fn):
        raise WrongType(f"{name} must be a callable, got {type(fn).__name__}")
    shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
    try:
        values = fn(*axes)
    except TypeError:
        try:  # arguments that do not bind fail the call before the body of fn runs
            inspect.signature(fn).bind(*axes)
        except TypeError:
            raise WrongType(f"{name} must take {len(axes)} positional argument(s)") from None
        except ValueError:  # no signature to check (a builtin such as max)
            pass
        raise  # raised inside fn
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise DimensionMismatch(f"{name} does not broadcast to the grid's shape {shape}") from None


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
            v = _real(getattr(self, name), name)
            if not math.isfinite(v) or v <= 0:
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

    @functools.cached_property
    def x(self):
        """Space nodes x_0..x_M, read-only, formed on first access."""
        return _linspace(self.L, self.M)

    @functools.cached_property
    def t(self):
        """Time levels t_0..t_N, read-only, formed on first access."""
        return _linspace(self.T, self.N)

    @property
    def interior_x(self):
        """Space nodes x_1..x_{M-1}, where unknown forces are sampled."""
        return self.x[1:-1]


def _linspace(extent, intervals):
    """The intervals + 1 nodes from 0 to extent, as a read-only array that
    a GridSpec can hand to every caller."""
    nodes = np.linspace(0.0, extent, intervals + 1)
    nodes.setflags(write=False)
    return nodes


def sample_grid(grid, fn):
    """Sample a function of (x, t) onto the full (M+1, N+1) node array.

    `fn` is called once with broadcastable arrays and may return a scalar
    (constant functions) or any broadcast-compatible array.
    """
    _instance(grid, (GridSpec,), "grid")
    values = _sampled(fn, (grid.x[:, None], grid.t[None, :]), "sampled function")
    return _readonly(values, "sampled function", ndim=2)


class _SeriesPair:
    """Two read-only series of one length on one grid axis, the base of
    InitialData and BoundaryData. Each subclass names its two fields
    (_fields), each series in messages (_labels), the series whose lengths
    differ (_lengths), the grid axis it samples (_axis, "x" or "t") and
    the pair itself (_name)."""

    def __post_init__(self):
        (a, b), (la, lb) = self._fields, self._labels
        first, second = _readonly(getattr(self, a), la), _readonly(getattr(self, b), lb)
        object.__setattr__(self, a, first)
        object.__setattr__(self, b, second)
        if first.shape != second.shape:
            raise DimensionMismatch(f"{self._lengths} lengths differ: {first.size} vs {second.size}")

    @classmethod
    def from_callables(cls, grid, first, second):
        """The pair of the two callables sampled on the grid's axis."""
        _instance(grid, (GridSpec,), "grid")
        axis = (getattr(grid, cls._axis),)
        return cls(*(_sampled(fn, axis, label) for fn, label in zip((first, second), cls._labels)))

    @classmethod
    def zero(cls, grid):
        """The pair of zero series on the grid's axis."""
        _instance(grid, (GridSpec,), "grid")
        z = np.zeros(getattr(grid, cls._axis).size)
        return cls(z, z)


@dataclass(frozen=True, eq=False)
class InitialData(_SeriesPair):
    """Initial displacement and velocity sampled at the M+1 space nodes."""

    displacement: np.ndarray
    velocity: np.ndarray

    _fields = _labels = ("displacement", "velocity")
    _lengths, _axis, _name = "displacement and velocity", "x", "initial data"


@dataclass(frozen=True, eq=False)
class BoundaryData(_SeriesPair):
    """Dirichlet values at the two ends, sampled at the N+1 time levels.

    left holds u(0, t_j); right holds u(L, t_j).
    """

    left: np.ndarray
    right: np.ndarray

    _fields, _labels = ("left", "right"), ("left boundary", "right boundary")
    _lengths, _axis, _name = "boundary series", "t", "boundary data"


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
        if not isinstance(self.modulations, (tuple, list)) or len(self.modulations) not in (1, 2):
            raise InvalidDimension("a source takes a tuple of 1 or 2 modulations")
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
    v = _checked_array(values, what)
    if v.size == M - 1:
        return np.concatenate(([0.0], v, [0.0]))
    if v.size == M + 1:
        return v
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
        for name, types in (("grid", (GridSpec,)), ("initial", (InitialData,)),
                            ("boundary", (BoundaryData,)), ("source", (KnownForce, Source))):
            _instance(getattr(self, name), types, name)
        g = self.grid
        for pair in (self.initial, self.boundary):
            size, needed = getattr(pair, pair._fields[0]).size, getattr(g, pair._axis).size
            if size != needed:
                raise DimensionMismatch(f"{pair._name} has {size} samples, grid needs {needed}")
        shape = (g.M + 1, g.N + 1)
        arrays = (self.source.values,) if isinstance(self.source, KnownForce) \
            else self.source.modulations
        for a in arrays:
            if a.shape != shape:
                raise DimensionMismatch(f"source array shape {a.shape} does not match grid {shape}")
        u0 = self.initial.displacement
        for end, series, node, x in ((LEFT, self.boundary.left, 0, "0"),
                                     (RIGHT, self.boundary.right, -1, "L")):
            if abs(series[0] - u0[node]) > COMPATIBILITY_TOL:
                raise IncompatibleData(f"{end} boundary at t=0 is {series[0]!r} but initial "
                                       f"displacement at x={x} is {u0[node]!r}")

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
        _instance(self.grid, (GridSpec,), "grid")
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
        _checked_end(self.end)
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
