"""L-curve sweep and corner selection for the regularization weight.

Sweeping lambda over a grid traces the curve (||A f - b||, ||D_k f||).
Plotted on log axes it bends in an L shape: the corner separates the
under-regularized branch (solution norm blowing up) from the
over-regularized one (residual growing). The corner picker does not
work on those log axes: it min-max normalizes the raw norms to the unit
square and takes the point of largest three-point Menger curvature there.
The log axes serve only to refuse a curve that is collinear on them,
which has no corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateCurve, InvalidDimension
from .inverse import InverseSystem
from .model import _float_array, _instance
from .tikhonov import RegConfig, _factors

_COLLINEAR_TOL = 1e-12

#: corner's fewest usable points: a curvature needs three
_CORNER_POINTS = 3


def _grid(exp_lo: int, exp_hi: int) -> np.ndarray:
    out = []
    for e in range(exp_lo, exp_hi + 1):
        out.append(1.0 * 10.0 ** e)
        out.append(5.0 * 10.0 ** e)
    grid = np.array(out)
    grid.setflags(write=False)  # sweep takes it unchecked
    return grid


#: 1 and 5 times powers of ten from 1e-9 up to 5e-2.
DEFAULT_LAMBDA_GRID = _grid(-9, -2)

#: Same pattern extended to 5e-1; first- and second-order penalties
#: locate their corners at larger weights.
EXTENDED_LAMBDA_GRID = _grid(-9, -1)


@dataclass(frozen=True)
class LCurvePoint:
    """One sweep sample: weight, residual norm ||A f - b||, penalty norm ||D_k f||."""

    lam: float
    residual_norm: float
    solution_norm: float


def _checked_grid(lambdas: Sequence[float]) -> np.ndarray:
    """`lambdas` as a float array if it is a valid sweep grid (see sweep), else InvalidDimension."""
    lams = _float_array(lambdas)
    if lams is None:
        raise InvalidDimension("lambda grid must be a flat sequence of real numbers")
    if lams.ndim != 1 or lams.size == 0:
        raise InvalidDimension(f"lambda grid must be 1-dimensional and non-empty, got shape {lams.shape}")
    if np.any(~np.isfinite(lams)) or np.any(lams <= 0):
        raise InvalidDimension("lambda grid entries must be positive and finite")
    if np.any(np.diff(lams) <= 0):
        raise InvalidDimension("lambda grid must be strictly increasing")
    return lams


def sweep(sys: InverseSystem, order: int = 0,
          lambdas: Sequence[float] | None = None) -> list[LCurvePoint]:
    """Trace the L-curve: both norms of each lambda's regularized solution.

    Each point's ||A f - b|| and ||D_k f|| are the closed forms of the
    system's standard form, which _Factors.norms evaluates (see the
    tikhonov module docstring): once the measurement's coefficients are
    formed, a weight costs O(m) and no solution is formed.

    Parameters
    ----------
    sys : InverseSystem
    order : int
        Penalty order k, in {0, 1, 2}; InvalidDimension when the system's
        profiles have k nodes or fewer, so that D_k has no row.
    lambdas : sequence of float, optional
        Strictly increasing positive weights, 1-dimensional. Defaults to
        DEFAULT_LAMBDA_GRID for order 0 and EXTENDED_LAMBDA_GRID otherwise.

    Returns
    -------
    list of LCurvePoint
        One entry per lambda. A norm whose arithmetic overflows is
        infinite, never nan, with no floating-point warning (the tikhonov
        module's floating-point rule), and corner ignores the point.

    Raises
    ------
    SingularSystem
        When A W fails the rank rule of the regularized solve, as
        tikhonov_solve raises it at every lambda > 0.
    """
    _instance(sys, (InverseSystem,), "system")
    order = RegConfig(order=order).order
    if lambdas is None:
        lams = DEFAULT_LAMBDA_GRID if order == 0 else EXTENDED_LAMBDA_GRID
    else:
        lams = _checked_grid(lambdas)
    factors, = _factors([sys], order)
    residuals, penalties = factors.norms(sys.b, lams)
    return list(map(LCurvePoint, lams.tolist(), residuals.tolist(), penalties.tolist()))


def _menger(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed Menger curvature at each interior point of a polyline; NaN at
    the ends and where two of the three points coincide."""
    k = np.full(x.size, np.nan)
    dx, dy = x[1:] - x[:-1], y[1:] - y[:-1]  # the sides between neighbours
    cx, cy = x[2:] - x[:-2], y[2:] - y[:-2]  # the chords across each interior point
    side = np.hypot(dx, dy)
    area2 = dx[:-1] * cy - dy[:-1] * cx
    denom = side[:-1] * side[1:] * np.hypot(cx, cy)
    np.divide(2.0 * area2, denom, out=k[1:-1], where=denom > 0)
    return k


def _normalize(v: np.ndarray) -> np.ndarray:
    # v is never constant: corner refuses a constant norm as collinear
    lo, hi = v.min(), v.max()
    return (v - lo) / (hi - lo)


def corner(points: Sequence[LCurvePoint]) -> LCurvePoint:
    """Corner of an L-curve: the sample of largest curvature.

    Both norms are min-max normalized to [0, 1] so the two axes carry
    equal visual weight regardless of their raw scales, then the
    absolute three-point Menger curvature is evaluated at each interior
    sample; the maximizer is the corner. Ties resolve toward the larger
    weight. Invariant under rescaling the data vector b, since both
    norms scale by the same factor.

    Raises
    ------
    DegenerateCurve
        When `points` is no list of LCurvePoint, fewer than three usable
        points remain (positive finite norms) or the points are collinear
        on log-log axes, which leaves no corner to find.
    """
    if not isinstance(points, (list, tuple)) or not all(isinstance(p, LCurvePoint) for p in points):
        raise DegenerateCurve("corner takes a list of LCurvePoint")
    usable = [p for p in points
              if math.isfinite(p.residual_norm) and math.isfinite(p.solution_norm)
              and p.residual_norm > 0 and p.solution_norm > 0]
    if len(usable) < _CORNER_POINTS:
        raise DegenerateCurve(f"corner needs at least {_CORNER_POINTS} usable points, "
                              f"got {len(usable)}")
    res = np.array([p.residual_norm for p in usable])
    sol = np.array([p.solution_norm for p in usable])

    # Collinear in log-log coordinates means the curve never bends.
    lx, ly = np.log10(res), np.log10(sol)
    dx, dy = lx[-1] - lx[0], ly[-1] - ly[0]
    chord = np.hypot(dx, dy)
    if chord == 0:
        raise DegenerateCurve("all points coincide")
    dist = np.abs(dy * (lx - lx[0]) - dx * (ly - ly[0])) / chord
    scale = max(np.abs(lx).max(), np.abs(ly).max(), 1.0)
    if dist.max() <= _COLLINEAR_TOL * scale:
        raise DegenerateCurve("points are collinear; the curve has no corner")

    kappa = np.abs(_menger(_normalize(res), _normalize(sol)))
    finite = np.isfinite(kappa)
    if not finite.any():
        raise DegenerateCurve("no interior point has finite curvature")
    # the last maximum, i.e. the larger weight of a tie
    return usable[np.flatnonzero(kappa == kappa[finite].max())[-1]]
