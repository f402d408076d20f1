"""L-curve sweep and corner selection for the regularization weight.

Sweeping lambda over a grid traces the curve (||A f - b||, ||D_k f||).
Plotted on log axes it bends in an L shape: the corner separates the
under-regularized branch (solution norm blowing up) from the
over-regularized one (residual growing). The corner picker reproduces
what a reader does with the plotted page: normalize both axes to the
unit square and take the point of largest three-point Menger curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateCurve, InvalidDimension, WaveforceError
from .inverse import InverseSystem
from .tikhonov import RegConfig, _penalty, tikhonov_solve

_COLLINEAR_TOL = 1e-12


def _grid(exp_lo: int, exp_hi: int) -> np.ndarray:
    out = []
    for e in range(exp_lo, exp_hi + 1):
        out.append(1.0 * 10.0 ** e)
        out.append(5.0 * 10.0 ** e)
    return np.array(out)


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


def sweep(sys: InverseSystem, order: int = 0,
          lambdas: Sequence[float] | None = None) -> list[LCurvePoint]:
    """Solve the regularized system for each lambda and record both norms.

    Parameters
    ----------
    sys : InverseSystem
    order : int
        Penalty order k, in {0, 1, 2}.
    lambdas : sequence of float, optional
        Strictly increasing positive weights, 1-dimensional. Defaults to
        DEFAULT_LAMBDA_GRID for order 0 and EXTENDED_LAMBDA_GRID otherwise.

    Returns
    -------
    list of LCurvePoint
        One entry per lambda that solved cleanly; weights whose solve
        raises are skipped.
    """
    if lambdas is None:
        lambdas = DEFAULT_LAMBDA_GRID if order == 0 else EXTENDED_LAMBDA_GRID
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1:
        raise InvalidDimension(f"lambda grid must be 1-dimensional, got shape {lams.shape}")
    if lams.size == 0:
        raise InvalidDimension("lambda grid is empty")
    if np.any(~np.isfinite(lams)) or np.any(lams <= 0):
        raise InvalidDimension("lambda grid entries must be positive and finite")
    if np.any(np.diff(lams) <= 0):
        raise InvalidDimension("lambda grid must be strictly increasing")
    D = _penalty(sys, order)
    points = []
    for lam in lams:
        try:
            f = tikhonov_solve(sys, RegConfig(order=order, lam=float(lam)))
        except WaveforceError:
            continue
        res = float(np.linalg.norm(sys.A @ f.values - sys.b))
        sol = float(np.linalg.norm(D @ f.values))
        points.append(LCurvePoint(float(lam), res, sol))
    return points


def _menger(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed Menger curvature at each interior point of a polyline."""
    n = x.size
    k = np.full(n, np.nan)
    for i in range(1, n - 1):
        x1, y1 = x[i - 1], y[i - 1]
        x2, y2 = x[i], y[i]
        x3, y3 = x[i + 1], y[i + 1]
        area2 = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        d12 = np.hypot(x2 - x1, y2 - y1)
        d23 = np.hypot(x3 - x2, y3 - y2)
        d13 = np.hypot(x3 - x1, y3 - y1)
        denom = d12 * d23 * d13
        if denom > 0:
            k[i] = 2.0 * area2 / denom
    return k


def _normalize(v: np.ndarray) -> np.ndarray:
    lo, hi = v.min(), v.max()
    if hi == lo:
        return np.zeros_like(v)
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
        When fewer than three usable points remain (positive finite
        norms) or when the points are collinear on log-log axes, which
        leaves no corner to find.
    """
    usable = [p for p in points
              if np.isfinite(p.residual_norm) and np.isfinite(p.solution_norm)
              and p.residual_norm > 0 and p.solution_norm > 0]
    if len(usable) < 3:
        raise DegenerateCurve(f"corner needs at least 3 usable points, got {len(usable)}")
    lams = np.array([p.lam for p in usable])
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
    best = -np.inf
    best_i = -1
    for i in range(1, len(usable) - 1):
        if np.isfinite(kappa[i]) and kappa[i] >= best:
            best = kappa[i]
            best_i = i
    if best_i < 0:
        raise DegenerateCurve("no interior point has finite curvature")
    return usable[best_i]
