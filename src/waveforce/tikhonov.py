"""Tikhonov regularization of orders 0, 1, 2 and SVD diagnostics.

The regularized solution minimizes ||A f - b||^2 + lambda ||D_k f||^2 where
D_0 = I, D_1 takes first differences, D_2 second differences. The solve
stacks A over sqrt(lambda) * D_k and runs one stable least-squares
factorization; the equivalent normal-equations formula
(A^T A + lambda D_k^T D_k)^-1 A^T b squares the condition number and is
kept only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDimension,
    SingularSystem,
    WaveforceError,
    ZeroMatrix,
)
from .inverse import InverseSystem
from .model import ForceVector, _integer

#: singular values below RANK_TOL * sv(1) count as zero in rank decisions
RANK_TOL = 1e-12


@dataclass(frozen=True)
class RegConfig:
    """Regularization order and weight.

    Parameters
    ----------
    order : int
        Smoothness order k in {0, 1, 2}.
    lam : float
        Weight lambda >= 0; lambda = 0 degenerates to plain least squares.
    """

    order: int = 0
    lam: float = 0.0

    def __post_init__(self):
        order = _integer(self.order, "order")
        if order not in (0, 1, 2):
            raise InvalidDimension(f"order must be 0, 1 or 2, got {self.order}")
        lam = float(self.lam)
        if not np.isfinite(lam) or lam < 0:
            raise InvalidDimension(f"lambda must be >= 0, got {self.lam}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "lam", lam)


def difference_operator(order: int, m: int) -> np.ndarray:
    """Difference operator D_k acting on vectors of length m.

    D_0 is the m x m identity; D_1 is (m-1) x m with rows (1, -1);
    D_2 is (m-2) x m with rows (1, -2, 1).

    Raises
    ------
    InvalidDimension
        When order or m is not an integer, or m <= order (no rows would
        remain).
    """
    order, m = _integer(order, "order"), _integer(m, "m")
    if order not in (0, 1, 2):
        raise InvalidDimension(f"order must be 0, 1 or 2, got {order}")
    if m <= order:
        raise InvalidDimension(f"operator of order {order} needs at least {order + 1} entries, got {m}")
    if order == 0:
        return np.eye(m)
    if order == 1:
        return np.eye(m - 1, m) - np.eye(m - 1, m, k=1)
    return np.eye(m - 2, m) - 2.0 * np.eye(m - 2, m, k=1) + np.eye(m - 2, m, k=2)


def _penalty(sys: InverseSystem, order: int) -> np.ndarray:
    """Penalty matrix for a system: D_k, or block-diag(D_k, D_k) for dual.

    Each unknown component is smoothed independently; no differences are
    taken across the block boundary.
    """
    m = sys.n_unknowns // sys.components
    D = difference_operator(order, m)
    if sys.components == 1:
        return D
    full = np.zeros((2 * D.shape[0], 2 * m))
    full[: D.shape[0], :m] = D
    full[D.shape[0]:, m:] = D
    return full


def tikhonov_solve(sys: InverseSystem, cfg: RegConfig) -> ForceVector:
    """Unique minimizer of ||A f - b||^2 + lambda ||D_k f||^2.

    At lambda = 0 this is plain least squares on A f = b.

    Raises
    ------
    SingularSystem
        When lambda = 0 and A is numerically rank-deficient, or when the
        stacked system itself is degenerate (possible only if A and D_k
        share a null space).
    """
    A, rhs = sys.A, sys.b
    if cfg.lam > 0.0:
        D = _penalty(sys, cfg.order)
        A = np.vstack([sys.A, np.sqrt(cfg.lam) * D])
        rhs = np.concatenate([sys.b, np.zeros(D.shape[0])])
    sol, _, _, sv = np.linalg.lstsq(A, rhs, rcond=None)
    if sv.size == 0 or sv[-1] <= RANK_TOL * sv[0]:
        raise SingularSystem(f"system is numerically rank-deficient at lambda = {cfg.lam:g}")
    return ForceVector(sol, sys.components)


def _singular_values(A, what) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if not np.any(A):
        raise ZeroMatrix(f"{what} of an all-zero matrix")
    if A.ndim != 2:
        raise DimensionMismatch(f"{what} needs a 2-dimensional matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise WaveforceError(f"{what} of a matrix with non-finite entries")
    return np.linalg.svd(A, compute_uv=False)


def condition_number(A) -> float:
    """2-norm condition number sv(1) / sv(min dimension).

    Raises
    ------
    ZeroMatrix
        When A has no nonzero entry.
    DimensionMismatch
        When A is not 2-dimensional.
    WaveforceError
        When A has a non-finite entry.
    """
    sv = _singular_values(A, "condition number")
    if sv[-1] == 0.0:
        return float("inf")
    return float(sv[0] / sv[-1])


def normalized_singular_values(A) -> np.ndarray:
    """Singular values divided by the largest one: non-increasing, starts at 1.

    Raises
    ------
    ZeroMatrix
        When A has no nonzero entry.
    DimensionMismatch
        When A is not 2-dimensional.
    WaveforceError
        When A has a non-finite entry.
    """
    sv = _singular_values(A, "singular values")
    return sv / sv[0]


def accuracy_error(f_num, f_exact) -> float:
    """Euclidean norm of the nodal difference between two force profiles.

    Accepts ForceVector instances or plain arrays of equal length.
    """
    a = f_num.values if isinstance(f_num, ForceVector) else np.asarray(f_num, dtype=float)
    b = f_exact.values if isinstance(f_exact, ForceVector) else np.asarray(f_exact, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"profiles have different lengths: {a.size} vs {b.size}")
    return float(np.linalg.norm(a - b))
