"""Tikhonov regularization of orders 0, 1, 2 and SVD diagnostics.

The regularized solution minimizes ||A f - b||^2 + lambda ||D_k f||^2 where
D_0 = I, D_1 takes first differences, D_2 second differences.

lambda = 0 is plain least squares, one lstsq call on A f = b; it raises
SingularSystem when A is numerically rank-deficient (smallest singular
value at or below RANK_TOL times the largest).

lambda > 0 runs on factors computed once per (A, order) and shared by
every weight and every measurement. With mu^2 = ||A||_F^2 / ||D_k||_F^2,
the Cholesky factor R of A^T A + mu^2 D_k^T D_k is the triangular factor of
the stacked [A; mu D_k]. The factors kept are R^-1,
G = (A R^-1)^T (A R^-1) and H = mu^2 (D_k R^-1)^T (D_k R^-1), and a weight
then costs one m x m solve,

    (G + (lambda / mu^2) H) y = R^-T A^T b,    f = R^-1 y.

Rank rule for lambda > 0, checked once per factorization: SingularSystem
when the Cholesky fails or when cond([A; mu D_k]) >= COND_LIMIT = 1e6
(= 1 / sqrt(RANK_TOL)). The system solved has condition number up to
cond([A; mu D_k])^2, so past that limit its error is no longer small
against the stacked least-squares solution it replaces, which the tests
keep as their oracle. Scenarios 1-5 up to M = N = 320 sit at 1.1e4 or
below (scenario 4, order 2, M = 320).

Memory: a system keeps the factors of each penalty order it solved,
three m x m arrays per order (at most nine in all, 7 MB at m = 319), and
copies made by InverseSystem.with_measurement share them, so cycling the
orders on one A factors each order once.
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

#: [A; mu D_k] at or above this condition number counts as rank-deficient
#: for lambda > 0 (see the module docstring)
COND_LIMIT = 1.0 / np.sqrt(RANK_TOL)


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


def _differences(X: np.ndarray, order: int, components: int) -> np.ndarray:
    """D_k applied to each row of X, block by block over the components,
    up to the sign of odd orders (no quadratic form sees it).

    Row r of X holds a vector of length components * m; each m-long block
    is differenced on its own, with no difference across a block boundary.
    """
    blocks = X.reshape(X.shape[:-1] + (components, -1))
    return np.diff(blocks, n=order, axis=-1).reshape(X.shape[:-1] + (-1,))


def _add_penalty_gram(K: np.ndarray, stencil: np.ndarray, components: int, scale: float) -> None:
    """K += scale * D^T D for the block penalty, written on its band: row i
    of D_k holds the stencil (a row of D_k) at columns i..i+k."""
    m = K.shape[0] // components
    rows = np.arange(m - stencil.size + 1)
    for c in range(components):
        for i, si in enumerate(stencil):
            for j, sj in enumerate(stencil):
                K[c * m + rows + i, c * m + rows + j] += scale * si * sj


def tikhonov_solve(sys: InverseSystem, cfg: RegConfig) -> ForceVector:
    """Unique minimizer of ||A f - b||^2 + lambda ||D_k f||^2.

    At lambda = 0 this is plain least squares on A f = b. For lambda > 0
    it reuses the system's factors of order k, computing them on first
    use (see the module docstring).

    Raises
    ------
    SingularSystem
        When lambda = 0 and A is numerically rank-deficient, or when
        lambda > 0 and [A; mu D_k] fails the rank rule (possible only if
        A and D_k nearly share a null vector).
    """
    if cfg.lam == 0.0:
        sol, _, _, sv = np.linalg.lstsq(sys.A, sys.b, rcond=None)
        if sv.size == 0 or sv[-1] <= RANK_TOL * sv[0]:
            raise SingularSystem("system is numerically rank-deficient at lambda = 0")
        return ForceVector(sol, sys.components)
    mu2, Rinv, G, H = _factors(sys, cfg.order)
    S = H * (cfg.lam / mu2)
    S += G
    try:
        y = np.linalg.solve(S, Rinv.T @ (sys.A.T @ sys.b))
    except np.linalg.LinAlgError:
        raise SingularSystem(f"regularized system is singular at lambda = {cfg.lam:g}") from None
    return ForceVector(Rinv @ y, sys.components)


def _factors(sys: InverseSystem, order: int):
    """(mu^2, R^-1, G, H) of the system's A and penalty order, from the
    cache it shares with its with_measurement copies; a failed
    factorization is kept and raised again."""
    cache = sys._factors
    if order not in cache:
        try:
            cache[order] = _factorize(sys.A, order, sys.components)
        except SingularSystem as exc:
            cache[order] = exc
    if isinstance(cache[order], SingularSystem):
        raise cache[order]
    return cache[order]


def _factorize(A: np.ndarray, order: int, components: int):
    """(mu^2, R^-1, G, H) of the module docstring, or SingularSystem."""
    # Besides A, no step keeps more than four m x m (or m x N) arrays
    # alive: the penalty is never formed as a matrix, and products scale
    # in place.
    stencil = difference_operator(order, order + 1)[0]
    penalty_rows = A.shape[1] - components * order
    mu2 = np.vdot(A, A) / (penalty_rows * np.dot(stencil, stencil))  # ||A||_F^2 / ||D||_F^2
    K = A.T @ A
    _add_penalty_gram(K, stencil, components, mu2)
    try:
        L = np.linalg.cholesky(K)  # K = L L^T, so R = L^T
    except np.linalg.LinAlgError:
        raise SingularSystem("A and the penalty share a null vector") from None
    del K
    Linv = np.linalg.inv(L)
    # ||L||_F ||L^-1||_F bounds the 2-norm condition number from above, so
    # the singular values are needed only when the bound reaches the limit
    if np.linalg.norm(L) * np.linalg.norm(Linv) >= COND_LIMIT:
        sv = np.linalg.svd(L, compute_uv=False)
        if sv[0] >= COND_LIMIT * sv[-1]:
            raise SingularSystem(f"[A; mu D] has condition number {sv[0] / sv[-1]:.3g}, "
                                 f"at or above {COND_LIMIT:g}")
    del L
    Z = Linv @ A.T  # (A R^-1)^T
    G = Z @ Z.T
    del Z
    Y = _differences(Linv, order, components)  # (D_k R^-1)^T up to sign
    H = Y @ Y.T
    H *= mu2
    return mu2, Linv.T, G, H


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
    A = np.asarray(A, dtype=float)
    if not np.any(A):
        raise ZeroMatrix("condition number of an all-zero matrix")
    if A.ndim != 2:
        raise DimensionMismatch(
            f"condition number needs a 2-dimensional matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise WaveforceError("condition number of a matrix with non-finite entries")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] == 0.0:
        return float("inf")
    return float(sv[0] / sv[-1])


def accuracy_error(f_num, f_exact) -> float:
    """Euclidean norm of the nodal difference between two force profiles.

    Accepts ForceVector instances or plain 1-D arrays of equal length.

    Raises
    ------
    DimensionMismatch
        When a profile is not a 1-dimensional array of numbers, the
        lengths differ, or two ForceVectors have different component
        counts.
    """
    a, b = _profile(f_num), _profile(f_exact)
    if a.shape != b.shape:
        raise DimensionMismatch(f"profiles have different lengths: {a.size} vs {b.size}")
    if isinstance(f_num, ForceVector) and isinstance(f_exact, ForceVector) \
            and f_num.components != f_exact.components:
        raise DimensionMismatch(f"profiles have {f_num.components} and "
                                f"{f_exact.components} components")
    return float(np.linalg.norm(a - b))


def _profile(v) -> np.ndarray:
    if isinstance(v, ForceVector):
        return v.values
    try:
        a = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise DimensionMismatch("a force profile is a flat sequence of numbers") from None
    if a.ndim != 1:
        raise DimensionMismatch(f"a force profile is 1-dimensional, got shape {a.shape}")
    return a
