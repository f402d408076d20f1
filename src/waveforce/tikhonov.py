"""Tikhonov regularization of orders 0, 1, 2 and SVD diagnostics.

The regularized solution minimizes ||A f - b||^2 + lambda ||D_k f||^2 where
D_0 = I, D_1 takes first differences, D_2 second differences.

lambda = 0 is plain least squares, one lstsq call on A f = b; it raises
SingularSystem when A is numerically rank-deficient (smallest singular
value at or below RANK_TOL times the largest).

lambda > 0 runs on one factor object (_Factors) per (A, order), built on
first use and shared by every weight and every measurement on A. With
mu^2 = ||A||_F^2 / ||D_k||_F^2, the Cholesky factor R of
A^T A + mu^2 D_k^T D_k is the triangular factor of the stacked [A; mu D_k].
The factors kept are R^-1, G = (A R^-1)^T (A R^-1) and
H = mu^2 (D_k R^-1)^T (D_k R^-1), and a weight then costs one m x m solve,

    (G + (lambda / mu^2) H) y = R^-T A^T b,    f = R^-1 y.

The object gives the solutions of a list of weights (None where LAPACK
finds a weight's matrix singular), taking R^-T A^T b once and building
each weight's matrix in one reused buffer, and ||D_k f|| of a solution.
tikhonov_solve asks it for one weight, and lcurve.sweep for its whole
grid. The sweep's solutions stay on the object with the b they solve, so
that tikhonov_solve at a swept weight (the corner's, say) on that same b
looks its solution up instead of solving again. The next sweep of the
order replaces them; a with_measurement copy has its own b, so it finds
none.

Mirror split. A dual system whose right rows equal its left rows with
each component block's columns reversed (InverseSystem's mirror relation,
met when both modulations equal their own mirror image) splits into two
independent half-size problems. Let V_+ and V_- be orthonormal bases of
the profiles even and odd under node reversal J (see _fold). Rotating the
rows to b_+- = (b_L +- b_R) / sqrt 2 and the unknowns to f = V_+ y_+ +
V_- y_- makes A block-diagonal, with blocks A_+- = sqrt 2 L V_+- for the
left rows L; D_k^T D_k commutes with J, so the penalty splits the same
way. The object then factors each half as above, both with the full
system's mu^2, and recombines f = V_+ y_+ + V_- y_-. Each half is
about m/2 per component, so the factors take half the memory of the
whole system's, and every factorization and weight about a quarter of
its flops. The rotation and the folds are orthogonal, so the halves'
singular values together are A's (and the stacked halves' those of
[A; mu D_k]), and the rank rule below holds unchanged. Every other
system, single-source ones included, is factored whole.

Rank rule for lambda > 0, checked once per factorization: SingularSystem
when the Cholesky fails or when cond([A; mu D_k]) >= COND_LIMIT = 1e6
(= 1 / sqrt(RANK_TOL)). The system solved has condition number up to
cond([A; mu D_k])^2, so past that limit its error is no longer small
against the stacked least-squares solution it replaces, which the tests
keep as their oracle. For a split system the condition number is the
largest singular value of the two halves over the smallest, which is
cond([A; mu D_k]) itself (not the worse half's own condition number,
which can be smaller). Scenarios 1-5 up to M = N = 320 sit at 1.1e4 or
below (scenario 4, order 2, M = 320).

Memory: a system keeps the factors of each penalty order it solved,
three m x m arrays per order (at most nine in all, 7 MB at m = 319; a
split dual system two halves of about a quarter that each), and copies
made by InverseSystem.with_measurement share them, so cycling the orders
on one A factors each order once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDimension,
    SingularSystem,
    ZeroMatrix,
)
from .inverse import InverseSystem
from .model import ForceVector, _checked_array, _instance, _integer, _real

#: singular values below RANK_TOL * sv(1) count as zero in rank decisions
RANK_TOL = 1e-12

#: [A; mu D_k] at or above this condition number counts as rank-deficient
#: for lambda > 0 (see the module docstring)
COND_LIMIT = 1.0 / np.sqrt(RANK_TOL)

_SQRT2 = np.sqrt(2.0)

#: the even and odd halves of a mirror-split system, in that order
_PARITIES = (1, -1)


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
        lam = _real(self.lam, "lambda")
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


def _fold(X, parity, components):
    """X V along the last axis, block by block over the components, for the
    orthonormal basis V of the m-vectors even (parity 1) or odd (-1) under
    node reversal.

    Column i < m // 2 of V is (e_i + parity e_{m-1-i}) / sqrt 2, and an odd
    m adds e_{m // 2} to the even basis; so the even block is m - m // 2
    long and the odd one m // 2. No basis is formed: each pair of mirror
    columns is folded onto one.
    """
    blocks = X.reshape(X.shape[:-1] + (components, -1))
    m = blocks.shape[-1]
    h = m // 2
    half = (blocks[..., :h] + parity * blocks[..., ::-1][..., :h]) / _SQRT2
    if parity > 0 and m % 2:
        half = np.concatenate([half, blocks[..., h:h + 1]], axis=-1)
    return half.reshape(X.shape[:-1] + (-1,))


def _unfold(Y, parity, components, m):
    """Y V^T along the last axis: the m-vectors of the folded coordinates
    Y, the inverse of _fold."""
    blocks = Y.reshape(Y.shape[:-1] + (components, -1))
    h = m // 2
    X = np.empty(blocks.shape[:-1] + (m,))
    X[..., :h] = blocks[..., :h] / _SQRT2
    X[..., ::-1][..., :h] = parity * X[..., :h]
    if m % 2:
        X[..., h] = blocks[..., h] if parity > 0 else 0.0
    return X.reshape(Y.shape[:-1] + (-1,))


def tikhonov_solve(sys: InverseSystem, cfg: RegConfig) -> ForceVector:
    """Unique minimizer of ||A f - b||^2 + lambda ||D_k f||^2.

    At lambda = 0 this is plain least squares on A f = b. For lambda > 0
    it reuses the system's factors of order k, computing them on first
    use, and at a weight of the last sweep on the same b it returns that
    sweep's solution (see the module docstring).

    Raises
    ------
    SingularSystem
        When lambda = 0 and A is numerically rank-deficient, or when
        lambda > 0 and [A; mu D_k] fails the rank rule (possible only if
        A and D_k nearly share a null vector).
    WrongType
        When sys is no InverseSystem or cfg no RegConfig.
    """
    _instance(sys, (InverseSystem,), "system")
    _instance(cfg, (RegConfig,), "regularization config")
    if cfg.lam == 0.0:
        sol, _, _, sv = np.linalg.lstsq(sys.A, sys.b, rcond=None)
        if sv.size == 0 or sv[-1] <= RANK_TOL * sv[0]:
            raise SingularSystem("system is numerically rank-deficient at lambda = 0")
        return ForceVector(sol, sys.components)
    f = _factors(sys, cfg.order).solve(sys.b, cfg.lam)
    if f is None:
        raise SingularSystem(f"regularized system is singular at lambda = {cfg.lam:g}")
    return ForceVector(f, sys.components)


def _factors(sys: InverseSystem, order: int) -> _Factors:
    """The _Factors of the system's A and penalty order, from the store it
    shares with its with_measurement copies. A failed factorization is
    kept as its message and raised afresh each time, so no traceback grows
    and no frame of the attempt stays alive."""
    store = sys._factors
    if order not in store:
        try:
            store[order] = _Factors(sys.A, order, sys.components, sys._mirrored)
        except SingularSystem as exc:
            store[order] = str(exc)
    if isinstance(store[order], str):
        raise SingularSystem(store[order])
    return store[order]


def _folded_penalty_gram(m, stencil, scale, parity):
    """V^T (scale D_k^T D_k) V for one profile of m nodes, V the folded
    basis of the parity (see _fold); D_k^T D_k commutes with the node
    reversal, so this is its whole part on that half."""
    penalty = np.zeros((m, m))
    _add_penalty_gram(penalty, stencil, 1, scale)
    return _fold(_fold(penalty, parity, 1).T, parity, 1)


def _check_rank(Ls, Linvs):
    """The rank rule on the Cholesky factors L of the stacked [A; mu D_k],
    one per part: SingularSystem when cond([A; mu D_k]) >= COND_LIMIT.

    ||L||_F ||L^-1||_F bounds the 2-norm condition number from above (over
    two halves L is block-diagonal, so the norms add in squares), and the
    singular values are needed only when the bound reaches the limit.
    """
    frobenius = [np.linalg.norm([np.linalg.norm(X) for X in Xs]) for Xs in (Ls, Linvs)]
    if frobenius[0] * frobenius[1] >= COND_LIMIT:
        sv = np.concatenate([np.linalg.svd(L, compute_uv=False) for L in Ls])
        if sv.max() >= COND_LIMIT * sv.min():
            raise SingularSystem(f"[A; mu D] has condition number {sv.max() / sv.min():.3g}, "
                                 f"at or above {COND_LIMIT:g}")


def _halves(A):
    """The blocks sqrt 2 L V_+ and sqrt 2 L V_- of a mirrored dual A, for its
    left rows L (see the module docstring)."""
    left = A[:A.shape[0] // 2]
    return [_SQRT2 * _fold(left, parity, 2) for parity in _PARITIES]


class _Factors:
    """Factors of the regularized solve of one (A, order), whole or split
    into the mirror halves (see the module docstring), and the solutions of
    the last sweep on them. SingularSystem on construction when [A; mu D_k]
    fails the rank rule."""

    def __init__(self, A, order, components, mirrored):
        self.A, self.order, self.components, self.split = A, order, components, mirrored
        self.parities = _PARITIES if mirrored else (0,)
        self.m = m = A.shape[1] // components
        # Besides A, no step keeps more than four arrays the size of the
        # gram (or of A) alive: the penalty is never formed over the whole
        # unknown vector, and products scale in place.
        stencil = difference_operator(order, order + 1)[0]
        penalty_rows = A.shape[1] - components * order
        mu2 = np.vdot(A, A) / (penalty_rows * np.dot(stencil, stencil))  # ||A||_F^2 / ||D||_F^2
        blocks = _halves(A) if mirrored else [A]
        grams = []
        for parity, Ab in zip(self.parities, blocks):
            K = Ab.T @ Ab
            if parity:
                P = _folded_penalty_gram(m, stencil, mu2, parity)
                n = P.shape[0]
                K[:n, :n] += P
                K[n:, n:] += P
            else:
                _add_penalty_gram(K, stencil, components, mu2)
            grams.append(K)
        try:
            Ls = [np.linalg.cholesky(K) for K in grams]  # K = L L^T, so R = L^T
        except np.linalg.LinAlgError:
            raise SingularSystem("A and the penalty share a null vector") from None
        del grams, K
        Linvs = [np.linalg.inv(L) for L in Ls]
        _check_rank(Ls, Linvs)
        del Ls
        self.mu2, self.parts = mu2, []
        for parity, Linv, Ab in zip(self.parities, Linvs, blocks):
            Z = Linv @ Ab.T  # (A R^-1)^T
            G = Z @ Z.T
            del Z
            Y = _differences(_unfold(Linv, parity, components, m) if parity else Linv,
                             order, components)  # (D_k R^-1)^T up to sign
            H = Y @ Y.T
            H *= mu2
            del Y
            self.parts.append((Linv.T, G, H))
        self._swept = (None, {})

    def solutions(self, b, lambdas, keep=False):
        """The solution of each weight lambda > 0 in turn, or None where
        LAPACK finds G + (lambda / mu^2) H singular. With keep, the solutions
        replace those kept from the last sweep (see solve)."""
        if self.split:
            # rows rotated to b_+- = (b_L +- b_R) / sqrt 2, then A_+-^T b_+-
            n = b.size // 2
            rotated = [(b[:n] + parity * b[n:]) / _SQRT2 for parity in self.parities]
            Atb = [_SQRT2 * _fold(self.A[:n].T @ r, parity, 2)
                   for parity, r in zip(self.parities, rotated)]
        else:
            Atb = [self.A.T @ b]
        parts = [list(_weight_loop(*part, self.mu2, rhs, lambdas))
                 for part, rhs in zip(self.parts, Atb)]
        out = [None if any(y is None for y in ys) else self._combine(ys) for ys in zip(*parts)]
        if keep:
            self._swept = (b, {lam: f for lam, f in zip(lambdas, out) if f is not None})
        return out

    def _combine(self, ys):
        """f of the parts' solutions: the one solution, or V_+ y_+ + V_- y_-."""
        if not self.split:
            return ys[0]
        even, odd = (_unfold(y, parity, self.components, self.m)
                     for parity, y in zip(self.parities, ys))
        return even + odd

    def solve(self, b, lam):
        """The solution at one weight: the last sweep's when it solved b at
        lam, else a fresh solve (None where singular)."""
        swept_b, swept = self._swept
        if b is swept_b and lam in swept:
            return swept[lam]
        return self.solutions(b, [lam])[0]

    def penalty_norm(self, f):
        """||D_k f||, block by block over the components."""
        return float(np.linalg.norm(_differences(f, self.order, self.components)))


def _weight_loop(Rinv, G, H, mu2, Atb, lambdas):
    """R^-1 y for each weight, solving (G + (lambda / mu^2) H) y = R^-T A^T b
    in one reused buffer, or None where LAPACK finds the matrix singular."""
    rhs = Rinv.T @ Atb
    S = np.empty_like(G)
    for lam in lambdas:
        np.multiply(H, lam / mu2, out=S)
        S += G
        try:
            y = np.linalg.solve(S, rhs)
        except np.linalg.LinAlgError:
            yield None
            continue
        yield Rinv @ y


def _condition_number(sys: InverseSystem) -> float:
    """condition_number(sys.A), from the singular values of the two halves
    when the system splits (see the module docstring)."""
    if not sys._mirrored:
        return condition_number(sys.A)
    sv = np.concatenate([np.linalg.svd(half, compute_uv=False) for half in _halves(sys.A)])
    if not sv.max():
        raise ZeroMatrix("condition number of an all-zero matrix")
    return float(sv.max() / sv.min()) if sv.min() else float("inf")


def condition_number(A) -> float:
    """2-norm condition number sv(1) / sv(min dimension).

    Raises
    ------
    DimensionMismatch
        When A is not a 2-dimensional array of numbers.
    WaveforceError
        When A has a non-finite entry.
    ZeroMatrix
        When A has no nonzero entry.
    """
    A = _checked_array(A, "matrix", ndim=2)
    if not np.any(A):
        raise ZeroMatrix("condition number of an all-zero matrix")
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
    WaveforceError
        When a profile has a non-finite entry.
    """
    a, b = (v.values if isinstance(v, ForceVector) else _checked_array(v, "force profile")
            for v in (f_num, f_exact))
    if a.shape != b.shape:
        raise DimensionMismatch(f"profiles have different lengths: {a.size} vs {b.size}")
    if isinstance(f_num, ForceVector) and isinstance(f_exact, ForceVector) \
            and f_num.components != f_exact.components:
        raise DimensionMismatch(f"profiles have {f_num.components} and "
                                f"{f_exact.components} components")
    return float(np.linalg.norm(a - b))

