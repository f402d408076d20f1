"""Tikhonov regularization of orders 0, 1, 2 and SVD diagnostics.

The regularized solution minimizes ||A f - b||^2 + lambda ||D_k f||^2 where
D_0 = I, D_1 takes first differences, D_2 second differences.

lambda = 0 is plain least squares, one lstsq call on A f = b; it raises
SingularSystem when A is numerically rank-deficient (smallest singular
value at or below RANK_TOL times the largest).

lambda > 0 runs on one factor object (_Factors) per (A, order), built on
first use and shared by every weight and every measurement on A: one
generalized eigenbasis of the pencil (A^T A, K), K = A^T A + mu^2 D_k^T D_k
with mu^2 = ||A||_F^2 / ||D_k||_F^2, in which every weight is a diagonal
filter (Hansen, Rank-Deficient and Discrete Ill-Posed Problems, 1998).

Build. The Cholesky factor L of K = L L^T whitens the system: with
G = (L^-1 A^T)(L^-1 A^T)^T and H = mu^2 (L^-1 D_k^T)(L^-1 D_k^T)^T,
G + H = L^-1 K L^-T is I, but in floating point only to about
eps cond(K): 3.5e-5 and 5.5e-5 on the tilted ones(5, 3) of the tests
(cond([A; mu D_2]) = 6.1e5, just under the rank rule's limit below)
scaled by 1e-3 and 1e-5. A filter that took H = I - G would carry that
error times t = lambda / mu^2, which reaches 7e8 on the default grids
(scenario 4, order 2, M = 320) and 4e10 on that system. So the factors are re-whitened: with C the
Cholesky factor of the computed G + H and R^-1 = L^-T C^-T,
R^-T K R^-1 = C^-1 (G + H) C^-T is I to rounding (X^T K X - I reads
3e-11 on the near-limit system, the rounding of X itself). Then
g, Q = eigh(C^-1 G C^-T), with g clipped to [0, 1], and X = R^-1 Q give

    X^T A^T A X = diag(g),    mu^2 X^T D_k^T D_k X = I - diag(g),

so that (A^T A + lambda D_k^T D_k)^-1 = X diag(1 / s) X^T with
s = g + t (1 - g) >= min(1, t) > 0: no weight is singular.
L^-1 and C^-1 are formed by halves (_lower_inverse): a third of the flops
of an LU inverse, nearly all of them in matrix products, so that one
inverse at m = 319 takes 1.5-2.4 ms against 5.4-7.0 ms for np.linalg.inv
(medians of 40, 2 vCPUs, numpy 2.4 with OpenBLAS 0.3).

Per weight. The filtered solution f0 = X ((X^T A^T b) / s) is followed by
one step of iterative refinement on the true normal equations,

    r = A^T (b - A f0) - lambda D_k^T D_k f0,    f = f0 + X ((X^T r) / s).

The residual is formed in the data space first: b - A f0 is small where
the data fit, so its rounding is too, and the step then brings the
solution to within 7.8e-13 of stacked least squares on the test grid up
to M = 160 (5.6e-11 at lambda = 1e-14). A refined weight (solve) costs
five m-vector products (X times (X^T A^T b) / s, A f0, A^T (b - A f0),
X^T r, and X times (X^T r) / s) plus O(m) elementwise work: D_k^T D_k f0
differences f0, writes that into a zero-bordered array and differences
it again, with no np.pad (10-17 us at m = 159, order 2, against 43-68 us
through np.pad: minima of 7 x 200 calls on 2 vCPUs with numpy 2.4).
The L-curve's weights stop at f0 and are solved together
(filter_solutions): with c = X^T A^T b, formed once per measurement, and
the diagonals s of all w weights as the rows of one w x m array, each
row as _filter gives it for its weight alone, the rows of (c / s) X^T are
the w filter solutions, one m x m x w matrix product. lcurve.sweep takes
every residual A f0 - b from one more product, n x m x w, and every
D_k f0 by _differences on the rows: two matrix products a sweep plus
O(wm) elementwise work, not two m-vector products and one Python
iteration a weight. A matrix product sums in another order than a vector
product, so the norms differ by rounding from those of one weight at a
time (the tests' filter_loop_points): 3.2e-11 relative at most on the
tested grids. They stay within
1.2e-7 of the refined solution's norms on the grids up to M = 160 (2.4e-6
at M = 320 and 3.2e-5 at M = 640, scenarios 4 and 5 at order 2), and the
corner's weight was the refined sweep's in every draw checked, so only
the picked weight is refined, by tikhonov_solve. The O(m) closed forms
of both norms in g and X^T A^T b were measured and rejected: the
residual's cancels against ||b||^2 (4.2e-4 relative on noise-free data,
scenario 3, M = 80, order 1), and the penalty's loses the terms where g
is near 1 (4.8e-2, scenario 4, M = 160, order 2). A new measurement costs
one product A^T b and one X^T A^T b, and no solution is kept.

Mirror split. The solve runs on a list of parts, each a parity with an
orthonormal basis V of the profiles (_fold_rule): 0 is the whole system
(V = I), 1 and -1 the profiles even and odd under node reversal J. A dual
system whose right rows equal its left rows with each component block's
columns reversed (_has_mirror; met when both modulations equal their own
mirror image) splits into those two halves: its normal equations commute
with J, so A^T A, mu^2 D_k^T D_k (written on its band) and A^T b are
folded onto each half, and no rows are rotated. Each part is factored as
above with the whole system's mu^2, and its basis is unfolded once, at
the build, to V R^-1 Q over the whole profile: X holds the parts'
columns side by side, so a weight sees one m x m X and no fold. A half
is about m/2 per component, so the two halves' factorizations and eighs
take a quarter of the whole system's flops. The folds are orthogonal, so the
parts' singular values together are A's (and the stacked parts' those of
[A; mu D_k]). Any other system is the one part of parity 0.

Rank rule for lambda > 0, checked once per factorization: SingularSystem
when the Cholesky fails or when cond([A; mu D_k]) >= COND_LIMIT = 1e6
(= 1 / sqrt(RANK_TOL)). The system solved has condition number up to
cond([A; mu D_k])^2, so past that limit its error is no longer small
against the stacked least-squares solution it replaces, which the tests
keep as their oracle. The condition number is the largest singular value
of the parts over the smallest, which is cond([A; mu D_k]) itself (for a
split system not the worse half's own condition number, which can be
smaller). Scenarios 1-5 up to M = N = 320 sit at 1.1e4 or below
(scenario 4, order 2, M = 320).

Memory: a system keeps X (one m x m array, 0.8 MB at m = 319), g and
1 - g for each penalty order it solved, and copies made by
InverseSystem.with_measurement share them, so cycling the orders on one
A builds each order once. The build frees each temporary as soon as it
is spent: at the eigh, the largest step, the arrays alive besides A are
R^-1, C^-1 G C^-T, and eigh's copy of it, its workspace (two m x m) and
its Q, six m x m arrays.
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

#: _lower_inverse leaves triangles of at most this order to np.linalg.inv
#: (orders 32 to 64 time alike)
_INVERSE_BLOCK = 64

_SQRT2 = np.sqrt(2.0)


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


def _checked_nodes(order, m):
    """(order, m) as ints if D_k has rows on profiles of m nodes: order in
    {0, 1, 2} (RegConfig's rule) and m > order; else InvalidDimension."""
    order, m = RegConfig(order=order).order, _integer(m, "m")
    if m <= order:
        raise InvalidDimension(f"operator of order {order} needs at least {order + 1} entries, got {m}")
    return order, m


def difference_operator(order: int, m: int) -> np.ndarray:
    """Difference operator D_k acting on vectors of length m.

    D_0 is the m x m identity; D_1 is (m-1) x m with rows (1, -1);
    D_2 is (m-2) x m with rows (1, -2, 1).

    Raises
    ------
    InvalidDimension
        When order or m is not an integer, order is not 0, 1 or 2, or
        m <= order (no rows would remain).
    """
    order, m = _checked_nodes(order, m)
    # row i of np.diff(I) is D_k e_i up to (-1)^k; + 0.0 turns -0.0 into 0.0
    return (-1) ** order * _differences(np.eye(m), order, 1).T + 0.0


def _differences(X: np.ndarray, order: int, components: int) -> np.ndarray:
    """D_k applied to each row of X, block by block over the components,
    up to the sign of odd orders (no quadratic form sees it).

    Row r of X holds a vector of length components * m; each m-long block
    is differenced on its own, with no difference across a block boundary.
    """
    blocks = X.reshape(X.shape[:-1] + (components, -1))
    for _ in range(order):  # np.diff's subtractions, without its overhead
        blocks = blocks[..., 1:] - blocks[..., :-1]
    return blocks.reshape(X.shape[:-1] + (-1,))


def _fold_rule(m, parity):
    """The fold rule of a profile of m nodes: (wl, wh) such that column i
    of the parity's orthonormal basis V is wl[i] e_i + wh[i] e_{m-1-i}.

    Parity 0 is the whole profile, V = I (wl = 1, wh = 0). Parity 1 (-1)
    is the part even (odd) under node reversal: column i < m // 2 pairs
    node i with its mirror image (wl = 1 / sqrt 2, wh = parity / sqrt 2),
    and an odd m adds the middle node, its own image, to the even part
    alone (wl = 1, wh = 0): m - m // 2 even columns and m // 2 odd ones.
    """
    if not parity:
        return np.ones(m), np.zeros(m)
    h = m // 2
    wl = np.full(m - h if parity > 0 else h, 1.0 / _SQRT2)
    wh = parity * wl
    if wl.size > h:
        wl[h], wh[h] = 1.0, 0.0
    return wl, wh


def _fold(X, parity, components):
    """X V along the last axis, block by block over the components, for the
    basis V of the parity (_fold_rule); parity 0 returns X itself. No
    basis is formed: each node is weighted with its mirror image."""
    if not parity:
        return X
    blocks = X.reshape(X.shape[:-1] + (components, -1))
    wl, wh = _fold_rule(blocks.shape[-1], parity)
    Y = blocks[..., :wl.size] * wl + blocks[..., ::-1][..., :wl.size] * wh
    return Y.reshape(X.shape[:-1] + (-1,))


def _unfold(Y, parity, components, m):
    """Y V^T along the last axis: the m-vectors of the folded coordinates
    Y, the inverse of _fold; parity 0 returns Y itself."""
    if not parity:
        return Y
    blocks = Y.reshape(Y.shape[:-1] + (components, -1))
    wl, wh = _fold_rule(m, parity)
    X = np.zeros(blocks.shape[:-1] + (m,))
    X[..., :wl.size] = blocks * wl
    X[..., ::-1][..., :wl.size] += blocks * wh
    return X.reshape(Y.shape[:-1] + (-1,))


def _add_penalty_gram(K, stencil, components, scale, m, parity):
    """K += scale V^T D^T D V for the block penalty on profiles of m nodes,
    in the folded coordinates of the parity (_fold_rule), written on its
    band; returns K. Row r of D_k holds the stencil (a row of D_k) at nodes
    r..r+k, and node a lands on one coordinate, index[a], with the weight
    V[a, index[a]] (the odd part's middle node on none: weight 0)."""
    wl, wh = _fold_rule(m, parity)
    size = wl.size
    index, weight = np.zeros(m, dtype=int), np.zeros(m)
    for nodes, w in ((np.arange(size), wl), (m - 1 - np.arange(size), wh)):
        on = w != 0
        index[nodes[on]], weight[nodes[on]] = np.flatnonzero(on), w[on]
    rows = np.arange(m - stencil.size + 1)
    for c in range(components):
        for i, si in enumerate(stencil):
            for j, sj in enumerate(stencil):
                np.add.at(K, (c * size + index[rows + i], c * size + index[rows + j]),
                          scale * si * sj * weight[rows + i] * weight[rows + j])
    return K


def tikhonov_solve(sys: InverseSystem, cfg: RegConfig) -> ForceVector:
    """Unique minimizer of ||A f - b||^2 + lambda ||D_k f||^2.

    At lambda = 0 this is plain least squares on A f = b. For lambda > 0
    it filters on the system's eigenbasis of order k, computing it on
    first use, and refines once (see the module docstring).

    Raises
    ------
    InvalidDimension
        When lambda > 0 and a profile has no more than k nodes, so that
        D_k has no row.
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
    return ForceVector(_factors(sys, cfg.order).solve(sys.b, cfg.lam), sys.components)


def _factors(sys: InverseSystem, order: int) -> _Factors:
    """The _Factors of the system's A and penalty order, from the store it
    shares with its with_measurement copies. A failed factorization is
    kept as its message and raised afresh each time, so no traceback grows
    and no frame of the attempt stays alive."""
    store = sys._factors
    if order not in store:
        try:
            store[order] = _Factors(sys.A, order, sys.components)
        except SingularSystem as exc:
            store[order] = str(exc)
    if isinstance(store[order], str):
        raise SingularSystem(store[order])
    return store[order]


def _has_mirror(A, components):
    """Whether A is a dual system [[B, C], [B J, C J]] for the reversal J of
    the interior nodes (inverse's mirror relation: each modulation equals
    its own mirror image), with at least as many distinct rows as unknowns
    in each half of the split."""
    n, m = A.shape[0] // 2, A.shape[1] // 2
    if components != 2 or A.shape != (2 * n, 2 * m) or m < 2 or n < 2 * (m - m // 2):
        return False
    left, right = A[:n].reshape(n, 2, m), A[n:].reshape(n, 2, m)
    return np.array_equal(right, left[..., ::-1])


def _parts(A, components):
    """(parities, rows) of A's parts: the whole system and A, or, when A has
    the mirror relation, its two halves and sqrt 2 times its left rows L
    ([L; L J] V = [L V; +-L V] has the gram and singular values of sqrt 2 L V)."""
    if not _has_mirror(A, components):
        return (0,), A
    return (1, -1), _SQRT2 * A[:A.shape[0] // 2]


def _check_rank(Ls, Linvs):
    """The rank rule on the Cholesky factors L of the stacked [A; mu D_k],
    one per part: SingularSystem when cond([A; mu D_k]) >= COND_LIMIT.

    ||L||_F ||L^-1||_F bounds the 2-norm condition number from above (over
    several parts L is block-diagonal, so the norms add in squares), and
    the singular values are needed only when the bound reaches the limit.
    """
    frobenius = [np.linalg.norm([np.linalg.norm(X) for X in Xs]) for Xs in (Ls, Linvs)]
    if frobenius[0] * frobenius[1] >= COND_LIMIT:
        cond = _ratio(Ls)
        if cond >= COND_LIMIT:
            raise SingularSystem(f"[A; mu D] has condition number {cond:.3g}, at or above {COND_LIMIT:g}")


class _Factors:
    """The eigenbasis of the regularized solve of one (A, order): X, in
    full coordinates with the parts' columns side by side, g and 1 - g
    (see the module docstring). On construction, InvalidDimension when
    D_k has no row on the profiles (_checked_nodes), before any product,
    and SingularSystem when [A; mu D_k] fails the rank rule."""

    def __init__(self, A, order, components):
        m = A.shape[1] // components
        _checked_nodes(order, m)
        self.A, self.order, self.components = A, order, components
        self.parities, rows = _parts(A, components)
        stencil = difference_operator(order, order + 1)[0]
        penalty_rows = A.shape[1] - components * order
        mu2 = np.vdot(A, A) / (penalty_rows * np.dot(stencil, stencil))  # ||A||_F^2 / ||D||_F^2
        folded = [_fold(rows, parity, components) for parity in self.parities]  # A V
        grams = [_add_penalty_gram(Ab.T @ Ab, stencil, components, mu2, m, parity)
                 for parity, Ab in zip(self.parities, folded)]
        try:
            Ls = [np.linalg.cholesky(K) for K in grams]  # K = L L^T
        except np.linalg.LinAlgError:
            raise SingularSystem("A and the penalty share a null vector") from None
        del grams
        Linvs = [_lower_inverse(L) for L in Ls]
        _check_rank(Ls, Linvs)
        del Ls
        # popped: _eigenbasis holds the only reference to its part's L^-1
        bases = [_eigenbasis(Linvs.pop(0), Ab, order, components, mu2, m, parity)
                 for parity, Ab in zip(self.parities, folded)]
        g, Xt = (np.concatenate(a) for a in zip(*bases))
        self.mu2, self.g, self.X = mu2, np.clip(g, 0.0, 1.0), Xt.T
        self.h = 1.0 - self.g  # the diagonal of mu^2 X^T D_k^T D_k X

    def filter_solutions(self, b, lambdas):
        """The filter solutions f0 = X ((X^T A^T b) / s) of the weights
        lambda > 0 of a 1-D array, with no refinement: the L-curve's
        points, one row per weight, from one product with X."""
        XtAtb = self.X.T @ (self.A.T @ b)
        return (XtAtb / self._filter(lambdas[:, None])) @ self.X.T

    def solve(self, b, lam):
        """The solution of one weight lambda > 0: the filter solution, then
        one refinement step on the normal equations."""
        A, X, s = self.A, self.X, self._filter(lam)
        f = X @ ((X.T @ (A.T @ b)) / s)
        r = A.T @ (b - A @ f) - lam * _penalty_gradient(f, self.order, self.components)
        f += X @ ((X.T @ r) / s)
        return f

    def _filter(self, lam):
        """The filter's diagonal s = g + (lambda / mu^2) (1 - g), one row
        per weight when lambda is a column of weights."""
        return self.g + lam / self.mu2 * self.h


def _eigenbasis(Linv, Ab, order, components, mu2, m, parity):
    """(g, X^T) of one part, from its L^-1 and folded rows A V: the
    eigenvalues g and the rows of X^T = (V R^-1 Q)^T over the whole profile,
    where R^-1 = L^-T C^-T re-whitens with the Cholesky factor C of
    G + H = L^-1 K L^-T and g, Q = eigh(C^-1 G C^-T).

    The caller passes the only reference to L^-1, so that it is freed
    before the eigh, which then sees R^-1 and its own input alive.
    """
    # Far from the diagonal L^-1 can decay below the smallest normal double:
    # an LU inverse left 876 subnormal entries at scenario 4, order 2,
    # M = 320 and 15,008 at M = 640. _lower_inverse leaves none there, but
    # another BLAS may round differently. As zeros those entries change no
    # sum at working precision; as subnormals they slow each product
    # several-fold.
    Linv[np.abs(Linv) < np.finfo(float).tiny] = 0.0
    Z = Linv @ Ab.T  # (A V L^-T)^T
    G = Z @ Z.T
    del Z
    Y = _differences(_unfold(Linv, parity, components, m), order, components)  # (D V L^-T)^T up to sign
    S = Y @ Y.T
    del Y
    S *= mu2
    S += G  # G + H
    C = np.linalg.cholesky(S)
    del S
    Cinv = _lower_inverse(C)
    del C
    Rinv = Linv.T @ Cinv.T
    del Linv
    T = Cinv @ G
    np.matmul(T, Cinv.T, out=G)  # C^-1 G C^-T
    del T, Cinv
    g, Q = np.linalg.eigh(G)
    del G
    W = Rinv @ Q
    del Rinv, Q
    return g, _unfold(W.T, parity, components, m)


def _lower_inverse(L):
    """L^-1 of a nonsingular lower-triangular L, by halves (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 14):

        [[L11, 0], [L21, L22]]^-1 = [[X11, 0], [-X22 L21 X11, X22]],

    each half inverted the same way down to triangles of at most
    _INVERSE_BLOCK rows, which np.linalg.inv inverts. That is about
    2 m^3 / 3 flops, nearly all in matrix products, where an LU inverse of
    L (getrf and getri) takes about 2 m^3, much of it in matrix-vector
    steps. The halves are written into one array, and its entries above
    the diagonal are exact zeros.
    """
    X = np.zeros_like(L)

    def fill(L, X):
        if L.shape[0] <= _INVERSE_BLOCK:
            X[...] = np.tril(np.linalg.inv(L))  # the LU leaves rounding above the diagonal
            return
        h = L.shape[0] // 2
        fill(L[:h, :h], X[:h, :h])
        fill(L[h:, h:], X[h:, h:])
        np.matmul(X[h:, h:], L[h:, :h] @ X[:h, :h], out=X[h:, :h])
        X[h:, :h] *= -1.0

    fill(L, X)
    return X


def _penalty_gradient(f, order, components):
    """D_k^T D_k f, block by block over the components: _differences is D_k
    up to the sign (-1)^k, and its adjoint is the difference of the
    zero-padded differences with that sign again."""
    d = _differences(f, order, components).reshape(components, -1)
    padded = np.zeros((components, d.shape[1] + 2 * order))
    padded[:, order:order + d.shape[1]] = d
    return (-1) ** order * _differences(padded.reshape(-1), order, components)


def _ratio(matrices):
    """The largest over the smallest singular value of all the matrices
    together: inf when the smallest is zero, ZeroMatrix when all are."""
    sv = np.concatenate([np.linalg.svd(X, compute_uv=False) for X in matrices])
    if not np.any(sv):
        raise ZeroMatrix("condition number of an all-zero matrix")
    return float(sv.max() / sv.min()) if sv.min() else float("inf")


def condition_number(A) -> float:
    """2-norm condition number sv(1) / sv(min dimension).

    A dual system with the mirror relation (see the module docstring)
    takes its singular values from the mirror split, two quarter-size SVDs
    of its even and odd halves; any other A, from one SVD of A.

    Raises
    ------
    DimensionMismatch
        When A is not a 2-dimensional array of numbers.
    WaveforceError
        When A has a non-finite entry.
    ZeroMatrix
        When A has no nonzero entry.
    """
    parities, rows = _parts(_checked_array(A, "matrix", ndim=2), 2)
    return _ratio([_fold(rows, parity, 2) for parity in parities])


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

