"""Tikhonov regularization of orders 0, 1, 2 and the condition number.

The regularized solution minimizes ||A f - b||^2 + lambda ||D_k f||^2 where
D_0 = I, D_1 takes first differences, D_2 second differences.

lambda = 0 is plain least squares, one lstsq call on A f = b at the cut
rcond = RANK_TOL, which counts A's rank: SingularSystem when the rank is
below the column count (fewer rows than columns, or the smallest
singular value at or below RANK_TOL times the largest). lstsq's default
cut, eps * max(rows, columns) times the largest, lies above RANK_TOL's
beyond 4,503 rows, where it would drop a mode the rule accepts.

lambda > 0 runs on one factor object (_Factors) per (A, order), built on
first use and shared by every weight and every measurement on A: the
problem in standard form (Elden 1977; Hansen, Rank-Deficient and Discrete
Ill-Posed Problems, 1998, sec. 2.3), in which every weight is a closed form.

Build. W is an orthonormal basis of the null space of D_k, block by block
over the components: the constant profile, and for k = 2 the linear one.
D_k^+ = (I - W W^T) T is the pseudo-inverse of D_k, where T holds the first
m - k columns of the inverse of D_k completed to a unit upper triangle:
its entries are integers (running sums), so D_k^+ is exact up to one
projection. With Q_T R_T = qr(A W) and the thin SVD U S V^T of
Abar = (I - Q_T Q_T^T) A D_k^+, the factors keep U, S, D_k^+ V, Q_T and
W R_T^-1. At order 0, W is empty and Abar = A. The modes whose singular
value is at or below eps * max(rows, columns) * sigma_max of Abar (numpy
lstsq's default cut, sigma_max over all parts) are rounding, and the
factors drop them: the solve and the L-curve norms then describe the same
solution, the minimum-norm one along those modes, at every weight.

Stacks. _factors is the one entry to the factor store: it returns the
factors of a list of systems that share A's shape and mirror split, and
builds those not yet stored as one stack of _factor_stack, one slot per
system: W and D_k^+ are formed once, and the QR of A W, the singular
values of R_T, its inverse, the Abar products and the thin SVDs are each
one numpy call over the stack, which runs its LAPACK or BLAS routine slot
by slot, so each slot is bit for bit the build of its system alone. A
lone system is the one-slot stack A[None], a view of its A, not a copy.
The rank cut and D_k^+ V are per slot, at each slot's own rank. A slot
that fails the rank rule fails the stack: SingularSystem, and no slot is
built. tables factors the systems of scenarios 2-4 at M = 80 as one stack
per order; tikhonov_solve and lcurve.sweep pass one system.

Per weight. With bbar = b - Q_T Q_T^T b and beta = U^T bbar, formed once
per measurement by _Factors.spectrum, and y = S beta / (S^2 + lambda),

    f = z + W R_T^-1 Q_T^T (b - A z),    z = D_k^+ V y,
    ||D_k f|| = ||y||,
    ||A f - b||^2 = ||lambda beta / (S^2 + lambda)||^2 + ||bbar - U beta||^2.

Both norms are sums of squares, so nothing cancels, and a sweep's weights
cost O(m) each once beta is formed. ||bbar - U beta||^2, the squared norm
of bbar outside range(Abar), is read by the norms alone, and
_Factors.norms forms it. S^2 + lambda >= lambda > 0: no weight divides
by zero.

Floating-point rule. External data may take any finite magnitude, so the
factor object's arithmetic (_factor_stack and _Factors' spectrum, solve
and norms) and condition_number's singular-value ratio (_ratio) run under
one rule, _FLOAT_RULE: an overflow, and the inf - inf, inf / inf or
0 * inf that follow it, raise no numpy warning.
Each non-finite result meets a typed refusal instead: a solution meets
ForceVector's intake (WaveforceError); a norm reads inf, never nan, and
corner takes finite points only (DegenerateCurve when fewer than three
remain); the rank rule's condition number reads inf on overflow
(SingularSystem). condition_number returns inf when its ratio overflows.

Mirror split. A dual system whose right rows equal its left rows with each
component block's columns reversed (_has_mirror; met when both
modulations equal their own mirror image) keeps that relation in Abar up
to the sign (-1)^k, since D_k maps profiles of parity tau under node
reversal to differences of parity (-1)^k tau. So Abar splits into two
halves, each from its left rows alone: for the column parities tau = 1 and
-1 (_fold's bases V_tau, on the m - k differences), sqrt 2 times the left
rows' fold pairs with the data rows (bbar_left + sigma bbar_right) / sqrt 2,
sigma = (-1)^k tau. The halves' two SVDs take about a quarter of the
whole one's flops. Each part keeps its U on its folded rows and its
D_k^+ V as (D_k^+ V_tau) times its right singular vectors, D_k^+ folded
once. Any other system is the one part of parity 0 (V_0 = I).

Condition number. condition_number takes a mirrored dual's singular values
from the mirror split's two halves, one values-only SVD each. Any other A
with at least _QR_ROUTE_MIN = 220 columns and no fewer rows takes the QR
route (Golub and Van Loan, Matrix Computations, secs. 5.2 and 8.2):
R = qr(A 2^-e, mode 'r'), the power of two 2^-e putting A's largest
magnitude in [0.5, 1), R^-1 by halves (_upper_inverse), and sigma_max of each
by block subspace iteration (_largest_singular_value: 4 vectors from a
private generator of a fixed seed, so numpy's global one is untouched and
reruns agree bit for bit; Rayleigh-Ritz by the SVD of R Q), so that
cond(A) = sigma_max(R) sigma_max(R^-1). cond does not depend on scale,
and the scaling is exact but for entries below about 1e-307 times the
largest, far under the QR's rounding; it keeps the iteration off
subnormal numbers, on which the SVD of R Q did not converge (a matrix of
entries near 1e-320). An iteration stops once a Kato-Temple bound puts
its relative error at or below 1e-15, 3-7 steps on scenarios 2-4. The route falls back to the SVD of A when R's diagonal
holds a zero or spans 1 / eps (A numerically singular: the SVD's inf,
ZeroMatrix or rounding-level ratio stands) and when an iteration has not
stopped after _ITERATION_CAP = 60 steps: a cluster at sigma_min, as on
scenario 5, whose six smallest singular values lie within 0.12% at
M = 160, which is why the mirrored halves keep their SVDs.

The threshold is the measured crossover of the `cond` stage of one
`invert` run (scenarios 2 and 4, 15 alternating fresh processes each,
2 vCPUs, numpy 2.4 with OpenBLAS): the route was faster in 7 of 30 runs at
199 columns, 19 of 30 at 219 and 26 of 30 at 239, and takes 10.1 against
14.4 ms (medians) at 319. The route's fixed part, about 2 ms of small
products, QRs and SVDs over its iterations, outweighs the SVD's cubic
excess below that. Both resolve sigma_min only to about eps cond(A); the
two agree within 0.03 eps cond(A) on scenarios 2-4 at M = 160 and 320.

Rank rule for lambda > 0, checked on each build: SingularSystem when
cond(A W), numpy's cond of R_T (inf when A W has fewer rows than
columns), is at or above COND_LIMIT = 1e6 (= 1 / sqrt(RANK_TOL)). The
solution's part in the null space of D_k is R_T^-1 Q_T^T (b - A z),
unregularized, so A W carries the whole problem's degeneracy: an A that
(nearly) annihilates a profile the penalty does not see. At order 0 W is empty and the rule never fires.

Memory: a system keeps U and D_k^+ V (about two m x m arrays) for each
penalty order it solved, and copies made by InverseSystem.with_measurement
share them. The SVD, whose LAPACK workspace is the build's largest, runs
with Abar alone alive besides A (D_k^+ is formed again after it), and the
build frees Abar before it forms D_k^+ V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDimension,
    SingularSystem,
    ZeroMatrix,
)
from .inverse import InverseSystem
from .model import ForceVector, _checked_array, _checked_size, _instance, _integer, _real

#: singular values below RANK_TOL * sv(1) count as zero in rank decisions
RANK_TOL = 1e-12

#: A W (W the null space of D_k) at or above this condition number counts
#: as rank-deficient for lambda > 0 (see the module docstring)
COND_LIMIT = 1.0 / np.sqrt(RANK_TOL)

#: the fewest columns of a whole system whose condition number takes the
#: QR route (see condition_number)
_QR_ROUTE_MIN = 220

#: the QR route's subspace iteration: block width, bound on the relative
#: error of sigma_max at which it stops, and the steps after which the SVD
#: answers
_ITERATION_BLOCK = 4
_ITERATION_RTOL = 1e-15
_ITERATION_CAP = 60

#: _upper_inverse leaves triangles of at most this order to np.linalg.inv
_INVERSE_BLOCK = 64

_SQRT2 = np.sqrt(2.0)

#: the factor object's floating-point rule (see the module docstring):
#: overflow and its inf - inf, inf / inf and 0 * inf raise no warning
_FLOAT_RULE = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class RegConfig:
    """Regularization order and weight.

    Parameters
    ----------
    order : int
        Smoothness order k in {0, 1, 2}.
    lam : float
        Weight lambda, finite and >= 0; lambda = 0 degenerates to plain
        least squares.
    """

    order: int = 0
    lam: float = 0.0

    def __post_init__(self):
        order = _integer(self.order, "order")
        if order not in (0, 1, 2):
            raise InvalidDimension(f"order must be 0, 1 or 2, got {self.order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "lam", _real(self.lam, "lambda", least=0))


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
        m <= order (no rows would remain), and when m x m doubles exceed
        numpy's largest array.
    """
    order, m = _checked_nodes(order, m)
    _checked_size((m, m), "an operator on m entries needs m x m doubles")
    D = np.eye(m)
    for _ in range(order):
        D = D[:-1] - D[1:]
    return D


def _fold(X, parity, components):
    """X V along the last axis, block by block over the components, for the
    orthonormal basis V of the parity on m-long blocks; no basis is formed.

    Parity 0 is the whole profile, V = I: X itself is returned. Parity 1
    (-1) is the part even (odd) under node reversal: column i < m // 2 of
    V pairs node i with its mirror image m - 1 - i, at weights 1 / sqrt 2
    and parity / sqrt 2, and an odd m adds the middle node, its own image,
    to the even part alone (weight 1): m - m // 2 even columns and m // 2
    odd ones.
    """
    if not parity:
        return X
    blocks = X.reshape(X.shape[:-1] + (components, -1))
    h = blocks.shape[-1] // 2
    wl = np.full(blocks.shape[-1] - h if parity > 0 else h, 1.0 / _SQRT2)
    wh = parity * wl
    if wl.size > h:
        wl[h], wh[h] = 1.0, 0.0
    Y = blocks[..., :wl.size] * wl + blocks[..., ::-1][..., :wl.size] * wh
    return Y.reshape(X.shape[:-1] + (-1,))


def tikhonov_solve(sys: InverseSystem, cfg: RegConfig) -> ForceVector:
    """Unique minimizer of ||A f - b||^2 + lambda ||D_k f||^2.

    At lambda = 0 this is plain least squares on A f = b. For lambda > 0
    it is the closed form of the weight on the system's standard form of
    order k, built on first use (see the module docstring).

    Raises
    ------
    InvalidDimension
        When lambda > 0 and a profile has no more than k nodes, so that
        D_k has no row.
    SingularSystem
        When lambda = 0 and A is numerically rank-deficient, or when
        lambda > 0 and A W fails the rank rule (possible only if A nearly
        annihilates a null vector of D_k).
    WrongType
        When sys is no InverseSystem or cfg no RegConfig.
    """
    _instance(sys, (InverseSystem,), "system")
    _instance(cfg, (RegConfig,), "regularization config")
    if cfg.lam == 0.0:
        # lstsq counts the singular values above RANK_TOL * sv(1): the rank
        # rule's own test, and no more than the rows of a wide A
        sol, _, rank, _ = np.linalg.lstsq(sys.A, sys.b, rcond=RANK_TOL)
        if rank < sys.A.shape[1]:
            raise SingularSystem("system is numerically rank-deficient at lambda = 0")
        return ForceVector(sol, sys.components)
    return ForceVector(_factors([sys], cfg.order)[0].solve(sys.b, cfg.lam), sys.components)


def _factors(systems, order):
    """The _Factors of each system's A at the penalty order, from the store
    each shares with its with_measurement copies. The systems share A's
    shape and mirror split, and no two share a store; those with no
    factors of this order yet are built as one stack of _factor_stack.
    When one fails the rank rule, no store is filled: each call tries
    again and raises SingularSystem afresh."""
    new = [s for s in systems if order not in s._factors]
    if new:
        for s, built in zip(new, _factor_stack([s.A for s in new], order, new[0].components)):
            s._factors[order] = built
    return [s._factors[order] for s in systems]


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


def _null_basis(order, m):
    """An orthonormal basis of the null space of D_k on m nodes, m x k: the
    constant profile and, for k = 2, the linear one centred on the middle of
    the profile (so orthogonal to the constant)."""
    W = np.vander(np.arange(m) - (m - 1) / 2.0, order, increasing=True)
    return W / np.sqrt((W * W).sum(axis=0))


def _pseudo_inverse(W, order, m):
    """D_k^+ on m nodes, m x (m - k), from the null basis W: (I - W W^T) T,
    where T is the first m - k columns of the inverse of D_k completed to a
    unit upper triangle (last row e_{m-1}, and for k = 2 the row before it
    e_{m-2} - 2 e_{m-1}). That triangle is the k-th power of the first
    differences' one, whose inverse sums each row with those below it, so
    T is Toeplitz: T[i, j] = v[m - 1 + j - i], v the k-fold running sum of
    e_{m-1}, integers that T takes as a view."""
    v = np.zeros(2 * m - order - 1)
    v[m - 1] = 1.0
    for _ in range(order):
        v = np.cumsum(v)
    T = np.lib.stride_tricks.sliding_window_view(v, m - order)[::-1]
    Dp = W @ (W.T @ T)
    return np.subtract(T, Dp, out=Dp)


def _block_product(X, B, components):
    """X times the block-diagonal matrix of `components` copies of B: each
    block of B.shape[0] entries along X's last axis times B."""
    rows, cols = B.shape
    out = np.empty(X.shape[:-1] + (components * cols,))
    for c in range(components):
        np.matmul(X[..., c * rows:(c + 1) * rows], B, out=out[..., c * cols:(c + 1) * cols])
    return out


def _check_rank(R):
    """The rank rule on each slot of R_T, Q_T R_T = A W: SingularSystem at
    the first slot where cond(A W) >= COND_LIMIT. numpy's cond reads the
    ratio of R_T's extreme singular values, inf at a zero one and on
    overflow, with no floating-point warning; a wide R_T (A W with fewer
    rows than columns) has a zero singular value cond does not see, and
    reads inf. At order 0 W is empty, and so is R_T: no rule applies."""
    if not R.size:
        return
    for cond in np.linalg.cond(R) if R.shape[-2] >= R.shape[-1] else [np.inf]:
        if cond >= COND_LIMIT:
            raise SingularSystem(f"A W (W the null space of D) has condition number {cond:.3g}, "
                                 f"at or above {COND_LIMIT:g}")


@_FLOAT_RULE
def _factor_stack(As, order, components):
    """The _Factors of each A of `As` at the penalty order, built as one
    stack (see the module docstring). InvalidDimension when D_k has no row
    on the profiles (_checked_nodes), before any product; SingularSystem
    when a slot fails the rank rule (_check_rank), before any is built."""
    A = As[0][None] if len(As) == 1 else np.stack(As)  # a lone A's one slot is a view
    m = A.shape[-1] // components
    _checked_nodes(order, m)
    mirrors = {_has_mirror(X, components) for X in As}
    if len(mirrors) > 1:
        raise ValueError("the systems of a stack share one mirror split")
    parities = (1, -1) if mirrors.pop() else (0,)
    W = _null_basis(order, m)
    Q, R = np.linalg.qr(_block_product(A, W, components))  # Q_T R_T = A W
    _check_rank(R)
    WRinv = _block_product(np.linalg.inv(R).swapaxes(-1, -2), W.T, components).swapaxes(-1, -2)
    Dp = _pseudo_inverse(W, order, m)
    top = A.shape[-2] // len(parities)  # a split system's left rows
    Abar = _block_product(A[..., :top, :], Dp, components)
    Abar -= Q[..., :top, :] @ _block_product(Q.swapaxes(-1, -2) @ A, Dp, components)
    del Dp  # formed again below (0.2 ms at m = 319), to keep it out of the SVD's peak
    svds = [np.linalg.svd(_SQRT2 * _fold(Abar, parity, components) if parity else Abar,
                          full_matrices=False) for parity in parities]
    # the rank cut of the module docstring; a half with no column has no s[0]
    sigma_max = np.max([s.max(axis=-1, initial=0.0) for _, s, _ in svds], axis=0)
    cuts = np.finfo(float).eps * max(A.shape[-2], Abar.shape[-1]) * sigma_max
    del Abar
    Dp = _pseudo_inverse(W, order, m)
    parts = [[] for _ in cuts]
    for parity, (U, s, Vt) in zip(parities, svds):
        folded = _fold(Dp, parity, 1).T  # D_k^+ V_tau, V_tau the parity's basis
        for slot, u, sv, vt, cut in zip(parts, U, s, Vt, cuts):
            rank = np.count_nonzero(sv > cut)
            # (D_k^+ V_tau Vt^T)^T = Vt (D_k^+ V_tau)^T
            slot.append(((-1) ** order * parity, u.T[:rank], sv[:rank],
                         _block_product(vt[:rank], folded, components)))
    return [_Factors(X, q, wr, p) for X, q, wr, p in zip(As, Q, WRinv, parts)]


class _Factors:
    """The standard form of the regularized solve of one (A, order) (see the
    module docstring): Q_T, W R_T^-1 and, per part, (sigma, U^T, S,
    (D_k^+ V)^T), as _factor_stack builds them."""

    def __init__(self, A, Q, WRinv, parts):
        self.A, self.Q, self.WRinv, self.parts = A, Q, WRinv, parts
        self._last = None, None  # (b, its spectrum)

    @_FLOAT_RULE
    def spectrum(self, b):
        """(betas, data) of the measurement b: each part's data, bbar =
        b - Q_T Q_T^T b folded onto the part's rows, and its beta = U^T
        times them. Those of the last b are kept, so that a sweep and the
        solve at its corner, both on one system's read-only b, form them
        once."""
        last, spectrum = self._last
        if b is last:
            return spectrum
        bbar = b - self.Q @ (self.Q.T @ b)
        h = bbar.size // 2
        data = [(bbar[:h] + sigma * bbar[h:]) / _SQRT2 if sigma else bbar
                for sigma, _, _, _ in self.parts]
        betas = [Ut @ x for (_, Ut, _, _), x in zip(self.parts, data)]
        self._last = b, (betas, data)
        return betas, data

    @_FLOAT_RULE
    def solve(self, b, lam):
        """The solution of one weight lambda > 0."""
        betas, _ = self.spectrum(b)
        z = sum((s * beta / (s * s + lam)) @ DVt for (_, _, s, DVt), beta in zip(self.parts, betas))
        return z + self.WRinv @ (self.Q.T @ (b - self.A @ z))

    @_FLOAT_RULE
    def norms(self, b, lambdas):
        """(||A f - b||, ||D_k f||) of the solution f of each weight lambda > 0
        of a 1-D array, as the two rows of one array, in closed form; the residual's part
        outside range(Abar), ||bbar - U beta||^2 summed over the parts, is
        formed here, since the solve does not read it. A norm whose
        arithmetic overflows is infinite, never nan, with no floating-point
        warning (the module's floating-point rule): an overflowed S beta
        over an overflowed S^2 + lambda is inf / inf."""
        betas, data = self.spectrum(b)
        lams = lambdas[:, None]
        outside = sum(_squares(x - beta @ Ut) for (_, Ut, _, _), x, beta in zip(self.parts, data, betas))
        s, beta = np.concatenate([part[2] for part in self.parts]), np.concatenate(betas)
        d = s * s + lams
        # fmin takes the number of a (nan, number) pair: the nan of inf / inf reads inf
        return np.fmin(np.sqrt((_squares(lams * beta / d) + outside, _squares(s * beta / d))), np.inf)


def _squares(X):
    """The sum of squares along X's last axis."""
    return (X * X).sum(axis=-1)


@_FLOAT_RULE
def _ratio(matrices):
    """The largest over the smallest singular value of all the matrices
    together: inf when the smallest is zero, ZeroMatrix when all are."""
    sv = np.concatenate([np.linalg.svd(X, compute_uv=False) for X in matrices])
    if not np.any(sv):
        raise ZeroMatrix("condition number of an all-zero matrix")
    return float(sv.max() / sv.min()) if sv.min() else float("inf")


def _upper_inverse(R):
    """R^-1 of a nonsingular upper-triangular R, by halves (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 14):

        [[R11, R12], [0, R22]]^-1 = [[X11, -X11 R12 X22], [0, X22]],

    each half inverted the same way down to triangles of at most
    _INVERSE_BLOCK rows, which np.linalg.inv inverts. That is about
    2 m^3 / 3 flops, nearly all in matrix products, where an LU inverse
    (getrf and getri) takes about 2 m^3, much of it in matrix-vector steps.
    The halves are written into one array, and its entries below the
    diagonal are exact zeros.
    """
    X = np.zeros_like(R)

    def fill(R, X):
        if R.shape[0] <= _INVERSE_BLOCK:
            X[...] = np.triu(np.linalg.inv(R))  # the LU leaves rounding below the diagonal
            return
        h = R.shape[0] // 2
        fill(R[:h, :h], X[:h, :h])
        fill(R[h:, h:], X[h:, h:])
        np.matmul(X[:h, :h], R[:h, h:] @ X[h:, h:], out=X[:h, h:])
        X[:h, h:] *= -1.0

    fill(R, X)
    return X


def _largest_singular_value(R, start):
    """sigma_max of R by block subspace iteration on R^T R from the columns
    of `start`, with Rayleigh-Ritz by the SVD of R Q, Q the block's
    orthonormal basis (Golub and Van Loan, Matrix Computations, sec. 8.2),
    or None when it has not converged within _ITERATION_CAP steps.

    The top Ritz pair R x = s_1 u has the residual r = R^T u - s_1 x, and
    the Kato-Temple bound on the Rayleigh quotient s_1^2 of R^T R puts
    sigma_max within s_1 ||r||^2 / (2 (s_1^2 - sigma_2^2)) above s_1. The
    iteration stops once that bound, with the second Ritz value s_2 for
    sigma_2, is at most _ITERATION_RTOL s_1. A cluster at sigma_max
    slows the residual as much as it narrows the gap, so it never stops
    early there: it runs to the cap.
    """
    Q = np.linalg.qr(start)[0]
    for _ in range(_ITERATION_CAP):
        U, s, Vt = np.linalg.svd(R @ Q, full_matrices=False)
        Z = R.T @ U
        r = (Z[:, 0] - s[0] * (Q @ Vt[0])) / s[0]
        if r @ r <= 2.0 * _ITERATION_RTOL * (1.0 - (s[1] / s[0]) ** 2):
            return s[0]
        Q = np.linalg.qr(Z)[0]
    return None


def _qr_ratio(A):
    """sigma_max(R) sigma_max(R^-1) for the R of A = Q R, A with no fewer
    rows than columns: the QR route of condition_number. None, for the SVD
    to answer, when R's diagonal holds a zero or spans 1 / eps or more
    (A numerically singular, where the SVD gives inf or a rounding-level
    ratio) or when either iteration does not converge."""
    # scaled exactly to a largest magnitude in [0.5, 1): no subnormal iterates
    R = np.linalg.qr(np.ldexp(A, -np.frexp(np.abs(A).max())[1]), mode="r")
    d = np.abs(np.diagonal(R))
    if d.min() <= np.finfo(float).eps * d.max():
        return None
    # fixed seed of a private generator: numpy's global one is untouched
    start = np.random.default_rng(0).standard_normal((R.shape[0], _ITERATION_BLOCK))
    largest = [_largest_singular_value(X, start) for X in (R, _upper_inverse(R))]
    return None if None in largest else float(largest[0] * largest[1])


def condition_number(A) -> float:
    """2-norm condition number sv(1) / sv(min dimension).

    A dual system with the mirror relation (see the module docstring)
    takes its singular values from the mirror split, two quarter-size SVDs
    of its even and odd halves. Any other A with at least _QR_ROUTE_MIN =
    220 columns and no fewer rows takes the QR route: sigma_max(R) times
    sigma_max(R^-1), R from one QR of A, each by subspace iteration. Below
    that width one SVD is faster (the crossover lies between 199 and 239
    columns; see the module docstring). The route falls back to one SVD of
    A when R is numerically singular, so that the SVD's inf and ZeroMatrix
    stand, and when an iteration has not stopped after _ITERATION_CAP = 60
    steps, as a cluster at sigma_min makes it. Any other A takes one SVD.

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
    if _has_mirror(A, 2):
        # [L; L J] V = [L V; +-L V] has the singular values of sqrt 2 L V
        left = _SQRT2 * A[:A.shape[0] // 2]
        return _ratio([_fold(left, parity, 2) for parity in (1, -1)])
    if A.shape[0] >= A.shape[1] >= _QR_ROUTE_MIN:
        cond = _qr_ratio(A)
        if cond is not None:
            return cond
    return _ratio([A])


def accuracy_error(f_num, f_exact) -> float:
    """Euclidean norm of the nodal difference between two force profiles.

    Accepts ForceVector instances or plain 1-D arrays of equal length. A
    norm that overflows (entries near the largest doubles) is taken again
    from both profiles scaled by their largest magnitude, so it is finite
    unless the norm itself exceeds the doubles; any norm that is finite
    the plain way is that norm, bit for bit.

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
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a - b)
        if not math.isfinite(norm):
            scale = max(np.abs(a).max(), np.abs(b).max())
            norm = scale * np.linalg.norm(a / scale - b / scale)
    return float(norm)

