"""Regularized solves against the stacked least-squares and normal-equations
oracles, the shared factorization, SVD diagnostics."""

import dataclasses
import traceback
import tracemalloc

import numpy as np
import pytest

import waveforce as wf
from test_inverse import fabricated_system
from waveforce import tikhonov

# Largest max|f - f_oracle| / max|f_oracle| of the LU route (lu_route,
# the factored solve before the eigenbasis) against stacked_lstsq over
# scenarios 1-5 at M = N = 40 and 80, orders 0-2, with noise-free and
# 1%-noise data: 4.1e-10 over the extended weight grid (scenario 5, order
# 2, lambda = 1e-9, M = 80, noise-free) and 2.5e-7 at lambda = 1e-14
# (scenario 4, order 0, M = 40, noise-free), where the normal equations'
# squared conditioning shows.
# The tolerances leave a factor of about 2.5-4 to that route; the
# eigenbasis route reads 7.8e-13 and 5.6e-11 on the same cells up to
# M = 160 (test_factored_solve_matches_stacked_lstsq prints its figures).
ORACLE_GRID_TOL = 1e-9
ORACLE_TINY_LAMBDA_TOL = 1e-6

# Largest relative gap of a sweep's norms, taken from the unrefined filter
# solution, to the refined solution's norms (refined_points) on the
# extended grid, over scenarios 1-5 with noise-free and 1%-noise data,
# orders 0-2: 5.7e-9 at M = N = 40 and 80, 1.2e-7 at M = 160 (scenario 4,
# order 2, penalty norm), 4.7e-8 at scenario 2, M = 320. The gap grows
# with the system: 2.4e-6 at M = 320 (scenario 5, order 2, noise-free
# residual) and 3.2e-5 at M = 640 (scenario 4, order 2, penalty), where
# the tests do not reach. Far below the grid the noise-free residual
# itself is rounding (1.1e-3 relative at lambda = 1e-14), so the gap is
# checked on the grids. The O(m) closed forms of the norms miss by 4.2e-4
# (residual) and 4.8e-2 (penalty) on the tested cells.
SWEEP_NORM_TOL = 5e-7

# Largest relative gap of either norm between sweep, which forms every
# weight's filter solution, residual and penalty in matrix products over
# the whole grid, and filter_loop_points, one weight at a time by m-vector
# products: 3.2e-11 over the cells of test_sweep_matches_the_filter_loop
# (scenario 3, M = N = 40, a noise-free residual), 6.1e-11 at scenario 5,
# M = 640, where the tests do not reach. The two differ only in the
# summation order of the products, so the gap is rounding, largest where
# the residual is small against b.
BATCH_SWEEP_TOL = 1e-10


def penalty(order, m, components=1):
    """Dense D_k, block-diagonal over the components."""
    D = wf.difference_operator(order, m)
    if components == 2:
        Z = np.zeros_like(D)
        D = np.block([[D, Z], [Z, D]])
    return D


def normal_equations(A, b, order, lam, components=1):
    """Independent oracle: (A^T A + lam D^T D)^-1 A^T b, dense solve."""
    D = penalty(order, A.shape[1] // components, components)
    return np.linalg.solve(A.T @ A + lam * (D.T @ D), A.T @ b)


def stacked_lstsq(A, b, order, lam, components=1):
    """Oracle: least squares on [A; sqrt(lam) D_k] f = [b; 0], one stable
    factorization of the stacked matrix per weight."""
    D = penalty(order, A.shape[1] // components, components)
    return np.linalg.lstsq(np.vstack([A, np.sqrt(lam) * D]),
                           np.concatenate([b, np.zeros(D.shape[0])]), rcond=None)[0]


def lu_route(A, b, order, lambdas, components=1):
    """Oracle: the factored solve the eigenbasis replaced. The Cholesky
    factor L of K = A^T A + mu^2 D^T D whitens the system; each weight then
    takes one LU solve of (G + (lambda / mu^2) H) y = L^-1 A^T b, with
    G = (L^-1 A^T)(L^-1 A^T)^T, H = mu^2 (L^-1 D^T)(L^-1 D^T)^T and
    f = L^-T y. The whole system is solved, split or not."""
    D = penalty(order, A.shape[1] // components, components)
    mu2 = np.vdot(A, A) / np.vdot(D, D)
    Linv = np.linalg.inv(np.linalg.cholesky(A.T @ A + mu2 * (D.T @ D)))
    Z, Y = Linv @ A.T, Linv @ D.T
    G, H = Z @ Z.T, mu2 * (Y @ Y.T)
    rhs = Linv @ (A.T @ b)
    return [Linv.T @ np.linalg.solve(G + lam / mu2 * H, rhs) for lam in lambdas]


def unsplit(system, order, monkeypatch):
    """A copy of a dual system holding the factors of `order` of A whole,
    as every system without the mirror relation has them: the oracle of the
    mirror split. Its with_measurement copies share them."""
    copy = dataclasses.replace(system)  # a copy without factors
    with monkeypatch.context() as patch:
        patch.setattr(tikhonov, "_has_mirror", lambda A, components: False)
        tikhonov._factors(copy, order)
    assert copy._factors[order].parities == (0,)
    return copy


def test_difference_operator_forms():
    assert np.array_equal(wf.difference_operator(0, 3), np.eye(3))
    assert np.array_equal(wf.difference_operator(1, 3),
                          [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    D2 = wf.difference_operator(2, 4)
    assert D2.shape == (2, 4)
    assert np.array_equal(D2[0], [1.0, -2.0, 1.0, 0.0])
    # first differences kill constants, second differences kill affine maps
    assert not np.any(wf.difference_operator(1, 6) @ np.full(6, 3.7))
    x = np.linspace(0, 1, 6)
    assert np.max(np.abs(wf.difference_operator(2, 6) @ (2.0 + 5.0 * x))) <= 1e-12
    # no entry is -0.0
    for order in (0, 1, 2):
        for m in (order + 1, 5):
            D = wf.difference_operator(order, m)
            assert not np.any(np.signbit(D[D == 0]))


def test_difference_operator_needs_enough_nodes():
    for order, m in ((0, 0), (1, 1), (2, 2)):
        with pytest.raises(wf.InvalidDimension):
            wf.difference_operator(order, m)
    for order, m in ((3, 10), (True, 3), (1, 3.5)):
        with pytest.raises(wf.InvalidDimension):
            wf.difference_operator(order, m)


def test_config_validation():
    with pytest.raises(wf.InvalidDimension):
        wf.RegConfig(order=3, lam=0.1)
    with pytest.raises(wf.InvalidDimension):
        wf.RegConfig(order=0, lam=-1e-9)
    for order in (True, 1.5, "1"):
        with pytest.raises(wf.InvalidDimension):
            wf.RegConfig(order=order)
    # an integral float is stored as the int it names
    assert type(wf.RegConfig(order=1.0).order) is int


def test_identity_system_closed_form():
    # A = I, k = 0: minimizer is b / (1 + lam)
    b = np.array([3.0, -1.0, 2.0])
    sys_ = fabricated_system(np.eye(3), b)
    for lam in (0.0, 1e-3, 0.5, 2.0):
        got = wf.tikhonov_solve(sys_, wf.RegConfig(order=0, lam=lam)).values
        assert np.max(np.abs(got - b / (1.0 + lam))) <= 1e-12


def test_matches_normal_equations_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(5, 12))
        m = int(rng.integers(3, n + 1))
        A = rng.normal(size=(n, m))
        b = rng.normal(size=n)
        order = int(rng.integers(0, 3))
        lam = float(10.0 ** rng.uniform(-8, 0))
        got = wf.tikhonov_solve(fabricated_system(A, b),
                                wf.RegConfig(order=order, lam=lam)).values
        want = normal_equations(A, b, order, lam)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_factored_solve_matches_stacked_lstsq(bench):
    # the eigenbasis route against stacked_lstsq and against the LU route,
    # within the oracle tolerances at M = 40 and 80; at M = 160, where the
    # LU route itself exceeds ORACLE_GRID_TOL (1.2e-8 at scenario 4, order
    # 2, lambda = 0.5), no worse than it
    worst = {}  # (M, route, tolerance) -> largest gap to stacked_lstsq
    for example in (1, 2, 3, 4, 5):
        for m in (40, 80, 160):
            a = bench(example, m)
            series = (a.measured,) if a.measured_right is None else (a.measured, a.measured_right)
            for noise in (None, wf.NoiseSpec(0.01, 1)):
                s = a.system.with_measurement(*series, noise=noise)
                for order in (0, 1, 2):
                    lams = [*wf.EXTENDED_LAMBDA_GRID, 1e-14]
                    for lam, lu in zip(lams, lu_route(s.A, s.b, order, lams, s.components)):
                        got = wf.tikhonov_solve(s, wf.RegConfig(order=order, lam=lam)).values
                        want = stacked_lstsq(s.A, s.b, order, lam, s.components)
                        tol = ORACLE_TINY_LAMBDA_TOL if lam == 1e-14 else ORACLE_GRID_TOL
                        for route, f in (("eigenbasis", got), ("lu", lu)):
                            rel = np.max(np.abs(f - want)) / np.max(np.abs(want))
                            worst[m, route, tol] = max(worst.get((m, route, tol), 0.0), rel)
                        if m < 160:
                            assert np.max(np.abs(got - lu)) <= tol * np.max(np.abs(lu))
                    # scenario 5 takes the mirror split
                    assert s._factors[order].parities == ((1, -1) if example == 5 else (0,))
    for key in sorted(worst):
        print(f"vs stacked lstsq, M = {key[0]}, {key[1]} route, tolerance {key[2]:g}: "
              f"{worst[key]:.2e}")
    for (m, route, tol), w in worst.items():
        if route == "eigenbasis":
            assert w <= tol and w <= worst[m, "lu", tol]


def test_one_factorization_per_system_and_order(bench, monkeypatch):
    # per part, one Cholesky of K, one of the re-whitened G + H and one eigh;
    # np.linalg.inv sees only the triangular blocks of _lower_inverse
    calls, inverses = [], []
    for name in ("cholesky", "eigh"):
        routine = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda K, routine=routine, name=name:
                            calls.append((name, K.shape)) or routine(K))
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda X: inverses.append(X.shape[0]) or inv(X))
    a = bench(2, 40)
    system = dataclasses.replace(a.system)  # a copy without factors
    noisy = system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, 1))
    lam = wf.corner(wf.sweep(noisy, 2)).lam
    f = wf.tikhonov_solve(noisy, wf.RegConfig(order=2, lam=lam))
    assert calls == [("cholesky", (39, 39))] * 2 + [("eigh", (39, 39))]
    # a new draw shares A, so it shares the factors
    draw = system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, 2))
    g = wf.tikhonov_solve(draw, wf.RegConfig(order=2, lam=lam))
    wf.sweep(draw, 2)
    assert len(calls) == 3
    for s, sol in ((noisy, f), (draw, g)):
        want = stacked_lstsq(s.A, s.b, 2, lam)
        assert np.max(np.abs(sol.values - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))
    # another order factors again, and lambda = 0 never factors
    wf.sweep(draw, 1)
    wf.tikhonov_solve(noisy, wf.RegConfig(order=1, lam=1e-4))
    wf.tikhonov_solve(noisy, wf.RegConfig())
    assert len(calls) == 6
    # each order keeps its factors: going back to order 2 factors nothing
    wf.sweep(draw, 2)
    wf.tikhonov_solve(noisy, wf.RegConfig(order=1, lam=1e-3))
    assert len(calls) == 6
    assert sorted(noisy._factors) == [1, 2]
    # a mirrored dual system factors its even and odd halves once per
    # order, each about half the size of the whole, and its draws share them
    calls.clear()
    d = bench(5, 40)
    dual = dataclasses.replace(d.system)
    noisy = dual.with_measurement(d.measured, d.measured_right, noise=wf.NoiseSpec(0.01, 1))
    lam = wf.corner(wf.sweep(noisy, 2)).lam
    wf.tikhonov_solve(noisy, wf.RegConfig(order=2, lam=lam))
    # m = 39: 20 even and 19 odd per profile
    assert sorted(calls) == sorted([("cholesky", (40, 40))] * 2 + [("eigh", (40, 40))]
                                   + [("cholesky", (38, 38))] * 2 + [("eigh", (38, 38))])
    draw = dual.with_measurement(d.measured, d.measured_right, noise=wf.NoiseSpec(0.01, 2))
    wf.tikhonov_solve(draw, wf.RegConfig(order=2, lam=lam))
    wf.sweep(draw, 2)
    assert len(calls) == 6
    wf.sweep(draw, 1)
    assert len(calls) == 12
    # above the block size (m = 159) the factors reach np.linalg.inv only
    # as blocks of at most _INVERSE_BLOCK rows
    inverses.clear()
    a = bench(2, 160)
    wf.tikhonov_solve(dataclasses.replace(a.system), wf.RegConfig(order=2, lam=1e-3))
    assert inverses and max(inverses) <= tikhonov._INVERSE_BLOCK < a.system.A.shape[1]


# Peak memory of sweep(system, 2) on a 1%-noise draw, in units of one
# m x m array (8 m^2 bytes), m the columns of A: readings 4.26 at scenario
# 2, M = 320 (m = 319), 4.25 at M = 640 and 3.65 at the dual scenario 5,
# M = 160 (m = 318, factored as two halves). Each bound lies about half a
# part-sized array above its reading (a part is m x m for a whole system,
# m/2 x m/2 for a half), so an array that _eigenbasis keeps alive past its
# use breaks it: without one of its first six `del`s the whole system
# reads 5.00-5.26, and without `del Z` the halves read 3.90.
@pytest.mark.parametrize("example, M, bound", [(2, 320, 4.75), (2, 640, 4.75), (5, 160, 3.8)])
def test_build_memory_is_bounded(bench, example, M, bound):
    a = bench(example, M)
    series = (a.measured,) if a.measured_right is None else (a.measured, a.measured_right)
    system = dataclasses.replace(a.system)  # a copy without factors
    noisy = system.with_measurement(*series, noise=wf.NoiseSpec(0.01, 1))
    tracemalloc.start()
    try:
        wf.sweep(noisy, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = system.A.shape[1]
    print(f"scenario {example}, M = {M}: peak {peak / (8 * columns ** 2):.2f} m^2")
    assert peak <= bound * 8 * columns ** 2


def padded_penalty_gradient(f, order, components):
    """Slow predecessor of tikhonov._penalty_gradient: D_k^T D_k f block by
    block, as np.diff of the np.pad-ded np.diff of f, with the sign (-1)^k."""
    d = np.pad(np.diff(f.reshape(components, -1), n=order), ((0, 0), (order, order)))
    return (-1) ** order * np.diff(d, n=order).reshape(-1)


def loop_solutions(factors, b, lambdas):
    """Slow predecessor of _Factors.solve, over a list of weights: 1 - g
    formed at every weight and the gradient by padded_penalty_gradient,
    the same products in the same order."""
    A, X, g = factors.A, factors.X, factors.g
    XtAtb = X.T @ (A.T @ b)
    out = []
    for lam in lambdas:
        s = g + lam / factors.mu2 * (1.0 - g)
        f = X @ (XtAtb / s)
        r = A.T @ (b - A @ f) - lam * padded_penalty_gradient(f, factors.order, factors.components)
        f += X @ ((X.T @ r) / s)
        out.append(f)
    return out


def filter_loop_points(sys, order, lambdas):
    """Slow predecessor of sweep's pass over the grid: the filter solution
    f0 = X ((X^T A^T b) / s) of one weight at a time by m-vector products,
    its norms by np.linalg.norm, and the weights whose f0 is not finite
    skipped."""
    factors = tikhonov._factors(sys, order)
    A, X = factors.A, factors.X
    XtAtb = X.T @ (A.T @ sys.b)
    points = []
    for lam in lambdas:
        f = X @ (XtAtb / factors._filter(lam))
        if np.isfinite(f).all():
            d = tikhonov._differences(f, order, sys.components)
            points.append(wf.LCurvePoint(float(lam), float(np.linalg.norm(A @ f - sys.b)),
                                         float(np.linalg.norm(d))))
    return points


def refined_points(sys, order, lambdas, solutions):
    """The L-curve points of refined solutions, one per weight, with the
    norms taken by np.linalg.norm and np.diff: the oracle of sweep."""
    return [wf.LCurvePoint(float(lam), float(np.linalg.norm(sys.A @ f - sys.b)),
                           float(np.linalg.norm(np.diff(f.reshape(sys.components, -1), n=order))))
            for lam, f in zip(lambdas, solutions)]


def norm_gap(points, oracle):
    """The largest relative gap of either norm between two sweeps of the
    same weights."""
    assert [p.lam for p in points] == [q.lam for q in oracle]
    return max(max(abs(p.residual_norm - q.residual_norm) / q.residual_norm,
                   abs(p.solution_norm - q.solution_norm) / q.solution_norm)
               for p, q in zip(points, oracle))


def test_penalty_gradient_matches_its_predecessor():
    # bit for bit, for one and two components at every order; each call
    # follows one on another vector, so a result that kept anything of the
    # call before it would differ
    rng = np.random.default_rng(11)
    for components in (1, 2):
        for order in (0, 1, 2):
            for m in (order + 1, 7, 159):
                vectors = rng.normal(size=(3, components * m))
                vectors[1, ::2] = 0.0
                got = [tikhonov._penalty_gradient(f, order, components) for f in vectors]
                for f, g in zip(vectors, got):
                    assert np.array_equal(g, padded_penalty_gradient(f, order, components))
                D = penalty(order, m, components)
                assert np.max(np.abs(got[0] - D.T @ (D @ vectors[0]))) <= 1e-13


def test_per_weight_path_matches_its_predecessor_bit_for_bit(bench):
    # the refined solve against loop_solutions, with np.array_equal, and
    # the sweep's filter norms against the refined ones within
    # SWEEP_NORM_TOL on the extended grid: scenarios 1-5 at M = 40,
    # scenario 2 at M = 80 and 320, scenarios 4 (the noise study's) and 5
    # at M = 160
    lams = [1e-14, *wf.EXTENDED_LAMBDA_GRID]
    cells = [(example, 40) for example in (1, 2, 3, 4, 5)] + [(2, 80), (2, 320), (4, 160), (5, 160)]
    worst = 0.0
    for example, m in cells:
        a = bench(example, m)
        series = (a.measured,) if a.measured_right is None else (a.measured, a.measured_right)
        for noise in (None, wf.NoiseSpec(0.01, 1)):
            s = a.system.with_measurement(*series, noise=noise)
            for order in (0, 1, 2):
                factors = tikhonov._factors(s, order)
                want = loop_solutions(factors, s.b, lams)
                assert all(np.array_equal(factors.solve(s.b, lam), w) for lam, w in zip(lams, want))
                oracle = refined_points(s, order, lams[1:], want[1:])
                worst = max(worst, norm_gap(wf.sweep(s, order, lams[1:]), oracle))
    print(f"sweep norms vs refined: {worst:.2e}")
    assert worst <= SWEEP_NORM_TOL


def test_lower_inverse_matches_lu_inverse(bench):
    # _lower_inverse against np.linalg.inv, the LU inverse it replaced. On
    # scenario 4's factor (order 2) the largest gap reads 1.1e-15 of
    # max|L^-1| and ||L X - I||_F 1.6e-13 at M = 320 (the LU inverse's
    # 4.0e-14), and 1.8e-15 and 7.7e-13 at M = 640 (1.1e-13); the
    # tolerances hold both sizes
    from waveforce.tikhonov import _INVERSE_BLOCK, _lower_inverse
    rng = np.random.default_rng(5)
    factors = []
    for m in (1, 2, _INVERSE_BLOCK - 1, _INVERSE_BLOCK, _INVERSE_BLOCK + 1, 159, 319):
        L = np.tril(rng.normal(size=(m, m))) / np.sqrt(m)
        np.fill_diagonal(L, 1.0 + rng.random(m))  # well conditioned
        factors.append(L)
    # scenario 4's factor at M = 320: its LU inverse decays below the
    # smallest normal double far from the diagonal
    A = bench(4, 320).system.A
    D = penalty(2, A.shape[1])
    L = np.linalg.cholesky(A.T @ A + np.vdot(A, A) / np.vdot(D, D) * (D.T @ D))
    lu = np.abs(np.linalg.inv(L))
    assert np.any((lu > 0) & (lu < np.finfo(float).tiny))
    factors.append(L)
    for L in factors:
        X, want = _lower_inverse(L), np.linalg.inv(L)
        assert X.shape == L.shape and not np.any(np.triu(X, 1))
        assert np.max(np.abs(X - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.linalg.norm(L @ X - np.eye(L.shape[0])) <= 1e-12


def test_fold_is_orthonormal():
    from waveforce.tikhonov import _fold, _unfold
    rng = np.random.default_rng(3)
    # the whole system's part is the identity: no copy, no arithmetic
    X = rng.normal(size=(3, 10))
    assert _fold(X, 0, 2) is X and _unfold(X, 0, 2, 5) is X
    for m in (4, 5):
        X = rng.normal(size=(3, 2 * m))
        parts = [_fold(X, parity, 2) for parity in (1, -1)]
        assert [p.shape for p in parts] == [(3, 2 * (m - m // 2)), (3, 2 * (m // 2))]
        # V_+ V_+^T + V_- V_-^T = I, and V^T V = I on each half
        back = sum(_unfold(p, parity, 2, m) for parity, p in zip((1, -1), parts))
        assert np.max(np.abs(back - X)) <= 1e-14
        for parity, p in zip((1, -1), parts):
            assert np.max(np.abs(_fold(_unfold(p, parity, 2, m), parity, 2) - p)) <= 1e-14
        # each m-long block folds on its own: an even block has no odd part
        even = np.concatenate([np.arange(m) * (m - 1 - np.arange(m)), np.ones(m)])
        assert not np.any(_fold(even, -1, 2))


def test_folded_penalty_band():
    # the penalty written on its band in folded coordinates is V^T D^T D V,
    # V the basis _fold gives of the identity; parity 0 writes D^T D itself
    from waveforce.tikhonov import _add_penalty_gram, _fold
    for m in (6, 7):
        for order in (0, 1, 2):
            D = wf.difference_operator(order, m)
            stencil = D[0, :order + 1]
            for parity in (0, 1, -1):
                V = _fold(np.eye(m), parity, 1)
                want = V.T @ D.T @ D @ V
                for components in (1, 2):
                    K = np.zeros((components * V.shape[1],) * 2)
                    _add_penalty_gram(K, stencil, components, 1.0, m, parity)
                    for c in range(components):
                        block = slice(c * V.shape[1], (c + 1) * V.shape[1])
                        assert np.max(np.abs(K[block, block] - want)) <= 1e-15
                    if components == 2:
                        assert not np.any(K[:V.shape[1], V.shape[1]:])
                if not parity:
                    assert np.array_equal(K[:m, :m], D.T @ D)


def mirrored(n, m, odd_scale):
    """A dual [L; L J] with the mirror relation, n rows and m nodes per
    profile in L, whose rows' odd parts are odd_scale times their even ones."""
    L = np.random.default_rng(0).normal(size=(n, 2, m))
    L = (L + L[..., ::-1]) + odd_scale * (L - L[..., ::-1])
    return np.vstack([L, L[..., ::-1]]).reshape(2 * n, 2 * m)


def svd_ratio(A):
    """Oracle: the largest over the smallest singular value of one SVD of A."""
    sv = np.linalg.svd(A, compute_uv=False)
    return sv.max() / sv.min()


def test_mirror_split_condition_number(bench):
    # a mirrored dual takes its singular values from the two halves
    for m in (40, 80):
        s = bench(5, m).system
        assert tikhonov._has_mirror(s.A, 2)
        want = svd_ratio(s.A)
        assert abs(wf.condition_number(s.A) - want) <= 1e-12 * want
    # the odd half holds the smallest singular values and the even half the
    # largest: both halves count
    A = mirrored(8, 3, 0.1)
    assert tikhonov._has_mirror(A, 2)
    assert abs(wf.condition_number(A) - svd_ratio(A)) <= 1e-12 * svd_ratio(A)
    # any other system takes the SVD of A itself
    s = bench(2, 40).system
    assert not tikhonov._has_mirror(s.A, 2) and wf.condition_number(s.A) == svd_ratio(s.A)


def test_rank_rule_counts_both_halves():
    # an odd half that order 2 leaves nearly singular (D_2 has an odd null
    # vector) and a well-conditioned even half: the rule reads cond([A; mu D])
    # over both, so the split system fails it where the even half would pass
    for odd_scale, fails in ((1e-4, False), (1e-7, True)):
        A = mirrored(12, 5, odd_scale)
        D = np.kron(np.eye(2), wf.difference_operator(2, 5))
        cond = svd_ratio(np.vstack([A, np.sqrt(np.vdot(A, A) / np.vdot(D, D)) * D]))
        assert tikhonov._has_mirror(A, 2) and (cond >= tikhonov.COND_LIMIT) == fails
        system = wf.InverseSystem(A, np.ones(24), wf.GridSpec(1.0, 1.0, 6, 12), (np.zeros(12),) * 2,
                                  wf.Source((np.ones((7, 13)),) * 2))
        if fails:
            with pytest.raises(wf.SingularSystem):
                wf.tikhonov_solve(system, wf.RegConfig(2, 1e-3))
        else:
            wf.tikhonov_solve(system, wf.RegConfig(2, 1e-3))
            assert system._factors[2].parities == (1, -1)


def test_off_mirror_dual_falls_back_to_the_whole_system(bench):
    # one entry of the second modulation moved off its mirror image: A
    # loses the mirror relation and is factored whole, within the oracle
    a = bench(5, 40)
    problem = wf.inverse_problem(5, a.grid)
    h, theta = problem.source.modulations
    theta = theta.copy()
    theta[5, 7] += 1e-3
    off = wf.WaveProblem(a.grid, problem.initial, problem.boundary, wf.Source((h, theta)))
    s = wf.assemble_dual(off, a.measured, a.measured_right, noise=wf.NoiseSpec(0.01, 1))
    assert not tikhonov._has_mirror(s.A, 2)
    for order in (0, 1, 2):
        for lam in (1e-8, 1e-5, 1e-2):
            got = wf.tikhonov_solve(s, wf.RegConfig(order=order, lam=lam)).values
            want = stacked_lstsq(s.A, s.b, order, lam, 2)
            assert np.max(np.abs(got - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))
    assert all(s._factors[order].parities == (0,) for order in (0, 1, 2))


def test_other_A_never_reuses_factors(bench):
    a = bench(2, 40)
    first = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, 1))
    cfg = wf.RegConfig(order=1, lam=1e-4)
    wf.tikhonov_solve(first, cfg)
    tilted = first.A * np.linspace(1.0, 2.0, first.A.shape[1])
    for other in (dataclasses.replace(first, A=tilted), fabricated_system(tilted, first.b)):
        got = wf.tikhonov_solve(other, cfg).values
        want = stacked_lstsq(tilted, first.b, 1, 1e-4)
        assert np.max(np.abs(got - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))
    # and the first system still solves with its own factors
    got = wf.tikhonov_solve(first, cfg).values
    want = stacked_lstsq(first.A, first.b, 1, 1e-4)
    assert np.max(np.abs(got - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))


def test_near_degenerate_stack_raises():
    # A = ones(5, 3) and D_2 share the null vector (-1, 0, 1); tilting one
    # entry by eps leaves cond([A; mu D_2]) about 6.1 / eps
    cfg = wf.RegConfig(order=2, lam=1e-3)
    for eps, cond_limit_hit in ((1e-5, False), (3e-6, True), (1e-7, True)):
        A = np.ones((5, 3))
        A[0, 2] += eps
        s = fabricated_system(A, np.ones(5))
        if cond_limit_hit:
            with pytest.raises(wf.SingularSystem, match="condition number"):
                wf.tikhonov_solve(s, cfg)
            assert wf.sweep(s, 2) == []
        else:
            assert np.all(np.isfinite(wf.tikhonov_solve(s, cfg).values))
    # exactly shared null vector: the Cholesky fails, or succeeds on
    # rounding and leaves cond near 1e8
    with pytest.raises(wf.SingularSystem):
        wf.tikhonov_solve(fabricated_system(np.ones((5, 3)), np.ones(5)), cfg)


def test_rewhitening_near_the_rank_limit():
    # The tilted ones(5, 3) of test_near_degenerate_stack_raises at eps =
    # 1e-5 sits just under COND_LIMIT (cond([A; mu D_2]) about 6.1e5, so
    # cond(K) about 3.7e11), scaled so that lambda / mu^2 reaches 4e6 and
    # 4e10 on these weights. After L alone, X^T K X - I reads 3.5e-5 and
    # 5.5e-5 here; the re-whitened basis reads 2.4e-11 and 3.0e-11, the
    # rounding of X itself (about eps cond([A; mu D_2]) = 1.4e-10).
    lams = 10.0 ** np.arange(-9, 2)
    D = wf.difference_operator(2, 3)
    for scale in (1e-3, 1e-5):
        A = np.ones((5, 3))
        A[0, 2] += 1e-5
        A *= scale
        s = fabricated_system(A, np.arange(1.0, 6.0))
        factors = tikhonov._factors(s, 2)
        AX, DX = A @ factors.X, D @ factors.X
        whitened = AX.T @ AX + factors.mu2 * (DX.T @ DX)
        assert np.max(np.abs(whitened - np.eye(3))) <= 1e-9
        assert np.max(np.abs(AX.T @ AX - np.diag(factors.g))) <= 1e-9
        # the solutions stay as close to stacked_lstsq as the LU route's
        # (4.7e-8 and 4.0e-6 for both: the oracle's own error at this
        # conditioning)
        gaps = {"eigenbasis": 0.0, "lu": 0.0}
        for lam, lu in zip(lams, lu_route(A, s.b, 2, lams)):
            want = stacked_lstsq(A, s.b, 2, lam)
            got = wf.tikhonov_solve(s, wf.RegConfig(order=2, lam=lam)).values
            for route, f in (("eigenbasis", got), ("lu", lu)):
                gaps[route] = max(gaps[route], np.max(np.abs(f - want)) / np.max(np.abs(want)))
        assert gaps["eigenbasis"] <= 2.0 * gaps["lu"]


def test_failed_factorization_raises_a_fresh_error(monkeypatch):
    # one attempt per (system, order); each later solve raises a new error
    # from the kept message, so the traceback does not grow call by call
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda K: calls.append(K.shape) or cholesky(K))
    s = fabricated_system(np.ones((5, 3)), np.ones(5))
    cfg = wf.RegConfig(order=2, lam=1e-3)
    errors = []
    for _ in range(100):
        with pytest.raises(wf.SingularSystem) as info:
            wf.tikhonov_solve(s, cfg)
        errors.append(info.value)
    assert len(calls) == 1
    assert len({id(e) for e in errors}) == len(errors)
    assert {str(e) for e in errors} == {str(errors[0])}
    depth = [len(traceback.extract_tb(e.__traceback__)) for e in errors]
    assert max(depth) <= depth[0]


def test_zero_lambda_equals_plain_lstsq(bench):
    a = bench(1, 20)
    oracle = np.linalg.lstsq(a.system.A, a.system.b, rcond=None)[0]
    via_solve = wf.tikhonov_solve(a.system, wf.RegConfig()).values
    assert np.array_equal(oracle, via_solve)


def test_zero_lambda_rank_deficient_raises():
    A = np.ones((5, 3))
    with pytest.raises(wf.SingularSystem):
        wf.tikhonov_solve(fabricated_system(A, np.ones(5)),
                          wf.RegConfig(order=0, lam=0.0))


def test_penalty_norm_decreases_with_lambda(bench):
    a = bench(2, 40)
    noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, seed=1))
    for order in (0, 1, 2):
        D = wf.difference_operator(order, 39)
        prev = None
        for lam in (1e-8, 1e-6, 1e-4, 1e-2):
            f = wf.tikhonov_solve(noisy, wf.RegConfig(order=order, lam=lam)).values
            norm = np.linalg.norm(D @ f)
            if prev is not None:
                assert norm <= prev * (1.0 + 1e-12)
            prev = norm


def test_dual_penalty_blocks(bench):
    # the dual penalty smooths each component independently; against the
    # block normal-equations oracle
    a = bench(5, 20)
    got = wf.tikhonov_solve(a.system, wf.RegConfig(order=1, lam=1e-4)).values
    want = normal_equations(a.system.A, a.system.b, 1, 1e-4, components=2)
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= 1e-9 * scale


def test_regularized_accuracy_benchmark(bench):
    # hat-profile scenario, zeroth order, 1% noise at the tabulated weight:
    # median accuracy error over 5 seeds within a factor 2 of the reference
    a = bench(2, 80)
    lam, ref = wf.REFERENCE_REGULARIZATION[(2, 0, 1)]
    errs = []
    for seed in range(1, 6):
        noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, seed))
        f = wf.tikhonov_solve(noisy, wf.RegConfig(order=0, lam=lam))
        errs.append(wf.accuracy_error(f, a.exact))
    med = float(np.median(errs))
    assert ref / 2.0 <= med <= ref * 2.0


def test_unregularized_noise_blowup(bench):
    # the whole reason regularization exists: with 1% noise and lam = 0 the
    # recovered profile overshoots the true one severalfold in sup norm
    a = bench(1, 80)
    worst = 0.0
    for seed in range(1, 6):
        noisy = a.system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, seed))
        f = wf.tikhonov_solve(noisy, wf.RegConfig(order=0, lam=0.0))
        worst = max(worst, np.max(np.abs(f.values)))
    assert worst >= 2.0 * np.max(np.abs(a.exact.values))


def test_condition_number_basics(bench):
    assert wf.condition_number(np.eye(4)) == 1.0
    assert abs(wf.condition_number(np.diag([3.0, 1.0])) - 3.0) <= 1e-12
    ref = wf.REFERENCE_CONDITION_NUMBERS[(1, 20)]
    assert abs(wf.condition_number(bench(1, 20).system.A) - ref) / ref <= 0.02
    with pytest.raises(wf.ZeroMatrix):
        wf.condition_number(np.zeros((3, 3)))
    for not_a_matrix in (np.ones(3), np.ones((2, 2, 2)), 5.0):
        with pytest.raises(wf.DimensionMismatch):
            wf.condition_number(not_a_matrix)
    with pytest.raises(wf.WaveforceError):
        wf.condition_number([[np.nan, 1.0], [1.0, 2.0]])
    # exactly singular: infinite when the small singular value underflows
    # to zero, astronomically large otherwise
    assert wf.condition_number(np.diag([1.0, 0.0])) == np.inf
    assert wf.condition_number(np.ones((3, 3))) > 1e15


def test_accuracy_error_norm():
    assert wf.accuracy_error([3.0, 4.0], [0.0, 0.0]) == 5.0
    fv = wf.ForceVector(np.array([1.0, 1.0]))
    assert wf.accuracy_error(fv, np.array([1.0, 1.0])) == 0.0
    with pytest.raises(wf.DimensionMismatch):
        wf.accuracy_error(np.ones(3), np.ones(4))
    # 2-D arrays and ragged or non-numeric input are not profiles
    for bad in (np.ones((2, 2)), [[1.0], [1.0, 2.0]], ["a", "b"]):
        with pytest.raises(wf.DimensionMismatch):
            wf.accuracy_error(bad, np.ones(2))
        with pytest.raises(wf.DimensionMismatch):
            wf.accuracy_error(np.ones(2), bad)
    # a dual profile is not comparable with a single one of equal length
    dual, single = wf.ForceVector(np.ones(4), 2), wf.ForceVector(np.ones(4))
    with pytest.raises(wf.DimensionMismatch):
        wf.accuracy_error(dual, single)
    assert wf.accuracy_error(dual, np.ones(4)) == 0.0
