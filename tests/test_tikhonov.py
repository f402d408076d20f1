"""Regularized solves against the stacked least-squares and normal-equations
oracles, the shared factorization, SVD diagnostics."""

import dataclasses

import numpy as np
import pytest

import waveforce as wf
from test_inverse import fabricated_system

# Largest max|f - f_oracle| / max|f_oracle| of the factored solve against
# stacked_lstsq over scenarios 1-5 at M = N = 40 and 80, orders 0-2, with
# noise-free and 1%-noise data: 3.7e-10 over the extended weight grid
# (dual scenario 5, order 2, M = 80) and 2.5e-7 at lambda = 1e-14
# (scenario 4, order 0, noise-free), where the factored route's squared
# conditioning shows. The tolerances leave a factor of about 3-4.
ORACLE_GRID_TOL = 1e-9
ORACLE_TINY_LAMBDA_TOL = 1e-6


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
    worst = {ORACLE_GRID_TOL: 0.0, ORACLE_TINY_LAMBDA_TOL: 0.0}
    for example in (1, 2, 3, 4, 5):
        for m in (40, 80):
            a = bench(example, m)
            series = (a.measured,) if a.measured_right is None else (a.measured, a.measured_right)
            for noise in (None, wf.NoiseSpec(0.01, 1)):
                s = a.system.with_measurement(*series, noise=noise)
                for order in (0, 1, 2):
                    for lam in [*wf.EXTENDED_LAMBDA_GRID, 1e-14]:
                        got = wf.tikhonov_solve(s, wf.RegConfig(order=order, lam=lam)).values
                        want = stacked_lstsq(s.A, s.b, order, lam, s.components)
                        tol = ORACLE_TINY_LAMBDA_TOL if lam == 1e-14 else ORACLE_GRID_TOL
                        rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
                        worst[tol] = max(worst[tol], rel)
    print(f"factored vs stacked lstsq: grid {worst[ORACLE_GRID_TOL]:.2e}, "
          f"lambda 1e-14 {worst[ORACLE_TINY_LAMBDA_TOL]:.2e}")
    assert all(w <= tol for tol, w in worst.items())


def test_one_factorization_per_system_and_order(bench, monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda K: calls.append(K.shape) or cholesky(K))
    a = bench(2, 40)
    system = dataclasses.replace(a.system)  # a copy without factors
    noisy = system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, 1))
    lam = wf.corner(wf.sweep(noisy, 2)).lam
    f = wf.tikhonov_solve(noisy, wf.RegConfig(order=2, lam=lam))
    assert len(calls) == 1
    # a new draw shares A, so it shares the factors
    draw = system.with_measurement(a.measured, noise=wf.NoiseSpec(0.01, 2))
    g = wf.tikhonov_solve(draw, wf.RegConfig(order=2, lam=lam))
    wf.sweep(draw, 2)
    assert len(calls) == 1
    for s, sol in ((noisy, f), (draw, g)):
        want = stacked_lstsq(s.A, s.b, 2, lam)
        assert np.max(np.abs(sol.values - want)) <= ORACLE_GRID_TOL * np.max(np.abs(want))
    # another order factors again, and lambda = 0 never factors
    wf.sweep(draw, 1)
    wf.tikhonov_solve(noisy, wf.RegConfig(order=1, lam=1e-4))
    wf.tikhonov_solve(noisy, wf.RegConfig())
    assert len(calls) == 2
    # each order keeps its factors: going back to order 2 factors nothing
    wf.sweep(draw, 2)
    wf.tikhonov_solve(noisy, wf.RegConfig(order=1, lam=1e-3))
    assert len(calls) == 2
    assert sorted(noisy._factors) == [1, 2]


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
