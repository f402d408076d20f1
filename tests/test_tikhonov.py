"""Regularized solves against the normal-equations oracle, SVD diagnostics."""

import numpy as np
import pytest

import waveforce as wf
from test_inverse import fabricated_system


def normal_equations(A, b, order, lam, components=1):
    """Independent oracle: (A^T A + lam D^T D)^-1 A^T b, dense solve."""
    m = A.shape[1] // components
    D = wf.difference_operator(order, m)
    if components == 2:
        Z = np.zeros((D.shape[0], m))
        D = np.block([[D, Z], [Z, D]])
    return np.linalg.solve(A.T @ A + lam * (D.T @ D), A.T @ b)


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


def test_normalized_singular_values(bench):
    nsv = wf.normalized_singular_values(np.diag([2.0, 1.0]))
    assert np.array_equal(nsv, [1.0, 0.5])
    nsv4 = wf.normalized_singular_values(bench(4, 80).system.A)
    assert nsv4[0] == 1.0
    assert np.all(np.diff(nsv4) <= 0)
    ref = wf.REFERENCE_CONDITION_NUMBERS[(4, 80)]
    assert abs(nsv4[-1] - 1.0 / ref) / (1.0 / ref) <= 0.02
    with pytest.raises(wf.ZeroMatrix):
        wf.normalized_singular_values(np.zeros(3))


def test_accuracy_error_norm():
    assert wf.accuracy_error([3.0, 4.0], [0.0, 0.0]) == 5.0
    fv = wf.ForceVector(np.array([1.0, 1.0]))
    assert wf.accuracy_error(fv, np.array([1.0, 1.0])) == 0.0
    with pytest.raises(wf.DimensionMismatch):
        wf.accuracy_error(np.ones(3), np.ones(4))
