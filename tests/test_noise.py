"""Noise model: amplitude rule, determinism, end sub-streams."""

import numpy as np
import pytest

import waveforce as wf


def test_sigma_is_fraction_of_peak():
    q = wf.FluxSeries(wf.LEFT, np.full(40, -np.pi))
    assert wf.noise_sigma(q, 0.01) == 0.01 * np.pi
    q2 = wf.FluxSeries(wf.LEFT, np.array([1.0, -5.0, 2.0]))
    assert wf.noise_sigma(q2, 0.1) == 0.5


def test_zero_level_returns_same_object():
    q = wf.FluxSeries(wf.LEFT, np.arange(1.0, 5.0))
    out = wf.add_noise(q, wf.NoiseSpec(0.0, seed=3))
    assert out is q


def test_spec_validation():
    with pytest.raises(wf.WaveforceError):
        wf.NoiseSpec(-0.01)
    for p in ("inf", "nan"):
        with pytest.raises(wf.WaveforceError, match=f"^noise fraction must be finite and >= 0, got {p}$"):
            wf.NoiseSpec(float(p))
    # the seed is a non-negative integer, checked at construction
    for seed in (1.7, -1, True, "3"):
        with pytest.raises(wf.WaveforceError):
            wf.NoiseSpec(0.01, seed)
    assert type(wf.NoiseSpec(0.01, 3.0).seed) is int


def test_deterministic_given_seed():
    q = wf.FluxSeries(wf.LEFT, np.linspace(-1, 1, 50))
    a = wf.add_noise(q, wf.NoiseSpec(0.05, seed=11)).values
    b = wf.add_noise(q, wf.NoiseSpec(0.05, seed=11)).values
    assert np.array_equal(a, b)
    c = wf.add_noise(q, wf.NoiseSpec(0.05, seed=12)).values
    assert not np.array_equal(a, c)


def test_ends_draw_independent_streams():
    vals = np.linspace(-1, 1, 50)
    left = wf.add_noise(wf.FluxSeries(wf.LEFT, vals), wf.NoiseSpec(0.05, seed=11))
    right = wf.add_noise(wf.FluxSeries(wf.RIGHT, vals), wf.NoiseSpec(0.05, seed=11))
    assert not np.array_equal(left.values, right.values)
    assert left.end == wf.LEFT and right.end == wf.RIGHT


def test_moments_match_declared_amplitude():
    n = 100_000
    q = wf.FluxSeries(wf.LEFT, np.full(n, 2.0))
    sigma = wf.noise_sigma(q, 0.03)
    noisy = wf.add_noise(q, wf.NoiseSpec(0.03, seed=5))
    eps = noisy.values - q.values
    assert abs(eps.std() - sigma) / sigma <= 0.02
    assert abs(eps.mean()) <= 3.0 * sigma / np.sqrt(n)
