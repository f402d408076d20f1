"""Reproducible Gaussian perturbation of measured flux series.

The perturbation level scales with the data: sigma = p * max_j |q_j|, where
p is the noise fraction (p = 0.01 means 1%). Draws come from numpy's PCG64
generator seeded with (seed, end_code), end_code 0 for a left series and 1
for a right series, so the two ends of a dual measurement get independent
substreams from one user-facing seed. The generator choice is part of the
reproducibility contract: same series and spec, same output, always.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LEFT, RIGHT, FluxSeries, _instance, _integer, _real

_END_CODE = {LEFT: 0, RIGHT: 1}


@dataclass(frozen=True)
class NoiseSpec:
    """Noise fraction and seed.

    Parameters
    ----------
    p : float
        Noise fraction, finite and >= 0; p = 0.01 means 1% noise.
    seed : int
        Base seed for the generator, >= 0.
    """

    p: float
    seed: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p", _real(self.p, "noise fraction", least=0))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", least=0))


def noise_sigma(series: FluxSeries, p: float) -> float:
    """Standard deviation used for a given series: p * max_j |q_j|, for a
    noise fraction p as NoiseSpec takes it."""
    _instance(series, (FluxSeries,), "series")
    return NoiseSpec(p).p * float(np.abs(series.values).max())


def add_noise(series: FluxSeries, spec: NoiseSpec) -> FluxSeries:
    """Perturb each sample with an independent Normal(0, sigma^2) draw.

    p = 0 returns the input series unchanged (bit-exact, same object).
    """
    _instance(series, (FluxSeries,), "series")
    _instance(spec, (NoiseSpec,), "noise spec")
    if spec.p == 0.0:
        return series
    sigma = noise_sigma(series, spec.p)
    rng = np.random.default_rng([spec.seed, _END_CODE[series.end]])
    return FluxSeries(series.end, series.values + rng.normal(0.0, sigma, series.values.size))
