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

from .errors import WaveforceError
from .model import LEFT, RIGHT, FluxSeries, _integer

_END_CODE = {LEFT: 0, RIGHT: 1}


@dataclass(frozen=True)
class NoiseSpec:
    """Noise fraction and seed.

    Parameters
    ----------
    p : float
        Noise fraction, >= 0; p = 0.01 means 1% noise.
    seed : int
        Base seed for the generator, >= 0.
    """

    p: float
    seed: int = 1

    def __post_init__(self):
        p = float(self.p)
        if not np.isfinite(p) or p < 0:
            raise WaveforceError(f"noise fraction must be >= 0, got {self.p}")
        seed = _integer(self.seed, "seed")
        if seed < 0:
            raise WaveforceError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "seed", seed)


def noise_sigma(series: FluxSeries, p: float) -> float:
    """Standard deviation used for a given series: p * max_j |q_j|."""
    return float(p) * float(np.abs(series.values).max())


def add_noise(series: FluxSeries, spec: NoiseSpec) -> FluxSeries:
    """Perturb each sample with an independent Normal(0, sigma^2) draw.

    p = 0 returns the input series unchanged (bit-exact, same object).
    """
    if spec.p == 0.0:
        return series
    sigma = noise_sigma(series, spec.p)
    rng = np.random.default_rng([spec.seed, _END_CODE[series.end]])
    return FluxSeries(series.end, series.values + rng.normal(0.0, sigma, series.values.size))
