import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nullrec.algebra import FiniteMarkovModel
from nullrec.montecarlo import kolmogorov_isf

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def random_model(rng, d=None, s_low=0.3, s_high=0.9) -> FiniteMarkovModel:
    """Random valid model: strictly positive P and nu, s scaled to respect the
    minorization inequality with slack."""
    if d is None:
        d = int(rng.integers(2, 6))
    P = rng.random((d, d)) + 0.1
    P /= P.sum(axis=1, keepdims=True)
    nu = rng.random(d) + 0.1
    nu /= nu.sum()
    theta = rng.uniform(s_low, s_high)
    s = np.minimum(theta * (P / nu).min(axis=1), 1.0)
    return FiniteMarkovModel(states=tuple(range(d)), P=P, s=s, nu=nu)


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b| of the
    empirical laws of a and b."""
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, grid, side="right") / len(a)
                        - np.searchsorted(b, grid, side="right") / len(b)).max())


def ks_two_sample_critical(n: int, m: int, alpha: float) -> float:
    """The two-sample distance that independent samples of sizes n and m
    from one continuous law exceed with probability about alpha, by the
    Kolmogorov law (conservative for samples with ties)."""
    return kolmogorov_isf(alpha) * math.sqrt((n + m) / (n * m))


@pytest.fixture
def two_state():
    return FiniteMarkovModel(states=(0, 1), P=[[0.5, 0.5], [0.5, 0.5]],
                             s=[0.5, 0.5], nu=[0.5, 0.5])


@pytest.fixture
def make_model():
    return random_model
