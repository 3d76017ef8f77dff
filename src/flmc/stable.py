"""Symmetric alpha-stable (SaS) random variates.

A SaS(sigma) variable has characteristic function exp(-|sigma*w|^alpha).
At alpha=2 this is N(0, 2*sigma^2); for alpha<2 the variance is infinite
and large jumps appear with polynomial tail probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StableNoise", "sample_sas_vector"]

# V draws this close to +-pi/2 would underflow cos(V); redrawing keeps the
# stream deterministic and changes the law by a ~1e-10 probability event.
_V_EDGE = np.pi / 2 - 1e-10


@dataclass(frozen=True)
class StableNoise:
    """Parameters of a symmetric alpha-stable noise source.

    Parameters
    ----------
    alpha : float
        Characteristic exponent, in (0, 2]. 2 is Gaussian.
    sigma : float
        Scale. Must be positive.
    """

    alpha: float
    sigma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def _transform(noise: StableNoise, V: np.ndarray, W: np.ndarray):
    """Chambers-Mallows-Stuck map from (V, W) to SaS draws.

    V uniform on (-pi/2, pi/2), W unit exponential. One code path for all
    alpha: at alpha=2 the expression reduces algebraically to
    2*sigma*sin(V)*sqrt(W), i.e. N(0, 2*sigma^2).
    """
    a = noise.alpha
    # in place on two buffers, so a large block needs no further temporaries;
    # **= takes the same scalar-power path as ** (sqrt at alpha=2), so the
    # draws are unchanged bit for bit
    x = np.multiply(a, V)
    np.sin(x, out=x)
    t = np.cos(V)
    t **= 1.0 / a
    x /= t
    np.multiply(1.0 - a, V, out=t)
    np.cos(t, out=t)
    t /= W
    t **= (1.0 - a) / a
    x *= t
    x *= noise.sigma
    return x


def _draw_vw(rng: np.random.Generator, size: int):
    V = rng.uniform(-np.pi / 2, np.pi / 2, size)
    W = rng.standard_exponential(size)
    bad = np.abs(V) > _V_EDGE
    while bad.any():
        V[bad] = rng.uniform(-np.pi / 2, np.pi / 2, int(bad.sum()))
        bad = np.abs(V) > _V_EDGE
    return V, W


def sample_sas_vector(
    noise: StableNoise, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """A vector of `dim` independent SaS(sigma) draws from a seeded generator."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    V, W = _draw_vw(rng, dim)
    return _transform(noise, V, W)
