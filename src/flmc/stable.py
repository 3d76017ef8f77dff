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
_CHUNK = 1 << 16  # draws per chunk of the (V, W) -> SaS map


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
    """Chambers-Mallows-Stuck map from (V, W) to SaS draws, written into V.

    V uniform on (-pi/2, pi/2), W unit exponential. One code path for all
    alpha: at alpha=2 the expression reduces algebraically to
    2*sigma*sin(V)*sqrt(W), i.e. N(0, 2*sigma^2).
    """
    a = noise.alpha
    # _CHUNK draws at a time, each chunk's draws written back into V, so a
    # block peaks at V and W; every element sees the same operations in the
    # same order (**= is **'s scalar-power path), so chunking moves no bit
    for lo in range(0, V.size, _CHUNK):
        v = V[lo:lo + _CHUNK]
        x = np.multiply(a, v)
        np.sin(x, out=x)
        t = np.cos(v)
        t **= 1.0 / a
        x /= t
        np.multiply(1.0 - a, v, out=t)
        np.cos(t, out=t)
        t /= W[lo:lo + _CHUNK]
        t **= (1.0 - a) / a
        x *= t
        np.multiply(x, noise.sigma, out=v)
    return V


def _draw_vw(rng: np.random.Generator, size: int):
    V = rng.uniform(-np.pi / 2, np.pi / 2, size)
    W = rng.standard_exponential(size)
    # two comparisons rather than np.abs(V) > _V_EDGE: no float temporary
    bad = (V > _V_EDGE) | (V < -_V_EDGE)
    while bad.any():
        V[bad] = rng.uniform(-np.pi / 2, np.pi / 2, int(bad.sum()))
        bad = (V > _V_EDGE) | (V < -_V_EDGE)
    return V, W


def sample_sas_vector(
    noise: StableNoise, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """A vector of `dim` independent SaS(sigma) draws from a seeded generator."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    V, W = _draw_vw(rng, dim)
    return _transform(noise, V, W)
