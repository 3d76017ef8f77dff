"""Truncated fractional centered-difference operator and its coefficients.

The operator approximates the Riesz derivative of order gamma:

    D_{h,K}^gamma f(x) = h^(-gamma) * sum_{k=-K..K} g_{gamma,k} f(x - k*h)

with g_{gamma,k} = (-1)^k Gamma(gamma+1) / (Gamma(gamma/2-k+1) * Gamma(gamma/2+k+1)).

Coefficients are generated from g_0 by a two-term recurrence instead of the
raw Gamma formula: the raw form hits Gamma poles at gamma in {0, 2} (where
the true coefficients are exactly zero) and loses precision for large k.

This module owns the stencil: build_stencil fixes the node layout and the
weights once per (gamma, h, K), and ascending_sum is the one summation every
consumer uses, the fractional drift and its diagnostics included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gamma as _gamma_fn

import numpy as np

__all__ = [
    "RieszStencil",
    "coeff",
    "build_stencil",
    "ascending_sum",
    "truncated_centered_difference",
    "c_alpha",
    "NodeEvaluationError",
]


class NodeEvaluationError(ValueError):
    """A stencil node produced a non-finite function value."""

    def __init__(self, node: float, value: float):
        self.node = node
        self.value = value
        super().__init__(f"non-finite value {value!r} at stencil node x={node!r}")


def _check_gamma(gamma: float):
    if not (-1.0 < gamma <= 2.0):
        raise ValueError(f"gamma must be in (-1, 2], got {gamma}")


def _half_coeffs(gamma: float, K: int) -> np.ndarray:
    """g_{gamma,0..K} via the recurrence g_{k+1} = g_k*(k-gamma/2)/(k+1+gamma/2)."""
    g = np.empty(K + 1)
    g[0] = _gamma_fn(gamma + 1.0) / _gamma_fn(gamma / 2.0 + 1.0) ** 2
    for k in range(K):
        g[k + 1] = g[k] * (k - gamma / 2.0) / (k + 1.0 + gamma / 2.0)
    return g


def coeff(gamma: float, k: int) -> float:
    """Centered-difference coefficient g_{gamma,k} (symmetric in k)."""
    _check_gamma(gamma)
    return float(_half_coeffs(gamma, abs(int(k)))[-1])


# distinct (gamma, h, K) triples kept alive; a sweep uses a handful
_STENCIL_CACHE_SIZE = 64


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RieszStencil:
    """The 2K+1 nodes of D_{h,K}^gamma, in centre-outward order.

    coeffs[k] = g_{gamma,k} for k = 0..K; offsets = 0, -1, +1, -2, +2, ...
    place node i at x - offsets[i]*h; weights = coeffs[|offsets|]. The arrays
    are read-only because build_stencil hands one instance to every caller.
    """

    gamma: float
    h: float
    K: int
    coeffs: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


@lru_cache(maxsize=_STENCIL_CACHE_SIZE)
def build_stencil(gamma: float, h: float, K: int) -> RieszStencil:
    """The stencil for (gamma, h, K), built on first use and then shared."""
    _check_gamma(gamma)
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    K = int(K)
    coeffs = _half_coeffs(gamma, K)
    offsets = np.empty(2 * K + 1, dtype=int)
    offsets[0] = 0
    offsets[1::2] = -np.arange(1, K + 1)
    offsets[2::2] = np.arange(1, K + 1)
    return RieszStencil(gamma=float(gamma), h=float(h), K=K,
                        coeffs=_read_only(coeffs), offsets=_read_only(offsets),
                        weights=_read_only(coeffs[np.abs(offsets)]))


def ascending_sum(terms: np.ndarray):
    """Sum in ascending magnitude, accumulated left to right from 0.0.

    Ties keep their input order, so the centre-outward layout cancels
    symmetric +-k pairs exactly; cumsum accumulates sequentially, so the
    result equals a Python loop bit for bit, sign of zero included. A 1-D
    input gives a float; an (R, n) input gives the (R,) row sums.
    """
    rows = np.atleast_2d(np.asarray(terms, dtype=float))
    order = np.argsort(np.abs(rows), axis=1, kind="stable")
    ordered = rows[np.arange(len(rows))[:, None], order]
    zero = np.zeros((len(rows), 1))
    sums = np.cumsum(np.concatenate((zero, ordered), axis=1), axis=1)[:, -1]
    return float(sums[0]) if np.ndim(terms) == 1 else sums


def truncated_centered_difference(stencil: RieszStencil, f, x: float) -> float:
    """Evaluate D_{h,K}^gamma f at x.

    f is called at the 2K+1 nodes; any non-finite value raises
    NodeEvaluationError naming the node. The weighted values are summed
    with ascending_sum.
    """
    nodes = x - stencil.offsets * stencil.h
    values = np.array([float(f(v)) for v in nodes])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NodeEvaluationError(float(nodes[bad[0]]), float(values[bad[0]]))
    return ascending_sum(stencil.weights * values) / stencil.h**stencil.gamma


def c_alpha(alpha: float) -> float:
    """Gradient weight of the simplified drift: Gamma(alpha-1)/Gamma(alpha/2)^2.

    Equals coeff(alpha-2, 0); 1 at alpha=2; strictly decreasing in alpha
    on (1, 2], so the gradient gets more weight as tails get heavier.
    """
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must be in (1, 2], got {alpha}")
    return _gamma_fn(alpha - 1.0) / _gamma_fn(alpha / 2.0) ** 2
