"""Drift evaluators for the Levy-driven Langevin dynamics.

Two variants. The full centered drift divides a truncated fractional
derivative of f(x) = -exp(-U(x)) U'(x) by exp(-U(x)); computed naively the
exponentials overflow, so everything runs in the factored form with the
largest exponent pulled out. The simplified drift is -c_alpha * grad U and
works in any dimension (the sampler applies it inline). The full drift is
one-dimensional; a large truncation K_star stands in for the untruncated
operator.

The full drift and kappa both take a row of terms per state (kappa's
grid, an ensemble) from build_stencil's nodes and weights, cached per
(gamma, h, K). The full drift sums a row in ascending magnitude
(riesz.ascending_sum); kappa takes b_K for every K as centre-outward
prefix sums of the +-k pairs (np.cumsum), so its b_{K*} is not
full_drift's to the bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .riesz import ascending_sum, build_stencil, c_alpha
from .targets import Target

__all__ = [
    "DriftOverflowError",
    "Simplified",
    "FullCentered",
    "full_drift",
    "full_drift_rows",
    "kappa",
    "KappaResult",
]

log = logging.getLogger(__name__)

# exp() overflows just above this exponent
_EXP_MAX = 709.0
# grid points kappa evaluates per block, which bounds its temporaries
_KAPPA_ROWS = 16


class DriftOverflowError(ArithmeticError):
    """The drift at x overflows: its factored exponent, or U'(x) itself.
    where, if given, names the location in the message in place of x."""

    def __init__(self, x, ell_star, where=None):
        self.x = x
        self.ell_star = ell_star
        super().__init__(f"drift overflow at {where or f'x={x!r}'}: "
                         f"exponent {ell_star!r}")


@dataclass(frozen=True)
class Simplified:
    pass


@dataclass(frozen=True)
class FullCentered:
    h: float
    K: int

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")
        if self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K}")


def _check_alpha(alpha: float) -> float:
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    return alpha - 2.0


def _scaled_terms(target: Target, x: np.ndarray, steps: np.ndarray,
                  weights: np.ndarray):
    """Signed stencil terms of each state x[r], its max exponent factored out.

    steps and weights (RieszStencil's) are one (2K+1,) stencil shared by
    every row or an (R, 2K+1) table with a row per state. Returns ell_star
    (R,) and terms (R, 2K+1) in the stencil's node order; row r's drift is
    exp(ell_star[r]) / h_r**gamma times its term sum. ell_star is +inf
    where U(x[r]) itself is not finite. Callers decide what an ell_star
    above _EXP_MAX means.
    """
    nodes = x[:, None] - steps
    u = np.asarray(target.potential(nodes), dtype=float)
    grads = np.asarray(target.gradient(nodes), dtype=float)
    if u.shape != nodes.shape or grads.shape != nodes.shape:
        raise TypeError("the full drift needs a vectorised potential and "
                        "gradient, mapping node arrays to same-shape arrays")
    # built in place in our own two arrays: -(g w e) is w (-g) e bit for bit
    factor = np.subtract(u[:, :1], u)  # ell_k; node 0 is the state itself
    ell_star = factor.max(axis=1)
    finite = np.isfinite(u[:, 0])
    if not finite.all():
        ell_star[~finite] = np.inf  # not inf - inf's NaN
    factor -= ell_star[:, None]
    terms = np.multiply(grads, weights)
    terms *= np.exp(factor, out=factor)
    return ell_star, np.negative(terms, out=terms)


def full_drift_rows(target: Target, x: np.ndarray, steps: np.ndarray,
                    weights: np.ndarray, h_gamma: np.ndarray):
    """The full drift at each state x[r] (h_gamma[r] = h_r**gamma), and ell*.

    A row comes back non-finite where the drift overflows. exp(ell*) is
    math.exp's Python float per row, so a row equals full_drift bit for bit.
    """
    ell_star, terms = _scaled_terms(target, x, steps, weights)
    scale = np.array([math.exp(e) if e <= _EXP_MAX else math.nan
                      for e in ell_star.tolist()])
    return scale / h_gamma * ascending_sum(terms), ell_star


def full_drift(target: Target, x: float, spec: FullCentered, alpha: float) -> float:
    """Truncated centered-difference drift at a scalar state.

    With ell_k = U(x) - U(x - k h) and ell* their max, evaluates
    (exp(ell*) / h**gamma) * sum_k g_k * (-U'(x - k h)) * exp(ell_k - ell*),
    summing the signed terms in ascending magnitude. gamma = alpha - 2.
    The result is finite; where it is not, DriftOverflowError is raised.
    """
    gamma = _check_alpha(alpha)
    if gamma == 0.0:
        # zeroth-order operator is the identity: drift is exactly -U'(x)
        try:
            b = float(-target.gradient(x))
        except OverflowError:  # a target's own ** on a Python float raises
            b = math.inf
        if not math.isfinite(b):
            raise DriftOverflowError(x, math.inf)
        return b
    st = build_stencil(gamma, spec.h, spec.K)
    with np.errstate(all="ignore"):  # raised below as DriftOverflowError
        b, ell_star = full_drift_rows(target, np.array([float(x)]),
                                      st.steps, st.weights, st.h_gamma)
    if not math.isfinite(b[0]):
        raise DriftOverflowError(x, float(ell_star[0]))
    return float(b[0])


@dataclass(frozen=True)
class KappaResult:
    kappa_hat: float
    per_point: np.ndarray  # NaN where a grid point was skipped
    skipped: int


def kappa(target: Target, alpha: float, h: float, K_star: int, grid) -> KappaResult:
    """Mean matched-truncation index over a grid.

    At each grid point: b_K for K = 1..K_star by widening the stencil one
    pair at a time, b* = b_{K_star}, e(K) = |b_K - b*|, e_hat = |b_hat - b*|
    for the simplified drift b_hat, and kappa = the smallest K minimizing
    |e(K) - e_hat|. Grid points where the drift overflows are skipped and
    counted, with one warning per call naming their count and range.
    """
    gamma = _check_alpha(alpha)
    if not (1.0 < alpha < 2.0):
        raise ValueError("kappa needs alpha in (1, 2)")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    if not np.isfinite(grid).all():
        raise ValueError("grid points must be finite")
    ca = c_alpha(alpha)
    st = build_stencil(gamma, h, K_star)
    per_point = np.full(grid.size, np.nan)
    for lo in range(0, grid.size, _KAPPA_ROWS):
        xs = grid[lo:lo + _KAPPA_ROWS]
        with np.errstate(all="ignore"):  # overflowing points are skipped below
            ell_star, terms = _scaled_terms(target, xs, st.steps, st.weights)
        ok = ell_star <= _EXP_MAX
        scale = np.array([math.exp(e) for e in ell_star[ok].tolist()]) / st.h_gamma
        t = terms[ok]  # nodes run 0, -1, +1, -2, +2, ...: b[:, K-1] = b_K
        b = scale[:, None] * (t[:, :1] + np.cumsum(t[:, 1::2] + t[:, 2::2], axis=1))
        b_hat = np.array([-ca * float(target.gradient(x)) for x in xs[ok].tolist()])
        e = np.abs(b - b[:, -1:])  # b[:, -1] is b* = b_{K_star}
        e_hat = np.abs(b_hat - b[:, -1])
        per_point[lo:lo + _KAPPA_ROWS][ok] = 1 + np.argmin(  # first: smallest K
            np.abs(e - e_hat[:, None]), axis=1)
    skipped = np.isnan(per_point)
    if skipped.all():
        raise DriftOverflowError(grid, math.inf, (
            f"all {grid.size} grid points, x in "
            f"[{float(grid.min())!r}, {float(grid.max())!r}]"))
    if skipped.any():
        log.warning("kappa: drift overflow at %d of %d grid points, x in "
                    "[%r, %r]: skipped", skipped.sum(), grid.size,
                    float(grid[skipped].min()), float(grid[skipped].max()))
    return KappaResult(float(np.mean(per_point[~skipped])), per_point,
                       int(skipped.sum()))
