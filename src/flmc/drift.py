"""Drift evaluators for the Levy-driven Langevin dynamics.

Three variants. The full centered drift divides a truncated fractional
derivative of f(x) = -exp(-U(x)) U'(x) by exp(-U(x)); computed naively the
exponentials overflow, so everything runs in the factored form with the
largest exponent pulled out. The simplified drift is -c_alpha * grad U and
works in any dimension (the sampler applies it inline). The full drift is
one-dimensional; a large truncation K_star stands in for the untruncated
operator.

The full drift, the r diagnostic and kappa all evaluate through the one
riesz stencil: build_stencil supplies the nodes and weights, cached per
(gamma, h, K), and riesz.ascending_sum does the summation, through one
row-wise evaluator that takes a row per state (kappa's grid, an ensemble).
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
    "UndefinedDiagnosticError",
    "Simplified",
    "FullCentered",
    "full_drift",
    "full_drift_rows",
    "r_diagnostic",
    "kappa",
    "KappaResult",
]

log = logging.getLogger(__name__)

# exp() overflows just above this exponent
_EXP_MAX = 709.0
# grid points kappa evaluates per block, which bounds its temporaries
_KAPPA_ROWS = 16


class DriftOverflowError(ArithmeticError):
    """The drift at x overflows: its factored exponent, or U'(x) itself."""

    def __init__(self, x, ell_star):
        self.x = x
        self.ell_star = ell_star
        super().__init__(f"drift overflow at x={x!r}: exponent {ell_star!r}")


class UndefinedDiagnosticError(ValueError):
    """r is undefined where U'(x) = 0."""


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

    steps (offsets times h) and weights are one (2K+1,) stencil shared by
    every row or an (R, 2K+1) table with a row per state. Returns ell_star
    (R,) and terms (R, 2K+1) in the stencil's node order; row r's drift is
    exp(ell_star[r]) / h_r**gamma times its term sum. Callers decide what
    an ell_star above _EXP_MAX means.
    """
    nodes = x[:, None] - steps
    u = np.asarray(target.potential(nodes), dtype=float)
    grads = np.asarray(target.gradient(nodes), dtype=float)
    if u.shape != nodes.shape or grads.shape != nodes.shape:
        raise TypeError("the full drift needs a vectorised potential and "
                        "gradient, mapping node arrays to same-shape arrays")
    ells = u[:, :1] - u  # node 0 is the state itself
    ell_star = np.max(ells, axis=1)
    terms = weights * (-grads) * np.exp(ells - ell_star[:, None])
    return ell_star, terms


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
        except OverflowError:  # a Python float's x**3 raises, never gives inf
            b = math.inf
        if not math.isfinite(b):
            raise DriftOverflowError(x, math.inf)
        return b
    st = build_stencil(gamma, spec.h, spec.K)
    with np.errstate(all="ignore"):  # raised below as DriftOverflowError
        b, ell_star = full_drift_rows(target, np.array([float(x)]),
                                      st.offsets * st.h, st.weights,
                                      st.h**st.gamma)
    if not math.isfinite(b[0]):
        raise DriftOverflowError(x, float(ell_star[0]))
    return float(b[0])


def r_diagnostic(target: Target, x: float, alpha: float, h: float, K_x: int) -> float:
    """Truncation-quality diagnostic at x.

    |sum_k (g_k / g_0) f(x - k h) / f(x)| ** (1 / gamma) with
    f = -exp(-U) U', i.e. the full-drift stencil sum S over g_0 U'(x):
    r = exp((ell* + log|S / (g_0 U'(x))|) / gamma), evaluated in log space
    because either factor alone can pass the float range when gamma is
    near 0. An r below the float range is 0.0, one above it is inf.
    Undefined at stationary points of U.
    """
    gamma = _check_alpha(alpha)
    if gamma == 0.0:
        raise ValueError("diagnostic needs alpha < 2 (exponent 1/gamma)")
    du_x = float(target.gradient(x))
    if du_x == 0.0:
        raise UndefinedDiagnosticError(f"U'(x) = 0 at x={x!r}")
    stencil = build_stencil(gamma, h, K_x)
    ell_star, terms = _scaled_terms(target, np.array([float(x)]),
                                    stencil.offsets * stencil.h, stencil.weights)
    s = float(ascending_sum(terms)[0])
    if s == 0.0:
        return math.inf
    g_0 = float(stencil.coeffs[0])
    log_ratio = math.log(abs(s)) - math.log(abs(g_0)) - math.log(abs(du_x))
    try:
        return math.exp((float(ell_star[0]) + log_ratio) / gamma)
    except OverflowError:
        return math.inf


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
    counted.
    """
    gamma = _check_alpha(alpha)
    if not (1.0 < alpha < 2.0):
        raise ValueError("kappa needs alpha in (1, 2)")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    ca = c_alpha(alpha)
    st = build_stencil(gamma, h, K_star)
    per_point = np.full(grid.size, np.nan)
    for lo in range(0, grid.size, _KAPPA_ROWS):
        xs = grid[lo:lo + _KAPPA_ROWS]
        ell_star, terms = _scaled_terms(target, xs, st.offsets * st.h, st.weights)
        ok = ~(ell_star > _EXP_MAX)
        for x, ell in zip(xs[~ok].tolist(), ell_star[~ok].tolist()):
            log.warning("kappa: skipping grid point %r (drift overflow, "
                        "exponent %r)", x, ell)
        scale = np.array([math.exp(e) for e in ell_star[ok].tolist()]) / h**gamma
        t = terms[ok]  # nodes run 0, -1, +1, -2, +2, ...: b[:, K-1] = b_K
        b = scale[:, None] * (t[:, :1] + np.cumsum(t[:, 1::2] + t[:, 2::2], axis=1))
        b_hat = np.array([-ca * float(target.gradient(x)) for x in xs[ok].tolist()])
        e = np.abs(b - b[:, -1:])  # b[:, -1] is b* = b_{K_star}
        e_hat = np.abs(b_hat - b[:, -1])
        per_point[lo:lo + _KAPPA_ROWS][ok] = 1 + np.argmin(  # first: smallest K
            np.abs(e - e_hat[:, None]), axis=1)
    skipped = np.isnan(per_point)
    if skipped.all():
        raise DriftOverflowError(grid, math.inf)
    return KappaResult(float(np.mean(per_point[~skipped])), per_point,
                       int(skipped.sum()))
