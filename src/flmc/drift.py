"""Drift evaluators for the Levy-driven Langevin dynamics.

Three variants. The full centered drift divides a truncated fractional
derivative of f(x) = -exp(-U(x)) U'(x) by exp(-U(x)); computed naively the
exponentials overflow, so everything runs in the factored form with the
largest exponent pulled out. The simplified drift is -c_alpha * grad U and
works in any dimension (the sampler applies it inline). The reference drift
is the full drift at a large truncation K_star, used as the stand-in for the
untruncated operator.

The full drift, the r diagnostic and kappa all evaluate through the one
riesz stencil: build_stencil supplies the nodes and weights, cached per
(gamma, h, K), and riesz.ascending_sum does the summation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .riesz import RieszStencil, ascending_sum, build_stencil, c_alpha
from .targets import Target

__all__ = [
    "DriftOverflowError",
    "UndefinedDiagnosticError",
    "Simplified",
    "FullCentered",
    "Reference",
    "full_drift",
    "full_drift_multi",
    "r_diagnostic",
    "kappa",
    "KappaResult",
]

log = logging.getLogger(__name__)

# exp() overflows just above this exponent
_EXP_MAX = 709.0


class DriftOverflowError(ArithmeticError):
    """The factored exponent exceeds the representable range at x."""

    def __init__(self, x, ell_star, axis=None):
        self.x = x
        self.ell_star = ell_star
        self.axis = axis
        where = f", axis {axis}" if axis is not None else ""
        super().__init__(
            f"drift overflow at x={x!r}{where}: exponent {ell_star!r}")


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
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        if self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K}")


@dataclass(frozen=True)
class Reference:
    """Full centered drift at the reference truncation K_star."""

    h: float
    K_star: int

    def as_full(self) -> FullCentered:
        return FullCentered(self.h, self.K_star)


def _check_alpha(alpha: float) -> float:
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    return alpha - 2.0


def _eval_nodes(fn, nodes: np.ndarray) -> np.ndarray:
    # vectorized call when the target supports it, per-node otherwise
    try:
        out = np.asarray(fn(nodes), dtype=float)
        if out.shape == nodes.shape:
            return out
    except Exception:
        pass
    return np.array([float(fn(v)) for v in nodes])


def _scaled_terms(stencil: RieszStencil, u_of, du_of, x: float):
    """Signed stencil terms with the max exponent factored out.

    Returns (ell_star, terms) in the stencil's node order; the true drift is
    exp(ell_star) / h**gamma times the term sum. Callers decide what an
    ell_star above _EXP_MAX means.
    """
    nodes = stencil.nodes(x)
    ells = float(u_of(x)) - _eval_nodes(u_of, nodes)
    grads = _eval_nodes(du_of, nodes)
    ell_star = float(np.max(ells))
    terms = stencil.weights * (-grads) * np.exp(ells - ell_star)
    return ell_star, terms


def _drift_value(stencil: RieszStencil, u_of, du_of, x: float,
                 where, axis=None) -> float:
    """The full drift at x; an overflow raises naming `where` and `axis`."""
    ell_star, terms = _scaled_terms(stencil, u_of, du_of, x)
    if ell_star > _EXP_MAX:
        raise DriftOverflowError(where, ell_star, axis)
    out = math.exp(ell_star) / stencil.h**stencil.gamma * ascending_sum(terms)
    if not math.isfinite(out):
        raise DriftOverflowError(where, ell_star, axis)
    return out


def full_drift(target: Target, x: float, spec: FullCentered, alpha: float) -> float:
    """Truncated centered-difference drift at a scalar state.

    With ell_k = U(x) - U(x - k h) and ell* their max, evaluates
    (exp(ell*) / h**gamma) * sum_k g_k * (-U'(x - k h)) * exp(ell_k - ell*),
    summing the signed terms in ascending magnitude. gamma = alpha - 2.
    """
    gamma = _check_alpha(alpha)
    if gamma == 0.0:
        # zeroth-order operator is the identity: drift is exactly -U'(x)
        return float(-target.gradient(x))
    stencil = build_stencil(gamma, spec.h, spec.K)
    return _drift_value(stencil, target.potential, target.gradient, float(x), x)


def full_drift_multi(target: Target, x, spec: FullCentered, alpha: float) -> np.ndarray:
    """Per-axis full drift: axis d sees the 1D operator along e_d."""
    gamma = _check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    if gamma == 0.0:
        return -np.asarray(target.gradient(x), dtype=float)
    stencil = build_stencil(gamma, spec.h, spec.K)
    out = np.empty_like(x)
    for d in range(x.size):
        def u_of(v, d=d):
            p = x.copy()
            p[d] = v
            return float(np.squeeze(target.potential(p)))

        def du_of(v, d=d):
            p = x.copy()
            p[d] = v
            return float(np.asarray(target.gradient(p))[d])

        out[d] = _drift_value(stencil, u_of, du_of, float(x[d]), x, axis=d)
    return out


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
    ell_star, terms = _scaled_terms(stencil, target.potential, target.gradient,
                                    float(x))
    s = ascending_sum(terms)
    if s == 0.0:
        return math.inf
    g_0 = float(stencil.coeffs[0])
    log_ratio = math.log(abs(s)) - math.log(abs(g_0)) - math.log(abs(du_x))
    try:
        return math.exp((ell_star + log_ratio) / gamma)
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
    stencil = build_stencil(gamma, h, K_star)
    per_point = np.full(grid.size, np.nan)
    skipped = 0
    for i, x in enumerate(grid):
        x = float(x)
        ell_star, terms = _scaled_terms(stencil, target.potential,
                                        target.gradient, x)
        if ell_star > _EXP_MAX:
            log.warning("kappa: skipping grid point %r (drift overflow, "
                        "exponent %r)", x, ell_star)
            skipped += 1
            continue
        scale = math.exp(ell_star) / h**gamma
        # terms are ordered (0, -1, +1, -2, +2, ...): widen center-outward
        s0 = terms[0]
        pair_sums = terms[1::2] + terms[2::2]
        b = scale * (s0 + np.cumsum(pair_sums))  # b[K-1] = b_{K}, K = 1..K_star
        b_star = b[-1]
        b_hat = -ca * float(target.gradient(x))
        e = np.abs(b - b_star)
        e_hat = abs(b_hat - b_star)
        per_point[i] = 1 + int(np.argmin(np.abs(e - e_hat)))  # first min: smallest K
    valid = per_point[~np.isnan(per_point)]
    if valid.size == 0:
        raise DriftOverflowError(grid, math.inf)
    return KappaResult(float(np.mean(valid)), per_point, skipped)
