"""Independent numerical reference: quadrature expectations under exp(-U).

Nothing here is used by the sampling code itself. The quadrature is a plain
adaptive Simpson rule, deliberately separate from the discretized operators
it checks, and every integral is computed twice at different starting
resolutions; disagreement beyond 10x the tolerance raises instead of
returning a silently wrong reference value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .targets import Target

__all__ = [
    "QuadratureError",
    "SupportError",
    "QuadratureSpec",
    "adaptive_simpson",
    "quadrature_expectation",
]


class QuadratureError(RuntimeError):
    """Refinement stalled or the two-resolution cross-check failed."""


class SupportError(ValueError):
    """The integrand has non-negligible mass at the interval endpoints."""


@dataclass(frozen=True)
class QuadratureSpec:
    lo: float = -10.0
    hi: float = 10.0
    tolerance: float = 1e-10
    max_refinement_depth: int = 60

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _recurse(f, a, fa, b, fb, m, fm, whole, tol, depth, max_depth):
    if depth > max_depth:
        raise QuadratureError(f"adaptive refinement stalled on [{a}, {b}]")
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = tol / 2.0
    return (_recurse(f, a, fa, m, fm, lm, flm, left, half, depth + 1, max_depth)
            + _recurse(f, m, fm, b, fb, rm, frm, right, half, depth + 1, max_depth))


def _integrate_once(f, spec, panels):
    edges = np.linspace(spec.lo, spec.hi, panels + 1)
    vals = [f(float(x)) for x in edges]
    tol = spec.tolerance / panels
    total = 0.0
    for i in range(panels):
        a, b = float(edges[i]), float(edges[i + 1])
        m, fm, whole = _simpson(f, a, vals[i], b, vals[i + 1])
        total += _recurse(f, a, vals[i], b, vals[i + 1], m, fm, whole,
                          tol, 0, spec.max_refinement_depth)
    return total


def adaptive_simpson(f: Callable, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integrate f over spec's interval, cross-checked at two resolutions."""
    coarse = _integrate_once(f, spec, 8)
    fine = _integrate_once(f, spec, 16)
    if abs(coarse - fine) > 10.0 * spec.tolerance * max(1.0, abs(fine)):
        raise QuadratureError(
            f"resolutions disagree: {coarse!r} vs {fine!r} "
            f"(tol={spec.tolerance})")
    return fine


def quadrature_expectation(target: Target, g: Callable,
                           spec: QuadratureSpec = QuadratureSpec()) -> float:
    """E[g(X)] for X with density proportional to exp(-U) on the interval.

    Refuses intervals that truncate visible mass: exp(-U) at each endpoint
    must be below 1e-16 of the peak over the interval.
    """
    if target.dim != 1:
        raise ValueError("quadrature_expectation handles 1D targets only")
    U = target.potential
    scan = np.linspace(spec.lo, spec.hi, 4001)
    u_min = min(float(U(x)) for x in scan)
    for edge in (spec.lo, spec.hi):
        if math.exp(-(float(U(edge)) - u_min)) > 1e-16:
            raise SupportError(
                f"exp(-U) not negligible at endpoint {edge}; widen the interval")

    def w(x):
        return math.exp(-(float(U(x)) - u_min))

    z = adaptive_simpson(w, spec)
    num = adaptive_simpson(lambda x: g(x) * w(x), spec)
    return num / z
