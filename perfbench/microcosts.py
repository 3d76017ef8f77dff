"""Fixed-size calls into one public function of each layer, timed alone.

Each figure is the median over several repeats, so one slow repeat (another
process taking the core) does not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from flmc import drift, oracle, riesz, stable, targets
from workloads import BIAS_ALPHA as DRIFT_ALPHA, DRIFT_KS, KAPPA_H as DRIFT_H

DRIFT_POINTS = tuple(np.linspace(-4.0, 4.0, 17))


def _median_seconds(fn, repeats, calls=1):
    """Median over `repeats` of the time of `calls` back-to-back calls, per call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def measure(mf_shape) -> dict:
    out = {}
    rng = np.random.default_rng(0)
    noise = stable.StableNoise(1.7, 1.0)
    out["stable.draws_per_s"] = 1e6 / _median_seconds(
        lambda: stable.sample_sas_vector(noise, 1_000_000, rng), 5)

    out["riesz.build_stencil_us"] = 1e6 * _median_seconds(
        lambda: riesz.build_stencil(DRIFT_ALPHA - 2.0, DRIFT_H, 170), 7, 20)

    dw = targets.double_well_target()
    for K in DRIFT_KS:
        spec = drift.FullCentered(DRIFT_H, K)

        def sweep():
            for x in DRIFT_POINTS:
                drift.full_drift(dw, float(x), spec, DRIFT_ALPHA)

        out[f"drift.full_drift_us.K{K}"] = (
            1e6 * _median_seconds(sweep, 7, 2) / len(DRIFT_POINTS))

    grid = np.linspace(-5.0, 5.0, 200)
    out["drift.kappa_points_per_s"] = grid.size / _median_seconds(
        lambda: drift.kappa(dw, DRIFT_ALPHA, DRIFT_H, 170, grid), 5)

    I, J, L = mf_shape
    mf = targets.synthetic_mf_target(I, J, L, seed=0)
    x = rng.standard_normal(mf.dim)
    batch = targets.draw_minibatch(mf.data_size, max(1, mf.data_size // 10), rng)
    out["targets.mf_full_grad_ms"] = 1e3 * _median_seconds(lambda: mf.gradient(x), 9)
    out["targets.mf_minibatch_grad_ms"] = 1e3 * _median_seconds(
        lambda: targets.sg_gradient(mf, x, batch), 9, 5)

    out["oracle.quadrature_ms"] = 1e3 * _median_seconds(
        lambda: oracle.quadrature_expectation(dw, lambda v: v), 7)
    return out
