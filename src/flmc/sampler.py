"""Euler-Maruyama chains driven by symmetric alpha-stable noise.

One step is X_n = X_{n-1} + eta_n * drift(X_{n-1}) + eta_n**(1/alpha) * L_n
with L_n a standard SaS(alpha) vector, written once for 1-D and vector
states; the weighted running average (1/H_N) sum_n eta_n g(X_n) estimates
E_pi[g]. run_ensemble steps many 1-D full-drift chains in lockstep, each
bitwise equal to its run_chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .drift import (DriftOverflowError, FullCentered, Simplified, full_drift,
                    full_drift_rows)
from .riesz import build_stencil, c_alpha
from .stable import StableNoise, sample_sas_vector
from .targets import Minibatch, Target, draw_minibatch, sg_gradient

__all__ = [
    "Polynomial",
    "Constant",
    "SamplerConfig",
    "Trace",
    "ChainFailure",
    "run_chain",
    "run_repeats",
    "run_ensemble",
    "summarize_repeats",
    "RepeatSummary",
]

_DIVERGENCE_BOUND = 1e12


@dataclass(frozen=True)
class Polynomial:
    """eta_n = (a / n) ** b; decreasing with divergent partial sums."""

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"a must be positive and finite, got {self.a}")
        if not (0.5 < self.b <= 1.0):
            raise ValueError(f"b must lie in (0.5, 1], got {self.b}")


@dataclass(frozen=True)
class Constant:
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")


Schedule = Union[Polynomial, Constant]


def _eta_array(schedule: Schedule, n_steps: int) -> np.ndarray:
    n = np.arange(1, n_steps + 1, dtype=float)
    if isinstance(schedule, Polynomial):
        return (schedule.a / n) ** schedule.b
    return np.full(n_steps, schedule.eta)


@dataclass(frozen=True)
class SamplerConfig:
    alpha: float
    drift_spec: Union[Simplified, FullCentered]
    schedule: Schedule
    iterations: int
    seed: int
    initial_state: Union[float, np.ndarray] = 0.0
    minibatch_size: Optional[int] = None
    record_stride: int = 1

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if not np.isfinite(np.asarray(self.initial_state, dtype=float)).all():
            raise ValueError(f"initial_state must be finite, got {self.initial_state}")
        if self.minibatch_size is not None:
            if self.minibatch_size < 1:
                raise ValueError("minibatch_size must be >= 1")
            if not isinstance(self.drift_spec, Simplified):
                raise ValueError(
                    "minibatch gradients only combine with the simplified drift")


class ChainFailure(RuntimeError):
    """A chain aborted; carries where and why."""

    def __init__(self, seed, n, state, cause):
        self.seed = seed
        self.n = n
        self.state = state
        self.cause = cause
        super().__init__(f"chain failed at step {n} (seed {seed}): {cause}")


@dataclass
class Trace:
    iterations: np.ndarray          # recorded step indices
    states: np.ndarray              # (n_recorded, D)
    etas: np.ndarray                # step sizes at the recorded steps
    H_N: float                      # sum of all step sizes, recorded or not
    estimates: dict                 # name -> sum of eta_n * g(x_n) / H_N
    final_state: np.ndarray
    snapshots: list = field(default_factory=list)  # (n, {name: estimate}) at records


def _streams(seed: int):
    # separate noise and minibatch streams so a drift change never shifts
    # the noise sequence
    noise_ss, batch_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(noise_ss), np.random.default_rng(batch_ss)


def _increments(config: SamplerConfig, noise_rng, dim: int = 1):
    """Step sizes eta_n and increments eta_n**(1/alpha) * L_n: the (N, dim) noise
    block, drawn first (the draw's buffers peak) and scaled in place, no copy."""
    N, noise = config.iterations, StableNoise(config.alpha, 1.0)
    jumps = sample_sas_vector(noise, N * dim, noise_rng).reshape(N, dim)
    etas = _eta_array(config.schedule, N)
    jumps *= (etas ** (1.0 / config.alpha))[:, None]
    return etas, jumps


def _drift_fn(config: SamplerConfig, target: Target, batch_rng) -> Callable:
    """Returns drift(x) per the configured variant; a float on a 1-D target."""
    spec, n_omega = config.drift_spec, config.minibatch_size
    if isinstance(spec, FullCentered):
        if target.dim != 1:
            raise ValueError("the full drift needs a one-dimensional target")
        return lambda x: full_drift(target, x, spec, config.alpha)
    if n_omega is None:
        grad = target.gradient
    elif n_omega == target.data_size:
        # full batch: enumerate rather than resample, which makes the
        # estimator coincide with the exact gradient term for term
        full = Minibatch(np.arange(n_omega), n_omega)
        grad = lambda x: sg_gradient(target, x, full)
    else:
        grad = lambda x: sg_gradient(
            target, x, draw_minibatch(target.data_size, n_omega, batch_rng))
    ca, cast = c_alpha(config.alpha), float if target.dim == 1 else np.asarray
    return lambda x: -ca * cast(grad(x))


def run_chain(config: SamplerConfig, target: Target,
              test_functions: Optional[Mapping[str, Callable]] = None,
              snapshot_estimates: bool = False) -> Trace:
    """Run the configured number of steps and accumulate the estimators.

    The noise for the whole chain is drawn from the noise substream as one
    block up front (identical in law to per-step draws). Estimator
    accumulators update on every step with the post-update state; the
    record stride only thins the stored trajectory.
    """
    if config.minibatch_size is not None and target.data_size <= 0:
        raise ValueError("minibatch configured but target has no data terms")
    N, D, stride = config.iterations, target.dim, config.record_stride
    x = np.asarray(config.initial_state, dtype=float)
    if D == 1 and x.size != 1:
        raise ValueError(f"1-D target needs a scalar initial state, got {x.size} values")
    gs = dict(test_functions or {})
    noise_rng, batch_rng = _streams(config.seed)
    etas, jumps = _increments(config, noise_rng, D)
    drift = _drift_fn(config, target, batch_rng)
    # a Python float step costs a fraction of a size-1 array step; iterating
    # a memoryview yields one Python float at a time, with no list held
    if D == 1:
        x, jumps, size = x.item(), memoryview(jumps[:, 0]), abs
    else:
        x, size = x.reshape(D), lambda v: np.abs(v).max()  # NaN propagates

    rec_x, snapshots = [], []
    acc = {name: 0.0 for name in gs}
    H = 0.0
    try:
        for n, eta, jump in zip(range(1, N + 1), memoryview(etas), jumps):
            x = x + eta * drift(x) + jump
            if not size(x) <= _DIVERGENCE_BOUND:  # NaN and inf fail it too
                raise ChainFailure(config.seed, n, x, "divergence")
            H += eta
            for name, g in gs.items():
                acc[name] = acc[name] + eta * g(x)
            if n % stride == 0:
                rec_x.append(x)
                if snapshot_estimates:
                    snapshots.append((n, {k: v / H for k, v in acc.items()}))
    except ArithmeticError as e:
        # numerical failure (drift overflow, float overflow, division by
        # zero) is a chain outcome; anything else is a programming error
        raise ChainFailure(config.seed, n, x, e) from e

    iterations = np.arange(stride, N + 1, stride)
    return Trace(
        iterations=iterations,
        states=np.asarray(rec_x, dtype=float).reshape(iterations.size, D),
        etas=etas[iterations - 1],
        H_N=H,
        estimates={k: v / H for k, v in acc.items()},
        final_state=np.atleast_1d(np.asarray(x, dtype=float)),
        snapshots=snapshots,
    )


@dataclass(frozen=True)
class RepeatSummary:
    estimates: list            # per successful repeat, in repeat order
    mean_abs_bias: float       # mean |estimate - truth| over successes
    se: float                  # sample standard error of |estimate - truth|
    failures: list             # (repeat index, ChainFailure)
    n_failed: int


def repeat_seeds(base_seed: int, repeats: int) -> list:
    """Deterministic per-repeat seeds derived from a base seed."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    return [int(s) for s in
            np.random.SeedSequence(base_seed).generate_state(repeats, np.uint64)]


def summarize_repeats(outcomes: Sequence, truth: float) -> RepeatSummary:
    """Bias summary of per-repeat outcomes, each an estimate or a ChainFailure."""
    estimates = [v for v in outcomes if not isinstance(v, ChainFailure)]
    failures = [(r, v) for r, v in enumerate(outcomes)
                if isinstance(v, ChainFailure)]
    if estimates:
        errs = np.abs(np.asarray(estimates, dtype=float) - truth)
        bias = float(np.mean(errs))
        se = float(np.std(errs, ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
    else:
        bias, se = math.nan, math.nan
    return RepeatSummary(estimates=estimates, mean_abs_bias=bias, se=se,
                         failures=failures, n_failed=len(failures))


def run_repeats(config: SamplerConfig, target: Target, g: Callable,
                repeats: int, truth: float,
                initial_states: Optional[Sequence] = None) -> RepeatSummary:
    """Independent repeats of one configuration, summarized against a truth.

    Seeds derive deterministically from config.seed. Failed repeats are
    excluded from the summary and reported with a count. initial_states
    optionally overrides the configured initial state per repeat. Only the
    estimates are kept, so no trajectory is recorded.
    """
    seeds = repeat_seeds(config.seed, repeats)
    if initial_states is not None and len(initial_states) != repeats:
        raise ValueError("initial_states must have one entry per repeat")
    outcomes = []
    for r, seed in enumerate(seeds):
        cfg = replace(config, seed=seed, record_stride=config.iterations)
        if initial_states is not None:
            cfg = replace(cfg, initial_state=initial_states[r])
        try:
            outcomes.append(run_chain(cfg, target, {"g": g}).estimates["g"])
        except ChainFailure as e:
            outcomes.append(e)
    return summarize_repeats(outcomes, truth)


def run_ensemble(configs: Sequence[SamplerConfig], target: Target,
                 g: Callable) -> list:
    """One-dimensional full-drift chains in lockstep, one per config.

    The configs share alpha < 2, K, schedule and iterations, and differ in
    seed, h and initial state. Entry r is the estimate of g that
    run_chain(configs[r], target, {"g": g}) returns, bit for bit, or the
    ChainFailure it raises (same step, state and cause). Each step
    evaluates every chain's drift on one (R, 2K+1) stencil table; g and
    the target's potential and gradient must act elementwise on arrays.
    """
    if not configs:
        return []
    c0 = configs[0]
    if (target.dim != 1 or c0.alpha == 2.0
            or not all(isinstance(c.drift_spec, FullCentered) for c in configs)
            or len({(c.alpha, c.drift_spec.K, c.schedule, c.iterations)
                    for c in configs}) != 1):
        raise ValueError("an ensemble runs 1-D full-drift chains that share "
                         "alpha < 2, K, schedule and iterations")
    N, alpha = c0.iterations, c0.alpha
    sts = [build_stencil(alpha - 2.0, c.drift_spec.h, c.drift_spec.K)
           for c in configs]
    steps = np.stack([st.offsets * st.h for st in sts])
    weights = np.stack([st.weights for st in sts])
    h_gamma = np.array([st.h**st.gamma for st in sts])
    x = np.array([np.asarray(c.initial_state, dtype=float).item()
                  for c in configs])
    jumps = np.empty((N, len(configs)))
    for r, c in enumerate(configs):  # column by column: no second block
        etas, jumps[:, r:r + 1] = _increments(c, _streams(c.seed)[0])
    out, live = [None] * len(configs), np.ones(len(configs), dtype=bool)
    acc, H = np.zeros(len(configs)), 0.0
    for n, eta, jump in zip(range(1, N + 1), memoryview(etas), jumps):
        if not live.any():
            break
        b, ell_star = full_drift_rows(target, x, steps, weights, h_gamma)
        for r in np.flatnonzero(live & ~np.isfinite(b)).tolist():
            out[r] = ChainFailure(configs[r].seed, n, float(x[r]),
                                  DriftOverflowError(float(x[r]), float(ell_star[r])))
        live &= np.isfinite(b)
        x = x + eta * b + jump
        diverged = live & ~(np.abs(x) <= _DIVERGENCE_BOUND)
        for r in np.flatnonzero(diverged).tolist():
            out[r] = ChainFailure(configs[r].seed, n, float(x[r]), "divergence")
        live &= ~diverged
        x[~live] = 0.0  # a failed chain idles at a finite state, unread
        H += eta
        acc = acc + eta * g(x)
    estimates = (acc / H).tolist()
    for r in np.flatnonzero(live).tolist():
        out[r] = estimates[r]
    return out
