"""Euler-Maruyama chains driven by symmetric alpha-stable noise.

One step is X_n = X_{n-1} + eta_n * drift(X_{n-1}) + eta_n**(1/alpha) * L_n
with L_n a standard SaS(alpha) vector. The drift is dispatched per the
configured variant; the weighted running average
(1/H_N) sum_n eta_n g(X_n) estimates E_pi[g]. run_ensemble steps many 1-D
full-drift chains in lockstep, each bitwise equal to its run_chain.
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
    "schedule_eta",
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
        if not self.a > 0.0:
            raise ValueError(f"a must be positive, got {self.a}")
        if not (0.5 < self.b <= 1.0):
            raise ValueError(f"b must lie in (0.5, 1], got {self.b}")


@dataclass(frozen=True)
class Constant:
    eta: float

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")


Schedule = Union[Polynomial, Constant]


def schedule_eta(schedule: Schedule, n: int) -> float:
    """Step size for the n-th update, n >= 1."""
    if n < 1:
        raise ValueError("step index starts at 1")
    if isinstance(schedule, Polynomial):
        return (schedule.a / n) ** schedule.b
    return schedule.eta


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
    accumulators: dict              # name -> sum of eta_n * g(x_n), every step
    estimates: dict                 # name -> accumulator / H_N
    final_state: np.ndarray
    snapshots: list = field(default_factory=list)  # (n, {name: estimate}) at records


def _streams(seed: int):
    # separate noise and minibatch streams so a drift change never shifts
    # the noise sequence
    noise_ss, batch_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(noise_ss), np.random.default_rng(batch_ss)


def _drift_fn(config: SamplerConfig, target: Target, batch_rng) -> Callable:
    """Returns drift(x, n) per the configured variant."""
    spec = config.drift_spec
    alpha = config.alpha
    if isinstance(spec, FullCentered):
        if target.dim != 1:
            raise ValueError("the full drift needs a one-dimensional target")
        return lambda x, n: full_drift(target, x, spec, alpha)
    ca = c_alpha(alpha)
    if config.minibatch_size is None:
        return lambda x, n: -ca * target.gradient(x)
    n_omega = config.minibatch_size
    if n_omega == target.data_size:
        # full batch: enumerate rather than resample, which makes the
        # estimator coincide with the exact gradient term for term
        full = Minibatch(np.arange(target.data_size), target.data_size)
        return lambda x, n: -ca * sg_gradient(target, x, full)
    return lambda x, n: -ca * sg_gradient(
        target, x, draw_minibatch(target.data_size, n_omega, batch_rng))


def run_chain(config: SamplerConfig, target: Target,
              test_functions: Union[Mapping[str, Callable], Sequence[Callable], None] = None,
              snapshot_estimates: bool = False) -> Trace:
    """Run the configured number of steps and accumulate the estimators.

    The noise for the whole chain is drawn from the noise substream as one
    block up front (identical in law to per-step draws). Estimator
    accumulators update on every step with the post-update state; the
    record stride only thins the stored trajectory.
    """
    if config.minibatch_size is not None and target.data_size <= 0:
        raise ValueError("minibatch configured but target has no data terms")
    if target.dim == 1 and np.size(config.initial_state) != 1:
        raise ValueError(
            f"1-D target needs a scalar initial state, got "
            f"{np.size(config.initial_state)} values")
    if isinstance(test_functions, Mapping):
        gs = dict(test_functions)
    elif test_functions is None:
        gs = {}
    else:
        gs = {f"g{i}": g for i, g in enumerate(test_functions)}

    noise_rng, batch_rng = _streams(config.seed)
    N, D = config.iterations, target.dim
    noise = sample_sas_vector(StableNoise(config.alpha, 1.0), N * D,
                              noise_rng).reshape(N, D)
    etas = _eta_array(config.schedule, N)
    eta_roots = etas ** (1.0 / config.alpha)
    drift = _drift_fn(config, target, batch_rng)

    rec_n, rec_x, rec_eta, snapshots = [], [], [], []
    acc = {name: 0.0 for name in gs}
    H = 0.0

    scalar = D == 1
    x = float(np.asarray(config.initial_state).reshape(-1)[0]) if scalar \
        else np.asarray(config.initial_state, dtype=float).reshape(D).copy()
    try:
        for i in range(N):
            n = i + 1
            eta = float(etas[i])
            b = drift(x, n)
            if scalar:
                x = x + eta * float(b) + float(eta_roots[i]) * float(noise[i, 0])
                if not math.isfinite(x) or abs(x) > _DIVERGENCE_BOUND:
                    raise ChainFailure(config.seed, n, x, "divergence")
            else:
                x = x + eta * np.asarray(b, float) + eta_roots[i] * noise[i]
                if not np.all(np.isfinite(x)) or np.any(np.abs(x) > _DIVERGENCE_BOUND):
                    raise ChainFailure(config.seed, n, x, "divergence")
            H += eta
            for name, g in gs.items():
                acc[name] = acc[name] + eta * g(x)
            if n % config.record_stride == 0:
                rec_n.append(n)
                rec_eta.append(eta)
                rec_x.append(x if scalar else x.copy())
                if snapshot_estimates:
                    snapshots.append((n, {k: v / H for k, v in acc.items()}))
    except ArithmeticError as e:
        # numerical failure (drift overflow, float overflow, division by
        # zero) is a chain outcome; anything else is a programming error
        raise ChainFailure(config.seed, n, x, e) from e

    states = np.asarray(rec_x, dtype=float).reshape(len(rec_n), D)
    return Trace(
        iterations=np.asarray(rec_n, dtype=int),
        states=states,
        etas=np.asarray(rec_eta, dtype=float),
        H_N=H,
        accumulators=acc,
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
    noise = np.empty((len(configs), N))
    for r, c in enumerate(configs):  # row by row: no second copy of the block
        noise[r] = sample_sas_vector(StableNoise(alpha, 1.0), N, _streams(c.seed)[0])
    etas = _eta_array(c0.schedule, N)
    eta_roots = etas ** (1.0 / alpha)
    out, live = [None] * len(configs), np.ones(len(configs), dtype=bool)
    acc, H = np.zeros(len(configs)), 0.0
    for i in range(N):
        if not live.any():
            break
        n = i + 1
        eta = float(etas[i])
        b, ell_star = full_drift_rows(target, x, steps, weights, h_gamma)
        for r in np.flatnonzero(live & ~np.isfinite(b)).tolist():
            out[r] = ChainFailure(configs[r].seed, n, float(x[r]),
                                  DriftOverflowError(float(x[r]), float(ell_star[r])))
        live &= np.isfinite(b)
        x = x + eta * b + eta_roots[i] * noise[:, i]
        diverged = live & (~np.isfinite(x) | (np.abs(x) > _DIVERGENCE_BOUND))
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
