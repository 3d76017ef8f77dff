"""Euler-Maruyama chains driven by symmetric alpha-stable noise.

One step is X_n = X_{n-1} + eta_n * drift(X_{n-1}) + eta_n**(1/alpha) * L_n
with L_n a standard SaS(alpha) vector. The drift is dispatched per the
configured variant; the weighted running average
(1/H_N) sum_n eta_n g(X_n) estimates E_pi[g].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .drift import FullCentered, Reference, Simplified, full_drift, full_drift_multi
from .riesz import c_alpha
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
    drift_spec: Union[Simplified, FullCentered, Reference]
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


def _check_minibatch(config: SamplerConfig, target: Target):
    if config.minibatch_size is not None and target.data_size <= 0:
        raise ValueError("minibatch configured but target has no data terms")


def _drift_fn(config: SamplerConfig, target: Target, batch_rng) -> Callable:
    """Returns drift(x, n) per the configured variant."""
    spec = config.drift_spec
    alpha = config.alpha
    if isinstance(spec, Reference):
        spec = spec.as_full()
    if isinstance(spec, FullCentered):
        if target.dim == 1:
            return lambda x, n, s=spec: full_drift(target, x, s, alpha)
        return lambda x, n, s=spec: full_drift_multi(target, x, s, alpha)
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


def _guard(state, n, seed):
    arr = np.asarray(state)
    if not np.all(np.isfinite(arr)) or np.any(np.abs(arr) > _DIVERGENCE_BOUND):
        raise ChainFailure(seed, n, state, "divergence")


def run_chain(config: SamplerConfig, target: Target,
              test_functions: Union[Mapping[str, Callable], Sequence[Callable], None] = None,
              snapshot_estimates: bool = False) -> Trace:
    """Run the configured number of steps and accumulate the estimators.

    The noise for the whole chain is drawn from the noise substream as one
    block up front (identical in law to per-step draws). Estimator
    accumulators update on every step with the post-update state; the
    record stride only thins the stored trajectory.
    """
    _check_minibatch(config, target)
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
                _guard(x, n, config.seed)
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
    return [int(s) for s in
            np.random.SeedSequence(base_seed).generate_state(repeats, np.uint64)]


def run_repeats(config: SamplerConfig, target: Target, g: Callable,
                repeats: int, truth: float,
                initial_states: Optional[Sequence] = None) -> RepeatSummary:
    """Independent repeats of one configuration, summarized against a truth.

    Seeds derive deterministically from config.seed. Failed repeats are
    excluded from the summary and reported with a count. initial_states
    optionally overrides the configured initial state per repeat.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if initial_states is not None and len(initial_states) != repeats:
        raise ValueError("initial_states must have one entry per repeat")
    estimates, failures = [], []
    for r, seed in enumerate(repeat_seeds(config.seed, repeats)):
        cfg = replace(config, seed=seed)
        if initial_states is not None:
            cfg = replace(cfg, initial_state=initial_states[r])
        try:
            trace = run_chain(cfg, target, {"g": g})
        except ChainFailure as e:
            failures.append((r, e))
            continue
        estimates.append(trace.estimates["g"])
    if estimates:
        errs = np.abs(np.asarray(estimates, dtype=float) - truth)
        bias = float(np.mean(errs))
        se = float(np.std(errs, ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
    else:
        bias, se = math.nan, math.nan
    return RepeatSummary(estimates=estimates, mean_abs_bias=bias, se=se,
                         failures=failures, n_failed=len(failures))
