"""Euler-Maruyama chains driven by symmetric alpha-stable noise.

One step is X_n = X_{n-1} + eta_n * drift(X_{n-1}) + eta_n**(1/alpha) * L_n
with L_n a standard SaS(alpha) vector, written once for 1-D and vector
states; the weighted running average (1/H_N) sum_n eta_n g(X_n) estimates
E_pi[g]. A chain's noise is drawn a chunk of steps at a time. run_ensemble
steps many 1-D chains in lockstep, each bitwise equal to its run_chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .drift import (DriftOverflowError, FullCentered, Simplified, full_drift,
                    full_drift_rows)
from .riesz import build_stencil, c_alpha
from .stable import StableNoise, sas_chunks
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
_NOISE_CHUNK = 1024  # steps of noise a chain holds at a time


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


def _eta_array(schedule: Schedule, n_steps: int, start: int = 0) -> np.ndarray:
    """Step sizes of steps start+1 .. n_steps."""
    n = np.arange(start + 1, n_steps + 1, dtype=float)
    if isinstance(schedule, Polynomial):
        return (schedule.a / n) ** schedule.b
    return np.full(n.size, schedule.eta)


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
    """Step sizes eta_n and increments eta_n**(1/alpha) * L_n, yielded as
    (etas, jumps) for _NOISE_CHUNK steps at a time, jumps of shape
    (steps, dim) scaled in place: bit for bit the rows of the whole
    (N, dim) block of SaS draws scaled by the whole etas column."""
    N, alpha, rows = config.iterations, config.alpha, _NOISE_CHUNK
    draws = sas_chunks(StableNoise(alpha, 1.0), N * dim, noise_rng, rows * dim)
    for lo, L in zip(range(0, N, rows), draws):
        etas = _eta_array(config.schedule, min(lo + rows, N), lo)
        jumps = L.reshape(etas.size, dim)
        jumps *= (etas ** (1.0 / alpha))[:, None]
        yield etas, jumps


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

    The noise is drawn from the noise substream _NOISE_CHUNK steps at a
    time (identical in law to per-step draws, and bit for bit the rows of
    one whole-chain block). Estimator accumulators update on every step
    with the post-update state; the record stride only thins the stored
    trajectory, which is written into an array sized up front.
    """
    if config.minibatch_size is not None and target.data_size <= 0:
        raise ValueError("minibatch configured but target has no data terms")
    N, D, stride = config.iterations, target.dim, config.record_stride
    x = np.asarray(config.initial_state, dtype=float)
    if D == 1 and x.size != 1:
        raise ValueError(f"1-D target needs a scalar initial state, got {x.size} values")
    gs = dict(test_functions or {})
    noise_rng, batch_rng = _streams(config.seed)
    drift = _drift_fn(config, target, batch_rng)
    iterations = np.arange(stride, N + 1, stride)
    states, rec_etas = np.empty((iterations.size, D)), np.empty(iterations.size)
    rec_eta = memoryview(rec_etas)
    # a Python float step costs a fraction of a size-1 array step; iterating
    # a memoryview yields one Python float at a time, and writing one into
    # a memoryview stores it with no float object kept
    if D == 1:
        x, rec, size = x.item(), memoryview(states[:, 0]), abs
        rows = lambda jumps: memoryview(jumps[:, 0])
    else:
        x, rec, rows = x.reshape(D), states, iter
        size = lambda v: np.abs(v).max()  # NaN propagates

    snapshots, steps = [], itertools.count(1)
    acc = {name: 0.0 for name in gs}
    H = 0.0
    try:
        for etas, jumps in _increments(config, noise_rng, D):
            # steps last: zip stops on the chunk's end before taking a count
            for eta, jump, n in zip(memoryview(etas), rows(jumps), steps):
                x = x + eta * drift(x) + jump
                if not size(x) <= _DIVERGENCE_BOUND:  # NaN and inf fail it too
                    raise ChainFailure(config.seed, n, x, "divergence")
                H += eta
                for name, g in gs.items():
                    acc[name] = acc[name] + eta * g(x)
                if n % stride == 0:
                    i = n // stride - 1
                    rec[i], rec_eta[i] = x, eta
                    if snapshot_estimates:
                        snapshots.append((n, {k: v / H for k, v in acc.items()}))
    except ArithmeticError as e:
        # numerical failure (drift overflow, float overflow, division by
        # zero) is a chain outcome; anything else is a programming error
        raise ChainFailure(config.seed, n, x, e) from e

    return Trace(
        iterations=iterations,
        states=states,
        etas=rec_etas,
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
    """One-dimensional chains in lockstep, one per config.

    The configs share iterations, and either all take the simplified drift
    or all take the full drift with one alpha < 2 and one K; each has its
    own seed, schedule and initial state, and its own alpha or h. Entry r
    is the estimate of g that run_chain(configs[r], target, {"g": g})
    returns, bit for bit, or the ChainFailure it raises (same step, state
    and cause). Each step evaluates every chain's drift at once, as
    -c_alpha * U'(x) on the (R,) state or on one (R, 2K+1) stencil table;
    g and the target's potential and gradient must act elementwise on
    arrays, rounding as they do on Python floats. Each chain's noise comes
    _NOISE_CHUNK steps at a time from its own stream.
    """
    if not configs:
        return []
    c0 = configs[0]
    simplified = all(isinstance(c.drift_spec, Simplified) for c in configs)
    full = (c0.alpha < 2.0
            and all(isinstance(c.drift_spec, FullCentered) for c in configs)
            and len({(c.alpha, c.drift_spec.K) for c in configs}) == 1)
    if (target.dim != 1 or not (simplified or full)
            or len({c.iterations for c in configs}) != 1
            or any(c.minibatch_size is not None for c in configs)):
        raise ValueError("an ensemble runs 1-D chains that share iterations: "
                         "simplified-drift chains, or full-drift chains that "
                         "share alpha < 2 and K")
    N, R = c0.iterations, len(configs)
    if simplified:
        neg_ca = np.array([-c_alpha(c.alpha) for c in configs])
        drift = lambda x: (neg_ca * target.gradient(x), None)
    else:
        sts = [build_stencil(c0.alpha - 2.0, c.drift_spec.h, c0.drift_spec.K)
               for c in configs]
        steps = np.stack([st.offsets * st.h for st in sts])
        weights = np.stack([st.weights for st in sts])
        h_gamma = np.array([st.h**st.gamma for st in sts])
        drift = lambda x: full_drift_rows(target, x, steps, weights, h_gamma)
    x = np.array([np.asarray(c.initial_state, dtype=float).item()
                  for c in configs])
    streams = [_increments(c, _streams(c.seed)[0]) for c in configs]
    etas, jumps = np.zeros((_NOISE_CHUNK, R)), np.zeros((_NOISE_CHUNK, R))
    out, live = [None] * R, np.ones(R, dtype=bool)
    acc, H, n = np.zeros(R), np.zeros(R), 0
    # a failing row's overflow, inf or NaN is its outcome, recorded below
    with np.errstate(all="ignore"):
        for lo in range(0, N, _NOISE_CHUNK):
            if not live.any():
                break
            m = min(_NOISE_CHUNK, N - lo)
            # a failed row draws no more noise and idles on stale finite
            # columns at a finite state, unread
            for r in np.flatnonzero(live).tolist():
                eta_r, jump_r = next(streams[r])
                etas[:m, r], jumps[:m, r] = eta_r, jump_r[:, 0]
            for eta, jump in zip(etas[:m], jumps[:m]):
                n += 1
                b, ell_star = drift(x)
                if ell_star is not None and not np.isfinite(b).all():
                    over = live & ~np.isfinite(b)
                    for r in np.flatnonzero(over).tolist():
                        out[r] = ChainFailure(configs[r].seed, n, float(x[r]),
                                              DriftOverflowError(float(x[r]),
                                                                 float(ell_star[r])))
                    live &= ~over
                b *= eta  # x + eta * b + jump, in b's fresh buffer
                b += x
                b += jump
                x = b
                if not np.abs(x).max() <= _DIVERGENCE_BOUND:
                    ok = np.abs(x) <= _DIVERGENCE_BOUND
                    for r in np.flatnonzero(live & ~ok).tolist():
                        out[r] = ChainFailure(configs[r].seed, n, float(x[r]),
                                              "divergence")
                    live &= ok
                    x[~live] = 0.0
                H += eta
                acc += eta * g(x)
    estimates = (acc / H).tolist()
    for r in np.flatnonzero(live).tolist():
        out[r] = estimates[r]
    return out
