"""Euler-Maruyama chains driven by symmetric alpha-stable noise.

One step is X_n = X_{n-1} + eta_n * drift(X_{n-1}) + eta_n**(1/alpha) * L_n
with L_n a standard SaS(alpha) vector, written once for 1-D and vector
states; the weighted running average (1/H_N) sum_n eta_n g(X_n) estimates
E_pi[g]. A chain's noise is drawn a piece of steps at a time. run_ensemble
steps many 1-D chains in lockstep, each bitwise equal to its run_chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import stable
from .drift import (DriftOverflowError, FullCentered, Simplified, full_drift,
                    full_drift_rows)
from .riesz import build_stencil, c_alpha
from .stable import StableNoise, sas_rows, vw_stream
from .targets import Target, draw_minibatch, sg_gradient

__all__ = [
    "Polynomial",
    "Constant",
    "SamplerConfig",
    "Trace",
    "ChainFailure",
    "run_chain",
    "run_ensemble",
    "summarize_repeats",
    "RepeatSummary",
]

_DIVERGENCE_BOUND = 1e12
_NOISE_CHUNK = 1024  # most steps of noise a chain holds at a time
_ROW_ADD_WIDTH = 256  # values per row from which _carry's row adds win


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
    estimate: Optional[np.ndarray]  # sum of eta_n * g(x_n) / H_N; None without g
    running: Optional[np.ndarray]   # the estimate at each recorded step
    final_state: np.ndarray


def _streams(seed: int):
    # separate noise and minibatch streams so a drift change never shifts
    # the noise sequence
    noise_ss, batch_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(noise_ss), np.random.default_rng(batch_ss)


def _increments(alpha: float, schedule: Schedule, draws, L: np.ndarray,
                lo: int, m: int):
    """Step sizes of steps lo+1 .. lo+m, an (m,) array, and the increments
    eta_n**(1/alpha) * L_n of k chains that share alpha and schedule,
    written into L, a C-contiguous (k, m * dim) block: row i takes the
    next m * dim draws of draws[i], a vw_stream draw, all rows mapped by
    one stable transform and scaled in place. Row i is bit for bit rows
    lo .. lo+m of chain i's whole (N, dim) block of SaS draws scaled by
    its whole etas column."""
    sas_rows(StableNoise(alpha, 1.0), draws, L)
    etas = _eta_array(schedule, lo + m, lo)
    L.reshape(L.shape[0], m, -1)[...] *= (etas ** (1.0 / alpha))[:, None]
    return etas, L


def _carry(B: np.ndarray, c):
    """B's rows summed in place from the carried sum c: row i becomes
    c + B[0] + ... + B[i], in order, by row adds on rows of _ROW_ADD_WIDTH
    values or more, else by one accumulate down axis 0 (the same bits)."""
    B[0] += c
    if B[0].size >= _ROW_ADD_WIDTH:
        for i in range(1, len(B)):
            B[i] += B[i - 1]
    else:
        np.add.accumulate(B, axis=0, out=B)
    return B


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
        # full batch: enumerate rather than resample, in the exact gradient's
        # order, which makes the estimator coincide with it term for term
        full = np.arange(n_omega) if target.full_batch is None else target.full_batch
        grad = lambda x: sg_gradient(target, x, full)
    else:
        grad = lambda x: sg_gradient(
            target, x, draw_minibatch(target.data_size, n_omega, batch_rng))
    ca, cast = c_alpha(config.alpha), float if target.dim == 1 else np.asarray
    return lambda x: -ca * cast(grad(x))


def run_chain(config: SamplerConfig, target: Target,
              g: Optional[Callable] = None) -> Trace:
    """Run the configured number of steps and accumulate the estimator of g.

    The noise is drawn from the noise substream a piece at a time, of at
    most _NOISE_CHUNK steps and at most stable._CHUNK draws (one step at
    least), so a chain's noise memory is bounded in draws whatever its
    dimension; each piece is bit for bit its rows of one whole-chain block,
    drawn, mapped and scaled into one piece-sized block reused throughout.
    A step stores x + eta * drift(x) + jump in the row whose increment it
    took. Once per piece, a scan finds the first state past the bound, then
    g takes the piece's states, (m,) on a 1-D target and (m, D) otherwise,
    and returns a row per state (trailing axes hold several functions);
    _carry sums eta_n * g(x_n) and the step sizes down the rows, as in
    run_ensemble. The chain fails at the first step whose drift
    raises an ArithmeticError (at the state before it) or whose state
    passes the bound; an error of g's is its own.
    """
    if config.minibatch_size is not None and target.data_size <= 0:
        raise ValueError("minibatch configured but target has no data terms")
    N, D, stride = config.iterations, target.dim, config.record_stride
    x = np.asarray(config.initial_state, dtype=float)
    if D == 1 and x.size != 1:
        raise ValueError(f"1-D target needs a scalar initial state, got {x.size} values")
    # a Python float step costs a fraction of a size-1 array step
    x = x.item() if D == 1 else x.reshape(D)
    noise_rng, batch_rng = _streams(config.seed)
    drift = _drift_fn(config, target, batch_rng)
    iterations = np.arange(stride, N + 1, stride)
    states, rec_etas = np.empty((iterations.size, D)), np.empty(iterations.size)
    acc, running, H = 0.0, None, 0.0
    draw = vw_stream(noise_rng, N * D)
    piece = min(_NOISE_CHUNK, max(1, stable._CHUNK // D), N)
    block = np.empty(piece * D)
    for lo in range(0, N, piece):
        m = min(piece, N - lo)
        etas, jumps = _increments(config.alpha, config.schedule, [draw],
                                  block[:m * D].reshape(1, -1), lo, m)
        X = jumps.reshape(m, D)
        # iterating a memoryview yields Python floats, and writing one in keeps
        # no float object; a vector state is copied into its row, which failures report
        E, S = memoryview(etas), memoryview(jumps[0]) if D == 1 else X
        k, err = m, None
        with np.errstate(all="ignore"):  # steps past a failure are discarded
            try:
                for i, eta, jump in zip(range(m), E, S):
                    x = x + eta * drift(x) + jump
                    S[i] = x
            except ArithmeticError as e:  # numerical failure is a chain outcome
                k, err = i, e
        ok = np.abs(X[:k]).max(axis=1) <= _DIVERGENCE_BOUND  # NaN fails it
        if not ok.all():
            d = int(ok.argmin())
            raise ChainFailure(config.seed, lo + d + 1, S[d], "divergence")
        if err is not None:  # unless an earlier state failed first
            raise ChainFailure(config.seed, lo + k + 1, x, err) from err
        first = (-lo - 1) % stride  # the piece's first recorded row
        recs = slice(lo // stride, (lo + m) // stride)
        states[recs], rec_etas[recs] = X[first::stride], etas[first::stride]
        Hs = _carry(etas.copy(), H)  # H at each step
        H = float(Hs[-1])
        if g is not None:
            G = np.asarray(g(X[:, 0] if D == 1 else X))
            col = (-1,) + (1,) * (G.ndim - 1)  # broadcasts one value per row
            G = _carry(G * etas.reshape(col), acc)
            acc = G[-1].copy()
            if running is None:
                running = np.empty(iterations.shape + G.shape[1:])
            running[recs] = G[first::stride] / Hs[first::stride].reshape(col)
            del G  # not held through the next piece's steps
    return Trace(iterations, states, rec_etas, H,
                 None if g is None else acc / H, running,
                 np.atleast_1d(np.asarray(x, dtype=float)))


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


def run_ensemble(configs: Sequence[SamplerConfig], target: Target,
                 g: Callable) -> list:
    """One-dimensional chains in lockstep, one per config.

    The configs share iterations and take no minibatch; each has its own
    seed, alpha, drift, schedule and initial state. Entry r is
    run_chain(configs[r], target, g).estimate, bit for bit, or the
    ChainFailure it raises (same step, state and cause). Stencil rows, the
    full drift at alpha < 2, step together, and so do gradient rows,
    -c_alpha * U'(x): the simplified drift, and the full drift at alpha = 2,
    -U'(x), as -c_alpha(2.0) is -1.0.
    """
    if (target.dim != 1 or len({c.iterations for c in configs}) > 1
            or any(c.minibatch_size is not None for c in configs)):
        raise ValueError("an ensemble runs 1-D chains that share iterations "
                         "and take no minibatch")
    kinds = [isinstance(c.drift_spec, FullCentered) and c.alpha < 2.0
             for c in configs]
    out = [None] * len(configs)
    for kind in set(kinds):
        rows = [r for r, k in enumerate(kinds) if k == kind]
        for r, v in zip(rows, _lockstep([configs[r] for r in rows], target, g, kind)):
            out[r] = v
    return out


def _lockstep(configs: Sequence[SamplerConfig], target: Target, g: Callable,
              stencil: bool) -> list:
    """run_ensemble's outcomes for rows of one kind.

    Each step evaluates every row's drift at once, on the (R,) state or,
    for stencil rows, on one (R, 2K+1) table of the widest K, each row
    its own alpha, h and K stencil, and writes x + eta * drift + jump into
    a row of an (m, R) block, with no check. A narrower row's pad nodes,
    x - 0.0 = x at weight 0.0, keep its ell* and add +-0 terms that sort
    first onto the sum's +0.0: the same bits. The rest is done once per
    chunk of m <= _NOISE_CHUNK steps: the one failure scan finds each
    live chain's first state past the bound, and g takes the (m, R)
    block, a row per step as in run_chain, whose eta_n * g(x_n) and step
    sizes _carry sums down each column. A non-finite drift makes its
    step's state non-finite, so that state is the chain's first event: a
    full-drift chain whose full_drift at the state before it overflows
    failed there with DriftOverflowError, as in run_chain, and any other
    chain diverged. g and the target's potential and gradient must act
    elementwise on arrays, rounding as they do on Python floats. Each
    chain's noise comes _NOISE_CHUNK steps at a time from its own stream,
    one _increments call per chunk for the chains of one alpha and
    schedule.
    """
    N, R = configs[0].iterations, len(configs)
    if stencil:
        sts = [build_stencil(c.alpha - 2.0, c.drift_spec.h, c.drift_spec.K)
               for c in configs]
        steps, weights = np.zeros((2, R, max(st.steps.size for st in sts)))
        for r, st in enumerate(sts):  # narrower rows padded with zeros
            steps[r, :st.steps.size], weights[r, :st.steps.size] = st.steps, st.weights
        h_gamma = np.array([st.h_gamma for st in sts])
        drift = lambda x: full_drift_rows(target, x, steps, weights, h_gamma)[0]
    else:
        neg_ca = np.array([-c_alpha(c.alpha) for c in configs])
        drift = lambda x: neg_ca * target.gradient(x)
    x = np.array([np.asarray(c.initial_state, dtype=float).item()
                  for c in configs])
    draws = [vw_stream(_streams(c.seed)[0], N) for c in configs]
    groups = {}  # chains that share alpha and schedule share their scaling
    for r, c in enumerate(configs):
        groups.setdefault((c.alpha, c.schedule), []).append(r)
    C = min(_NOISE_CHUNK, N)
    etas, jumps, X = np.empty((3, C, R))
    out, live = [None] * R, np.ones(R, dtype=bool)
    acc, H = np.zeros(R), np.zeros(R)
    # a failing row's overflow, inf or NaN is its outcome, recorded below
    with np.errstate(all="ignore"):
        for lo in range(0, N, C):
            if not live.any():
                break
            m, x_in = min(C, N - lo), x
            E, J, Xm = etas[:m], jumps[:m], X[:m]
            # a failed row draws no more noise and idles at 0 on zeroed
            # columns, unread
            for (alpha, schedule), rows in groups.items():
                rows = [r for r in rows if live[r]]
                if not rows:
                    continue
                # the draws go through X, free until the steps
                eta, L = _increments(alpha, schedule, [draws[r] for r in rows],
                                     X.reshape(-1)[:len(rows) * m].reshape(-1, m),
                                     lo, m)
                E[:, rows], J[:, rows] = eta[:, None], L.T
            for eta, jump, xn in zip(E, J, Xm):
                np.multiply(drift(x), eta, xn)  # x + eta * b + jump, into X's row
                xn += x
                xn += jump
                x = xn
            # each live row's first state past the bound; a full-drift row
            # whose drift overflows at the state before it failed there
            ok = np.abs(Xm, out=J) <= _DIVERGENCE_BOUND
            for r in np.flatnonzero(live & ~ok.all(axis=0)).tolist():
                k, c = int(np.argmin(ok[:, r])), configs[r]
                state, cause = float(Xm[k, r]), "divergence"
                if isinstance(c.drift_spec, FullCentered):
                    prev = float(Xm[k - 1, r] if k else x_in[r])
                    try:
                        full_drift(target, prev, c.drift_spec, c.alpha)
                    except DriftOverflowError as e:
                        state, cause = prev, e
                out[r] = ChainFailure(c.seed, lo + k + 1, state, cause)
                live[r] = False
            acc = _carry(np.multiply(g(Xm), E, out=J), acc)[-1].copy()
            H = _carry(E, H)[-1].copy()
            x = Xm[-1].copy()
            if not live.all():
                x[~live], etas[:, ~live], jumps[:, ~live] = 0.0, 0.0, 0.0
    estimates = (acc / H).tolist()
    for r in np.flatnonzero(live).tolist():
        out[r] = estimates[r]
    return out
