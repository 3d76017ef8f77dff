"""Chain mechanics: schedules, update composition, estimator accounting,
stream discipline, and failure reporting."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from flmc import sampler, stable
from flmc.drift import DriftOverflowError, FullCentered, Simplified, full_drift
from flmc.riesz import c_alpha
from flmc.sampler import (ChainFailure, Constant, Polynomial, SamplerConfig,
                          _eta_array, _increments, _streams, repeat_seeds,
                          run_chain, run_ensemble, summarize_repeats)
from flmc.stable import StableNoise, sample_sas_vector
from flmc.targets import (Minibatch, Target, double_well_target, draw_minibatch,
                          gaussian_target, sg_gradient, synthetic_mf_target)

DW = double_well_target()
FLAT = Target(dim=1, potential=lambda v: 0.0, gradient=lambda v: 0.0)


def _cfg(**kw):
    base = dict(alpha=1.8, drift_spec=Simplified(),
                schedule=Polynomial(1e-5, 0.6), iterations=200, seed=0)
    base.update(kw)
    return SamplerConfig(**base)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ValueError):
        Polynomial(0.0, 0.6)
    with pytest.raises(ValueError):
        Polynomial(1e-5, 0.5)
    with pytest.raises(ValueError):
        Polynomial(1e-5, 1.01)
    with pytest.raises(ValueError):
        Constant(0.0)


def test_polynomial_first_step_value():
    eta_1 = _eta_array(Polynomial(1e-7, 0.6), 1)[0]
    assert eta_1 == pytest.approx(6.3096e-5, rel=1e-4)
    assert eta_1 == pytest.approx((1e-7) ** 0.6, rel=1e-12)


def test_polynomial_decreasing_with_divergent_sums():
    sched = Polynomial(1e-3, 0.6)
    etas = _eta_array(sched, 5000)
    assert np.all(np.diff(etas) < 0.0)
    # partial sums keep growing: H(5000) well beyond 2x H(500)
    assert etas.sum() > 2.0 * etas[:500].sum()


def test_constant_schedule_flat():
    etas = _eta_array(Constant(0.01), 999)
    assert etas.shape == (999,)
    assert np.all(etas == 0.01)


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------

def test_step_uses_indexed_step_size():
    # zero drift isolates the noise term: x_n - x_{n-1} = eta_n^(1/alpha) * L_n
    # with eta_n the n-th entry of the schedule's step sizes and L_n the n-th
    # draw of the chain's noise substream
    N = 5
    cfg = _cfg(alpha=1.5, schedule=Polynomial(1e-3, 0.7), iterations=N, seed=11)
    trace = run_chain(cfg, FLAT)
    noise_ss, _ = np.random.SeedSequence(11).spawn(2)
    L = sample_sas_vector(StableNoise(1.5, 1.0), N, np.random.default_rng(noise_ss))
    roots = _eta_array(cfg.schedule, N) ** (1.0 / 1.5)
    assert np.all(np.diff(roots) < 0.0)  # a per-step value, not one eta
    x = 0.0
    for n in range(1, N + 1):
        x = x + float(roots[n - 1]) * float(L[n - 1])
        assert trace.states[n - 1, 0] == x


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(alpha=1.0)
    with pytest.raises(ValueError):
        _cfg(alpha=2.5)
    with pytest.raises(ValueError):
        _cfg(iterations=0)
    with pytest.raises(ValueError):
        _cfg(record_stride=0)
    with pytest.raises(ValueError):
        _cfg(minibatch_size=0)
    with pytest.raises(ValueError):
        _cfg(minibatch_size=4, drift_spec=FullCentered(0.06, 10))


def test_minibatch_needs_data_terms():
    with pytest.raises(ValueError):
        run_chain(_cfg(minibatch_size=4), DW)


def test_scalar_target_rejects_vector_initial_state():
    with pytest.raises(ValueError, match="scalar initial state"):
        run_chain(_cfg(initial_state=[1.0, 2.0, 3.0]), DW)
    # a one-element vector is still a scalar start
    a = run_chain(_cfg(initial_state=[1.0]), DW)
    b = run_chain(_cfg(initial_state=1.0), DW)
    assert np.array_equal(a.states, b.states)


# ---------------------------------------------------------------------------
# run_chain
# ---------------------------------------------------------------------------

def test_constant_test_function_normalizes_exactly():
    trace = run_chain(_cfg(iterations=500), DW, {"one": lambda x: 1.0})
    assert trace.estimates["one"] == 1.0


def test_H_is_total_step_mass():
    cfg = _cfg(iterations=777, record_stride=50)
    trace = run_chain(cfg, DW)
    assert trace.H_N == pytest.approx(_eta_array(cfg.schedule, 777).sum(), rel=1e-12)


def test_record_stride_thins_storage_not_dynamics():
    cfg_full = _cfg(iterations=300, record_stride=1)
    cfg_thin = _cfg(iterations=300, record_stride=50)
    t_full = run_chain(cfg_full, DW, {"id": lambda x: x})
    t_thin = run_chain(cfg_thin, DW, {"id": lambda x: x})
    assert len(t_thin.iterations) == 6
    assert t_thin.iterations.tolist() == [50, 100, 150, 200, 250, 300]
    # same dynamics and estimator, fewer stored states
    assert t_thin.estimates["id"] == t_full.estimates["id"]
    assert np.array_equal(t_thin.states[:, 0], t_full.states[49::50, 0])
    assert np.array_equal(t_thin.final_state, t_full.final_state)


def test_test_functions_name_their_estimates():
    trace = run_chain(_cfg(iterations=50), DW,
                      {"g0": lambda x: x, "g1": lambda x: x * x})
    assert set(trace.estimates) == {"g0", "g1"}


def test_snapshots_track_running_estimates():
    cfg = _cfg(iterations=100, record_stride=25)
    trace = run_chain(cfg, DW, {"id": lambda x: x}, snapshot_estimates=True)
    assert [n for n, _ in trace.snapshots] == [25, 50, 75, 100]
    assert trace.snapshots[-1][1]["id"] == trace.estimates["id"]


def test_alpha_two_chain_equals_hand_rolled_ula():
    # same noise stream, same arithmetic: the chain at the Gaussian order
    # must reproduce a hand-written unadjusted Langevin loop bitwise
    t = gaussian_target(0.0, 1.0)
    N = 50
    cfg = SamplerConfig(alpha=2.0, drift_spec=Simplified(), schedule=Constant(0.05),
                        iterations=N, seed=77, initial_state=3.0)
    trace = run_chain(cfg, t, {"id": lambda x: x})
    noise_ss, _ = np.random.SeedSequence(77).spawn(2)
    noise = sample_sas_vector(StableNoise(2.0, 1.0), N,
                              np.random.default_rng(noise_ss)).reshape(N, 1)
    etas = np.full(N, 0.05)
    roots = etas ** (1.0 / 2.0)
    x = 3.0
    xs = []
    for i in range(N):
        b = -1.0 * t.gradient(x)
        x = x + float(etas[i]) * float(b) + float(roots[i]) * float(noise[i, 0])
        xs.append(x)
    assert np.array_equal(trace.states[:, 0], np.asarray(xs))
    assert trace.final_state[0] == x


def test_zero_drift_increments_are_rescaled_stable_noise():
    alpha, eta, N = 1.5, 0.04, 4000
    cfg = SamplerConfig(alpha=alpha, drift_spec=Simplified(),
                        schedule=Constant(eta), iterations=N, seed=5)
    trace = run_chain(cfg, FLAT)
    xs = np.concatenate([[0.0], trace.states[:, 0]])
    incr = np.diff(xs) / eta ** (1.0 / alpha)
    ref = sample_sas_vector(StableNoise(alpha, 1.0), N, np.random.default_rng(999))
    assert ks_2samp(incr, ref).pvalue > 0.01


def test_gaussian_weighted_mean_small_over_seeds(sequential_repeats):
    # ten chains on the standard Gaussian: the seed-averaged weighted
    # estimate of E[x] sits near zero even though any one chain wanders
    cfg = SamplerConfig(alpha=2.0, drift_spec=Simplified(),
                        schedule=Polynomial(1e-3, 0.6), iterations=200_000, seed=42)
    summary = _checked_repeats(sequential_repeats, cfg, gaussian_target(0.0, 1.0),
                               lambda x: x, repeats=10, truth=0.0)
    assert summary.n_failed == 0
    assert abs(np.mean(summary.estimates)) < 0.05


def test_full_drift_chain_runs():
    cfg = SamplerConfig(alpha=1.7, drift_spec=FullCentered(0.06, 30),
                        schedule=Polynomial(1e-7, 0.6), iterations=200, seed=1)
    trace = run_chain(cfg, DW, {"id": lambda x: x})
    assert np.all(np.isfinite(trace.states))


def test_vector_chain_shapes():
    t = gaussian_target(np.zeros(3), 1.0)
    cfg = SamplerConfig(alpha=1.9, drift_spec=Simplified(), schedule=Constant(0.01),
                        iterations=120, seed=4, record_stride=40,
                        initial_state=np.array([1.0, 2.0, 3.0]))
    trace = run_chain(cfg, t)
    assert trace.states.shape == (3, 3)
    assert trace.final_state.shape == (3,)


def test_divergence_reports_context():
    # constant-potential target never pulls back; huge start trips the guard
    cfg = SamplerConfig(alpha=2.0, drift_spec=Simplified(), schedule=Constant(0.01),
                        iterations=10, seed=21, initial_state=2e12)
    with pytest.raises(ChainFailure) as exc:
        run_chain(cfg, FLAT)
    assert exc.value.seed == 21
    assert exc.value.n == 1
    assert exc.value.cause == "divergence"


def test_heavy_tail_jumps_exceed_gaussian_jumps():
    # median over 20 paired seeds of the largest single-step move:
    # heavy-tailed noise jumps farther on the same schedule
    def max_jump(alpha, seed):
        cfg = SamplerConfig(alpha=alpha, drift_spec=Simplified(),
                            schedule=Polynomial(1e-7, 0.6), iterations=10_000,
                            seed=seed)
        trace = run_chain(cfg, DW)
        xs = np.concatenate([[0.0], trace.states[:, 0]])
        return np.max(np.abs(np.diff(xs)))

    seeds = range(20)
    heavy = np.median([max_jump(1.5, s) for s in seeds])
    gauss = np.median([max_jump(2.0, s) for s in seeds])
    assert heavy > gauss


# ---------------------------------------------------------------------------
# stochastic-gradient variant
# ---------------------------------------------------------------------------

def test_full_enumeration_minibatch_reproduces_exact_chain():
    t = synthetic_mf_target(6, 5, 2, seed=3)
    x0 = np.zeros(t.dim)
    kw = dict(alpha=1.6, schedule=Constant(1e-3), iterations=300, seed=8,
              initial_state=x0, record_stride=30)
    exact = run_chain(SamplerConfig(drift_spec=Simplified(), **kw), t)
    sg = run_chain(SamplerConfig(drift_spec=Simplified(),
                                 minibatch_size=t.data_size, **kw), t)
    assert np.array_equal(exact.states, sg.states)
    assert np.array_equal(exact.final_state, sg.final_state)


def test_subsampled_chain_differs_but_tracks():
    t = synthetic_mf_target(6, 5, 2, seed=3)
    kw = dict(alpha=2.0, schedule=Constant(1e-3), iterations=400, seed=8,
              initial_state=np.zeros(t.dim))
    exact = run_chain(SamplerConfig(drift_spec=Simplified(), **kw), t,
                      {"U": t.potential})
    sg = run_chain(SamplerConfig(drift_spec=Simplified(),
                                 minibatch_size=max(1, t.data_size // 4), **kw), t,
                   {"U": t.potential})
    assert not np.array_equal(exact.final_state, sg.final_state)
    # same noise stream, so both settle at comparable potential levels
    assert abs(exact.estimates["U"] - sg.estimates["U"]) < 0.5 * abs(exact.estimates["U"])


# ---------------------------------------------------------------------------
# repeats
# ---------------------------------------------------------------------------

def test_repeat_seeds_deterministic_and_distinct():
    s1 = repeat_seeds(7, 10)
    s2 = repeat_seeds(7, 10)
    assert s1 == s2
    assert len(set(s1)) == 10
    assert repeat_seeds(8, 10) != s1


def _ensemble_repeats(cfg, target, g, repeats, truth, initial_states=None):
    """A sweep cell as the sweeps run it: every repeat of cfg, at the
    seeds and starts _sequential_repeats takes, in one run_ensemble call."""
    starts = [cfg.initial_state] * repeats if initial_states is None else initial_states
    return summarize_repeats(run_ensemble(
        [replace(cfg, seed=s, initial_state=x0) for s, x0 in
         zip(repeat_seeds(cfg.seed, repeats), starts, strict=True)], target, g),
        truth)


def _summary_key(summary):
    return ([v.hex() for v in summary.estimates], summary.mean_abs_bias.hex(),
            summary.se.hex(), summary.n_failed,
            [(r, _outcome_key(e)) for r, e in summary.failures])


def _checked_repeats(sequential_repeats, cfg, target, g, repeats, truth,
                     initial_states=None):
    """The ensemble summary, after checking it bit for bit against the
    sequential reference: estimates, bias, se, and each failure's repeat
    index, seed, step, state and cause."""
    summary = _ensemble_repeats(cfg, target, g, repeats, truth, initial_states)
    want = sequential_repeats(cfg, target, g, repeats, truth, initial_states)
    assert _summary_key(summary) == _summary_key(want)
    return summary


def test_single_repeat_bias_is_plain_error(sequential_repeats):
    cfg = _cfg(iterations=400, seed=3)
    summary = _checked_repeats(sequential_repeats, cfg, DW, lambda x: x,
                               repeats=1, truth=0.25)
    trace = run_chain(replace(cfg, seed=repeat_seeds(3, 1)[0]), DW,
                      {"g": lambda x: x})
    assert summary.mean_abs_bias == abs(trace.estimates["g"] - 0.25)
    assert summary.se == 0.0


def test_same_base_seed_same_summary(sequential_repeats):
    cfg = _cfg(iterations=300)
    a = _checked_repeats(sequential_repeats, cfg, DW, lambda x: x, repeats=4,
                         truth=0.0)
    b = _ensemble_repeats(cfg, DW, lambda x: x, repeats=4, truth=0.0)
    assert _summary_key(a) == _summary_key(b)


def test_failed_repeats_excluded_with_count(sequential_repeats):
    cfg = SamplerConfig(alpha=2.0, drift_spec=Simplified(), schedule=Constant(0.01),
                        iterations=50, seed=13)
    summary = _checked_repeats(sequential_repeats, cfg, FLAT, lambda x: x,
                               repeats=3, truth=0.0,
                               initial_states=[0.0, 2e12, 1.0])
    assert summary.n_failed == 1
    assert len(summary.estimates) == 2
    assert summary.failures[0][0] == 1
    assert isinstance(summary.failures[0][1], ChainFailure)
    assert np.isfinite(summary.mean_abs_bias)


def test_programming_error_propagates_from_repeats():
    # only numerical failure counts as a failed repeat; a broken test
    # function must raise instead of becoming n_failed=3 and a NaN bias
    def broken(x):
        return x.no_such_attribute

    with pytest.raises(AttributeError):
        _ensemble_repeats(_cfg(iterations=20), DW, broken, repeats=3, truth=0.0)


def test_drift_overflow_becomes_chain_failure():
    cfg = SamplerConfig(alpha=1.7, drift_spec=FullCentered(0.06, 170),
                        schedule=Constant(0.01), iterations=5, seed=2,
                        initial_state=40.0)
    with pytest.raises(ChainFailure) as exc:
        run_chain(cfg, DW)
    assert exc.value.n == 1
    assert isinstance(exc.value.cause, DriftOverflowError)


def test_all_failed_gives_nan_summary(sequential_repeats):
    cfg = SamplerConfig(alpha=2.0, drift_spec=Simplified(), schedule=Constant(0.01),
                        iterations=50, seed=13, initial_state=2e12)
    summary = _checked_repeats(sequential_repeats, cfg, FLAT, lambda x: x,
                               repeats=2, truth=0.0)
    assert summary.n_failed == 2
    assert np.isnan(summary.mean_abs_bias)


def test_repeats_validation():
    with pytest.raises(ValueError):
        repeat_seeds(0, 0)


def test_mode_trapping_bias_scale(m_star, sequential_repeats):
    # Gaussian-driven chains started at the origin commit to one well for
    # the whole run: the weighted mean lands a well-width away from truth
    cfg = SamplerConfig(alpha=2.0, drift_spec=Simplified(),
                        schedule=Polynomial(1e-5, 0.51), iterations=50_000, seed=42)
    summary = _checked_repeats(sequential_repeats, cfg, DW, lambda x: x,
                               repeats=10, truth=m_star)
    assert summary.n_failed == 0
    assert 2.0 < summary.mean_abs_bias < 4.0


# ---------------------------------------------------------------------------
# lockstep full-drift ensemble
# ---------------------------------------------------------------------------

def _chain_outcome(cfg):
    try:
        return run_chain(cfg, DW, {"g": lambda x: x}).estimates["g"]
    except ChainFailure as e:
        return e


def _outcome_key(v):
    # an estimate by its bits; a failure by seed, step, state and cause
    if isinstance(v, ChainFailure):
        return ("failed", v.seed, v.n, v.state.hex(), type(v.cause).__name__,
                str(v.cause))
    return ("ok", v.hex())


def _ensemble_matches_chains(cfgs):
    got = [_outcome_key(v) for v in run_ensemble(cfgs, DW, lambda x: x)]
    want = [_outcome_key(_chain_outcome(c)) for c in cfgs]
    assert got == want
    return want


def test_ensemble_matches_chains_through_both_failures():
    # at this setting rows overflow and rows diverge, at different steps,
    # beside surviving rows: frozen rows must not touch live ones
    cfgs = [SamplerConfig(alpha=1.2, drift_spec=FullCentered(h, 5),
                          schedule=Constant(0.02), iterations=60, seed=seed,
                          initial_state=x0)
            for h in (0.1, 0.5) for seed in range(4) for x0 in (-4.0, 0.0, 3.9)]
    keys = _ensemble_matches_chains(cfgs)
    kinds = {k[4] if k[0] == "failed" else "ok" for k in keys}
    assert kinds == {"ok", "str", "DriftOverflowError"}
    assert len({k[2] for k in keys if k[0] == "failed"}) > 1


_SCHEDULES = st.one_of(
    st.builds(Polynomial, st.sampled_from((1e-7, 1e-5, 1e-3)),
              st.sampled_from((0.51, 0.6, 0.9))),
    st.builds(Constant, st.sampled_from((0.002, 0.02, 0.05, 0.1))))


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1.05, 1.95), K=st.integers(1, 20), schedule=_SCHEDULES,
       iterations=st.integers(1, 80),
       chains=st.lists(st.tuples(st.sampled_from((0.01, 0.03, 0.06, 0.1, 0.5)),
                                 st.integers(0, 2**32 - 1),
                                 st.floats(-4.0, 4.0)),
                       min_size=1, max_size=8))
def test_ensemble_equals_run_chain(alpha, K, schedule, iterations, chains):
    _ensemble_matches_chains(
        [SamplerConfig(alpha=alpha, drift_spec=FullCentered(h, K),
                       schedule=schedule, iterations=iterations, seed=seed,
                       initial_state=x0) for h, seed, x0 in chains])


def test_ensemble_validation():
    cfg = SamplerConfig(alpha=1.7, drift_spec=FullCentered(0.06, 5),
                        schedule=Constant(0.01), iterations=10, seed=0)
    for other in (SamplerConfig(alpha=1.7, drift_spec=FullCentered(0.06, 6),
                                schedule=Constant(0.01), iterations=10, seed=0),
                  SamplerConfig(alpha=1.7, drift_spec=Simplified(),
                                schedule=Constant(0.01), iterations=10, seed=0)):
        with pytest.raises(ValueError, match="ensemble"):
            run_ensemble([cfg, other], DW, lambda x: x)
    gauss = SamplerConfig(alpha=2.0, drift_spec=FullCentered(0.06, 5),
                          schedule=Constant(0.01), iterations=10, seed=0)
    with pytest.raises(ValueError, match="ensemble"):
        run_ensemble([gauss], DW, lambda x: x)
    assert run_ensemble([], DW, lambda x: x) == []


# diverging: eta * U'' near a well is 3 to 10, well past 2
_DIVERGING = st.builds(Constant, st.sampled_from((0.3, 1.0)))


@settings(max_examples=80, deadline=None)
@given(chains=st.lists(st.tuples(st.one_of(st.floats(1.05, 1.99), st.just(2.0)),
                                 st.one_of(_SCHEDULES, _DIVERGING),
                                 st.integers(0, 2**32 - 1),
                                 st.one_of(st.floats(-4.5, 4.5),
                                           st.sampled_from((-1e200, 1e200)))),
                       min_size=1, max_size=8),
       iterations=st.integers(1, 60), chunk=st.sampled_from((1, 7, 1024)))
def test_simplified_ensemble_equals_run_chain(chains, iterations, chunk):
    # each row has its own alpha, schedule, seed and start; a start of
    # +-1e200 overflows U' to inf on the first step, as on a Python float
    with mock.patch.object(sampler, "_NOISE_CHUNK", chunk):
        _ensemble_matches_chains(
            [SamplerConfig(alpha=alpha, drift_spec=Simplified(),
                           schedule=schedule, iterations=iterations, seed=seed,
                           initial_state=x0)
             for alpha, schedule, seed, x0 in chains])


def test_ensembles_match_chains_across_noise_chunks():
    # 2 100 steps cross two chunk boundaries; rows diverge in the first
    # chunk while the rest run on, and full-drift rows may differ in
    # schedule as well as h
    simplified = [SamplerConfig(alpha=alpha, drift_spec=Simplified(),
                                schedule=schedule, iterations=2100, seed=seed,
                                initial_state=x0)
                  for alpha in (1.3, 1.7, 2.0)
                  for schedule in (Constant(0.002), Polynomial(1e-5, 0.6),
                                   Constant(1.0))
                  for seed, x0 in ((0, -3.6), (1, 3.6))]
    keys = _ensemble_matches_chains(simplified)
    assert {k[0] for k in keys} == {"ok", "failed"}
    assert all(k[2] < 1024 for k in keys if k[0] == "failed")
    full = [SamplerConfig(alpha=1.6, drift_spec=FullCentered(h, 5),
                          schedule=schedule, iterations=2100, seed=seed,
                          initial_state=-3.6)
            for h in (0.06, 0.1) for schedule in (Constant(0.002),
                                                  Polynomial(1e-7, 0.6))
            for seed in (2, 3)]
    _ensemble_matches_chains(full)


def test_ensemble_noise_is_held_a_chunk_at_a_time():
    # 50 chains x 50 000 steps: one whole noise block is 20 MB, and its W
    # as much again while drawn; the ensemble holds a chunk per chain
    cfgs = [SamplerConfig(alpha=1.7, drift_spec=Simplified(),
                          schedule=Constant(0.002), iterations=50_000, seed=s,
                          initial_state=-3.6) for s in range(50)]
    tracemalloc.start()
    try:
        run_ensemble(cfgs, DW, lambda x: x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_trajectory_is_recorded_into_arrays():
    # a stride-1 1-D chain of 50 000 steps keeps 1.2 MB (states, iterations,
    # etas); a list of recorded Python floats, then its array, took over
    # 4 MB, and the chain's whole noise block 0.8 MB more
    cfg = SamplerConfig(alpha=1.7, drift_spec=Simplified(),
                        schedule=Constant(0.002), iterations=50_000, seed=0,
                        initial_state=-3.6)
    run_chain(replace(cfg, iterations=10), DW)  # first-call imports and caches
    tracemalloc.start()
    try:
        trace = run_chain(cfg, DW, {"x": lambda x: x})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = trace.states.nbytes + trace.iterations.nbytes + trace.etas.nbytes
    assert kept == 1_200_000
    assert peak < 1.5 * kept


# ---------------------------------------------------------------------------
# chunked noise stream
# ---------------------------------------------------------------------------

def _whole_block(config, dim):
    # the increments as they were drawn before chunking: the whole (N, dim)
    # block of SaS draws, scaled in place by the whole etas column
    N, noise_rng = config.iterations, _streams(config.seed)[0]
    jumps = sample_sas_vector(StableNoise(config.alpha, 1.0), N * dim,
                              noise_rng).reshape(N, dim)
    etas = _eta_array(config.schedule, N)
    jumps *= (etas ** (1.0 / config.alpha))[:, None]
    return etas, jumps


def _chunked_block(config, dim, rows):
    with mock.patch.object(sampler, "_NOISE_CHUNK", rows):
        chunks = list(_increments(config, _streams(config.seed)[0], dim))
    N = config.iterations
    assert [e.size for e, _ in chunks] == [min(rows, N - lo)
                                           for lo in range(0, N, rows)]
    assert all(j.shape == (e.size, dim) for e, j in chunks)
    return (np.concatenate([e for e, _ in chunks]),
            np.concatenate([j for _, j in chunks]))


def _assert_same_blocks(config, dim, rows):
    etas, jumps = _chunked_block(config, dim, rows)
    want_etas, want_jumps = _whole_block(config, dim)
    assert etas.tobytes() == want_etas.tobytes()
    assert jumps.tobytes() == want_jumps.tobytes()


@settings(max_examples=80, deadline=None)
@given(alpha=st.one_of(st.floats(1.05, 1.99), st.just(2.0)), schedule=_SCHEDULES,
       iterations=st.integers(1, 400), dim=st.sampled_from((1, 3)),
       seed=st.integers(0, 2**32 - 1),
       rows=st.sampled_from(("1", "7", "N-1", "N", "N+1")))
def test_chunked_increments_equal_whole_block(alpha, schedule, iterations, dim,
                                             seed, rows):
    rows = {"1": 1, "7": 7, "N-1": max(1, iterations - 1), "N": iterations,
            "N+1": iterations + 1}[rows]
    _assert_same_blocks(_cfg(alpha=alpha, schedule=schedule,
                             iterations=iterations, seed=seed), dim, rows)


@pytest.mark.parametrize("rows", [1, 7, 500])
@pytest.mark.parametrize("dim", [1, 3])
def test_chunked_increments_edge_fallback(monkeypatch, rows, dim):
    # an edge of 1.0 clamps about a third of V: the chunked stream still
    # equals the whole block
    monkeypatch.setattr(stable, "_V_EDGE", 1.0)
    _assert_same_blocks(_cfg(iterations=500, seed=3), dim, rows)


@settings(max_examples=40, deadline=None)
@given(case=st.tuples(st.sampled_from(sorted({"double-well", "gaussian-3d", "mf"})),
                      st.integers(0, 2**32 - 1), st.integers(1, 90),
                      st.integers(1, 20), st.sampled_from((1, 7, 32))))
def test_run_chain_chunks_move_no_bit(case):
    # run_chain against the whole-block reference with the chain's noise
    # split at 1, 7 or 32 steps
    name, seed, iterations, stride, chunk = case
    target = _REFERENCE_TARGETS[name]
    cfg = SamplerConfig(alpha=1.6, drift_spec=Simplified(),
                        schedule=Polynomial(1e-3, 0.6), iterations=iterations,
                        seed=seed, initial_state=np.zeros(target.dim)
                        if target.dim > 1 else -3.6, record_stride=stride,
                        minibatch_size=4 if name == "mf" else None)
    gs = {"x": lambda x: x}
    with mock.patch.object(sampler, "_NOISE_CHUNK", chunk):
        got = _chain_run(cfg, target, gs, True)
    assert _run_key(got) == _run_key(_reference_run_chain(cfg, target, gs, True))


def test_full_drift_needs_one_dimensional_target():
    cfg = SamplerConfig(alpha=1.7, drift_spec=FullCentered(0.06, 5),
                        schedule=Constant(0.01), iterations=5, seed=0,
                        initial_state=np.zeros(2))
    with pytest.raises(ValueError, match="one-dimensional"):
        run_chain(cfg, gaussian_target(np.zeros(2), 1.0))


# ---------------------------------------------------------------------------
# one step body against the two-branch reference
# ---------------------------------------------------------------------------

def _reference_drift(config, target, batch_rng):
    # the drift callables as run_chain had them, step index and all
    spec, alpha = config.drift_spec, config.alpha
    if isinstance(spec, FullCentered):
        return lambda x, n: full_drift(target, x, spec, alpha)
    ca = c_alpha(alpha)
    if config.minibatch_size is None:
        return lambda x, n: -ca * target.gradient(x)
    n_omega = config.minibatch_size
    if n_omega == target.data_size:
        full = Minibatch(np.arange(target.data_size), target.data_size)
        return lambda x, n: -ca * sg_gradient(target, x, full)
    return lambda x, n: -ca * sg_gradient(
        target, x, draw_minibatch(target.data_size, n_omega, batch_rng))


def _reference_run_chain(config, target, gs, snapshot_estimates):
    # run_chain as it was written with a scalar and a vector branch, each
    # with its own update and divergence test, recording n, eta and a copy
    # of x at every stride; returns a Trace-like tuple or the ChainFailure
    noise_ss, batch_ss = np.random.SeedSequence(config.seed).spawn(2)
    noise_rng, batch_rng = np.random.default_rng(noise_ss), np.random.default_rng(batch_ss)
    N, D = config.iterations, target.dim
    noise = sample_sas_vector(StableNoise(config.alpha, 1.0), N * D,
                              noise_rng).reshape(N, D)
    etas = _eta_array(config.schedule, N)
    eta_roots = etas ** (1.0 / config.alpha)
    drift = _reference_drift(config, target, batch_rng)
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
                if not math.isfinite(x) or abs(x) > 1e12:
                    return ChainFailure(config.seed, n, x, "divergence")
            else:
                x = x + eta * np.asarray(b, float) + eta_roots[i] * noise[i]
                if not np.all(np.isfinite(x)) or np.any(np.abs(x) > 1e12):
                    return ChainFailure(config.seed, n, x, "divergence")
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
        return ChainFailure(config.seed, n, x, e)
    states = np.asarray(rec_x, dtype=float).reshape(len(rec_n), D)
    return (np.asarray(rec_n, dtype=int), states, np.asarray(rec_eta, dtype=float),
            H, {k: v / H for k, v in acc.items()},
            np.atleast_1d(np.asarray(x, dtype=float)), snapshots)


def _bits(v):
    # a float by its hex, an array by dtype, shape and bytes
    if isinstance(v, np.ndarray):
        return (v.dtype.str, v.shape, v.tobytes())
    return float(v).hex()


def _estimate_bits(est):
    return {k: _bits(v) for k, v in est.items()}


def _run_key(run):
    if isinstance(run, ChainFailure):
        return ("failed", run.seed, run.n, _bits(np.asarray(run.state)),
                type(run.cause).__name__, str(run.cause))
    iterations, states, etas, H, est, final, snaps = run
    return ("ok", _bits(iterations), _bits(states), _bits(etas), _bits(H),
            _estimate_bits(est), _bits(final),
            [(n, _estimate_bits(e)) for n, e in snaps])


def _chain_run(cfg, target, gs, snapshot_estimates):
    try:
        t = run_chain(cfg, target, gs, snapshot_estimates=snapshot_estimates)
    except ChainFailure as e:
        return e
    return (t.iterations, t.states, t.etas, t.H_N, t.estimates, t.final_state,
            t.snapshots)


_MF = synthetic_mf_target(3, 4, 1, seed=2)
_REFERENCE_TARGETS = {
    "double-well": DW,
    "gaussian-1d": gaussian_target(0.5, 2.0),
    "gaussian-2d": gaussian_target(np.array([1.0, -1.0]), 0.5),
    "gaussian-3d": gaussian_target(np.zeros(3), 1.0),
    "mf": _MF,
}


@st.composite
def _reference_cases(draw):
    name = draw(st.sampled_from(sorted(_REFERENCE_TARGETS)))
    target = _REFERENCE_TARGETS[name]
    D = target.dim
    kw = {}
    if D == 1:
        drift = draw(st.sampled_from(["simplified", "full"]))
        gs = {"x": lambda x: x, "x2": lambda x: x * x}
        # starts out to 40 reach the full drift's overflow
        x0 = draw(st.sampled_from([0.0, -3.6, 2.5, 40.0]))
    else:
        drift = draw(st.sampled_from(["simplified", "minibatch"] if name == "mf"
                                     else ["simplified"]))
        gs = {"x": lambda x: x, "sq": lambda x: float(x @ x)}
        x0 = np.asarray(draw(st.lists(st.floats(-5.0, 5.0), min_size=D, max_size=D)))
    if drift == "full":
        kw["drift_spec"] = FullCentered(draw(st.sampled_from([0.03, 0.1, 0.5])),
                                        draw(st.integers(1, 10)))
    else:
        kw["drift_spec"] = Simplified()
    if drift == "minibatch":
        kw["minibatch_size"] = draw(st.sampled_from([1, 4, _MF.data_size]))
    cfg = SamplerConfig(
        alpha=draw(st.one_of(st.floats(1.05, 1.99), st.just(2.0))),
        schedule=draw(st.one_of(
            st.builds(Polynomial, st.sampled_from((1e-7, 1e-3, 1e-1)),
                      st.sampled_from((0.51, 0.7, 1.0))),
            st.builds(Constant, st.sampled_from((0.002, 0.02, 0.1, 0.5, 5.0))))),
        iterations=draw(st.integers(1, 120)), seed=draw(st.integers(0, 2**32 - 1)),
        initial_state=x0, record_stride=draw(st.integers(1, 40)), **kw)
    return cfg, target, gs, draw(st.booleans())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # chains that overflow
@settings(max_examples=150, deadline=None)
@given(case=_reference_cases())
def test_run_chain_equals_two_branch_reference(case):
    cfg, target, gs, snap = case
    assert _run_key(_chain_run(cfg, target, gs, snap)) == _run_key(
        _reference_run_chain(cfg, target, gs, snap))


def test_reference_cases_reach_every_outcome():
    # the property above sees surviving, diverging and overflowing chains
    # on both the scalar and the vector path
    cases = [
        (SamplerConfig(alpha=1.5, drift_spec=Simplified(), schedule=Constant(0.02),
                       iterations=50, seed=1, initial_state=-3.6, record_stride=7),
         DW),
        (SamplerConfig(alpha=1.2, drift_spec=Simplified(), schedule=Constant(0.5),
                       iterations=100, seed=3, initial_state=2.5), DW),
        (SamplerConfig(alpha=1.7, drift_spec=FullCentered(0.1, 5),
                       schedule=Constant(0.02), iterations=5, seed=0,
                       initial_state=40.0), DW),
        (SamplerConfig(alpha=1.6, drift_spec=Simplified(), schedule=Constant(0.002),
                       iterations=60, seed=4, initial_state=np.zeros(_MF.dim),
                       minibatch_size=4, record_stride=9), _MF),
        (SamplerConfig(alpha=1.3, drift_spec=Simplified(), schedule=Constant(5.0),
                       iterations=120, seed=5, initial_state=np.ones(3)),
         _REFERENCE_TARGETS["gaussian-3d"]),
    ]
    kinds = []
    for cfg, target in cases:
        gs = {"x": lambda x: x}
        got = _chain_run(cfg, target, gs, True)
        assert _run_key(got) == _run_key(_reference_run_chain(cfg, target, gs, True))
        kinds.append(_run_key(got)[4] if isinstance(got, ChainFailure) else "ok")
    assert kinds == ["ok", "str", "DriftOverflowError", "ok", "str"]


def test_nan_coordinate_fails_vector_chain_at_that_step():
    # one coordinate of a 2-D state turns NaN at step 3; the other stays
    # finite, and the chain fails with "divergence" at that step
    calls = []

    def grad(v):
        calls.append(1)
        return np.array([0.0, math.nan if len(calls) == 3 else 0.0])

    t = Target(dim=2, potential=lambda v: 0.0, gradient=grad)
    cfg = SamplerConfig(alpha=1.8, drift_spec=Simplified(), schedule=Constant(0.01),
                        iterations=10, seed=6, initial_state=np.zeros(2))
    with pytest.raises(ChainFailure) as exc:
        run_chain(cfg, t)
    assert exc.value.n == 3
    assert exc.value.cause == "divergence"
    assert math.isnan(exc.value.state[1]) and math.isfinite(exc.value.state[0])
