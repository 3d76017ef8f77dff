"""Chain mechanics: schedules, update composition, estimator accounting,
stream discipline, and failure reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from flmc.drift import DriftOverflowError, FullCentered, Simplified
from flmc.sampler import (ChainFailure, Constant, Polynomial, SamplerConfig,
                          _eta_array, repeat_seeds, run_chain, run_ensemble,
                          run_repeats, schedule_eta)
from flmc.stable import StableNoise, sample_sas_vector
from flmc.targets import (Target, double_well_target, gaussian_target,
                          synthetic_mf_target)

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
    with pytest.raises(ValueError):
        schedule_eta(Constant(0.1), 0)


def test_polynomial_first_step_value():
    assert schedule_eta(Polynomial(1e-7, 0.6), 1) == pytest.approx(6.3096e-5, rel=1e-4)
    assert schedule_eta(Polynomial(1e-7, 0.6), 1) == pytest.approx((1e-7) ** 0.6, rel=1e-12)


def test_polynomial_decreasing_with_divergent_sums():
    sched = Polynomial(1e-3, 0.6)
    etas = _eta_array(sched, 5000)
    assert np.all(np.diff(etas) < 0.0)
    # partial sums keep growing: H(5000) well beyond 2x H(500)
    assert etas.sum() > 2.0 * etas[:500].sum()


def test_constant_schedule_flat():
    assert schedule_eta(Constant(0.01), 1) == 0.01
    assert schedule_eta(Constant(0.01), 999) == 0.01


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------

def test_step_uses_indexed_step_size():
    # zero drift isolates the noise term: x_n - x_{n-1} = eta_n^(1/alpha) * L_n
    # with L_n the n-th draw of the chain's noise substream
    N = 5
    cfg = _cfg(alpha=1.5, schedule=Polynomial(1e-3, 0.7), iterations=N, seed=11)
    trace = run_chain(cfg, FLAT)
    noise_ss, _ = np.random.SeedSequence(11).spawn(2)
    L = sample_sas_vector(StableNoise(1.5, 1.0), N, np.random.default_rng(noise_ss))
    x = 0.0
    for n in range(1, N + 1):
        x = x + schedule_eta(cfg.schedule, n) ** (1.0 / 1.5) * float(L[n - 1])
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


def test_sequence_test_functions_get_positional_names():
    trace = run_chain(_cfg(iterations=50), DW, [lambda x: x, lambda x: x * x])
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


def test_gaussian_weighted_mean_small_over_seeds():
    # ten chains on the standard Gaussian: the seed-averaged weighted
    # estimate of E[x] sits near zero even though any one chain wanders
    cfg = SamplerConfig(alpha=2.0, drift_spec=Simplified(),
                        schedule=Polynomial(1e-3, 0.6), iterations=200_000, seed=42)
    summary = run_repeats(cfg, gaussian_target(0.0, 1.0), lambda x: x,
                          repeats=10, truth=0.0)
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


def test_single_repeat_bias_is_plain_error():
    cfg = _cfg(iterations=400, seed=3)
    summary = run_repeats(cfg, DW, lambda x: x, repeats=1, truth=0.25)
    trace = run_chain(SamplerConfig(alpha=cfg.alpha, drift_spec=cfg.drift_spec,
                                    schedule=cfg.schedule, iterations=400,
                                    seed=repeat_seeds(3, 1)[0]),
                      DW, {"g": lambda x: x})
    assert summary.mean_abs_bias == abs(trace.estimates["g"] - 0.25)
    assert summary.se == 0.0


def test_same_base_seed_same_summary():
    cfg = _cfg(iterations=300)
    a = run_repeats(cfg, DW, lambda x: x, repeats=4, truth=0.0)
    b = run_repeats(cfg, DW, lambda x: x, repeats=4, truth=0.0)
    assert a.estimates == b.estimates
    assert a.mean_abs_bias == b.mean_abs_bias


def test_failed_repeats_excluded_with_count():
    cfg = SamplerConfig(alpha=2.0, drift_spec=Simplified(), schedule=Constant(0.01),
                        iterations=50, seed=13)
    summary = run_repeats(cfg, FLAT, lambda x: x, repeats=3, truth=0.0,
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
        run_repeats(_cfg(iterations=20), DW, broken, repeats=3, truth=0.0)


def test_drift_overflow_becomes_chain_failure():
    cfg = SamplerConfig(alpha=1.7, drift_spec=FullCentered(0.06, 170),
                        schedule=Constant(0.01), iterations=5, seed=2,
                        initial_state=40.0)
    with pytest.raises(ChainFailure) as exc:
        run_chain(cfg, DW)
    assert exc.value.n == 1
    assert isinstance(exc.value.cause, DriftOverflowError)


def test_all_failed_gives_nan_summary():
    cfg = SamplerConfig(alpha=2.0, drift_spec=Simplified(), schedule=Constant(0.01),
                        iterations=50, seed=13, initial_state=2e12)
    summary = run_repeats(cfg, FLAT, lambda x: x, repeats=2, truth=0.0)
    assert summary.n_failed == 2
    assert np.isnan(summary.mean_abs_bias)


def test_repeats_validation():
    cfg = _cfg()
    with pytest.raises(ValueError):
        run_repeats(cfg, DW, lambda x: x, repeats=0, truth=0.0)
    with pytest.raises(ValueError):
        run_repeats(cfg, DW, lambda x: x, repeats=2, truth=0.0,
                    initial_states=[0.0])


def test_mode_trapping_bias_scale(m_star):
    # Gaussian-driven chains started at the origin commit to one well for
    # the whole run: the weighted mean lands a well-width away from truth
    cfg = SamplerConfig(alpha=2.0, drift_spec=Simplified(),
                        schedule=Polynomial(1e-5, 0.51), iterations=50_000, seed=42)
    summary = run_repeats(cfg, DW, lambda x: x, repeats=10, truth=m_star)
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


def test_full_drift_needs_one_dimensional_target():
    cfg = SamplerConfig(alpha=1.7, drift_spec=FullCentered(0.06, 5),
                        schedule=Constant(0.01), iterations=5, seed=0,
                        initial_state=np.zeros(2))
    with pytest.raises(ValueError, match="one-dimensional"):
        run_chain(cfg, gaussian_target(np.zeros(2), 1.0))
