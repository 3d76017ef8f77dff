"""Distributional and plumbing tests for the stable noise generator."""

import hashlib
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from flmc import sampler, stable
from flmc.drift import Simplified
from flmc.sampler import Constant, SamplerConfig, run_ensemble
from flmc.stable import StableNoise, sample_sas_vector, sas_rows, vw_stream
from flmc.targets import double_well_target


def test_parameter_validation():
    with pytest.raises(ValueError):
        StableNoise(0.0, 1.0)
    with pytest.raises(ValueError):
        StableNoise(2.5, 1.0)
    with pytest.raises(ValueError):
        StableNoise(1.5, 0.0)
    with pytest.raises(ValueError):
        StableNoise(1.5, -1.0)
    StableNoise(2.0, 1.0)
    StableNoise(0.3, 2.0)


def test_vector_shape_and_validation():
    rng = np.random.default_rng(0)
    out = sample_sas_vector(StableNoise(1.5), 7, rng)
    assert out.shape == (7,)
    with pytest.raises(ValueError):
        sample_sas_vector(StableNoise(1.5), 0, rng)


def test_determinism():
    noise = StableNoise(1.3, 1.0)
    x = sample_sas_vector(noise, 100, np.random.default_rng(7))
    y = sample_sas_vector(noise, 100, np.random.default_rng(7))
    assert np.array_equal(x, y)


def test_gaussian_case_law():
    # alpha=2 with scale sigma is N(0, 2*sigma^2)
    rng = np.random.default_rng(11)
    x = sample_sas_vector(StableNoise(2.0, 1.5), 10**5, rng)
    p = stats.kstest(x, "norm", args=(0.0, 1.5 * math.sqrt(2.0))).pvalue
    assert p > 0.01


def test_cauchy_case_law():
    # alpha=1 reduces to the Cauchy distribution with the matching scale
    rng = np.random.default_rng(12)
    x = sample_sas_vector(StableNoise(1.0, 1.0), 10**5, rng)
    p = stats.kstest(x, "cauchy").pvalue
    assert p > 0.01


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_sum_stability(alpha):
    # X1 + X2 has the same law as 2^(1/alpha) * X
    rng = np.random.default_rng(13)
    n = 10**5
    noise = StableNoise(alpha, 1.0)
    a = sample_sas_vector(noise, n, rng)
    b = sample_sas_vector(noise, n, rng)
    c = sample_sas_vector(noise, n, rng)
    p = stats.ks_2samp(a + b, 2.0 ** (1.0 / alpha) * c).pvalue
    assert p > 0.01


def test_scale_equivariance():
    # sigma enters as a pure scale factor of the same draw
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    x1 = sample_sas_vector(StableNoise(1.6, 1.0), 1000, rng1)
    x3 = sample_sas_vector(StableNoise(1.6, 3.0), 1000, rng2)
    assert np.allclose(3.0 * x1, x3, rtol=1e-12, atol=0.0)


def test_symmetry():
    rng = np.random.default_rng(21)
    x = sample_sas_vector(StableNoise(1.4, 1.0), 10**5, rng)
    p = stats.ks_2samp(x, -x).pvalue
    assert p > 0.01


def test_heavy_tail_frequency():
    # for alpha < 2, P(|X| > t) ~ const * t^(-alpha); Gaussian tails vanish
    rng = np.random.default_rng(31)
    n = 10**5
    x15 = sample_sas_vector(StableNoise(1.5, 1.0), n, rng)
    x20 = sample_sas_vector(StableNoise(2.0, 1.0), n, rng)
    assert np.mean(np.abs(x15) > 10.0) > 50.0 / n
    assert np.mean(np.abs(x20) > 10.0) == 0.0


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.5, 2.0), sigma=st.floats(0.1, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_draws_always_finite(alpha, sigma, seed):
    rng = np.random.default_rng(seed)
    x = sample_sas_vector(StableNoise(alpha, sigma), 256, rng)
    assert np.all(np.isfinite(x))


# sha256 of sample_sas_vector(StableNoise(alpha), 1000, default_rng(12345))
# .tobytes(), computed with the out-of-place transform: any change to the
# transform's arithmetic that moves a bit fails here
_PINNED_SHA256 = {
    1.2: "d7d4296883d504f668126063c156353835e383f661ea0f3de6a15bca43c831f8",
    1.5: "f7da02e457db601c86091fcd260b317a8f4ca3eec57f7f848fe437929fe6dcaf",
    1.7: "7cd1c107c37c4807e23976e6da89deb6584284e19a427dfd1f87d5ebf04d7651",
    2.0: "729320e221075d0bac67f0908e84265c2e220b955ddb2501db5993fbd63156e0",
}


@pytest.mark.parametrize("alpha", sorted(_PINNED_SHA256))
def test_draws_pinned(alpha, pin_note):
    x = sample_sas_vector(StableNoise(alpha), 1000, np.random.default_rng(12345))
    assert hashlib.sha256(x.tobytes()).hexdigest() == _PINNED_SHA256[alpha], pin_note


def _reference_transform(noise, V, W):
    # the out-of-place map: four whole-block buffers, no chunks
    a = noise.alpha
    x = np.multiply(a, V)
    np.sin(x, out=x)
    t = np.cos(V)
    t **= 1.0 / a
    x /= t
    np.multiply(1.0 - a, V, out=t)
    np.cos(t, out=t)
    t /= W
    t **= (1.0 - a) / a
    x *= t
    x *= noise.sigma
    return x


def _reference_draws(noise, n, rng):
    # all of V, then all of W; V clamped to the edge band by np.clip
    V = rng.uniform(-np.pi / 2, np.pi / 2, n)
    W = rng.standard_exponential(n)
    V = np.clip(V, -stable._V_EDGE, stable._V_EDGE)
    return _reference_transform(noise, V, W)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
def test_draws_do_not_depend_on_chunk_size(alpha, monkeypatch):
    n, noise = 200_003, StableNoise(alpha, 1.3)
    ref = _reference_draws(noise, n, np.random.default_rng(77)).tobytes()
    for chunk in (7, n + 1, stable._CHUNK):
        monkeypatch.setattr(stable, "_CHUNK", chunk)
        x = sample_sas_vector(noise, n, np.random.default_rng(77))
        assert x.tobytes() == ref, chunk


def test_edge_clamp_matches_reference(monkeypatch):
    # an edge of 1.0 clamps about a third of V, in 13-draw chunks
    monkeypatch.setattr(stable, "_V_EDGE", 1.0)
    monkeypatch.setattr(stable, "_CHUNK", 13)
    noise = StableNoise(1.5, 1.3)
    V = np.random.default_rng(3).uniform(-np.pi / 2, np.pi / 2, 10_001)
    assert np.count_nonzero(np.abs(V) > 1.0) > 3000
    x = sample_sas_vector(noise, 10_001, np.random.default_rng(3))
    ref = _reference_draws(noise, 10_001, np.random.default_rng(3))
    assert x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("alpha", [1.05, 1.5, 2.0])
def test_transform_clamps_v_at_pi_over_2(alpha):
    # +-pi/2, past the edge, maps to the bits of +-_V_EDGE, and they are finite
    noise, W = StableNoise(alpha, 1.3), np.array([0.7, 0.7, 2.5, 2.5])
    at_pi = stable._transform(noise, np.array([1, -1, 1, -1]) * np.pi / 2,
                              W.copy())
    at_edge = stable._transform(
        noise, np.array([1, -1, 1, -1]) * stable._V_EDGE, W.copy())
    assert at_pi.tobytes() == at_edge.tobytes()
    assert np.all(np.isfinite(at_pi))


def test_vw_stream_rejects_an_empty_stream():
    with pytest.raises(ValueError, match="size must be >= 1, got 0"):
        vw_stream(np.random.default_rng(0), 0)


def test_pin_note_names_both_fingerprints(pin_note):
    # every pinned assertion prints where its pins were recorded and what
    # this machine's numpy computes, so a dispatch mismatch reads as one
    recorded, here = pin_note.split("], this machine is [")
    assert recorded.startswith("pins recorded on [numpy 2.4.6 exp:")
    assert here.startswith(f"numpy {np.__version__} exp:") and here.endswith("]")
    assert " power:" in recorded and " power:" in here


def _stream(noise, size, rng, chunk):
    # one stream in pieces of at most `chunk` draws, as run_chain takes it
    draw = vw_stream(rng, size)
    for lo in range(0, size, chunk):
        yield sas_rows(noise, [draw], np.empty((1, min(chunk, size - lo))))[0]


def _pieces(noise, size, seed, chunk):
    pieces = list(_stream(noise, size, np.random.default_rng(seed), chunk))
    assert [p.size for p in pieces] == [min(chunk, size - lo)
                                        for lo in range(0, size, chunk)]
    return np.concatenate(pieces)


@settings(max_examples=60, deadline=None)
@given(alpha=st.one_of(st.floats(1.05, 1.99), st.just(2.0)),
       size=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from(("1", "7", "size-1", "size", "size+1")))
def test_chunks_equal_whole_block(alpha, size, seed, chunk):
    # V off the stream and W off an advanced copy of its bit generator
    # rebuild the whole block's V-then-W draws piece by piece
    chunk = {"1": 1, "7": 7, "size-1": max(1, size - 1), "size": size,
             "size+1": size + 1}[chunk]
    noise = StableNoise(alpha, 1.3)
    whole = _reference_draws(noise, size, np.random.default_rng(seed))
    assert _pieces(noise, size, seed, chunk).tobytes() == whole.tobytes()


@pytest.mark.parametrize("edge", [1.0, 1.5])
@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_chunks_fall_back_to_whole_block_at_an_edge(monkeypatch, edge, chunk):
    # an edge V is clamped in place, so every piece comes off the stream,
    # edge or not, and the pieces equal the whole block without drawing it
    monkeypatch.setattr(stable, "_V_EDGE", edge)

    def no_whole_block(*args):
        raise AssertionError("the stream drew the whole block")

    monkeypatch.setattr(stable, "sample_sas_vector", no_whole_block)
    noise, size, seed = StableNoise(1.5, 1.3), 1000, 11
    V = np.random.default_rng(seed).uniform(-np.pi / 2, np.pi / 2, size)
    assert np.any(np.abs(V) > edge)
    got = _pieces(noise, size, seed, chunk)
    assert got.tobytes() == _reference_draws(
        noise, size, np.random.default_rng(seed)).tobytes()


def test_chunks_hold_one_piece_at_an_edge(monkeypatch):
    # with an edge V about every 16 000 draws, iterating the stream holds a
    # few piece-sized buffers, never the 1e6-draw block
    monkeypatch.setattr(stable, "_V_EDGE", 1.5707)
    size, chunk = 1_000_000, 4096
    V = np.random.default_rng(5).uniform(-np.pi / 2, np.pi / 2, size)
    assert np.count_nonzero(np.abs(V) > 1.5707) > 10
    del V
    stream = _stream(StableNoise(1.7), size, np.random.default_rng(5), chunk)
    tracemalloc.start()
    try:
        for piece in stream:
            assert piece.size <= chunk
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * chunk * 8


@settings(max_examples=60, deadline=None)
@given(alpha=st.one_of(st.floats(1.05, 1.99), st.just(2.0)),
       k=st.integers(1, 6), m=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from((1, 7, 64, stable._CHUNK)))
def test_stacked_transform_equals_row_transforms(alpha, k, m, seed, chunk):
    # the map is elementwise, so one transform over a (k, m) block gives
    # each row the bits of its own transform, whatever the chunk size
    rng = np.random.default_rng(seed)
    V = rng.uniform(-np.pi / 2, np.pi / 2, (k, m))
    W = rng.standard_exponential((k, m))
    noise = StableNoise(alpha, 1.3)
    with mock.patch.object(stable, "_CHUNK", chunk):
        rows = [stable._transform(noise, v.copy(), w.copy()).tobytes()
                for v, w in zip(V, W)]
        stacked = stable._transform(noise, V.reshape(-1), W.reshape(-1))
    assert [row.tobytes() for row in stacked.reshape(k, m)] == rows


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_stacked_rows_equal_each_streams_pieces(chunk):
    # sas_rows over several vw_streams gives each stream's one-row pieces
    noise, size, seeds = StableNoise(1.5, 1.3), 1000, (3, 4, 5)
    draws = [vw_stream(np.random.default_rng(s), size) for s in seeds]
    blocks = [sas_rows(noise, draws, np.empty((len(seeds), min(chunk, size - lo))))
              for lo in range(0, size, chunk)]
    for i, seed in enumerate(seeds):
        got = np.concatenate([block[i] for block in blocks])
        assert got.tobytes() == _pieces(noise, size, seed, chunk).tobytes()


def test_ensemble_transforms_once_per_alpha_per_chunk(monkeypatch):
    # 3 chains at each of 3 alphas on one schedule, 17 steps in 7-step
    # chunks: one transform per alpha per chunk, over all of that alpha's
    # chains
    calls, transform = [], stable._transform

    def spy(noise, V, W):
        calls.append((noise.alpha, V.size))
        return transform(noise, V, W)

    monkeypatch.setattr(stable, "_transform", spy)
    monkeypatch.setattr(sampler, "_NOISE_CHUNK", 7)
    alphas = (1.5, 2.0, 1.7)
    cfgs = [SamplerConfig(alpha=a, drift_spec=Simplified(),
                          schedule=Constant(0.002), iterations=17, seed=s,
                          initial_state=-3.6) for s in range(3) for a in alphas]
    outcomes = run_ensemble(cfgs, double_well_target(), lambda x: x)
    assert all(isinstance(v, float) for v in outcomes)
    assert calls == [(a, 3 * m) for m in (7, 7, 3) for a in alphas]
    # chains of one alpha on two schedules: one transform per schedule
    calls.clear()
    cfgs = [replace(c, schedule=Constant(eta)) for c in cfgs[:2]
            for eta in (0.002, 0.001)]
    run_ensemble(cfgs, double_well_target(), lambda x: x)
    assert calls == [(a, m) for m in (7, 7, 3) for a in (1.5, 1.5, 2.0, 2.0)]
