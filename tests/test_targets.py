"""Potential/gradient consistency and minibatch-gradient contracts."""

import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import flmc
from flmc import targets
from flmc.targets import (double_well, double_well_grad,
                          double_well_stationary_points, double_well_target,
                          draw_minibatch, gaussian_target, sg_gradient,
                          synthetic_mf_target)


def _fd_grad(U, x, eps=1e-6):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = float(np.squeeze(U(x + e) - U(x - e))) / (2.0 * eps)
    return g if x.size > 1 else float(g[0])


# ---------------------------------------------------------------------------
# double well
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(x=st.floats(-6.0, 6.0))
def test_double_well_gradient_consistent(x):
    fd = _fd_grad(double_well, x)
    assert double_well_grad(x) == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_double_well_has_two_minima():
    left, saddle, right = double_well_stationary_points()
    assert -4.0 < left < -3.0
    assert abs(saddle) < 0.1
    assert 3.0 < right < 4.0
    for p in (left, saddle, right):
        assert double_well_grad(p) == pytest.approx(0.0, abs=1e-10)
    # interior stationary point is a local max, outer two are minima
    assert double_well(saddle) > double_well(left)
    assert double_well(saddle) > double_well(right)


def test_double_well_wells_differ_in_depth():
    left, _, right = double_well_stationary_points()
    assert double_well(left) != pytest.approx(double_well(right), abs=1e-3)


def test_stationary_points_match_fixture(oracle_values):
    ref = oracle_values["double_well_stationary"]["value"]
    pts = double_well_stationary_points()
    assert pts == pytest.approx(ref, abs=1e-12)


def test_double_well_vectorized():
    xs = np.linspace(-5, 5, 11)
    assert double_well(xs).shape == xs.shape
    assert double_well_grad(xs).shape == xs.shape
    assert double_well(xs)[5] == double_well(xs[5])


def test_double_well_target_fields():
    t = double_well_target()
    assert t.dim == 1
    assert t.data_size == 0
    assert t.gradient(2.0) == double_well_grad(2.0)


# ---------------------------------------------------------------------------
# Gaussian
# ---------------------------------------------------------------------------

def test_gaussian_scalar():
    t = gaussian_target(0.0, 1.0)
    assert t.dim == 1
    assert t.potential(0.0) == 0.0
    assert t.gradient(2.0) == 2.0
    assert t.potential(3.0) == pytest.approx(4.5)


def test_gaussian_vector():
    t = gaussian_target(np.array([1.0, -1.0, 0.0]), 2.0)
    assert t.dim == 3
    x = np.array([2.0, 0.0, 0.0])
    assert t.potential(x) == pytest.approx(0.5)
    assert t.gradient(x) == pytest.approx([0.5, 0.5, 0.0])
    assert _fd_grad(t.potential, x) == pytest.approx(t.gradient(x), abs=1e-6)


def test_gaussian_rejects_bad_variance():
    with pytest.raises(ValueError):
        gaussian_target(0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_target(0.0, -1.0)


# ---------------------------------------------------------------------------
# matrix factorization
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mf():
    return synthetic_mf_target(6, 5, 2, seed=3)


def test_mf_shapes(mf):
    assert mf.dim == 6 * 2 + 2 * 5
    assert 0 < mf.data_size <= 30
    assert mf.data_size == len(mf.info["train_idx"])
    assert len(mf.info["train_idx"]) + len(mf.info["test_idx"]) == 30


def test_mf_gradient_matches_finite_differences(mf):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(mf.dim)
    assert mf.gradient(x) == pytest.approx(_fd_grad(mf.potential, x), abs=1e-4)


def test_mf_generator_near_stationary(mf):
    # the generating factors sit near a posterior mode: much smaller
    # gradient there than at a random point of the same norm
    gen = mf.info["gen_x"]
    rng = np.random.default_rng(11)
    rand = rng.standard_normal(mf.dim)
    rand *= np.linalg.norm(gen) / np.linalg.norm(rand)
    assert np.linalg.norm(mf.gradient(gen)) < 0.3 * np.linalg.norm(mf.gradient(rand))


def test_mf_descent_step_decreases_potential(mf):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(mf.dim)
    g = mf.gradient(x)
    assert mf.potential(x - 1e-3 * g) < mf.potential(x)


def test_full_enumeration_batch_is_bitwise_full_gradient(mf):
    rng = np.random.default_rng(13)
    x = rng.standard_normal(mf.dim)
    est = sg_gradient(mf, x, np.arange(mf.data_size))
    assert np.array_equal(est, mf.gradient(x))


def _add_at_loglik_batch(target, x, indices):
    """The MF likelihood gradient scattered with np.add.at, one entry at a
    time in batch order: the reference the bincount scatter must equal."""
    I, J, L = target.info["I"], target.info["J"], target.info["L"]
    ti, tj = target.info["train_idx"][:, 0], target.info["train_idx"][:, 1]
    y_train = target.info["Y"][ti, tj]
    A = x[: I * L].reshape(I, L)
    B = x[I * L :].reshape(L, J)
    ii, jj = ti[indices], tj[indices]
    resid = y_train[indices] - np.einsum("ij,ji->i", A[ii, :], B[:, jj])
    gA = np.zeros_like(A)
    gB = np.zeros_like(B)
    np.add.at(gA, ii, -resid[:, None] * B[:, jj].T)
    np.add.at(gB.T, jj, -resid[:, None] * A[ii, :])
    return np.concatenate([gA.ravel(), gB.ravel()])


@settings(max_examples=60, deadline=None)
@given(I=st.integers(1, 6), J=st.integers(1, 6), L=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 2.0),
       full=st.booleans(), n_omega=st.integers(1, 60),
       block=st.sampled_from((1, 7, targets._GATHER_BLOCK)))
@example(I=70, J=70, L=3, seed=5, log_scale=0.0, full=True, n_omega=1,
         block=targets._GATHER_BLOCK)
@example(I=70, J=70, L=3, seed=5, log_scale=0.0, full=False, n_omega=10_000,
         block=targets._GATHER_BLOCK)
def test_loglik_batch_equals_sequential_scatter(I, J, L, seed, log_scale,
                                                full, n_omega, block):
    # the residual is gathered `block` entries at a time: a full enumeration
    # of up to 36 entries, or a batch of up to 60, crosses blocks of 1 and 7;
    # at 70x70 (4 400-odd entries) the examples cross the default block
    with mock.patch.object(targets, "_GATHER_BLOCK", block):
        t = synthetic_mf_target(I, J, L, seed=seed % 1000)
        assume(t.data_size > 0)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(t.dim) * 10.0 ** log_scale
        # with-replacement draws repeat entries whenever n_omega > data_size
        idx = (np.arange(t.data_size) if full
               else draw_minibatch(t.data_size, n_omega, rng))
        got = t.loglik_batch(x, idx)
    assert got.tobytes() == _add_at_loglik_batch(t, x, idx).tobytes()


@settings(max_examples=40, deadline=None)
@given(I=st.integers(1, 9), J=st.integers(1, 9), L=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from((1, 7, targets._GATHER_BLOCK)))
@example(I=70, J=70, L=3, seed=5, block=targets._GATHER_BLOCK)
def test_full_batch_keeps_row_and_column_order(I, J, L, seed, block):
    # the exact gradient enumerates the training entries by anti-diagonal:
    # a permutation in which each row's and each column's entries keep
    # their row-major order, so every bincount bin adds the same terms in
    # the same order as the sequential scatter over arange(N_Y)
    with mock.patch.object(targets, "_GATHER_BLOCK", block):
        t = synthetic_mf_target(I, J, L, seed=seed % 1000)
        assume(t.data_size > 0)
        order = t.full_batch
        assert np.array_equal(np.sort(order), np.arange(t.data_size))
        for key in t.info["train_idx"].T:
            grouped = order[np.argsort(key[order], kind="stable")]
            same_bin = np.diff(key[grouped]) == 0
            assert (np.diff(grouped)[same_bin] > 0).all()
        x = np.random.default_rng(seed).standard_normal(t.dim)
        got = t.gradient(x)
    want = x + _add_at_loglik_batch(t, x, np.arange(t.data_size))
    assert got.tobytes() == want.tobytes()


def test_mf_gradient_working_set_is_bounded():
    # the first full-batch gradient at 200x200, L = 10 (36 010 entries)
    # gathers its residual through one (2, 4 096, 10) block and its scatter
    # weights one column at a time. Whole-batch (2, b, 10) gathers peaked
    # at 7.27 MB and kept 5.76 MB after the result was dropped
    t = synthetic_mf_target(200, 200, 10)
    x = np.random.default_rng(3).standard_normal(t.dim)
    tracemalloc.start()
    try:
        g = t.gradient(x)
        peak = tracemalloc.get_traced_memory()[1]
        del g
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6
    assert kept < 1e6


@pytest.mark.parametrize("block", [1, 7, targets._GATHER_BLOCK])
def test_mf_potential_sums_across_gather_blocks(block):
    # the residual's squares, summed a block at a time, against the
    # residual read off the whole product
    with mock.patch.object(targets, "_GATHER_BLOCK", block):
        t = synthetic_mf_target(9, 8, 3, seed=2)
    x = np.random.default_rng(19).standard_normal(t.dim)
    ti, tj = t.info["train_idx"][:, 0], t.info["train_idx"][:, 1]
    A, B = x[:27].reshape(9, 3), x[27:].reshape(3, 8)
    resid = t.info["Y"][ti, tj] - (A @ B)[ti, tj]
    want = 0.5 * float(x @ x) + 0.5 * float(resid @ resid)
    assert t.potential(x) == pytest.approx(want, rel=1e-12)


def test_mf_potential_never_forms_the_product():
    # at 600x800, L = 10 the I x J product is 3.84 MB: forming it, then
    # gathering the 432 000-odd training entries, peaked at 7.3 MB. The
    # residual taken through the target's gather block, 4 096 entries at a
    # time, peaked at 0.1 MB
    t = synthetic_mf_target(600, 800, 10)
    x = np.random.default_rng(3).standard_normal(t.dim)
    tracemalloc.start()
    try:
        t.potential(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_loglik_batch_reuses_no_stale_buffer():
    # one target across batch lengths 1, N_Y, 4, N_Y, 4: its gather block
    # is kept across calls and lengths, and every result is its own array
    t = synthetic_mf_target(7, 6, 3, seed=4)
    rng = np.random.default_rng(29)
    got, want = [], []
    for size in (1, t.data_size, 4, t.data_size, 4):
        x = rng.standard_normal(t.dim)
        idx = (np.arange(t.data_size) if size == t.data_size
               else draw_minibatch(t.data_size, size, rng))
        got.append(t.loglik_batch(x, idx))
        want.append(_add_at_loglik_batch(t, x, idx).tobytes())
        assert got[-1].tobytes() == want[-1]
    assert [g.tobytes() for g in got] == want


_FAULTS_SCRIPT = """
import resource
import numpy as np
from flmc.targets import draw_minibatch, sg_gradient, synthetic_mf_target
t = synthetic_mf_target(200, 200, 10)
rng = np.random.default_rng(31)
x = rng.standard_normal(t.dim)
n_omega = t.data_size // 10
for _ in range(5):
    sg_gradient(t, x, draw_minibatch(t.data_size, n_omega, rng))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    sg_gradient(t, x, draw_minibatch(t.data_size, n_omega, rng))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_minibatch_gradient_does_not_fault_per_call():
    # 200 warm 10% minibatch gradients reuse their gather block, and their
    # (b,) residual and weights are 29 KB each. Fresh 288 KB (b, L) gathers
    # sit above glibc's default 128 KB mmap threshold: each call mapped and
    # faulted them in, about 142 minor page faults. glibc
    # raises the threshold after a larger mapped block is freed, so the
    # loop runs in a fresh interpreter with the default pinned
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072",
               PYTHONPATH=os.path.dirname(os.path.dirname(flmc.__file__)))
    done = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    assert int(done.stdout.splitlines()[-1]) < 10 * 200


def test_sg_gradient_unbiased(mf):
    rng = np.random.default_rng(17)
    x = rng.standard_normal(mf.dim)
    full = mf.gradient(x)
    ests = [sg_gradient(mf, x, draw_minibatch(mf.data_size, 5, rng))
            for _ in range(4000)]
    err = np.mean(ests, axis=0) - full
    assert np.max(np.abs(err)) < 0.35 * np.max(np.abs(full))
    assert np.linalg.norm(err) < 0.1 * np.linalg.norm(full)


def test_sg_gradient_variance_shrinks_with_batch(mf):
    x = np.random.default_rng(19).standard_normal(mf.dim)
    out = {}
    for n_omega in (4, 16):
        rng = np.random.default_rng(23)
        ests = np.array([sg_gradient(mf, x, draw_minibatch(mf.data_size, n_omega, rng))
                         for _ in range(2000)])
        out[n_omega] = ests.var(axis=0).mean()
    # variance of the batch mean scales like 1/N_omega
    assert out[16] < 0.5 * out[4]


def test_sg_gradient_validation(mf):
    x = np.zeros(mf.dim)
    with pytest.raises(ValueError):
        sg_gradient(double_well_target(), 0.0, np.array([0]))
    with pytest.raises(ValueError):
        sg_gradient(mf, x, np.array([mf.data_size]))
    with pytest.raises(ValueError):
        sg_gradient(mf, x, np.array([-1]))
    # a mask, float indices, a 0-d or a 2-D array is not a batch
    for bad in (np.arange(mf.data_size) == 3, np.array([0.0, 1.0]),
                np.array(0), np.array([[0, 1]])):
        with pytest.raises(ValueError, match="1-D integer array"):
            sg_gradient(mf, x, bad)
    # a list of ints is one
    assert np.array_equal(sg_gradient(mf, x, [0, 1]),
                          sg_gradient(mf, x, np.array([0, 1])))


def test_minibatch_validation(mf):
    with pytest.raises(ValueError, match="at least one index"):
        sg_gradient(mf, np.zeros(mf.dim), np.array([], dtype=int))
    with pytest.raises(ValueError):
        draw_minibatch(0, 4, np.random.default_rng(0))


def test_draw_minibatch_range_and_determinism():
    b1 = draw_minibatch(10, 500, np.random.default_rng(42))
    b2 = draw_minibatch(10, 500, np.random.default_rng(42))
    assert b1.shape == (500,)
    assert np.array_equal(b1, b2)
    assert b1.min() >= 0 and b1.max() < 10
    # with replacement: 500 draws from 10 values must repeat
    assert len(np.unique(b1)) <= 10


def test_mf_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        synthetic_mf_target(0, 5, 2)
