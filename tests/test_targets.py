"""Potential/gradient consistency and minibatch-gradient contracts."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flmc.targets import (Minibatch, double_well, double_well_grad,
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
    batch = Minibatch(indices=np.arange(mf.data_size), size=mf.data_size)
    est = sg_gradient(mf, x, batch)
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
       full=st.booleans(), n_omega=st.integers(1, 60))
def test_loglik_batch_equals_sequential_scatter(I, J, L, seed, log_scale,
                                                full, n_omega):
    t = synthetic_mf_target(I, J, L, seed=seed % 1000)
    assume(t.data_size > 0)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(t.dim) * 10.0 ** log_scale
    # with-replacement draws repeat entries whenever n_omega > data_size
    idx = (np.arange(t.data_size) if full
           else draw_minibatch(t.data_size, n_omega, rng).indices)
    got = t.loglik_batch(x, idx)
    assert got.tobytes() == _add_at_loglik_batch(t, x, idx).tobytes()


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
        sg_gradient(double_well_target(), 0.0,
                    Minibatch(indices=np.array([0]), size=1))
    with pytest.raises(ValueError):
        sg_gradient(mf, x, Minibatch(indices=np.array([mf.data_size]), size=1))
    with pytest.raises(ValueError):
        sg_gradient(mf, x, Minibatch(indices=np.array([-1]), size=1))


def test_minibatch_validation():
    with pytest.raises(ValueError):
        Minibatch(indices=np.array([], dtype=int), size=0)
    with pytest.raises(ValueError):
        Minibatch(indices=np.array([1, 2]), size=3)
    with pytest.raises(ValueError):
        draw_minibatch(0, 4, np.random.default_rng(0))


def test_draw_minibatch_range_and_determinism():
    b1 = draw_minibatch(10, 500, np.random.default_rng(42))
    b2 = draw_minibatch(10, 500, np.random.default_rng(42))
    assert np.array_equal(b1.indices, b2.indices)
    assert b1.indices.min() >= 0 and b1.indices.max() < 10
    # with replacement: 500 draws from 10 values must repeat
    assert len(np.unique(b1.indices)) <= 10


def test_mf_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        synthetic_mf_target(0, 5, 2)
