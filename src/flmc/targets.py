"""Potential-energy targets: U, grad U, and optional minibatch gradients.

A target is the unnormalized density phi = exp(-U); samplers only ever see
U and its gradient. Targets with data_size > 0 additionally support the
subsampled gradient estimator used by the stochastic-gradient sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

_GATHER_BLOCK = 4096  # batch entries per gather block of the MF residual

__all__ = [
    "Target",
    "double_well",
    "double_well_grad",
    "double_well_target",
    "double_well_stationary_points",
    "gaussian_target",
    "synthetic_mf_target",
    "sg_gradient",
    "draw_minibatch",
]


@dataclass(frozen=True, eq=False)
class Target:
    """A potential-energy model.

    potential and gradient take a scalar (dim=1) or a flat vector of
    length dim. data_size is the number of likelihood terms available for
    subsampling; 0 means the target has no minibatch support.
    """

    dim: int
    potential: Callable
    gradient: Callable
    data_size: int = 0
    # loglik_batch(x, indices) returns the sum over the selected likelihood
    # terms of their contribution to grad U; prior_grad is the rest;
    # full_batch, if given, is the order in which gradient enumerates them.
    prior_grad: Optional[Callable] = None
    loglik_batch: Optional[Callable] = None
    full_batch: Optional[np.ndarray] = None
    info: dict = field(default_factory=dict)


def draw_minibatch(data_size: int, n_omega: int, rng: np.random.Generator) -> np.ndarray:
    """n_omega likelihood-term indices drawn with replacement from
    {0, ..., data_size - 1}."""
    if data_size < 1:
        raise ValueError("target has no likelihood terms to subsample")
    return rng.integers(0, data_size, int(n_omega))


# ---------------------------------------------------------------------------
# double well
# ---------------------------------------------------------------------------

def double_well(x):
    """U(x) = (x+5)(x+1)(x-1.02)(x-5)/10 + 0.5 (asymmetric wells near +-3.6)."""
    return (x + 5.0) * (x + 1.0) * (x - 1.02) * (x - 5.0) / 10.0 + 0.5


def double_well_grad(x):
    """U'(x) = (4x^3 - 0.06x^2 - 52.04x + 0.5)/10.

    In product (Horner) form: +, * and / round the same on a Python float
    and on each element of an array, where array x**3 does not always
    match the scalar power. The in-place steps rebind a float and reuse
    an array's one temporary, in the order (((4x - 0.06)x - 52.04)x + 0.5)/10.
    """
    g = 4.0 * x
    g -= 0.06
    g *= x
    g -= 52.04
    g *= x
    g += 0.5
    g /= 10.0
    return g


def double_well_target() -> Target:
    return Target(dim=1, potential=double_well, gradient=double_well_grad)


def double_well_stationary_points():
    """(left minimum, saddle, right minimum) as roots of U'."""
    r = np.sort(np.roots([4.0, -0.06, -52.04, 0.5]).real)
    return float(r[0]), float(r[1]), float(r[2])


# ---------------------------------------------------------------------------
# isotropic Gaussian
# ---------------------------------------------------------------------------

def gaussian_target(mean, variance: float) -> Target:
    """U(x) = ||x - mean||^2 / (2*variance)."""
    mean = np.asarray(mean, dtype=float)
    if not (0.0 < variance < np.inf and np.isfinite(mean).all()):
        raise ValueError(f"need a finite mean and a positive finite variance, "
                         f"got {mean} and {variance}")
    dim = mean.size if mean.ndim else 1
    m = float(mean) if dim == 1 and mean.ndim == 0 else mean

    def U(x):
        d = x - m
        return np.sum(d * d) / (2.0 * variance) if dim > 1 else d * d / (2.0 * variance)

    def dU(x):
        return (x - m) / variance

    return Target(dim=dim, potential=U, gradient=dU)


# ---------------------------------------------------------------------------
# synthetic matrix factorization
# ---------------------------------------------------------------------------

def synthetic_mf_target(I: int, J: int, L: int, seed: int = 0) -> Target:
    """A small probabilistic matrix-factorization posterior.

    Y_ij | A, B ~ N((AB)_ij, 1) on observed entries, A_il, B_lj ~ N(0, 1).
    Y is generated once from the model with the given seed; a random 10%
    of entries is held out as the test set. The state is the flat vector
    x = concat(A.ravel(), B.ravel()).

    Returns a Target with data_size equal to the number of observed
    training entries (the N_Y of the minibatch scaling).
    """
    if I < 1 or J < 1 or L < 1:
        raise ValueError(f"degenerate shapes: I={I}, J={J}, L={L}")
    rng = np.random.default_rng(seed)
    A0 = rng.standard_normal((I, L))
    B0 = rng.standard_normal((L, J))
    Y = A0 @ B0 + rng.standard_normal((I, J))
    train_mask = rng.random((I, J)) < 0.9
    train_idx = np.argwhere(train_mask)
    test_idx = np.argwhere(~train_mask)
    n_train = len(train_idx)
    dim = I * L + L * J
    ti, tj = train_idx[:, 0], train_idx[:, 1]
    y_train = Y[ti, tj]

    def split(x):
        A = x[: I * L].reshape(I, L)
        B = x[I * L :].reshape(L, J)
        return A, B

    C = _GATHER_BLOCK
    block = np.empty((2, C, L))  # A[ii, :] and B[:, jj].T of C batch entries

    def neg_residual(A, B, ii, jj, y, out):
        # (AB)_e - y_e of at most C entries e = (ii, jj) into out's head, from
        # gathers of rows A[i, :] and B[:, j] into the block, the layout einsum
        # sums along; take writes out directly only with mode other than "raise"
        n = ii.size
        r = np.einsum("ij,ij->i", np.take(A, ii, 0, block[0, :n], "wrap"),
                      np.take(B.T, jj, 0, block[1, :n], "wrap"), out=out[:n])
        return np.negative(np.subtract(y, r, out=r), out=r)

    def U(x):
        # the training residual a gather block at a time, squares summed per
        # block: the I x J product is never formed
        A, B = split(x)
        r, sq = np.empty(min(C, n_train)), 0.0
        for lo in range(0, n_train, C):
            rb = neg_residual(A, B, ti[lo:lo + C], tj[lo:lo + C], y_train[lo:lo + C], r)
            sq += float(rb @ rb)
        return 0.5 * float(x @ x) + 0.5 * sq

    def prior_grad(x):
        return x.copy()

    def loglik_batch(x, indices):
        # sum over selected observations of d/dx [0.5*(Y_e - (AB)_e)^2].
        # bincount adds each weight into its bin in order of appearance,
        # starting from 0.0, so repeated entries (with-replacement batches)
        # accumulate exactly as a sequential scatter would; one call per
        # latent column.
        A, B = split(x)
        ii, jj = ti[indices], tj[indices]
        b = ii.size
        neg_resid = np.empty(b)
        for lo in range(0, b, C):
            neg_residual(A, B, ii[lo:lo + C], jj[lo:lo + C],
                         y_train[indices[lo:lo + C]], neg_resid[lo:])
        # then each column's weights in one reused (b,) buffer: read off the
        # block while it holds the whole batch (a strided read of a block in
        # cache beats a second gather), else gathered as contiguous vectors
        whole = b <= C
        w = np.empty(b)
        out = np.empty(dim)
        gA = out[: I * L].reshape(I, L)
        gB = out[I * L :].reshape(L, J)
        for l in range(L):
            Bl = block[1, :b, l] if whole else np.take(B[l], jj, out=w, mode="wrap")
            np.multiply(neg_resid, Bl, out=w)
            gA[:, l] = np.bincount(ii, weights=w, minlength=I)
            Al = block[0, :b, l] if whole else np.take(A[:, l], ii, out=w, mode="wrap")
            np.multiply(neg_resid, Al, out=w)
            gB[l] = np.bincount(jj, weights=w, minlength=J)
        return out

    # by anti-diagonal: every row and column keeps its row-major order, so each
    # bin adds what arange(n_train) adds in that order, but neighbours differ
    full_batch = np.lexsort((ti, ti + tj))

    def dU(x):
        # same code path as the full-enumeration minibatch, so the
        # N_omega == N_Y estimator matches bit for bit
        return prior_grad(x) + loglik_batch(x, full_batch)

    info = {"I": I, "J": J, "L": L, "Y": Y, "train_idx": train_idx,
            "test_idx": test_idx,
            "gen_x": np.concatenate([A0.ravel(), B0.ravel()])}
    return Target(dim=dim, potential=U, gradient=dU, data_size=n_train,
                  prior_grad=prior_grad, loglik_batch=loglik_batch,
                  full_batch=full_batch, info=info)


def sg_gradient(target: Target, x: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Unbiased subsampled estimate of grad U.

    prior_grad(x) + (N_Y / N_omega) * sum over the N_omega likelihood terms
    that `indices` names (repeats counted) of their gradients. With the
    enumerating batch target.full_batch this equals target.gradient(x)
    exactly.
    """
    if target.data_size <= 0:
        raise ValueError("target does not support minibatch gradients")
    indices = np.asarray(indices)
    if indices.ndim != 1 or not np.issubdtype(indices.dtype, np.integer):
        raise ValueError(f"minibatch must be a 1-D integer array, got shape "
                         f"{indices.shape} of {indices.dtype}")
    if len(indices) == 0:
        raise ValueError("minibatch must hold at least one index")
    if indices.min() < 0 or indices.max() >= target.data_size:
        raise ValueError("minibatch index out of range")
    scale = target.data_size / len(indices)
    return target.prior_grad(x) + scale * target.loglik_batch(x, indices)
