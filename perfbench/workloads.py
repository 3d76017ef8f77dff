"""The four workloads: their inputs, one round of work, and the checks of a
round's outputs against references computed apart from flmc.

Every workload calls flmc only through public names looked up on the
module at call time (``cli.alpha_sweep_report(...)``, never a name imported
into this file), so the traced run can put spans around those calls.

Seeds. The escape sweep (seed 2024) and the bias-vs-h sweep (seed 99) are
the acceptance tests' frozen protocols: their claims are statistical and
are checked here at the seeds the protocol fixes. The trace chain runs at
the CLI's default seed 0. At other seeds these chains diverge now and then
(explicit Euler steps on a quartic potential under heavy-tailed noise: one
rare huge draw is enough), which would make the number of failed
operations depend on the seed. The MF chains run at a fixed seed for the
same reason (at seed 209 an alpha-1.5 chain draws one noise value of 5.7e5
and diverges). --seed drives the bias-vs-K leg, the MF data and the MF
gradient check; no seed tried makes them fail.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from flmc import cli, drift, oracle, sampler, targets

ESCAPE_SEED = 2024
BIAS_H_SEED = 99
TRACE_SEED = 0
MF_SEED = 0

ESCAPE_ALPHAS = (1.6, 1.7, 1.75, 1.8, 2.0)
ESCAPE_ETA = 0.002
BIAS_ALPHA = 1.5
BIAS_SCHEDULE = sampler.Polynomial(1e-7, 0.6)
BIAS_H_LIST = (0.01, 0.05, 0.07, 0.08, 0.09, 0.095, 0.1, 0.11, 0.15)
BIAS_H_K = 15
BIAS_K_LIST = (1, 30)
BIAS_K_H = 0.06
KAPPA_ALPHAS = (1.5, 1.6, 1.7, 1.8, 1.9)
KAPPA_PAPER = (19.31, 14.12, 12.72, 8.64, 7.03)  # the paper's kappa table
KAPPA_H = 0.06
KAPPA_K_STAR = 170
DRIFT_KS = (1, 15, 30, 170)  # of the full-drift checks and microcosts
MF_ALPHAS = (1.5, 2.0)       # the minibatch chains
MF_FULL_ALPHA = 1.5          # the full-batch chain
MF_SCHEDULE = sampler.Constant(3e-5)
TRACE_ALPHA = 1.7
TRACE_ETA = 0.002
TRACE_INIT = -3.6


@dataclass(frozen=True)
class Sizes:
    escape_steps: int = 50_000
    escape_repeats: int = 10
    bias_steps: int = 2000
    bias_h_repeats: int = 4
    bias_k_repeats: int = 2
    kappa_grid: int = 200
    mf_shape: tuple = (200, 200, 10)  # I, J, L of the MF workload and microcosts
    mf_steps: int = 600
    mf_full_steps: int = 100
    mf_stride: int = 25
    trace_steps: int = 200_000
    setup_probes: int = 7


FULL = Sizes()
# plumbing only: at these sizes the statistical checks are not expected to hold
TINY = Sizes(escape_steps=2000, escape_repeats=2, bias_steps=200,
             bias_h_repeats=1, bias_k_repeats=1, kappa_grid=10,
             mf_shape=(20, 20, 3), mf_steps=50, mf_full_steps=20,
             mf_stride=10, trace_steps=2000, setup_probes=2)


@dataclass
class Round:
    attempted: int
    failed: int
    payload: dict  # what the checks need


def check(name, ok, detail=""):
    return (name, bool(ok), detail)


def dir_digest(path) -> tuple:
    """(sha256 over every file's name and bytes, total bytes) of a directory."""
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        total += len(data)
    return h.hexdigest(), total


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def _dw_potential(x):
    # the paper's double well, written out here rather than taken from flmc
    return (x + 5.0) * (x + 1.0) * (x - 1.02) * (x - 5.0) / 10.0 + 0.5


def quad_mean() -> float:
    """E[x] under exp(-U) by scipy's QUADPACK, over the whole line."""
    from scipy import integrate

    u_min = min(_dw_potential(x) for x in np.linspace(-6.0, 6.0, 12001))

    def weight(x):
        return math.exp(-(_dw_potential(x) - u_min))

    kw = dict(epsabs=0.0, epsrel=1e-13, limit=400)
    z = sum(integrate.quad(weight, a, b, **kw)[0]
            for a, b in ((-np.inf, -3.6), (-3.6, 0.0), (0.0, 3.6), (3.6, np.inf)))
    m = sum(integrate.quad(lambda x: x * weight(x), a, b, **kw)[0]
            for a, b in ((-np.inf, -3.6), (-3.6, 0.0), (0.0, 3.6), (3.6, np.inf)))
    return m / z


def mpmath_full_drift(x, alpha, h, K):
    """Direct two-sided stencil sum at 50 digits, no factoring:
    h^-gamma * sum_k g_k * (-U'(x - k h)) * exp(U(x) - U(x - k h))."""
    import mpmath

    with mpmath.workdps(50):
        gam = mpmath.mpf(alpha) - 2
        c = [mpmath.mpf(v) for v in (1.02, 0.06, 52.04, 0.5)]

        def U(v):
            return (v + 5) * (v + 1) * (v - c[0]) * (v - 5) / 10 + c[3]

        def dU(v):
            return (4 * v ** 3 - c[1] * v ** 2 - c[2] * v + c[3]) / 10

        xm, hm = mpmath.mpf(x), mpmath.mpf(h)
        total = mpmath.mpf(0)
        for k in range(-K, K + 1):
            g = ((-1) ** abs(k) * mpmath.gamma(gam + 1)
                 * mpmath.rgamma(gam / 2 - abs(k) + 1)
                 * mpmath.rgamma(gam / 2 + abs(k) + 1))
            node = xm - k * hm
            total += g * (-dU(node)) * mpmath.exp(U(xm) - U(node))
        return float(total / hm ** gam)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class DoubleWell:
    """Set-up shared by the double-well workloads: the target and its oracle mean."""

    def __init__(self, seed, sizes, outdir):
        self.seed, self.sizes, self.outdir = seed, sizes, outdir
        self.target = targets.double_well_target()
        self.truth = oracle.quadrature_expectation(self.target, lambda x: x)


class Escape(DoubleWell):
    """Criterion 5's mode-escape sweep at one schedule, const:0.002."""

    def run_round(self, target) -> Round:
        s = self.sizes
        rep = cli.alpha_sweep_report(target, ESCAPE_ALPHAS, s.escape_steps,
                                     s.escape_repeats, ESCAPE_SEED, "wells",
                                     self.truth,
                                     grid=(sampler.Constant(ESCAPE_ETA),))
        cli.write_report(rep, os.path.join(self.outdir, "alpha_sweep.csv"))
        failed = sum(int(row[4]) for row in rep.rows)
        return Round(len(ESCAPE_ALPHAS) * s.escape_repeats, failed, {"rows": rep.rows})

    def checks(self, rnd: Round) -> list:
        ref = quad_mean()
        bias = {row[0]: row[2] for row in rnd.payload["rows"]}
        heavy = min(bias[a] for a in ESCAPE_ALPHAS if a < 2.0)
        return [
            check("oracle_matches_quad", abs(self.truth - ref) <= 1e-8,
                  f"oracle={self.truth!r} quad={ref!r}"),
            check("gaussian_bias_in_2_4", 2.0 <= bias[2.0] <= 4.0, f"bias(2.0)={bias[2.0]!r}"),
            check("heavy_tail_escapes", heavy < 0.5 * bias[2.0],
                  f"best(alpha<2)={heavy!r}"),
        ]


class Stencil(DoubleWell):
    """Full-drift chains: criterion 6's bias-vs-h sweep, a bias-vs-K leg at
    K in {1, 30}, and the kappa table at K*=170."""

    DRIFT_POINTS = (-3.0, -0.7, 0.5, 2.2)

    def run_round(self, target) -> Round:
        s = self.sizes
        rep_h = cli.bias_sweep_report(target, (BIAS_ALPHA,), BIAS_H_LIST, (BIAS_H_K,),
                                      BIAS_SCHEDULE, s.bias_steps, s.bias_h_repeats,
                                      BIAS_H_SEED, "origin", self.truth)
        cli.write_report(rep_h, os.path.join(self.outdir, "bias_h.csv"))
        rep_k = cli.bias_sweep_report(target, (BIAS_ALPHA,), (BIAS_K_H,), BIAS_K_LIST,
                                      BIAS_SCHEDULE, s.bias_steps, s.bias_k_repeats,
                                      self.seed, "origin", self.truth)
        cli.write_report(rep_k, os.path.join(self.outdir, "bias_k.csv"))
        rep_kappa = cli.kappa_report(target, KAPPA_ALPHAS, KAPPA_H, KAPPA_K_STAR,
                                     -5.0, 5.0, s.kappa_grid)
        cli.write_report(rep_kappa, os.path.join(self.outdir, "kappa.csv"))
        attempted = (len(BIAS_H_LIST) * s.bias_h_repeats
                     + len(BIAS_K_LIST) * s.bias_k_repeats
                     + len(KAPPA_ALPHAS) * s.kappa_grid)
        # column 5 is failed_repeats in a bias report, skipped_points in kappa
        failed = sum(int(row[5]) for row in rep_h.rows + rep_k.rows + rep_kappa.rows)
        return Round(attempted, failed, {"h": rep_h.rows, "k": rep_k.rows,
                                         "kappa": rep_kappa.rows})

    def checks(self, rnd: Round) -> list:
        hats = [row[4] for row in rnd.payload["kappa"]]
        rel = max(abs(k - r) / r for k, r in zip(hats, KAPPA_PAPER))
        biases = [row[3] for row in rnd.payload["h"]]
        inner = min(biases[1:-1])
        k_biases = [row[3] for row in rnd.payload["k"]]
        worst, where = 0.0, None
        for x in self.DRIFT_POINTS:
            for K in DRIFT_KS:
                got = drift.full_drift(self.target, x, drift.FullCentered(KAPPA_H, K),
                                       BIAS_ALPHA)
                ref = mpmath_full_drift(x, BIAS_ALPHA, KAPPA_H, K)
                err = abs(got - ref) / max(abs(ref), 1e-300)
                if err >= worst:
                    worst, where = err, (x, K)
        return [
            check("kappa_within_30pct_of_paper", rel <= 0.30,
                  "kappa_hat=" + ",".join(f"{k:.3f}" for k in hats)),
            check("kappa_decreasing_in_alpha",
                  all(a > b for a, b in zip(hats, hats[1:]))),
            check("bias_vs_h_u_shaped", biases[0] > inner and biases[-1] > inner,
                  f"b(h_min)={biases[0]!r} min={inner!r} b(h_max)={biases[-1]!r}"),
            check("bias_vs_k_finite", all(math.isfinite(b) for b in k_biases),
                  f"biases={k_biases!r}"),
            check("full_drift_matches_mpmath", worst <= 1e-9,
                  f"max rel err {worst:.2e} at (x, K)={where}"),
        ]


class MF:
    """Stochastic-gradient chains on a synthetic MF posterior: a 10% minibatch
    at each of MF_ALPHAS and one full-batch chain, each reporting the
    held-out RMSE of its running posterior mean."""

    def __init__(self, seed, sizes, outdir):
        self.seed, self.sizes, self.outdir = seed, sizes, outdir
        I, J, L = sizes.mf_shape
        self.target = targets.synthetic_mf_target(I, J, L, seed)
        self.batch = max(1, self.target.data_size // 10)

    def legs(self):
        """(alpha, batch size, steps) of each chain; the last is the full batch."""
        s = self.sizes
        return ([(a, self.batch, s.mf_steps) for a in MF_ALPHAS]
                + [(MF_FULL_ALPHA, self.target.data_size, s.mf_full_steps)])

    def curve(self, target, alpha, batch, n_steps):
        return cli.mf_rmse_curve(target, alpha, MF_SCHEDULE, n_steps, batch,
                                 MF_SEED, self.sizes.mf_stride)

    def run_round(self, target) -> Round:
        legs = self.legs()
        rows, curves, failed = [], {}, 0
        for alpha, batch, n_steps in legs:
            try:
                curves[alpha, batch] = self.curve(target, alpha, batch, n_steps)
            except sampler.ChainFailure:
                failed += 1
                continue
            rows += [(alpha, batch, n, rmse) for n, rmse in curves[alpha, batch]]
        I, J, L = self.sizes.mf_shape
        meta = {"shapes": {"I": I, "J": J, "L": L}, "data_seed": self.seed,
                "seed": MF_SEED, "schedule": cli.schedule_label(MF_SCHEDULE),
                "stride": self.sizes.mf_stride, "n_train": self.target.data_size}
        rep = cli.ExperimentReport("mf", ("alpha", "batch_size", "iteration", "rmse"),
                                   rows, meta)
        cli.write_report(rep, os.path.join(self.outdir, "mf.csv"))
        return Round(len(legs), failed, {"curves": curves})

    def checks(self, rnd: Round) -> list:
        curves = rnd.payload["curves"]
        alpha, batch, n_steps = self.legs()[-1]
        exact = self.curve(self.target, alpha, None, n_steps)
        t = self.target
        rng = np.random.default_rng(self.seed)
        x, v = rng.standard_normal(t.dim), rng.standard_normal(t.dim)
        eps = 1e-4
        fd = (t.potential(x + eps * v) - t.potential(x - eps * v)) / (2 * eps)
        g = float(t.gradient(x) @ v)
        return [
            check("full_batch_equals_exact_gradient", curves.get((alpha, batch)) == exact),
            check("rmse_decreases", all(c[-1][1] < c[0][1] for c in curves.values()),
                  "; ".join(f"alpha={a} batch={b}: {c[0][1]:.4f} -> {c[-1][1]:.4f}"
                            for (a, b), c in curves.items())),
            check("gradient_matches_central_difference",
                  abs(g - fd) <= 1e-5 * max(1.0, abs(g)), f"grad.v={g!r} fd={fd!r}"),
        ]


class Trace:
    """`flmc sample` through cli.main: one long alpha-1.7 chain, every state written."""

    def __init__(self, seed, sizes, outdir):
        self.sizes, self.outdir = sizes, outdir
        self.target = None  # the CLI builds its own
        self.csv = os.path.join(outdir, "trace.csv")
        self.argv = ["sample", "--target", "double-well", "--alpha", str(TRACE_ALPHA),
                     "--drift", "simplified", "--schedule", f"const:{TRACE_ETA!r}",
                     "--n", str(sizes.trace_steps), f"--init={TRACE_INIT!r}",
                     "--stride", "1", "--seed", str(TRACE_SEED),
                     "--outdir", outdir, "--out", "trace.csv"]

    def run_round(self, target) -> Round:
        code = cli.main(self.argv)
        return Round(1, int(code != 0), {"code": code})

    def checks(self, rnd: Round) -> list:
        if rnd.payload["code"] != 0:
            return []
        return trace_checks(self.csv, self.sizes.trace_steps, TRACE_ETA, TRACE_INIT)


def trace_checks(csv_path, n, eta, init) -> list:
    """Checks of a stride-1 `flmc sample` CSV of n steps at constant eta."""
    with open(csv_path + ".summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [(float(r[1]), float(r[2])) for r in reader]
    etas = [e for e, _ in rows]
    xs = [x for _, x in rows]
    h_ref = math.fsum([eta] * n)
    finite = all(math.isfinite(e) and math.isfinite(x) for e, x in rows)
    est = summary["estimates"]["x"]
    weighted = math.fsum(e * x for e, x in rows) / math.fsum(etas)
    saddle = float(sorted(np.roots([4.0, -0.06, -52.04, 0.5]).real)[1])
    crossings = sum((a - saddle) * (b - saddle) < 0 for a, b in zip([init] + xs, xs))
    return [
        check("h_n_matches_fsum", abs(summary["H_N"] - h_ref) <= 1e-9 * h_ref,
              f"H_N={summary['H_N']!r} fsum={h_ref!r}"),
        check("csv_rows_finite", header == ["n", "eta", "x_0"]
              and len(rows) == n and finite, f"rows={len(rows)}"),
        check("weighted_mean_matches_summary",
              abs(weighted - est) <= 1e-9 * max(1.0, abs(est)),
              f"csv={weighted!r} summary={est!r}"),
        check("crosses_saddle", crossings >= 1, f"crossings={crossings}"),
    ]


WORKLOADS = {"escape": Escape, "stencil": Stencil, "mf": MF, "trace": Trace}
