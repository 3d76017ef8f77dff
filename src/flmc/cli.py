"""Command-line harness: runs chains and the canned experiments, emits
CSV/JSON reports.

Everything here is plumbing around the library modules. Reports are
deterministic given flags and seed: floats print with 17 significant
digits ('%.17g'), rows are assembled in sorted parameter order, a CSV
field that holds a comma is quoted, metadata carries the full
configuration echo with a null timestamp. `flmc sample` writes its trace
rows through csvtext.write_rows. flmc reads no environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .drift import DriftOverflowError, FullCentered, Simplified, kappa
from .oracle import QuadratureError, SupportError, quadrature_expectation
from .sampler import (ChainFailure, Constant, Polynomial, SamplerConfig,
                      repeat_seeds, run_chain, run_ensemble, summarize_repeats)
from .targets import (double_well_stationary_points, double_well_target,
                      gaussian_target, synthetic_mf_target)

log = logging.getLogger(__name__)

__all__ = [
    "main",
    "UsageError",
    "parse_schedule",
    "parse_drift",
    "schedule_label",
    "drift_label",
    "ExperimentReport",
    "write_report",
    "bias_sweep_report",
    "kappa_report",
    "alpha_sweep_report",
    "mf_report",
    "mf_rmse_curve",
    "SCHEDULE_GRID",
]

# schedule grid searched by the alpha sweep; "best" means smallest mean
# absolute bias over repeats
SCHEDULE_GRID = tuple(
    [Polynomial(a, b) for a in (1e-8, 1e-7, 1e-6, 1e-5)
     for b in (0.51, 0.6, 0.7)]
    + [Constant(e) for e in (0.002, 0.005, 0.01)]
)


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def parse_schedule(text: str):
    kind, _, rest = text.partition(":")
    try:
        if kind == "poly":
            a, b = rest.split(",")
            return Polynomial(float(a), float(b))
        if kind == "const":
            return Constant(float(rest))
    except (ValueError, TypeError) as e:
        raise UsageError(f"bad schedule '{text}': {e}") from None
    raise UsageError(
        f"unrecognized schedule '{text}' (expected poly:<a>,<b> or const:<eta>)")


def schedule_label(schedule) -> str:
    if isinstance(schedule, Polynomial):
        return f"poly:{schedule.a!r},{schedule.b!r}"
    return f"const:{schedule.eta!r}"


def parse_drift(text: str):
    if text == "simplified":
        return Simplified()
    if text.startswith("full:"):
        try:
            h, K = text[5:].split(",")
            return FullCentered(float(h), int(K))
        except (ValueError, TypeError) as e:
            raise UsageError(f"bad drift '{text}': {e}") from None
    raise UsageError(
        f"unrecognized drift '{text}' (expected simplified or full:<h>,<K>)")


def drift_label(spec) -> str:
    if isinstance(spec, Simplified):
        return "simplified"
    return f"full:{spec.h!r},{spec.K!r}"


def parse_list(text: str, flag: str, kind=float):
    """Comma-separated values of a list-valued flag, each converted by kind."""
    try:
        vals = tuple(kind(v) for v in text.split(","))
    except ValueError as e:
        raise UsageError(f"bad {flag} list '{text}': {e}") from None
    return vals


def int_at_least(lo: int):
    """argparse type of an integer flag that must be >= lo: a smaller value
    is a usage error that names the flag, raised before anything runs."""
    def parse(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return int(text)
    parse.__name__ = "int"  # a non-integer keeps argparse's "invalid int value"
    return parse


def build_target(name: str):
    if name == "double-well":
        return double_well_target()
    if name == "gaussian":
        return gaussian_target(0.0, 1.0)
    if name.startswith("gaussian:"):
        try:
            m, v = name[len("gaussian:"):].split(",")
            return gaussian_target(float(m), float(v))
        except (ValueError, TypeError) as e:
            raise UsageError(f"bad target '{name}': {e}") from None
    raise UsageError(f"unknown target '{name}'")


def initial_states(policy: str, repeats: int):
    """Per-repeat initial states: origin, alternating wells, or a number."""
    if policy == "origin":
        return [0.0] * repeats
    if policy == "wells":
        lo, _, hi = double_well_stationary_points()
        return [lo if r % 2 == 0 else hi for r in range(repeats)]
    try:
        return [float(policy)] * repeats
    except ValueError:
        raise UsageError(
            f"bad init '{policy}' (expected origin, wells, or a number)") from None


def resolve_truth() -> float:
    """Posterior mean of the double well, the truth every bias sweep measures
    against, integrated by quadrature."""
    return quadrature_expectation(double_well_target(), lambda x: x)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


@dataclass
class ExperimentReport:
    name: str
    columns: tuple
    rows: list
    metadata: dict


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (float, np.floating)):  # JSON has no NaN or infinity
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def write_json(obj, path):
    text = json.dumps(_jsonify(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_report(report: ExperimentReport, out_path: str):
    """CSV to out_path (a field holding a comma is quoted), metadata JSON beside it."""
    import csv  # here, so a subcommand that writes no report never loads it
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report.columns)
        writer.writerows([_fmt(v) for v in row] for row in report.rows)
    meta = dict(report.metadata)
    meta.setdefault("experiment", report.name)
    meta.setdefault("version", __version__)
    meta.setdefault("timestamp", None)  # fixed: reports must be byte-stable
    write_json(meta, out_path + ".meta.json")


def _outpath(args, default_name: str) -> str:
    return os.path.join(args.outdir, args.out or default_name)


# ---------------------------------------------------------------------------
# experiment bodies (also the library-level entry points used by tests)
# ---------------------------------------------------------------------------

def _repeat_cells(cells, target, n_steps, repeats, seed, init_policy, truth):
    """Bias summary of each (alpha, drift_spec, schedule) cell, a chain of
    n_steps run as independent repeats.

    Repeat r of every cell runs at seed repeat_seeds(seed, repeats)[r] from
    the init_policy's r-th start. All the cells' repeats, of any alpha and
    drift, step in one run_ensemble call, and each cell summarizes as the
    same chains run one at a time by run_chain would.
    """
    inits = initial_states(init_policy, repeats)
    seeds = repeat_seeds(seed, repeats)
    outcomes = run_ensemble(
        [SamplerConfig(alpha=alpha, drift_spec=spec, schedule=schedule,
                       iterations=n_steps, seed=s, initial_state=x0)
         for alpha, spec, schedule in cells for s, x0 in zip(seeds, inits)],
        target, lambda x: x)
    return [summarize_repeats(outcomes[k:k + repeats], truth)
            for k in range(0, len(outcomes), repeats)]


def _sweep_meta(seed, n_steps, repeats, init_policy, truth, **extra) -> dict:
    """The metadata both bias sweeps write, with each sweep's own keys."""
    return {"seed": seed, "iterations": n_steps, "repeats": repeats,
            "init": init_policy, "truth": truth,
            "bias_aggregation": "mean of absolute errors over repeats", **extra}


def bias_sweep_report(target, alphas, h_values, K_values, schedule, n_steps,
                      repeats, seed, init_policy, truth) -> ExperimentReport:
    """Mean absolute bias of the full-drift chain over an (alpha, h, K) grid.

    Cells share the base seed, so cells differing only in (h, K) see the
    same noise streams; failed repeats are excluded and counted per cell.
    Every cell and repeat runs in one run_ensemble call, the alpha = 2
    cells included, where the full drift is -U'(x) whatever h and K.
    """
    keys = [(alpha, h, K) for alpha in sorted(set(alphas))
            for h in sorted(set(h_values)) for K in sorted(set(K_values))]
    summaries = _repeat_cells(
        [(alpha, FullCentered(h, K), schedule) for alpha, h, K in keys],
        target, n_steps, repeats, seed, init_policy, truth)
    rows = []
    for (alpha, h, K), summary in zip(keys, summaries):
        if summary.n_failed:
            log.warning("bias cell alpha=%s h=%s K=%s: %d failed repeats",
                        alpha, h, K, summary.n_failed)
        rows.append((alpha, h, K, summary.mean_abs_bias, summary.se,
                     summary.n_failed))
    meta = _sweep_meta(seed, n_steps, repeats, init_policy, truth,
                       schedule=schedule_label(schedule))
    return ExperimentReport("bias-sweep",
                            ("alpha", "h", "K", "mean_bias", "se", "failed_repeats"),
                            rows, meta)


def kappa_report(target, alphas, h, K_star, grid_lo, grid_hi, grid_n) -> ExperimentReport:
    with np.errstate(all="ignore"):  # kappa rejects a non-finite point
        grid = np.linspace(grid_lo, grid_hi, grid_n)
    rows = []
    per_point = {}
    for alpha in sorted(set(alphas)):
        res = kappa(target, alpha, h, K_star, grid)
        rows.append((alpha, h, K_star, grid_n, res.kappa_hat, res.skipped))
        per_point[repr(alpha)] = res.per_point
    meta = {
        "grid": {"lo": grid_lo, "hi": grid_hi, "n": grid_n},
        "per_point_kappa": per_point,
    }
    return ExperimentReport("kappa",
                            ("alpha", "h", "K_star", "grid_size", "kappa_hat",
                             "skipped_points"),
                            rows, meta)


def alpha_sweep_report(target, alphas, n_steps, repeats, seed, init_policy,
                       truth, grid=SCHEDULE_GRID) -> ExperimentReport:
    """Best-schedule bias per alpha over the declared schedule grid.

    Every (alpha, schedule) cell is a simplified-drift chain run as
    independent repeats, and all of them run in one run_ensemble call.
    """
    alphas = sorted(set(alphas))
    summaries = iter(_repeat_cells(
        [(alpha, Simplified(), schedule) for alpha in alphas for schedule in grid],
        target, n_steps, repeats, seed, init_policy, truth))
    rows = []
    cells = []
    for alpha in alphas:
        best = None
        for schedule in grid:
            summary = next(summaries)
            cells.append({"alpha": alpha, "schedule": schedule_label(schedule),
                          "mean_bias": summary.mean_abs_bias, "se": summary.se,
                          "failed_repeats": summary.n_failed})
            if math.isnan(summary.mean_abs_bias):
                continue
            if best is None or summary.mean_abs_bias < best[1].mean_abs_bias:
                best = (schedule, summary)
        if best is None:
            rows.append((alpha, "none", math.nan, math.nan, repeats))
            continue
        schedule, summary = best
        rows.append((alpha, schedule_label(schedule), summary.mean_abs_bias,
                     summary.se, summary.n_failed))
    meta = _sweep_meta(seed, n_steps, repeats, init_policy, truth, cells=cells,
                       schedule_grid=[schedule_label(s) for s in grid])
    return ExperimentReport("alpha-sweep",
                            ("alpha", "schedule", "mean_bias", "se",
                             "failed_repeats"),
                            rows, meta)


def mf_rmse_curve(target, alpha, schedule, n_steps, batch_size, seed, stride):
    """Held-out RMSE of the running posterior-mean predictor, every stride."""
    I, J, L = target.info["I"], target.info["J"], target.info["L"]
    test = target.info["test_idx"] @ np.array([J, 1])  # row-major flat indices
    y_test = np.take(target.info["Y"], test)

    def predictor(X):
        # a row of test entries per state, taken from its product bit for bit
        out = np.empty((len(X), test.size))
        for row, x in zip(out, X):
            np.take(x[:I * L].reshape(I, L) @ x[I * L:].reshape(L, J), test, out=row)
        return out

    # child 2: children 0 and 1 seed the chain's noise and minibatch streams
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
    x0 = rng.standard_normal(target.dim)  # prior draw
    cfg = SamplerConfig(alpha=alpha, drift_spec=Simplified(), schedule=schedule,
                        iterations=n_steps, seed=seed, initial_state=x0,
                        minibatch_size=batch_size, record_stride=stride)
    trace = run_chain(cfg, target, predictor)
    return [(n, float(np.sqrt(np.mean((y_test - est) ** 2))))
            for n, est in zip(trace.iterations.tolist(), trace.running)]


def mf_report(alphas, I, J, L, data_seed, schedule, n_steps, batch_size,
              seed, stride) -> ExperimentReport:
    target = synthetic_mf_target(I, J, L, data_seed)
    if batch_size is None:
        batch_size = max(1, target.data_size // 10)
    rows = []
    for alpha in sorted(set(alphas)):
        for n, rmse in mf_rmse_curve(target, alpha, schedule, n_steps,
                                     batch_size, seed, stride):
            rows.append((alpha, n, rmse))
    meta = {
        "shapes": {"I": I, "J": J, "L": L},
        "data_seed": data_seed,
        "seed": seed,
        "schedule": schedule_label(schedule),
        "iterations": n_steps,
        "batch_size": batch_size,
        "stride": stride,
        "n_train": target.data_size,
        "n_test": int(len(target.info["test_idx"])),
    }
    return ExperimentReport("mf", ("alpha", "iteration", "rmse"), rows, meta)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    target = build_target(args.target)
    schedule = parse_schedule(args.schedule)
    spec = parse_drift(args.drift)
    cfg = SamplerConfig(alpha=args.alpha, drift_spec=spec, schedule=schedule,
                        iterations=args.n, seed=args.seed,
                        initial_state=float(args.init),
                        record_stride=args.stride)
    trace = run_chain(cfg, target, lambda x: x)
    out = _outpath(args, "trace.csv")
    header = ["n", "eta"] + [f"x_{d}" for d in range(target.dim)]
    from .csvtext import write_rows  # no other subcommand loads it
    with open(out, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        write_rows(fh, trace.iterations, trace.etas, trace.states)
    summary = {
        "config": {
            "target": args.target, "alpha": args.alpha,
            "drift": drift_label(spec), "schedule": schedule_label(schedule),
            "iterations": args.n, "seed": args.seed, "init": float(args.init),
            "record_stride": args.stride,
        },
        "H_N": trace.H_N,
        "estimates": {"x": trace.estimate},
        "final_state": trace.final_state,
        "version": __version__,
        "timestamp": None,
    }
    write_json(summary, out + ".summary.json")
    return 0


def cmd_bias(args) -> int:
    """bias-k sweeps K at one h, bias-h sweeps h at one K."""
    truth = resolve_truth()
    by_k = args.cmd == "bias-k"
    report = bias_sweep_report(
        double_well_target(), parse_list(args.alpha, "alpha"),
        (args.h,) if by_k else parse_list(args.h_list, "h"),
        parse_list(args.k_list, "K", int) if by_k else (args.K,),
        parse_schedule(args.schedule), args.n, args.repeats, args.seed,
        args.init, truth)
    write_report(report, _outpath(args, "bias_k.csv" if by_k else "bias_h.csv"))
    return 0


def cmd_kappa(args) -> int:
    report = kappa_report(double_well_target(), parse_list(args.alpha, "alpha"),
                          args.h, args.k_star, args.grid_lo, args.grid_hi,
                          args.grid_n)
    if not args.dump_points:
        report.metadata.pop("per_point_kappa", None)
    write_report(report, _outpath(args, "kappa.csv"))
    return 0


def cmd_alpha_sweep(args) -> int:
    truth = resolve_truth()
    report = alpha_sweep_report(double_well_target(),
                                parse_list(args.alpha, "alpha"), args.n,
                                args.repeats, args.seed, args.init, truth)
    write_report(report, _outpath(args, "alpha_sweep.csv"))
    return 0


def cmd_mf(args) -> int:
    report = mf_report(parse_list(args.alpha, "alpha"), args.I, args.J, args.L,
                       args.data_seed, parse_schedule(args.schedule), args.n,
                       args.batch, args.seed, args.stride)
    write_report(report, _outpath(args, "mf.csv"))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flmc",
        description="Heavy-tailed Langevin MCMC chains and experiments.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int_at_least(0), default=0)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--outdir", type=str, default=".")

    sp = sub.add_parser("sample", help="run one chain, write the trace")
    sp.add_argument("--target", type=str, default="double-well")
    sp.add_argument("--alpha", type=float, default=1.7)
    sp.add_argument("--drift", type=str, default="simplified")
    sp.add_argument("--schedule", type=str, default="poly:1e-7,0.6")
    sp.add_argument("--n", type=int, default=50000)
    sp.add_argument("--init", type=float, default=0.0)
    sp.add_argument("--stride", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_sample)

    def bias(sp, init):
        sp.add_argument("--schedule", type=str, default="poly:1e-7,0.6")
        sp.add_argument("--n", type=int, default=5000)
        sp.add_argument("--repeats", type=int, default=5)
        sp.add_argument("--init", type=str, default=init)
        common(sp)
        sp.set_defaults(func=cmd_bias)

    sp = sub.add_parser("bias-k", help="bias versus truncation K")
    sp.add_argument("--alpha", type=str, default="1.5,1.6,1.7,1.8,1.9")
    sp.add_argument("--k-list", type=str, default="1,2,5,10,15,20,30")
    sp.add_argument("--h", type=float, default=0.06)
    bias(sp, "wells")

    sp = sub.add_parser("bias-h", help="bias versus stencil spacing h")
    sp.add_argument("--alpha", type=str, default="1.5")
    sp.add_argument("--h-list", type=str,
                    default="0.01,0.05,0.07,0.08,0.09,0.095,0.1,0.11,0.15")
    sp.add_argument("--K", type=int, default=15)
    bias(sp, "origin")

    sp = sub.add_parser("kappa", help="matched-truncation table")
    sp.add_argument("--alpha", type=str, default="1.5,1.6,1.7,1.8,1.9")
    sp.add_argument("--h", type=float, default=0.06)
    sp.add_argument("--k-star", type=int, default=170)
    sp.add_argument("--grid-lo", type=float, default=-5.0)
    sp.add_argument("--grid-hi", type=float, default=5.0)
    sp.add_argument("--grid-n", type=int_at_least(1), default=200)
    sp.add_argument("--dump-points", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_kappa)

    sp = sub.add_parser("alpha-sweep", help="best-schedule bias per alpha")
    sp.add_argument("--alpha", type=str, default="1.6,1.7,1.75,1.8,2.0")
    sp.add_argument("--n", type=int, default=50000)
    sp.add_argument("--repeats", type=int, default=10)
    sp.add_argument("--init", type=str, default="wells")
    common(sp)
    sp.set_defaults(func=cmd_alpha_sweep)

    sp = sub.add_parser("mf", help="matrix-factorization RMSE curves")
    sp.add_argument("--alpha", type=str, default="1.5,2.0")
    sp.add_argument("--I", type=int, default=50)
    sp.add_argument("--J", type=int, default=40)
    sp.add_argument("--L", type=int, default=5)
    sp.add_argument("--data-seed", type=int_at_least(0), default=0)
    sp.add_argument("--schedule", type=str, default="const:3e-5")
    sp.add_argument("--n", type=int, default=2000)
    sp.add_argument("--batch", type=int, default=None)
    sp.add_argument("--stride", type=int, default=25)
    common(sp)
    sp.set_defaults(func=cmd_mf)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse: usage errors exit 2, --help 0
        return e.code
    try:
        return args.func(args)
    except ChainFailure as e:
        diag = {"error": "chain-failure", "seed": e.seed, "step": e.n,
                "state": _jsonify(np.atleast_1d(e.state)),
                "cause": str(e.cause)}
        print(json.dumps(diag, sort_keys=True, allow_nan=False))
        return 1
    except (DriftOverflowError, QuadratureError, SupportError, OSError,
            MemoryError) as e:
        # before ValueError: SupportError subclasses it but is no usage error
        print(json.dumps({"error": type(e).__name__, "detail": str(e)},
                         sort_keys=True, allow_nan=False))
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
