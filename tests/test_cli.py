"""Flag grammar, report formats, exit codes, and output determinism."""

import contextlib
import hashlib
import io
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flmc import cli
from flmc.cli import (UsageError, alpha_sweep_report, bias_sweep_report,
                      build_target, drift_label, initial_states,
                      kappa_report, main, mf_report,
                      mf_rmse_curve, parse_drift, parse_list, parse_schedule,
                      resolve_truth, schedule_label, write_json, write_report,
                      ExperimentReport)
from flmc.drift import FullCentered, Simplified
from flmc.oracle import SupportError
from flmc.sampler import (Constant, Polynomial, SamplerConfig, run_chain,
                          run_ensemble)
from flmc.targets import (Target, double_well_stationary_points,
                          double_well_target, synthetic_mf_target)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "oracle_values.json")


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

def test_schedule_grammar_roundtrip():
    for sched in (Polynomial(1e-7, 0.6), Polynomial(2.5e-6, 0.51), Constant(0.01)):
        assert parse_schedule(schedule_label(sched)) == sched
    assert parse_schedule("poly:1e-7,0.6") == Polynomial(1e-7, 0.6)
    assert parse_schedule("const:0.002") == Constant(0.002)


def test_schedule_grammar_rejects():
    for bad in ("poly:1e-7", "poly:a,b", "linear:0.1", "const:", "0.01"):
        with pytest.raises(UsageError):
            parse_schedule(bad)


def test_drift_grammar():
    assert parse_drift("simplified") == Simplified()
    assert parse_drift("full:0.06,170") == FullCentered(0.06, 170)
    for spec in (Simplified(), FullCentered(0.05, 30)):
        assert parse_drift(drift_label(spec)) == spec
    for bad in ("full:0.06", "full:x,10", "riesz"):
        with pytest.raises(UsageError):
            parse_drift(bad)


def test_list_parsing():
    assert parse_list("1.5,1.9", "alpha") == (1.5, 1.9)
    assert parse_list("0.01,0.1", "h") == (0.01, 0.1)
    assert parse_list("1,2,30", "K", int) == (1, 2, 30)
    for text, flag, kind in (("a", "alpha", float), ("", "h", float),
                             ("1.5", "K", int)):
        with pytest.raises(UsageError, match=f"bad {flag} list '{text}'"):
            parse_list(text, flag, kind)


def test_build_target():
    assert build_target("double-well").dim == 1
    t = build_target("gaussian:1.5,0.25")
    assert t.gradient(1.5) == 0.0
    assert build_target("gaussian").potential(0.0) == 0.0
    with pytest.raises(UsageError):
        build_target("banana")


def test_initial_state_policies():
    assert initial_states("origin", 3) == [0.0, 0.0, 0.0]
    lo, _, hi = double_well_stationary_points()
    assert initial_states("wells", 4) == [lo, hi, lo, hi]
    assert initial_states("2.5", 2) == [2.5, 2.5]
    with pytest.raises(UsageError):
        initial_states("nowhere", 2)


def test_resolve_truth_fixture_and_quadrature(oracle_values):
    ref = oracle_values["double_well_mean"]["value"]
    assert resolve_truth(FIXTURES) == ref
    assert resolve_truth(None) == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# formatting / report plumbing
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_seventeen_digit_floats_roundtrip(x):
    assert float(format(x, ".17g")) == x


def test_write_report_and_meta(tmp_path):
    rep = ExperimentReport("demo", ("a", "b"), [(1, 0.1), (2, float("nan"))],
                           {"note": "x"})
    out = tmp_path / "demo.csv"
    write_report(rep, str(out))
    lines = out.read_text().split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.10000000000000001"
    assert lines[2] == "2,nan"
    meta = json.loads((tmp_path / "demo.csv.meta.json").read_text())
    assert meta["experiment"] == "demo"
    assert meta["timestamp"] is None
    assert meta["note"] == "x"
    assert "version" in meta


def test_write_json_nan_becomes_null(tmp_path):
    p = tmp_path / "x.json"
    write_json({"v": float("nan"), "arr": np.array([1.0, 2.0])}, str(p))
    data = json.loads(p.read_text())
    assert data["v"] is None
    assert data["arr"] == [1.0, 2.0]


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------

def test_alpha_sweep_single_cell_matches_sequential_repeats(m_star,
                                                           sequential_repeats):
    sched = Polynomial(1e-5, 0.6)
    rep = alpha_sweep_report(double_well_target(), (1.8,), 300, 3, 5,
                             "origin", m_star, grid=(sched,))
    cfg = SamplerConfig(alpha=1.8, drift_spec=Simplified(), schedule=sched,
                        iterations=300, seed=5)
    summary = sequential_repeats(cfg, double_well_target(), lambda x: x, 3,
                                 m_star, initial_states=[0.0, 0.0, 0.0])
    assert rep.rows == [(1.8, schedule_label(sched), summary.mean_abs_bias,
                         summary.se, 0)]
    # the metadata names the grid that was searched, not the default one
    assert rep.metadata["schedule_grid"] == [schedule_label(sched)]


def _no_single_chain(*args, **kwargs):
    raise AssertionError("a sweep cell ran on its own")


def test_alpha_sweep_is_one_ensemble(monkeypatch, m_star):
    # every alpha, schedule and repeat of the sweep runs in one lockstep
    # run_ensemble call, and no cell runs on its own
    calls = []

    def counting(cfgs, target, g):
        calls.append((len(cfgs), {(c.alpha, c.schedule) for c in cfgs}))
        return run_ensemble(cfgs, target, g)

    monkeypatch.setattr(cli, "run_ensemble", counting)
    monkeypatch.setattr(cli, "run_chain", _no_single_chain)
    grid = (Constant(0.002), Polynomial(1e-5, 0.6))
    rep = alpha_sweep_report(double_well_target(), (2.0, 1.5, 1.7), 40, 3, 5,
                             "wells", m_star, grid=grid)
    assert calls == [(18, {(a, s) for a in (1.5, 1.7, 2.0) for s in grid})]
    assert [row[0] for row in rep.rows] == [1.5, 1.7, 2.0]


def test_bias_sweep_single_cell_single_row(m_star):
    rep = bias_sweep_report(double_well_target(), (1.7,), (0.06,), (5,),
                            Polynomial(1e-7, 0.6), 200, 2, 0, "wells", m_star)
    assert len(rep.rows) == 1
    alpha, h, K, bias, se, failed = rep.rows[0]
    assert (alpha, h, K, failed) == (1.7, 0.06, 5, 0)
    assert np.isfinite(bias) and np.isfinite(se)


def test_bias_rows_sorted_by_parameters(m_star):
    rep = bias_sweep_report(double_well_target(), (1.9, 1.5), (0.06,), (5, 1),
                            Polynomial(1e-7, 0.6), 100, 2, 0, "origin", m_star)
    assert [(r[0], r[2]) for r in rep.rows] == [(1.5, 1), (1.5, 5), (1.9, 1), (1.9, 5)]


def test_wider_truncation_no_worse_paired(m_star):
    # cells share the base seed, so K=2 and K=30 see identical noise;
    # refinement can only help. Trapping dominates the level, so the
    # improvement is small but deterministic.
    rep = bias_sweep_report(double_well_target(), (1.6,), (0.06,), (2, 30),
                            Polynomial(1e-7, 0.6), 5000, 5, 0, "wells", m_star)
    bias = {row[2]: row[3] for row in rep.rows}
    assert bias[30] <= bias[2]


# sha256 of the CSV and .meta.json of bias_sweep_report(DW, (1.5, 2.0),
# (0.05, 0.1, 0.2), (1, 5), schedule, 300, 3, 7, "wells", m_star), recorded
# when every cell still ran its repeats one chain at a time (const:0.02
# re-recorded when double_well_grad moved to product form); at const:0.02
# two repeats of the (1.5, 0.2, 5) cell diverge
PINNED_BIAS_SWEEP = {
    "poly:1e-07,0.6": (
        "b2cd3eb2ecf3825e66f517158e35ca9a7513f9471f9944d3fce9040ab4d8aef0",
        "3c7998ab6d4c40e9643df63db492d6c920a24c9a59de0a1121a84bc841eef157"),
    "const:0.02": (
        "baafca9c2c6c1a94914a93e89ed50fe99806363169d9c8b9a4639ee89e2493e2",
        "579d3c7df3feb2bd4e7f5cda0a3c06359462f52b98abc1c9920cac03774cc7a2"),
}


@pytest.mark.parametrize("label", sorted(PINNED_BIAS_SWEEP))
def test_bias_sweep_report_pinned_bytes(tmp_path, m_star, label):
    rep = bias_sweep_report(double_well_target(), (1.5, 2.0), (0.05, 0.1, 0.2),
                            (1, 5), parse_schedule(label), 300, 3, 7, "wells",
                            m_star)
    out = tmp_path / "bias.csv"
    write_report(rep, str(out))
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (out, tmp_path / "bias.csv.meta.json"))
    assert digests == PINNED_BIAS_SWEEP[label]


def _spy_run_ensemble(monkeypatch):
    # record each run_ensemble call of a sweep as (alpha, K or the
    # simplified spec, number of chains), and forbid single-chain runs
    calls = []

    def counting(cfgs, target, g):
        spec = cfgs[0].drift_spec
        calls.append((cfgs[0].alpha,
                      spec.K if isinstance(spec, FullCentered) else spec,
                      len(cfgs)))
        return run_ensemble(cfgs, target, g)

    monkeypatch.setattr(cli, "run_ensemble", counting)
    monkeypatch.setattr(cli, "run_chain", _no_single_chain)
    return calls


def test_bias_sweep_one_ensemble_per_alpha_and_k(monkeypatch, m_star):
    # every (alpha < 2, K) is one full-drift call covering all three h
    # values and all three repeats; alpha = 2 is one simplified-drift call
    calls = _spy_run_ensemble(monkeypatch)
    bias_sweep_report(double_well_target(), (1.5, 1.7, 2.0), (0.05, 0.1, 0.2),
                      (1, 5), Polynomial(1e-7, 0.6), 20, 3, 7, "wells", m_star)
    assert calls == [(1.5, 1, 9), (1.5, 5, 9), (1.7, 1, 9), (1.7, 5, 9),
                     (2.0, Simplified(), 3)]


def test_bias_sweep_one_gaussian_run(monkeypatch, m_star):
    # at alpha = 2 the full drift is -U'(x) whatever h and K: one
    # simplified-drift call of the three repeats serves all 3 x 2 cells,
    # and they report the same row
    calls = _spy_run_ensemble(monkeypatch)
    rep = bias_sweep_report(double_well_target(), (2.0,), (0.2, 0.05, 0.1),
                            (5, 1), Polynomial(1e-7, 0.6), 20, 3, 7, "wells",
                            m_star)
    assert calls == [(2.0, Simplified(), 3)]
    assert len(rep.rows) == 6
    assert len({row[3:] for row in rep.rows}) == 1


def _hex_row(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


@settings(max_examples=20, deadline=None)
@given(alphas=st.sets(st.sampled_from([1.5, 1.8, 2.0]), min_size=1, max_size=2),
       hs=st.sets(st.sampled_from([0.05, 0.1, 0.2]), min_size=1, max_size=2),
       Ks=st.sets(st.sampled_from([1, 5]), min_size=1),
       init=st.sampled_from(["origin", "wells", "1e300"]),
       label=st.sampled_from(["poly:1e-07,0.6", "const:0.02"]),
       seed=st.integers(0, 2**32 - 1))
@example(alphas={1.5, 2.0}, hs={0.2}, Ks={5}, init="wells", label="const:0.02",
         seed=7)  # two of the (1.5, 0.2, 5) cell's repeats diverge
def test_bias_sweep_matches_sequential_repeats(m_star, sequential_repeats,
                                               alphas, hs, Ks, init, label,
                                               seed):
    # every row, the alpha = 2 rows on the simplified ensemble included,
    # is the one its cell gives with full-drift chains run one at a time;
    # const:0.02 makes some repeats diverge, and a 1e300 start every one
    schedule, n, repeats = parse_schedule(label), 300, 3
    rep = bias_sweep_report(double_well_target(), alphas, hs, Ks, schedule, n,
                            repeats, seed, init, m_star)
    want = []
    for alpha in sorted(alphas):
        for h in sorted(hs):
            for K in sorted(Ks):
                cfg = SamplerConfig(alpha=alpha, drift_spec=FullCentered(h, K),
                                    schedule=schedule, iterations=n, seed=seed)
                # a single chain's full drift warns where it overflows,
                # then records the overflow as the repeat's failure
                with np.errstate(all="ignore"):
                    summary = sequential_repeats(cfg, double_well_target(),
                                                 lambda x: x, repeats, m_star,
                                                 initial_states(init, repeats))
                want.append((alpha, h, K, summary.mean_abs_bias, summary.se,
                             summary.n_failed))
    assert [_hex_row(r) for r in rep.rows] == [_hex_row(r) for r in want]


def _broken(x):
    return x.no_such_attribute


_BROKEN = Target(dim=1, potential=_broken, gradient=_broken)


@pytest.mark.parametrize("sweep", [
    lambda truth: alpha_sweep_report(_BROKEN, (1.7, 2.0), 20, 2, 0, "wells",
                                     truth, grid=(Constant(0.002),)),
    lambda truth: bias_sweep_report(_BROKEN, (1.5,), (0.05,), (5,),
                                    Constant(0.002), 20, 2, 0, "wells", truth),
    lambda truth: bias_sweep_report(_BROKEN, (2.0,), (0.05,), (5,),
                                    Constant(0.002), 20, 2, 0, "wells", truth)],
    ids=["alpha-sweep", "bias-full-drift", "bias-alpha-2"])
def test_programming_error_propagates_from_sweeps(m_star, sweep):
    # a broken target is a programming error, never a failed repeat or a
    # NaN cell
    with pytest.raises(AttributeError):
        sweep(m_star)


def test_sweeps_reject_zero_repeats(m_star):
    dw = double_well_target()
    for alphas in ((1.5,), (2.0,)):
        with pytest.raises(ValueError):
            alpha_sweep_report(dw, alphas, 20, 0, 0, "wells", m_star)
        with pytest.raises(ValueError):
            bias_sweep_report(dw, alphas, (0.05,), (5,), Constant(0.002), 20,
                              0, 0, "wells", m_star)


def test_kappa_report_shape():
    rep = kappa_report(double_well_target(), (1.7,), 0.06, 40, -4.0, 4.0, 9)
    assert rep.columns == ("alpha", "h", "K_star", "grid_size", "kappa_hat",
                           "skipped_points")
    assert len(rep.rows) == 1
    assert rep.rows[0][0] == 1.7
    assert rep.rows[0][5] == 0
    assert len(rep.metadata["per_point_kappa"]["1.7"]) == 9


def test_mf_rmse_decreases_for_both_tails():
    rep = mf_report((1.5, 2.0), 20, 15, 3, 1, Constant(5e-5), 800, None, 3, 25)
    curves = {}
    for alpha, n, rmse in rep.rows:
        curves.setdefault(alpha, []).append(rmse)
    for alpha, vals in curves.items():
        assert len(vals) == 800 // 25
        assert vals[-1] < vals[0]
    assert rep.metadata["n_train"] + rep.metadata["n_test"] == 20 * 15


# sha256 of the CSV and .meta.json of mf_report((1.5, 2.0), 20, 15, 3, 1,
# Constant(3e-5), 200, None, 0, 25), recorded while synthetic_mf_target
# still built its target through a separate data-to-target helper
PINNED_MF = (
    "59d35705a163effc9c095027f535d6be24debf3ef473b23d771d8f13a445cc0d",
    "e83a2457a5b5851757f7b19e9cb68d02c1954e1defde46b42202d9b64f63fe0d")


def test_mf_report_pinned_bytes(tmp_path):
    rep = mf_report((1.5, 2.0), 20, 15, 3, 1, Constant(3e-5), 200, None, 0, 25)
    out = tmp_path / "mf.csv"
    write_report(rep, str(out))
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (out, tmp_path / "mf.csv.meta.json"))
    assert digests == PINNED_MF


# sha256 of the CSV and .meta.json of alpha_sweep_report(DW, (1.5, 1.7, 2.0),
# 3000, 4, 3, "wells", m_star, grid=(Constant(0.01),)), recorded while
# run_chain had a scalar and a vector step branch; one alpha-1.5 repeat
# diverges
PINNED_ALPHA_SWEEP = (
    "df229e09d3f134aa28b3092d759c50864dd1f49bc27c09a72fcc493a0134eb30",
    "f99ae332efdc5f9b53d2750b69d04cddff314c64fa6ae446a6d36b603c49097a")


def test_alpha_sweep_report_pinned_bytes(tmp_path, m_star):
    rep = alpha_sweep_report(double_well_target(), (1.5, 1.7, 2.0), 3000, 4, 3,
                             "wells", m_star, grid=(Constant(0.01),))
    assert rep.rows[0][4] == 1  # the pin holds a diverged repeat
    out = tmp_path / "alpha.csv"
    write_report(rep, str(out))
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (out, tmp_path / "alpha.csv.meta.json"))
    assert digests == PINNED_ALPHA_SWEEP


def test_repeated_values_give_one_row_each(m_star):
    sched = Polynomial(1e-7, 0.6)
    args = (200, 2, 7, "wells", m_star)
    once = bias_sweep_report(double_well_target(), (1.5, 2.0), (0.05, 0.1), (1, 5),
                             sched, *args)
    twice = bias_sweep_report(double_well_target(), (2.0, 1.5, 2.0), (0.1, 0.05, 0.1),
                              (5, 1, 5, 1), sched, *args)
    assert len(once.rows) == 8
    assert twice.rows == once.rows and twice.metadata == once.metadata


def test_repeated_alphas_run_one_sweep_cell_each(m_star):
    grid = (Constant(0.002),)
    args = (300, 2, 5, "wells", m_star)
    once = alpha_sweep_report(double_well_target(), (1.8, 2.0), *args, grid=grid)
    twice = alpha_sweep_report(double_well_target(), (2.0, 1.8, 2.0), *args, grid=grid)
    assert [r[0] for r in once.rows] == [1.8, 2.0]
    assert twice.rows == once.rows and twice.metadata == once.metadata


def test_repeated_alphas_give_one_kappa_and_mf_row_each():
    dw = double_well_target()
    kappa_args = (0.06, 20, -4.0, 4.0, 5)
    assert (kappa_report(dw, (1.7, 1.7), *kappa_args).rows
            == kappa_report(dw, (1.7,), *kappa_args).rows)
    mf_args = (8, 6, 2, 1, Constant(1e-4), 50, None, 0, 25)
    assert mf_report((2.0, 2.0), *mf_args).rows == mf_report((2.0,), *mf_args).rows


def test_mf_full_batch_curve_equals_exact_gradient_curve():
    # enumerating minibatch of size N_Y must reproduce the exact-gradient
    # chain, so the two RMSE curves agree point for point
    t = synthetic_mf_target(8, 6, 2, seed=1)
    curve_sg = mf_rmse_curve(t, 1.6, Constant(1e-3), 300, t.data_size, 9, 75)
    I, J, L = t.info["I"], t.info["J"], t.info["L"]
    ti, tj = t.info["test_idx"][:, 0], t.info["test_idx"][:, 1]
    y_test = t.info["Y"][ti, tj]

    def predictor(x):
        return x[: I * L].reshape(I, L) @ x[I * L:].reshape(L, J)

    rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
    x0 = rng.standard_normal(t.dim)
    cfg = SamplerConfig(alpha=1.6, drift_spec=Simplified(), schedule=Constant(1e-3),
                        iterations=300, seed=9, initial_state=x0, record_stride=75)
    trace = run_chain(cfg, t, {"pred": predictor}, snapshot_estimates=True)
    curve_exact = [(n, float(np.sqrt(np.mean((y_test - est["pred"][ti, tj]) ** 2))))
                   for n, est in trace.snapshots]
    assert curve_sg == curve_exact


# ---------------------------------------------------------------------------
# main(): exit codes and files
# ---------------------------------------------------------------------------

def _sample_args(tmp_path, **over):
    flags = {"--target": "double-well", "--alpha": "1.7",
             "--drift": "simplified", "--schedule": "poly:1e-7,0.6",
             "--n": "500", "--stride": "50", "--seed": "42",
             "--out": str(tmp_path / "trace.csv")}
    flags.update(over)
    argv = ["sample"]
    for k, v in flags.items():
        argv += [k, v]
    return argv


def test_sample_writes_trace_and_summary(tmp_path):
    assert main(_sample_args(tmp_path)) == 0
    lines = (tmp_path / "trace.csv").read_text().split("\n")
    assert lines[0] == "n,eta,x_0"
    assert len([l for l in lines[1:] if l]) == 500 // 50
    summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
    assert summary["config"]["alpha"] == 1.7
    assert summary["timestamp"] is None
    assert "x" in summary["estimates"]
    assert summary["H_N"] > 0


def test_sample_rejects_alpha_out_of_range(tmp_path, capsys):
    code = main(_sample_args(tmp_path, **{"--alpha": "2.5"}))
    assert code == 2
    assert "(1, 2]" in capsys.readouterr().err


def test_usage_error_on_bad_schedule(tmp_path, capsys):
    code = main(_sample_args(tmp_path, **{"--schedule": "linear:1"}))
    assert code == 2
    assert "schedule" in capsys.readouterr().err


def test_chain_failure_exits_one_with_diagnostic(tmp_path, capsys):
    code = main(_sample_args(tmp_path, **{"--alpha": "1.5", "--n": "2000",
                                          "--schedule": "const:0.2"}))
    assert code == 1
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "chain-failure"
    assert diag["cause"] == "divergence"
    assert diag["step"] >= 1


def test_full_drift_overflow_exits_one_without_warnings(tmp_path, capsys):
    # U overflows at the start: exit 1 with the JSON diagnostic, and no
    # numpy RuntimeWarning on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sample", "--drift", "full:0.05,5", "--init", "1e300",
                     "--n", "5", "--out", str(tmp_path / "trace.csv")])
    out = capsys.readouterr()
    assert code == 1
    assert json.loads(out.out) == {
        "cause": "drift overflow at x=1e+300: exponent nan",
        "error": "chain-failure", "seed": 0, "state": [1e300], "step": 1}
    assert out.err == ""
    assert caught == []


def test_support_error_exits_one_with_diagnostic(tmp_path, capsys, monkeypatch):
    # SupportError subclasses ValueError but is a runtime failure, not a
    # usage error
    def no_support(fixtures_path):
        raise SupportError("density mass leaks past the integration window")

    monkeypatch.setattr(cli, "resolve_truth", no_support)
    code = main(["bias-h", "--h-list", "0.05", "--n", "10", "--repeats", "1",
                 "--outdir", str(tmp_path)])
    assert code == 1
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "SupportError"


# a small grammar of `flmc sample` flag values. Each flag draws a value that
# parses (extremes and non-finite numbers included) three times in four, so
# that whole commands also succeed or fail at run time, and otherwise one
# that is out of range or malformed.
def _mostly(good, bad):
    return st.integers(0, 3).flatmap(lambda i: good if i else bad)


_NUM = st.sampled_from(["0", "-1", "1e-3", "0.6", "1e300", "nan", "inf", "x"])
_SCHEDULE = _mostly(
    st.sampled_from(["const:0.002", "const:0.05", "const:1e300", "const:inf",
                     "poly:1e-7,0.6", "poly:1e-3,1", "poly:inf,0.7"]),
    st.one_of(st.builds("const:{}".format, _NUM),
              st.builds("poly:{},{}".format, _NUM, _NUM),
              st.sampled_from(["const:", "poly:1e-3", "linear:1", ""])))
_DRIFT = _mostly(
    st.one_of(st.just("simplified"),
              st.builds("full:{},{}".format,
                        st.sampled_from(["1e-3", "0.05", "1", "1e300"]),
                        st.integers(1, 50))),
    st.one_of(st.builds("full:{},{}".format, _NUM, st.integers(-1, 0)),
              st.sampled_from(["full:nan,5", "full:-1,5", "full:", "full:0.05",
                               "full:0.05,2.5", "levy"])))
_TARGET = _mostly(
    st.sampled_from(["double-well", "gaussian", "gaussian:3,1e-300",
                     "gaussian:1e300,2", "gaussian:nan,1"]),
    st.one_of(st.builds("gaussian:{},{}".format, _NUM, _NUM),
              st.sampled_from(["nope", "gaussian:1", "gaussian:0,0", ""])))
_ALPHA = _mostly(st.sampled_from(["1.5", "1.7", "2"]),
                 st.sampled_from(["1", "0", "-1.5", "2.5", "nan", "inf", "abc"]))
_INIT = _mostly(st.sampled_from(["0", "-3.6", "1e300", "nan", "inf"]),
                st.sampled_from(["-inf", "x", ""]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme flag values
@settings(max_examples=150, deadline=None)
@given(schedule=_SCHEDULE, drift=_DRIFT, target=_TARGET, alpha=_ALPHA,
       init=_INIT)
def test_sample_exit_code_contract(tmp_path_factory, schedule, drift, target,
                                   alpha, init):
    # 0 for success, 1 for a runtime failure with JSON on stdout, 2 for a
    # usage error; main never raises, whatever the flags
    out = str(tmp_path_factory.getbasetemp() / "contract.csv")
    argv = ["sample", "--n", "20", "--schedule", schedule, "--drift", drift,
            "--alpha", alpha, "--init", init, "--target", target, "--out", out]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert isinstance(json.loads(stdout.getvalue()), dict)
    else:
        assert stdout.getvalue() == ""


@pytest.mark.parametrize("flag,value", [
    ("--init", "nan"), ("--init", "inf"), ("--schedule", "const:inf"),
    ("--schedule", "poly:inf,0.6"), ("--target", "gaussian:nan,1"),
    ("--target", "gaussian:0,inf"), ("--drift", "full:inf,5")])
def test_non_finite_flag_is_usage_error(tmp_path, capsys, flag, value):
    code = main(_sample_args(tmp_path, **{"--n": "20", flag: value}))
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "finite" in out.err


def _run_main(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


_SWEEP_TAIL = ["--n", "5", "--repeats", "2", "--fixtures", FIXTURES]


@pytest.mark.parametrize("argv", [
    ["bias-k", "--alpha", "2", "--k-list", "0"],
    ["bias-k", "--alpha", "1.5,2", "--k-list", "1,0"],
    ["bias-h", "--alpha", "2", "--h-list", "-1"],
    ["bias-h", "--alpha", "2", "--h-list", "nan"],
    *([cmd, "--alpha", alpha, "--repeats", "0"]
      for cmd in ("bias-k", "bias-h", "alpha-sweep") for alpha in ("1.5", "2"))],
    ids=" ".join)
def test_sweep_usage_error_exits_two(tmp_path, argv):
    # the alpha = 2 cells validate h and K though their drift ignores them
    code, out = _run_main(argv[:1] + _SWEEP_TAIL + argv[1:]
                          + ["--outdir", str(tmp_path)])
    assert (code, out) == (2, "")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("cmd", ["bias-k", "bias-h", "alpha-sweep"])
def test_sweep_all_diverging_exits_zero_with_nan_rows(tmp_path, cmd):
    # every repeat of every cell fails, the alpha = 2 ones included: an
    # outcome to report, not an error
    out = tmp_path / "sweep.csv"
    code, stdout = _run_main([cmd, "--alpha", "1.5,2", "--init", "1e300",
                              *_SWEEP_TAIL, "--out", str(out)])
    assert (code, stdout) == (0, "")
    rows = out.read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"1.5", "2"}
    assert all(row.endswith(",nan,nan,2") for row in rows)


# sha256 of `flmc sample --alpha 1.7 --schedule const:0.002 --n 3000
# --stride 7 --init -3.6` (double well, seed 0): the CSV and its
# .summary.json, recorded when double_well_grad moved to product form
PINNED_SAMPLE = (
    "1d2a8247710e6328e4e8458e4474a69ab0b615c95a4f295f324ccb9cb0033743",
    "bc74c18a64da24183de43f7414cfc1db2f77fc9fc767836d25bfa888386f6096")
# 10 000 rows: several of the trace writer's row chunks
PINNED_SAMPLE_MULTI_CHUNK = (
    "23321b6bc88058044753e4e6a73887723c2dd600d9f724d11c827ab53a87082b",
    "7f4210ce6093b5eeced71e98a28b7c8e3a88bb7d6637fcbb2ac108df6d368650")


def _sample_digests(tmp_path, n, stride):
    out = tmp_path / "s.csv"
    assert main(["sample", "--alpha", "1.7", "--schedule", "const:0.002",
                 "--n", n, "--stride", stride, "--init", "-3.6",
                 "--out", str(out)]) == 0
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (out, tmp_path / "s.csv.summary.json"))


def test_sample_pinned_bytes(tmp_path):
    assert _sample_digests(tmp_path, "3000", "7") == PINNED_SAMPLE


def test_sample_pinned_bytes_multi_chunk(tmp_path):
    assert _sample_digests(tmp_path, "10000", "1") == PINNED_SAMPLE_MULTI_CHUNK


def test_sample_reruns_byte_identical(tmp_path):
    argv = _sample_args(tmp_path)
    assert main(argv) == 0
    first = (tmp_path / "trace.csv").read_bytes()
    first_sum = (tmp_path / "trace.csv.summary.json").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "trace.csv").read_bytes() == first
    assert (tmp_path / "trace.csv.summary.json").read_bytes() == first_sum


def test_sample_csv_matches_per_cell_formatting(tmp_path):
    # the one-template row writer must write the bytes of the per-cell
    # loop: rebuild the rows from the same chain, format(v, '.17g') per cell
    argv = _sample_args(tmp_path, **{"--n": "3000", "--stride": "1",
                                     "--schedule": "poly:1e-3,0.7"})
    assert main(argv) == 0
    cfg = SamplerConfig(alpha=1.7, drift_spec=Simplified(),
                        schedule=Polynomial(1e-3, 0.7), iterations=3000,
                        seed=42, initial_state=0.0)
    trace = run_chain(cfg, double_well_target(), {"x": lambda x: x})
    lines = ["n,eta,x_0\n"]
    for i in range(len(trace.iterations)):
        cells = [str(int(trace.iterations[i])), format(float(trace.etas[i]), ".17g")]
        cells += [format(float(v), ".17g") for v in trace.states[i]]
        lines.append(",".join(cells) + "\n")
    assert (tmp_path / "trace.csv").read_bytes() == "".join(lines).encode()


def test_bias_k_single_cell_cli(tmp_path):
    out = tmp_path / "bk.csv"
    code = main(["bias-k", "--alpha", "1.7", "--k-list", "5", "--n", "200",
                 "--repeats", "2", "--seed", "0", "--fixtures", FIXTURES,
                 "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().split("\n") if l]
    assert lines[0] == "alpha,h,K,mean_bias,se,failed_repeats"
    assert len(lines) == 2
    meta = json.loads((tmp_path / "bk.csv.meta.json").read_text())
    assert meta["experiment"] == "bias-sweep"
    assert meta["init"] == "wells"


def test_bias_h_single_row_cli(tmp_path):
    out = tmp_path / "bh.csv"
    code = main(["bias-h", "--alpha", "1.5", "--h-list", "0.08", "--K", "15",
                 "--n", "200", "--repeats", "2", "--seed", "0",
                 "--fixtures", FIXTURES, "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().split("\n") if l]
    assert len(lines) == 2


def test_kappa_cli_points_dump(tmp_path):
    base = ["kappa", "--alpha", "1.7", "--k-star", "40", "--grid-lo", "-4",
            "--grid-hi", "4", "--grid-n", "7"]
    out1 = tmp_path / "k1.csv"
    assert main(base + ["--out", str(out1)]) == 0
    meta1 = json.loads((tmp_path / "k1.csv.meta.json").read_text())
    assert "per_point_kappa" not in meta1
    out2 = tmp_path / "k2.csv"
    assert main(base + ["--dump-points", "--out", str(out2)]) == 0
    meta2 = json.loads((tmp_path / "k2.csv.meta.json").read_text())
    assert len(meta2["per_point_kappa"]["1.7"]) == 7


def test_outdir_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("FLMC_OUTDIR", str(tmp_path))
    assert main(["kappa", "--alpha", "1.8", "--k-star", "20", "--grid-n", "5",
                 "--grid-lo", "-4", "--grid-hi", "4"]) == 0
    assert (tmp_path / "kappa.csv").exists()
