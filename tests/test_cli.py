"""Flag grammar, report formats, exit codes, and output determinism."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flmc import cli, csvtext
from flmc.cli import (UsageError, alpha_sweep_report, bias_sweep_report,
                      build_target, drift_label, initial_states,
                      kappa_report, main, mf_report,
                      mf_rmse_curve, parse_drift, parse_list, parse_schedule,
                      resolve_truth, schedule_label, write_json, write_report,
                      ExperimentReport)
from flmc.drift import DriftOverflowError, FullCentered, Simplified
from flmc.oracle import SupportError
from flmc.sampler import (ChainFailure, Constant, Polynomial, SamplerConfig,
                          run_chain, run_ensemble)
from flmc.targets import (Target, double_well_stationary_points,
                          double_well_target, synthetic_mf_target)


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
    # the sweeps' truth is integrated on every run; it is the recorded
    # value bit for bit
    assert resolve_truth() == oracle_values["double_well_mean"]["value"]


def _fixtures_file(tmp_path, text):
    path = tmp_path / "fixtures.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _assert_truth_file_refused(tmp_path, text):
    # resolve_truth takes no file, and a sweep handed one through
    # --fixtures stops at the flag: exit 2, a usage diagnostic naming the
    # flag, nothing written
    path = _fixtures_file(tmp_path, text)
    with pytest.raises(TypeError):
        resolve_truth(path)
    outdir = tmp_path / "out"
    outdir.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["bias-k", "--n", "5", "--repeats", "2", "--fixtures",
                     path, "--outdir", str(outdir)])
    assert (code, stdout.getvalue()) == (2, "")
    assert "unrecognized arguments: --fixtures" in stderr.getvalue()
    assert os.listdir(outdir) == []


@pytest.mark.parametrize("text", ['{"x": 1}', "[1]", '{"double_well_mean": [1]}',
                                  '{"double_well_mean": {}}'])
def test_resolve_truth_rejects_a_missing_value(tmp_path, text):
    _assert_truth_file_refused(tmp_path, text)


@pytest.mark.parametrize("value", ['"0.25"', "true", "null", "[0.25]"])
def test_resolve_truth_rejects_a_non_numeric_value(tmp_path, value):
    _assert_truth_file_refused(
        tmp_path, '{"double_well_mean": {"value": %s}}' % value)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999",
                                   "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "1e999", "huge-int"])
def test_resolve_truth_rejects_a_non_finite_value(tmp_path, value):
    _assert_truth_file_refused(
        tmp_path, '{"double_well_mean": {"value": %s}}' % value)


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


def _strict_json(text):
    """json.loads refusing NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


_FLOATS = st.one_of(st.floats(), st.floats().map(np.float64),
                    st.floats(width=32).map(np.float32))
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=3), _FLOATS,
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.lists(st.floats(), max_size=6).map(np.array),
    st.lists(st.floats(), max_size=3).map(lambda v: np.array([v, v])))


@settings(deadline=None)
@given(obj=st.recursive(_JSON_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=3), st.tuples(kids, kids),
    st.dictionaries(st.text(max_size=3), kids, max_size=3)), max_leaves=12))
def test_write_json_output_is_strict_json(tmp_path_factory, obj):
    # a non-finite float, Python or numpy, is written as null
    p = tmp_path_factory.getbasetemp() / "strict.json"
    write_json(obj, str(p))
    _strict_json(p.read_text())


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
def test_bias_sweep_report_pinned_bytes(tmp_path, m_star, label, pin_note):
    rep = bias_sweep_report(double_well_target(), (1.5, 2.0), (0.05, 0.1, 0.2),
                            (1, 5), parse_schedule(label), 300, 3, 7, "wells",
                            m_star)
    out = tmp_path / "bias.csv"
    write_report(rep, str(out))
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (out, tmp_path / "bias.csv.meta.json"))
    assert digests == PINNED_BIAS_SWEEP[label], pin_note


def _spy_run_ensemble(monkeypatch):
    # record each run_ensemble call of a sweep as its number of chains and
    # its set of (alpha, drift), and forbid single-chain runs
    calls = []

    def counting(cfgs, target, g):
        calls.append((len(cfgs), {(c.alpha, c.drift_spec) for c in cfgs}))
        return run_ensemble(cfgs, target, g)

    monkeypatch.setattr(cli, "run_ensemble", counting)
    monkeypatch.setattr(cli, "run_chain", _no_single_chain)
    return calls


def test_bias_sweep_one_ensemble_per_alpha_and_k(monkeypatch, m_star):
    # one full-drift call covers every alpha, alpha = 2 included, both K,
    # all three h values and all three repeats
    calls = _spy_run_ensemble(monkeypatch)
    bias_sweep_report(double_well_target(), (1.5, 1.7, 2.0), (0.05, 0.1, 0.2),
                      (1, 5), Polynomial(1e-7, 0.6), 20, 3, 7, "wells", m_star)
    assert calls == [(54, {(a, FullCentered(h, K)) for a in (1.5, 1.7, 2.0)
                           for h in (0.05, 0.1, 0.2) for K in (1, 5)})]


def test_bias_sweep_one_gaussian_run(monkeypatch, m_star):
    # at alpha = 2 the full drift is -U'(x) whatever h and K: the 3 x 2
    # cells run in one call and report the same row
    calls = _spy_run_ensemble(monkeypatch)
    rep = bias_sweep_report(double_well_target(), (2.0,), (0.2, 0.05, 0.1),
                            (5, 1), Polynomial(1e-7, 0.6), 20, 3, 7, "wells",
                            m_star)
    assert [n for n, _ in calls] == [18]
    assert len(rep.rows) == 6
    assert len({row[3:] for row in rep.rows}) == 1


def test_bias_sweep_alpha_two_overflow_fails_as_run_chain(monkeypatch, m_star):
    # a repeat started at 1e200, where U' overflows, fails at step 1 with
    # the DriftOverflowError that run_chain raises, at its start
    seen = []

    def recording(cfgs, target, g):
        outcomes = run_ensemble(cfgs, target, g)
        seen.extend(zip(cfgs, outcomes))
        return outcomes

    monkeypatch.setattr(cli, "run_ensemble", recording)
    rep = bias_sweep_report(double_well_target(), (2.0,), (0.05,), (5,),
                            Constant(0.002), 20, 2, 7, "1e200", m_star)
    assert rep.rows[0][5] == 2 and len(seen) == 2
    for cfg, got in seen:
        with pytest.raises(ChainFailure) as want:
            run_chain(cfg, double_well_target())
        assert isinstance(got, ChainFailure)
        assert isinstance(got.cause, DriftOverflowError)
        assert (got.n, got.state) == (want.value.n, want.value.state) == (1, 1e200)
        assert str(got.cause) == str(want.value.cause)


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
    # every row, the alpha = 2 rows included, is the one its cell gives
    # with full-drift chains run one at a time; const:0.02 makes some
    # repeats diverge, and a 1e300 start every one
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
# Constant(3e-5), 200, None, 0, 25); the CSV was re-recorded when the
# chain's start was drawn from its own seed child instead of the noise one
PINNED_MF = (
    "89a1fea5a31f3ae6de24724c4164ac531662259a869038aa40cfa7261f97fa1a",
    "e83a2457a5b5851757f7b19e9cb68d02c1954e1defde46b42202d9b64f63fe0d")


def test_mf_report_pinned_bytes(tmp_path, pin_note):
    rep = mf_report((1.5, 2.0), 20, 15, 3, 1, Constant(3e-5), 200, None, 0, 25)
    out = tmp_path / "mf.csv"
    write_report(rep, str(out))
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (out, tmp_path / "mf.csv.meta.json"))
    assert digests == PINNED_MF, pin_note


# sha256 of the CSV and .meta.json of alpha_sweep_report(DW, (1.5, 1.7, 2.0),
# 3000, 4, 3, "wells", m_star, grid=(Constant(0.01),)), recorded while
# run_chain had a scalar and a vector step branch; one alpha-1.5 repeat
# diverges
PINNED_ALPHA_SWEEP = (
    "df229e09d3f134aa28b3092d759c50864dd1f49bc27c09a72fcc493a0134eb30",
    "f99ae332efdc5f9b53d2750b69d04cddff314c64fa6ae446a6d36b603c49097a")


def test_alpha_sweep_report_pinned_bytes(tmp_path, m_star, pin_note):
    rep = alpha_sweep_report(double_well_target(), (1.5, 1.7, 2.0), 3000, 4, 3,
                             "wells", m_star, grid=(Constant(0.01),))
    assert rep.rows[0][4] == 1  # the pin holds a diverged repeat
    out = tmp_path / "alpha.csv"
    write_report(rep, str(out))
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (out, tmp_path / "alpha.csv.meta.json"))
    assert digests == PINNED_ALPHA_SWEEP, pin_note


def test_alpha_sweep_csv_quotes_a_poly_schedule(tmp_path, m_star):
    # a poly: label holds a comma; the row must still read back as five
    # fields, and the schedule field must parse back to the schedule
    sched = Polynomial(1e-8, 0.7)
    rep = alpha_sweep_report(double_well_target(), (1.7,), 10, 1, 0, "wells",
                             m_star, grid=(sched,))
    out = tmp_path / "alpha.csv"
    write_report(rep, str(out))
    assert out.read_text().splitlines()[1].startswith('1.7,"poly:1e-08,0.7",')
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [5, 5]
    assert parse_schedule(rows[1][1]) == sched


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
    curve_exact = mf_rmse_curve(t, 1.6, Constant(1e-3), 300, None, 9, 75)
    assert [n for n, _ in curve_sg] == [75, 150, 225, 300]
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


def test_divergence_diagnostic_is_strict_json(tmp_path, capsys):
    # the first step leaves the float range, so the failed state is -inf,
    # which the diagnostic writes as null
    code = main(["sample", "--init", "1e200", "--n", "5",
                 "--out", str(tmp_path / "trace.csv")])
    assert code == 1
    diag = _strict_json(capsys.readouterr().out)
    assert diag["cause"] == "divergence"
    assert diag["state"] == [None]


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
        "cause": "drift overflow at x=1e+300: exponent inf",
        "error": "chain-failure", "seed": 0, "state": [1e300], "step": 1}
    assert out.err == ""
    assert caught == []


@pytest.mark.parametrize("argv", [
    ["kappa", "--alpha", "1.01", "--h", "1e-320", "--k-star", "5", "--grid-n", "3"],
    ["bias-h", "--alpha", "1.01", "--h-list", "1e-320", "--n", "10",
     "--repeats", "1"],
    ["sample", "--alpha", "1.01", "--drift", "full:1e-320,5", "--n", "10"]],
    ids=" ".join)
def test_h_gamma_overflow_is_usage_error(tmp_path, capsys, argv):
    # (1e-320)**-0.99 overflows a double: the flags are at fault, so exit 2
    # with one error line, not a traceback or a chain failure
    code = main(argv + ["--outdir", str(tmp_path)])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.startswith("error: h**gamma") and out.err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["sample", "--seed", "-1", "--n", "10"],
    ["bias-k", "--seed", "-1", "--n", "10", "--repeats", "1"],
    ["mf", "--data-seed", "-1", "--n", "10"],
    ["kappa", "--grid-n", "-1"],
    ["kappa", "--grid-n", "0"]], ids=" ".join)
def test_count_flag_below_its_bound_names_the_flag(tmp_path, capsys, argv):
    # rejected as the flags are parsed, not by numpy's seeding or linspace
    # with a message that names no flag
    flag = argv[1]
    bound = 1 if flag == "--grid-n" else 0
    code = main(argv + ["--outdir", str(tmp_path)])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert f"error: argument {flag}: must be >= {bound}, got" in out.err
    assert os.listdir(tmp_path) == []


def test_non_integer_seed_keeps_argparse_message(capsys):
    assert main(["sample", "--seed", "abc"]) == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


def test_oversized_chain_exits_one_with_diagnostic(tmp_path, capsys):
    # 10**15 recorded steps need 8 PB, beyond any address space, so the
    # allocation fails at once
    code = main(["sample", "--n", "1000000000000000", "--outdir", str(tmp_path)])
    diag = json.loads(capsys.readouterr().out)
    assert (code, diag["error"]) == (1, "MemoryError")
    assert os.listdir(tmp_path) == []


def test_support_error_exits_one_with_diagnostic(tmp_path, capsys, monkeypatch):
    # SupportError subclasses ValueError but is a runtime failure, not a
    # usage error
    def no_support(target, g):
        raise SupportError("density mass leaks past the integration window")

    monkeypatch.setattr(cli, "quadrature_expectation", no_support)
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
        assert isinstance(_strict_json(stdout.getvalue()), dict)
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


_SWEEP_TAIL = ["--n", "5", "--repeats", "2"]


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


@pytest.mark.parametrize("text", ['{"x": 1}', "[1]"])
@pytest.mark.parametrize("cmd", ["bias-k", "bias-h", "alpha-sweep"])
def test_sweep_fixtures_without_value_exit_two(tmp_path, cmd, text):
    # the sweeps read no file, so --fixtures, whatever it names, is an
    # unknown flag: a usage error, not a traceback
    outdir = tmp_path / "out"
    outdir.mkdir()
    code, out = _run_main([cmd, "--n", "5", "--repeats", "2", "--fixtures",
                           _fixtures_file(tmp_path, text), "--outdir", str(outdir)])
    assert (code, out) == (2, "")
    assert os.listdir(outdir) == []


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
# --stride 7 --init -3.6` (double well, seed 0): the CSV, recorded when
# double_well_grad moved to product form, and its .summary.json, recorded
# when the config echo dropped its always-null minibatch_size
PINNED_SAMPLE = (
    "1d2a8247710e6328e4e8458e4474a69ab0b615c95a4f295f324ccb9cb0033743",
    "9a99f9ee55ec05081cf20a999cd4797b46ef3b47ca201aa9ec5f8485737aa8d9")
# 10 000 rows: several of the trace writer's row chunks
PINNED_SAMPLE_MULTI_CHUNK = (
    "23321b6bc88058044753e4e6a73887723c2dd600d9f724d11c827ab53a87082b",
    "e8e29fe4fc7fcf7feacac52a94e2e2bf15bd0536c2a4a2561adcdfb06a0247ae")
# the same 10 000 rows under --schedule poly:1e-3,0.7, whose eta column
# varies down every row chunk; recorded before the writer gave a constant
# eta column its own row template
PINNED_SAMPLE_POLY = (
    "ff62c364d732aefb99f16c7604846e7d0879db5f0a2a018ffdb50122275c0ea6",
    "1ec1881b7aff9c54f64fcadd7b7564954ddc6e30d8668c4bc7dbbe7991c41ea1")


def _sample_digests(tmp_path, n, stride, schedule="const:0.002"):
    out = tmp_path / "s.csv"
    assert main(["sample", "--alpha", "1.7", "--schedule", schedule,
                 "--n", n, "--stride", stride, "--init", "-3.6",
                 "--out", str(out)]) == 0
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (out, tmp_path / "s.csv.summary.json"))


def test_sample_pinned_bytes(tmp_path, pin_note):
    assert _sample_digests(tmp_path, "3000", "7") == PINNED_SAMPLE, pin_note


def test_sample_pinned_bytes_multi_chunk(tmp_path, pin_note):
    assert _sample_digests(tmp_path, "10000", "1") == PINNED_SAMPLE_MULTI_CHUNK, pin_note


def test_sample_pinned_bytes_varying_eta(tmp_path, pin_note):
    assert _sample_digests(tmp_path, "10000", "1",
                           "poly:1e-3,0.7") == PINNED_SAMPLE_POLY, pin_note


def test_sample_has_no_batch_flag(tmp_path, capsys):
    # no built-in target has data terms, so a minibatch could only fail
    assert main(["sample", "--batch", "4", "--out", str(tmp_path / "s.csv")]) == 2
    assert "unrecognized arguments: --batch" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


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
    trace = run_chain(cfg, double_well_target())
    lines = ["n,eta,x_0\n"]
    for i in range(len(trace.iterations)):
        cells = [str(int(trace.iterations[i])), format(float(trace.etas[i]), ".17g")]
        cells += [format(float(v), ".17g") for v in trace.states[i]]
        lines.append(",".join(cells) + "\n")
    assert (tmp_path / "trace.csv").read_bytes() == "".join(lines).encode()


@pytest.mark.parametrize("target, schedule, n, stride, encoded", [
    # eta = 0.02 / n falls below 1e-6 after step 20 000: the row chunks
    # before that are encoded, the one across it and those after it not
    ("gaussian", "poly:0.02,1", 24000, 1, True),
    ("double-well", "poly:0.02,1", 96000, 4, True),
    # states near 1e-176: every chunk goes through the '%' template, with
    # the constant eta, printed 3.0000000000000002e-300, formatted once
    ("gaussian:0,1", "const:3e-300", 5000, 1, False),
])
def test_sample_csv_mixing_encoded_and_declined_chunks(tmp_path, monkeypatch,
                                                      target, schedule, n,
                                                      stride, encoded):
    seen, encode = [], csvtext.encode_rows

    def spy(*args):
        text = encode(*args)
        seen.append(text is not None)
        return text

    monkeypatch.setattr(csvtext, "encode_rows", spy)
    out = tmp_path / "t.csv"
    assert main(["sample", "--target", target, "--schedule", schedule,
                 "--n", str(n), "--stride", str(stride), "--out", str(out)]) == 0
    monkeypatch.undo()
    assert False in seen and (True in seen) == encoded
    cfg = SamplerConfig(alpha=1.7, drift_spec=Simplified(),
                        schedule=parse_schedule(schedule), iterations=n, seed=0,
                        initial_state=0.0, record_stride=stride)
    trace = run_chain(cfg, build_target(target))
    lines = ["n,eta,x_0\n"]
    for i in range(len(trace.iterations)):
        cells = [str(int(trace.iterations[i])), format(float(trace.etas[i]), ".17g")]
        cells += [format(float(v), ".17g") for v in trace.states[i]]
        lines.append(",".join(cells) + "\n")
    assert out.read_bytes() == "".join(lines).encode()


def test_bias_k_single_cell_cli(tmp_path, oracle_values):
    out = tmp_path / "bk.csv"
    code = main(["bias-k", "--alpha", "1.7", "--k-list", "5", "--n", "200",
                 "--repeats", "2", "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().split("\n") if l]
    assert lines[0] == "alpha,h,K,mean_bias,se,failed_repeats"
    assert len(lines) == 2
    meta = json.loads((tmp_path / "bk.csv.meta.json").read_text())
    assert meta["experiment"] == "bias-sweep"
    assert meta["init"] == "wells"
    assert meta["truth"] == oracle_values["double_well_mean"]["value"]


def test_bias_h_single_row_cli(tmp_path):
    out = tmp_path / "bh.csv"
    code = main(["bias-h", "--alpha", "1.5", "--h-list", "0.08", "--K", "15",
                 "--n", "200", "--repeats", "2", "--seed", "0",
                 "--out", str(out)])
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


def _kappa_at(tmp_path, lo, hi, n):
    # U overflows at 1e300: the point is skipped, and numpy's overflow
    # stays silent
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["kappa", "--alpha", "1.5", "--k-star", "20",
                     "--grid-lo", lo, "--grid-hi", hi, "--grid-n", n,
                     "--out", str(tmp_path / "kappa.csv")])
    assert caught == []
    return code


def test_kappa_skips_an_overflowing_point_without_warnings(tmp_path, capsys):
    assert _kappa_at(tmp_path, "0.5", "1e300", "2") == 0
    assert "RuntimeWarning" not in capsys.readouterr().err
    header, row = (tmp_path / "kappa.csv").read_text().splitlines()
    assert header.endswith(",skipped_points") and row.endswith(",1")


def test_kappa_all_overflow_grid_exits_one_without_warnings(tmp_path, capsys):
    assert _kappa_at(tmp_path, "1e300", "1e300", "3") == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["error"] == "DriftOverflowError"
    assert "RuntimeWarning" not in out.err
    assert not (tmp_path / "kappa.csv").exists()


def test_kappa_all_overflow_detail_names_count_and_range(tmp_path, capsys):
    # the diagnostic names the grid by its size and range, not by the repr
    # of its 5 000 points
    assert _kappa_at(tmp_path, "1e300", "2e300", "5000") == 1
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "DriftOverflowError"
    assert diag["detail"] == ("drift overflow at all 5000 grid points, "
                              "x in [1e+300, 2e+300]: exponent inf")


@pytest.mark.parametrize("flags", [
    ["--h", "inf"], ["--h", "1e308"], ["--grid-lo", "nan"],
    ["--grid-hi", "inf"]], ids=" ".join)
def test_kappa_non_finite_h_or_grid_is_usage_error(tmp_path, capsys, flags):
    # the stencil's reach K*h (K_star = 170) and every grid point must be
    # finite; numpy stays silent on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["kappa", "--alpha", "1.5", *flags,
                     "--out", str(tmp_path / "kappa.csv")])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert "finite" in out.err
    assert caught == []
    assert not (tmp_path / "kappa.csv").exists()


def test_kappa_warns_once_per_call(tmp_path):
    # a fresh process, whose log warnings reach stderr: one line for 4 999
    # skipped points, none when every point overflows and the diagnostic
    # names them; a warning per skipped point wrote 5 000 lines
    # flmc reads no environment variable, so neither of these two may
    # change what reaches stderr
    env = dict(os.environ, FLMC_VERBOSE="1",
               FLMC_OUTDIR=str(tmp_path / "ignored"),
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))

    def run(lo):
        done = subprocess.run(
            [sys.executable, "-m", "flmc.cli", "kappa", "--alpha", "1.5",
             "--k-star", "20", "--grid-lo", lo, "--grid-hi", "2e300",
             "--grid-n", "5000", "--out", str(tmp_path / "kappa.csv")],
            env=env, capture_output=True, text=True)
        return done.returncode, done.stderr.splitlines()

    assert run("1e300") == (1, [])
    skipped_lo = float(np.linspace(0.5, 2e300, 5000)[1])
    assert run("0.5") == (0, [
        f"kappa: drift overflow at 4999 of 5000 grid points, x in "
        f"[{skipped_lo!r}, 2e+300]: skipped"])


def test_outdir_defaults_to_working_directory(tmp_path, monkeypatch):
    # without --outdir the report lands in the working directory, whatever
    # FLMC_OUTDIR names
    work, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
    work.mkdir()
    elsewhere.mkdir()
    monkeypatch.setenv("FLMC_OUTDIR", str(elsewhere))
    monkeypatch.chdir(work)
    assert main(["kappa", "--alpha", "1.8", "--k-star", "20", "--grid-n", "5",
                 "--grid-lo", "-4", "--grid-hi", "4"]) == 0
    assert sorted(os.listdir(work)) == ["kappa.csv", "kappa.csv.meta.json"]
    assert os.listdir(elsewhere) == []
