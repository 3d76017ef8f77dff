"""Fast self-check of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/selfcheck.py

It checks that:
- every workload, plain and traced, exits 0 and prints a last line with
  exactly the keys correct, attempted, failed and metrics, naming every
  metric of BENCHMARK.json for that mode with its unit, no operation
  failing, and one stderr line per output check (at tiny sizes the
  statistical checks may read FAIL; only the plumbing is checked here);
- a traced name that no longer exists is reported as missing and the
  traced round still runs;
- the trace checks reject a corrupted CSV;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

Everything it writes goes under .perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out", "selfcheck")
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ("escape", "stencil", "mf", "trace")

problems = []


def expect(ok, what):
    print(f"selfcheck: {'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        problems.append(what)


def check_runs(spec):
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            expect(proc.returncode == 0, f"{label} exits 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label} prints exactly the four keys")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
                   and result["failed"] == 0, f"{label} attempts work and none fails")
            wanted = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            expect(sorted(got) == sorted(m["name"] for m in wanted),
                   f"{label} names every {'per-layer' if trace else 'end-to-end'} metric")
            expect(all(got[m["name"]]["unit"] == m["unit"] for m in wanted if m["name"] in got),
                   f"{label} gives each metric its unit")
            values = [v["value"] for v in got.values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                   f"{label} values are finite numbers")
            if not trace:
                expect(all(v > 0 for v in values), f"{label} end-to-end values are above 0")
            expect(f"check {workload}." in proc.stderr, f"{label} reports its output checks")


def check_missing_span():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tracing
    import workloads

    saved = tracing.PATCHES
    tracing.PATCHES = saved + (("flmc.sampler", "no_such_name", "sampler"),)
    try:
        tracer = tracing.Tracer()
        wl = workloads.Escape(0, workloads.TINY, os.path.join(OUT, "missing"))
        os.makedirs(wl.outdir, exist_ok=True)
        tracer.install()
        try:
            rnd = wl.run_round(tracer.traced_target(wl.target))
        finally:
            tracer.uninstall()
    finally:
        tracing.PATCHES = saved
    layers = tracer.layer_metrics()
    expect(tracer.missing == ["flmc.sampler.no_such_name"], "a missing name is reported")
    expect(rnd.attempted > 0 and layers["sampler.chains"] == rnd.attempted
           and layers["targets.gradient_calls"] > 0,
           "the traced round runs and counts its chains and gradients")


def check_trace_checks_reject_corruption():
    import workloads

    wl = workloads.Trace(0, workloads.TINY, os.path.join(OUT, "corrupt"))
    os.makedirs(wl.outdir, exist_ok=True)
    wl.run_round(None)
    n = workloads.TINY.trace_steps
    args = (wl.csv, n, workloads.TRACE_ETA, workloads.TRACE_INIT)
    ok = {name: good for name, good, _ in workloads.trace_checks(*args)}
    expect(ok["weighted_mean_matches_summary"] and ok["csv_rows_finite"],
           "the trace checks accept the CLI's own output")
    with open(wl.csv, encoding="utf-8") as fh:
        lines = fh.readlines()
    n_col, eta, x = lines[5].rstrip("\n").split(",")
    lines[5] = f"{n_col},{eta},{float(x) + 1.0!r}\n"
    with open(wl.csv, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    ok = {name: good for name, good, _ in workloads.trace_checks(*args)}
    expect(not ok["weighted_mean_matches_summary"] and not ok["csv_rows_finite"],
           "the trace checks reject a changed state and a missing row")


def check_bare_directory():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "escape", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without the package the benchmark fails and prints no result")


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_runs(spec)
    check_missing_span()
    check_trace_checks_reject_corruption()
    check_bare_directory()
    print(f"selfcheck: {'all passed' if not problems else f'{len(problems)} failed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
