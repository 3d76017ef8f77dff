"""Benchmark of flmc on four workloads taken from the paper's experiments.

Run from the root of a checkout (flmc need not be installed):

    python3 perfbench/run.py --workload escape --seed 1 --seconds 32 --trace 0

A run sets the workload up, then repeats whole rounds of it, each round
running the workload to its end and writing every report, for as long as
the next round is expected to end within --seconds (at least one round).
The outputs of every round must be identical; the first round's outputs are
then checked against references computed apart from flmc.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
processes that import flmc and build the workload's inputs, timed from
their start and run between the rounds), wall_s (mean round) and
peak_rss_mb (this process).
--trace 1 alternates plain and traced rounds and prints the per-layer
metrics: spans at the module boundaries of flmc (medians over the traced
rounds), fixed-size calls into one public function of each layer, and the
cost of tracing itself.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; check results and notes go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

# one thread per BLAS/OpenMP pool, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("escape", "stencil", "mf", "trace"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="plumbing sizes for the self-check; checks may fail")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter until the workload is ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return elapsed


def src_lines() -> int:
    total = 0
    for path in sorted((SRC / "flmc").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


class Measured(NamedTuple):
    traced: bool
    wall: float          # seconds the round took
    round: object        # workloads.Round
    nbytes: int          # bytes of reports the round wrote
    layers: dict | None  # per-layer figures of a traced round


def run_rounds(wl, seconds, tracer, probe=None, n_probes=0):
    """Whole rounds while the next one is expected to end within `seconds`.

    Without a tracer every round is plain; with one, rounds alternate plain
    and traced, starting plain, and at least one of each runs. Every round
    must write the same reports as the first.

    `probe` is called `n_probes` times, spread evenly over the run between
    rounds, so that its median samples the machine's speed over the same
    time as the rounds do. Returns (rounds, probe results).
    """
    import workloads

    rounds, probes = [], []
    start = time.perf_counter()

    def probes_due():
        elapsed = time.perf_counter() - start
        while len(probes) < n_probes and len(probes) * seconds / n_probes <= elapsed:
            probes.append(probe())

    while True:
        probes_due()
        traced = tracer is not None and len(rounds) % 2 == 1
        target = wl.target
        if traced:
            tracer.calibrate()
            tracer.install()
            if target is not None:
                target = tracer.traced_target(target)
        try:
            t0 = time.perf_counter()
            rnd = wl.run_round(target)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        digest, nbytes = workloads.dir_digest(wl.outdir)
        if not rounds:
            first_digest = digest
        elif digest != first_digest:
            raise RuntimeError("a round wrote different reports than the first")
        rounds.append(Measured(traced, wall, rnd, nbytes,
                               tracer.layer_metrics() if traced else None))

        if len(rounds) >= (2 if tracer is not None else 1):
            next_traced = tracer is not None and len(rounds) % 2 == 1
            expected = [m.wall for m in rounds if m.traced == next_traced][-1]
            if probes:
                expected += (n_probes - len(probes)) * statistics.median(probes)
            if time.perf_counter() - start + expected > seconds:
                while len(probes) < n_probes:
                    probes.append(probe())
                return rounds, probes


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "flmc" / "__init__.py").is_file():
        print(f"perfbench: no flmc package at {SRC / 'flmc'}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    outdir = str(OUT / args.workload)
    if args.probe_setup:
        workloads.WORKLOADS[args.workload](args.seed, sizes, outdir)
        print("ready", flush=True)
        return 0

    end_to_end, per_layer = load_spec()
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, outdir)

    metrics = {}
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        rounds, _ = run_rounds(wl, args.seconds, tracer)
    else:
        rounds, probes = run_rounds(wl, args.seconds, None,
                                    lambda: probe_setup(args), sizes.setup_probes)
        metrics["setup_s"] = statistics.median(probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = wl.checks(rounds[0].round)
    for name, ok, detail in results:
        print(f"check {args.workload}.{name}: {'ok' if ok else 'FAIL'}"
              + (f" ({detail})" if detail else ""), file=sys.stderr)
    plain = [m.wall for m in rounds if not m.traced]
    print(f"perfbench: {len(rounds)} rounds, plain walls "
          + ", ".join(f"{w:.3f}" for w in plain), file=sys.stderr)

    if args.trace:
        traced = [m for m in rounds if m.traced]
        for name in traced[0].layers:
            # median_low keeps counts whole: they are equal in every round
            metrics[name] = statistics.median_low(m.layers[name] for m in traced)
        metrics["cli.bytes_written"] = traced[0].nbytes
        metrics["trace.overhead_s"] = (statistics.fmean(m.wall for m in traced)
                                       - statistics.fmean(plain))
        metrics["src_lines"] = src_lines()
        import microcosts
        metrics.update(microcosts.measure(sizes.mf_shape))
        for name in tracer.missing:
            print(f"perfbench: missing span {name}", file=sys.stderr)
        units = per_layer
    else:
        # the mean, not the median: it weighs every second of the run alike,
        # and the machine's speed drifts over tens of seconds
        metrics["wall_s"] = statistics.fmean(plain)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = end_to_end

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")
    result = {
        "correct": all(ok for _, ok, _ in results),
        "attempted": sum(m.round.attempted for m in rounds),
        "failed": sum(m.round.failed for m in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
