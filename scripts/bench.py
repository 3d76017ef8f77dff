"""Run the perfbench workloads on one or more checkouts and write BENCH_<pr>.json.

    python3 scripts/bench.py --pr N parent=../flmc-parent change=.

Each LABEL=ROOT names the root of a checkout. Every workload of this
checkout's BENCHMARK.json runs with `perfbench/run.py --trace 0` for the
benchmark's run length, at seeds 1 and 7, REPEATS times each: ten runs per
checkout and workload, from that checkout's root and with its own
perfbench. The checkouts take turns, each next run reversing their order,
so a drift in the machine's speed favours none of them. BENCH_<pr>.json,
written at the root of this checkout, holds per checkout the median of
each end-to-end metric over its runs of a workload and beside it their
interquartile range (inclusive quartiles), the runs themselves,
the line count of its src/flmc, and the numpy version and core count the
runs saw. Run k of each checkout on a workload forms one pair, the runs of
one seed and one turn; for each checkout after the first, `pairs_won`
counts per workload and metric the pairs whose run beat the first
checkout's, strictly, in the direction BENCHMARK.json gives the metric.
Once the file is written, one line per later checkout, workload and
end-to-end metric goes to stdout: the first checkout's median -> this
one's, the change in percent, the first checkout's IQR as a share of its
median, and the pairs won. A last line gives each checkout's src/flmc
line count and its difference from the first checkout's.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower"
                   for m in BENCHMARK["end_to_end"]}
SEEDS = (1, 7)
REPEATS = 5  # times SEEDS: ten runs a side per workload


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkouts", nargs="+", metavar="LABEL=ROOT",
                   help="a label and the root of a checkout to run")
    p.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    args = p.parse_args(argv)
    args.roots = {}
    for item in args.checkouts:
        label, sep, root = item.partition("=")
        if not sep or not label or label in args.roots:
            p.error(f"expected distinct LABEL=ROOT, got {item!r}")
        args.roots[label] = pathlib.Path(root).resolve()
    return args


def src_lines(root: pathlib.Path) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((root / "src" / "flmc").rglob("*.py")))


def run_once(root: pathlib.Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def iqr(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(runs):
    metrics = [k for k in runs[0]
               if k not in ("seed", "correct", "attempted", "failed")]
    return {"medians": {k: statistics.median(r[k] for r in runs)
                        for k in metrics},
            "iqrs": {k: iqr([r[k] for r in runs]) for k in metrics},
            "correct": all(r["correct"] for r in runs),
            "failed_share": (sum(r["failed"] for r in runs)
                             / sum(r["attempted"] for r in runs)),
            "runs": runs}


def pairs_won(runs, first_runs):
    """Per metric, the pairs in which `runs` beat `first_runs`."""
    return {k: sum((r[k] < f[k]) if lower else (r[k] > f[k])
                   for r, f in zip(runs, first_runs, strict=True))
            for k, lower in LOWER_IS_BETTER.items()}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import numpy

    labels = list(args.roots)
    runs = {label: {w: [] for w in WORKLOADS} for label in labels}
    turn = 0
    for workload in WORKLOADS:
        for _ in range(REPEATS):
            for seed in SEEDS:
                order = labels if turn % 2 == 0 else labels[::-1]
                turn += 1
                for label in order:
                    run = run_once(args.roots[label], workload, seed)
                    runs[label][workload].append(run)
                    print(f"bench: {label} {workload} seed {seed}: wall_s "
                          f"{run['wall_s']:.3f}", file=sys.stderr, flush=True)

    bench = {
        "pr": args.pr,
        "command": (f"perfbench/run.py --trace 0 --seconds {SECONDS}, seeds "
                    f"{list(SEEDS)}, {REPEATS} repeats, checkouts taking turns"),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "checkouts": {label: {"src_lines": src_lines(args.roots[label]),
                              "workloads": {w: summary(runs[label][w])
                                            for w in WORKLOADS}}
                      for label in labels},
        "pairs": REPEATS * len(SEEDS),
        "pairs_won_against": labels[0],
    }
    for label in labels[1:]:
        for w in WORKLOADS:
            bench["checkouts"][label]["workloads"][w]["pairs_won"] = pairs_won(
                runs[label][w], runs[labels[0]][w])
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"bench: wrote {out}", file=sys.stderr)
    base = bench["checkouts"][labels[0]]["workloads"]
    for label in labels[1:]:
        for w in WORKLOADS:
            this = bench["checkouts"][label]["workloads"][w]
            for k in LOWER_IS_BETTER:
                a, b = base[w]["medians"][k], this["medians"][k]
                print(f"{w} {k}: {labels[0]} {a:.4g} -> {label} {b:.4g} "
                      f"({(b - a) / a:+.1%}); {labels[0]} IQR "
                      f"{base[w]['iqrs'][k] / a:.1%} of median; pairs won "
                      f"{this['pairs_won'][k]} of {bench['pairs']}")
    lines = {label: c["src_lines"] for label, c in bench["checkouts"].items()}
    print("src_lines: " + ", ".join(
        f"{label} {n} ({n - lines[labels[0]]:+d})" for label, n in lines.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
