"""Run every workload as two independent sets of runs and compare them.

    python3 perfbench/compare.py [--runs 10] [--sets 2] [--first-seed 1]
                                 [--workloads scan,simulate]

Set k runs seeds first-seed + k*runs ... in turn, each run with the command,
run length and untraced metrics of BENCHMARK.json.  For each workload and
end-to-end metric it prints each set's median and spread (the distance
between the quartiles as a share of the median), and whether

  * every spread except that of setup_s is within the metric's bound,
  * the last set's median is no worse than the first's by more than the bound,
  * the share of failed operations is the same in every set,

and exits 1 if any of these does not hold.  Raw results go to
perfbench/results/compare-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench: dict, workload: str, seed: int) -> dict:
    argv = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"], result["wall_s"] = seed, wall
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, last: float, better: str) -> float:
    """How much worse `last` is than `first`, as a share of `first`."""
    change = (last - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default all of BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for k in range(args.sets):
        for workload in workloads:
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                result = run_once(bench, workload, seed)
                results[workload][k].append(result)
                print(
                    f"set {k} {workload} seed {seed}: {result['wall_s']:.1f} s, "
                    f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                    file=sys.stderr,
                )

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        sets = results[workload]
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        if len(shares) != 1 or not correct:
            ok = False
        print(f"  correct in every run: {correct}; failed shares: {sorted(map(str, shares))}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                columns.append((statistics.median(values), spread(values) if len(values) > 1 else 0.0))
            drift = worse_by(columns[0][0], columns[-1][0], metric["better"])
            spreads_ok = name == "setup_s" or all(s <= bound for _, s in columns)
            verdict = "ok" if spreads_ok and drift <= bound else "OUT OF BOUND"
            ok = ok and verdict == "ok"
            cells = "  ".join(f"median {m:.6g} spread {s:.3f}" for m, s in columns)
            print(f"  {name:12} bound {bound:.2f}  {cells}  worse by {drift:+.3f}  {verdict}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
