"""Run each workload repeatedly with different seeds and print the median and
quartiles of every end-to-end metric, with the quartile spread as a share of
the median next to the bound BENCHMARK.json sets for it.

    python3 bench/steadiness.py --runs 10 --first-seed 1

Every run measures for BENCHMARK.json's run_seconds, the length the bounds are
set for.  Runs are sequential, one process at a time.  The raw results are written to
.bench_results/steadiness-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(results, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rows.append((name, med, q1, q3, (q3 - q1) / med, bounds[name]))
    shares = {r["failed"] / r["attempted"] for r in results}
    return rows, shares, all(r["correct"] for r in results)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    report = {}
    for workload in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.time()
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: {time.time() - t0:.0f} s "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in results[-1]["metrics"].items()),
                  flush=True)
        rows, shares, correct = summarize(results, spec)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, correct={correct}, "
              f"failed shares {sorted(shares)}")
        print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, med, q1, q3, spread, bound in rows:
            flag = "" if spread < bound / 3 else "  > bound/3"
            print(f"{name:<14} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.2%} {bound:>6.2f}{flag}")
        print(flush=True)
        report[workload] = results

    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    path = out / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"raw results: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
