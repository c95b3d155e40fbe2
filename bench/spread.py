"""Run the benchmark over several seeds and report each metric's spread.

usage: python3 bench/spread.py [--workload NAME ...] [--out FILE]

For every workload, runs `bench/run.py` once per seed (seeds 1 to RUNS)
with BENCHMARK.json's run_seconds and --trace 0, then once with seed 1 and
--trace 1. It prints, per end-to-end metric, the median of the untraced
runs and the spread: the distance between the first and third quartile as
a share of the median. A spread at or above a third of the metric's bound
is marked UNSTEADY, and the exit code is then 1. With --out, every run's
result and the summary are written as JSON, which is how a baseline is
recorded.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # seeds per workload, as many as a steadiness proof takes


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"run": json.loads(lines[-2])["run"], "result": json.loads(lines[-1])}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()

    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    record = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for name in names:
        runs = [run_once(name, seed, seconds, 0)
                for seed in range(1, RUNS + 1)]
        traced = run_once(name, 1, seconds, 1)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in runs]
            median, share = spread(values)
            ok = share < metric["bound"] / 3
            steady = steady and ok
            summary[metric["name"]] = {"median": median, "spread": share}
            print(f"{name:12s} {metric['name']:18s} median {median:12.5g} "
                  f"spread {share:7.4f} bound {metric['bound']:5.3f}"
                  f"{'' if ok else '  UNSTEADY'}  "
                  + " ".join(f"{v:.4g}" for v in values), flush=True)
        failed = sum(r["result"]["failed"] for r in [*runs, traced])
        print(f"{name:12s} failed ops {failed}", flush=True)
        record["workloads"][name] = {"summary": summary, "runs": runs,
                                     "traced_run": traced}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
