"""fracdec benchmark: one workload, one seed, one result line.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/. With --trace 0 the result holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (and the trace itself goes
to .bench_out/). A line of run facts is printed first; the last line of
standard output is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def source_problem(root):
    """Why fracdec cannot be benchmarked from this directory, or None."""
    for path in ("src/fracdec/__init__.py", "configs"):
        if not (root / path).exists():
            return f"{root / path} is missing: run from a fracdec checkout"
    return None


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def source_sha256(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fracdec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    return args


def write_trace(name, seed, stats, setup):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"ops": stats.to_dict(),
                                "setup": setup.to_dict()}))
    return path


def main(argv=None):
    problem = source_problem(ROOT)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    args = parse_args(argv, workloads.workload_names())
    import fracdec
    if Path(fracdec.__file__).resolve().parent != ROOT / "src" / "fracdec":
        print(f"error: imported fracdec from {fracdec.__file__}",
              file=sys.stderr)
        return 2

    unscaled = None
    if args.trace:
        metrics, phases, stats, setup = workloads.run_traced(
            ROOT, args.workload, args.seed, args.seconds)
        units = workloads.PER_LAYER
        trace_file = str(write_trace(args.workload, args.seed, stats, setup)
                         .relative_to(ROOT))
    else:
        metrics, phase, unscaled = workloads.run_untraced(
            ROOT, args.workload, args.seed, args.seconds)
        phases = (phase,)
        units = workloads.END_TO_END
        trace_file = None

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT), "source_sha256": source_sha256(ROOT),
        "inputs_sha256": phases[-1].inputs_sha256,
        "ops": [p.ops for p in phases], "trace_file": trace_file,
        "unscaled": unscaled,
    }}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
