"""Run one fracdec CLI command with the benchmark's tracer installed.

usage: python3 bench/cli_child.py STATS_FILE SPAWNED_AT ARG...

SPAWNED_AT is the parent's time.monotonic() just before it started this
process. STATS_FILE gets two JSON lines: the command's folded spans with
its start-up time (spawn until fracdec is imported and main can be
entered), then the benchmark's own time in this process (importing and
installing the tracer, folding the spans and writing the first line). The
exit code is the command's own.
"""

import json
import sys
import time


def main():
    stats_file, spawned_at = sys.argv[1], float(sys.argv[2])
    import fracdec.cli
    imported_at = time.monotonic()

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    bench_s = time.monotonic() - imported_at
    try:
        return fracdec.cli.main(sys.argv[3:])
    finally:
        returned_at = time.monotonic()
        tracer.end_op()
        with open(stats_file, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"process_start_s": imported_at - spawned_at,
                                 "stats": tracer.stats.to_dict()}) + "\n")
            fh.flush()
            bench_s += time.monotonic() - returned_at
            fh.write(json.dumps({"bench_s": bench_s}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
