"""Self-test of the benchmark: python3 -m pytest -q bench/test_bench.py

It checks that failures are counted, that inputs and first-round counts
follow the seed, that no library op repeats an earlier input, that scaling
by the yardstick keeps a slower program slower, that a CLI command's peak
RSS is its own, that the printed names match BENCHMARK.json,
that the traced self times account for the op time, and that the benchmark
refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
import yardstick  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_wrong_library_decode_counts_as_failed():
    workload = workloads.LIBRARY["frs-wide"]
    cfg = workload.build()
    from fracdec.frs_scheme import frs_full_pipeline

    calls = []

    def stub(cfg, message, pattern):
        calls.append(1)
        decoded, bundle = frs_full_pipeline(cfg, message, pattern)
        if len(calls) % 4 == 0:
            return (decoded[0] ^ 1, *decoded[1:]), bundle
        if len(calls) % 4 == 1:
            raise RuntimeError("stubbed crash")
        return decoded, bundle

    class Setup:
        def scaled(self):
            return 1.0

        unscaled = scaled

    phase = workloads.run_library(workload, cfg,
                                  lambda r: workload.inputs(1, r)[:8],
                                  seconds=0.01, min_rounds=1, pipeline=stub,
                                  ruler=yardstick.inprocess())
    assert phase.ops == 8 and phase.failed == 4
    metrics, _ = workloads.end_to_end(phase, Setup(), peak_rss_kb=1024)
    assert metrics["ok_share"] == 0.5


def test_cli_checks_count_wrong_results():
    decode = workloads.Command("decode", (), message=(1, 2, 3))
    counts = {"trials": 0, "silent": 0, "detected": 0}
    good = json.dumps({"message": [1, 2, 3]})
    bad = json.dumps({"message": [1, 2, 4]})
    assert workloads.check_command(decode, 0, good, counts)
    assert not workloads.check_command(decode, 0, bad, counts)
    assert not workloads.check_command(decode, 1, good, counts)

    simulate = workloads.Command("simulate", (), radius=1)

    def report(rows):
        return json.dumps({"radius": 1, "perWeight": [
            {"weight": w, "trials": 5, "successes": s, "silentFailures": si,
             "detectedFailures": 5 - s - si} for w, s, si in rows]})

    # beyond the radius, silent results are counted, not failed
    assert workloads.check_command(simulate, 0, report([(1, 5, 0), (2, 1, 3)]),
                                   counts)
    assert counts == {"trials": 10, "silent": 3, "detected": 1}
    assert not workloads.check_command(simulate, 0, report([(1, 4, 1)]), counts)

    naive = workloads.Command("compare-naive", ())
    assert not workloads.check_command(
        naive, 0, json.dumps({"fractionalOutcome": "failed"}), counts)


def test_inputs_follow_the_seed():
    workload = workloads.LIBRARY["ts-wide"]

    def first(seed, round_index=0):
        return workload.inputs(seed, round_index)[:30]

    assert first(5) == first(5)
    assert first(5) != first(6)
    weights = [pattern.weight for _, pattern in first(5)]
    assert weights[:13] == [*range(12), 0]
    # later rounds keep each slot's support but draw new messages and values
    again = first(5, 1)
    assert [p.support for _, p in again] == [p.support for _, p in first(5)]
    assert all(m != m1 for (m, _), (m1, _) in zip(first(5), again))
    assert all(p.values != p1.values for (_, p), (_, p1) in
               zip(first(5), again) if p.weight)


def test_no_library_op_repeats_an_earlier_input():
    workload = workloads.LIBRARY["frs-wide"]
    cfg = workload.build()
    from fracdec.frs_scheme import frs_full_pipeline

    seen, hits = set(), []

    def memo(cfg, message, pattern):
        key = (message, pattern.support, pattern.values)
        if key in seen:
            hits.append(key)
        seen.add(key)
        return frs_full_pipeline(cfg, message, pattern)

    phase = workloads.run_library(workload, cfg,
                                  lambda r: workload.inputs(2, r)[:12],
                                  seconds=0, min_rounds=3, pipeline=memo)
    assert phase.rounds == 3 and phase.failed == 0 and not hits


def test_yardstick_scaling_keeps_a_slower_program_slower():
    workload = workloads.LIBRARY["frs-wide"]
    cfg = workload.build()
    from fracdec.frs_scheme import frs_full_pipeline

    def twice(cfg, message, pattern):
        frs_full_pipeline(cfg, message, pattern)
        return frs_full_pipeline(cfg, message, pattern)

    def scaled_seconds(pipeline):
        phase = workloads.run_library(workload, cfg,
                                      lambda r: workload.inputs(4, r)[:8],
                                      seconds=0, min_rounds=3,
                                      pipeline=pipeline,
                                      ruler=yardstick.inprocess())
        assert phase.failed == 0 and len(phase.yardsticks) == 3 * 9
        return sum(sum(t) for t in phase.scaled)

    ratio = scaled_seconds(twice) / scaled_seconds(frs_full_pipeline)
    assert 1.5 < ratio < 2.5


def test_yardstick_child_runs_without_fracdec():
    code = yardstick.CHILD_CODE + "assert 'fracdec' not in sys.modules\n"
    returncode, _, _ = workloads.run_child(
        [sys.executable, "-c", "import sys\n" + code], ROOT)
    assert returncode == 0
    child_s, inprocess_s = workloads.child_ruler(ROOT).measure()
    assert child_s > inprocess_s > 0


def test_cli_rss_is_the_commands_own():
    def rss_kb(code):
        code, _, kb = workloads.run_child([sys.executable, "-c", code], ROOT)
        assert code == 0
        return kb

    big = rss_kb("b = bytearray(64 << 20); b[::4096] = b'x' * (16 << 10)")
    small = rss_kb("pass")
    assert big > 64 << 10 > small


def test_silent_count_repeats_for_a_seed():
    def first_round():
        with workloads.cli_workdir(ROOT) as workdir:
            phase, _, _, _ = workloads.run_cli(
                workloads.CliRun(ROOT, workdir, seed=3), seconds=0,
                min_rounds=1)
        assert phase.failed == 0
        return phase.first_round

    counts = first_round()
    assert counts["harness.silent_beyond_radius"] > 0
    assert first_round() == counts


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_printed_names_match_benchmark_json(workload):
    assert workloads.workload_names() == tuple(
        w["name"] for w in SPEC["workloads"])
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
        run = json.loads(lines[-2])["run"]
        assert run["seed"] == 3 and run["trace"] == bool(trace)
        if trace:
            values = {name: m["value"] for name, m in result["metrics"].items()}
            accounted = (sum(values[f"{layer}.self_ms"] for layer in LAYERS)
                         + values["cli.process_start_ms"]
                         + values["bench.self_ms"])
            op_ms = values["trace.op_ms"]
            # What the spans and the benchmark's own timers leave out: the
            # call into the root span on library workloads; interpreter
            # exit and reaping the child on cli-shipped.
            unexplained = op_ms - accounted
            assert values["trace.unexplained_ms"] == pytest.approx(unexplained)
            assert 0 <= unexplained < 0.1 * op_ms
            # on cli-shipped it is mostly folding a long command's spans
            assert values["bench.self_ms"] < 0.2 * op_ms
            assert min(values[f"{layer}.self_ms"] for layer in LAYERS) >= 0
            if workload == "cli-shipped":
                assert values["harness.silent_beyond_radius"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("ts-wide", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
