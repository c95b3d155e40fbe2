"""The benchmark's workloads: seeded inputs, the op loops and output checks.

Every workload is a closed loop with one caller: the next op starts only
after the last one has returned. Inputs come from `random.Random` seeded
with the workload name and the benchmark's --seed, never from fracdec's own
generator. See WORKLOADS.md for why each workload exists and which metric
each layer should move.
"""

import contextlib
import functools
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import monotonic, perf_counter

import yardstick
from tracer import LAYERS, Stats, Tracer, layer_metrics

MIN_ROUNDS = 3         # so each op's median is taken over several rounds
SETUP_REPEATS = 11     # fresh interpreters timed per run for setup_s
MAX_EXTEND_S = 60      # cap on running past --seconds to reach MIN_ROUNDS
COMMAND_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "sim_trials_per_s": "1/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fields.prime_calls": "count",
    "fields.ext_calls": "count",
    "fields.self_ms": "ms",
    "fields.default_modulus_s": "s",
    "fields.dual_basis_s": "s",
    "polyring.self_ms": "ms",
    "polyring.interpolate_calls": "count",
    "polyring.interpolate_incl_ms": "ms",
    "polyring.poly_eval_calls": "count",
    "polyring.poly_divmod_calls": "count",
    "rs.self_ms": "ms",
    "rs.decode_unique_calls": "count",
    "rs.decode_unique_incl_ms": "ms",
    "rs.decode_failures": "count",
    "arraycode.self_ms": "ms",
    "arraycode.apply_error_pattern_incl_ms": "ms",
    "trace_scheme.self_ms": "ms",
    "trace_scheme.config_s": "s",
    "trace_scheme.encode_incl_ms": "ms",
    "trace_scheme.download_incl_ms": "ms",
    "trace_scheme.stream_decode_ms": "ms",
    "trace_scheme.peel_ms": "ms",
    "frs_scheme.self_ms": "ms",
    "frs_scheme.encode_incl_ms": "ms",
    "frs_scheme.decode_incl_ms": "ms",
    "frs_scheme.interpolations_per_decode": "count",
    "frs_scheme.accept_ratio": "ratio",
    "harness.self_ms": "ms",
    "harness.simulate_ms_per_trial": "ms",
    "harness.compare_naive_incl_ms": "ms",
    "harness.silent_beyond_radius": "count",
    "harness.detected_beyond_radius": "count",
    "serialization.self_ms": "ms",
    "serialization.config_from_dict_incl_ms": "ms",
    "serialization.io_ms": "ms",
    "cli.self_ms": "ms",
    "cli.process_start_ms": "ms",
    "bench.self_ms": "ms",
    "trace.op_ms": "ms",
    "trace.unexplained_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Phase:
    """What one loop over a workload measured.

    A round is a fixed number of op slots, and the loop runs whole rounds:
    times[i] holds slot i's wall time in each round, and scaled[i] the same
    times scaled by the yardstick (empty when the loop ran without one).
    """

    times: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    yardsticks: list = field(default_factory=list)  # Yardstick.measure()s
    rounds: int = 0
    loop_s: float = 0.0
    failed: int = 0
    sim_trials: dict = field(default_factory=dict)  # op index -> trials
    first_round: dict = field(default_factory=dict)
    inputs_sha256: str = ""
    peak_rss_kb: int = 0  # largest child; cli-shipped only

    @property
    def ops(self):
        return sum(len(t) for t in self.times)

    def keep_going(self, seconds, min_rounds):
        if self.rounds == 0 or self.loop_s < seconds:
            return True
        return self.rounds < min_rounds and self.loop_s < max(seconds,
                                                              MAX_EXTEND_S)

    def start(self, slots):
        self.times = [[] for _ in range(slots)]
        self.scaled = [[] for _ in range(slots)]

    def record(self, index, seconds, ok, scale=None):
        self.times[index].append(seconds)
        if scale is not None:
            self.scaled[index].append(seconds * scale)
        self.failed += not ok


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def timings(per_slot, sim_trials):
    """Timing metrics from one value per op slot, in seconds."""
    ops_per_s = len(per_slot) / sum(per_slot)
    return {
        "ops_per_s": ops_per_s,
        "op_p50_ms": 1e3 * statistics.median(per_slot),
        "op_p90_ms": 1e3 * percentile(per_slot, 0.9),
        "sim_trials_per_s": (sum(sim_trials.values())
                             / sum(per_slot[i] for i in sim_trials)
                             if sim_trials else ops_per_s),
    }


def end_to_end(phase, setup, peak_rss_kb):
    """End-to-end metrics, and the same timings before yardstick scaling.

    Each op slot counts with its median over the rounds of its scaled
    times; `setup` is a SetupSampler (or anything with `scaled()` and
    `unscaled()`).
    """
    metrics = {
        "setup_s": setup.scaled(),
        **timings([statistics.median(t) for t in phase.scaled],
                  phase.sim_trials),
        "ok_share": 1 - phase.failed / phase.ops,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    unscaled = {
        "setup_s": setup.unscaled(),
        **timings([statistics.median(t) for t in phase.times],
                  phase.sim_trials),
        "yardstick_ms": [1e3 * statistics.median(kind)
                         for kind in zip(*phase.yardsticks)],
    }
    return metrics, unscaled


def child_env(root):
    return dict(os.environ, PYTHONPATH=str(root / "src"))


SETUP_PROBE = """import time
{source}
def clock():
    start = time.perf_counter()
    yardstick({loops})
    return time.perf_counter() - start
before = clock()
start = time.perf_counter()
import fracdec
{build_code}
took = time.perf_counter() - start
print(took, before, clock())
"""


def fresh_setup_seconds(root, build_code):
    """Time `import fracdec` plus `build_code` in a new interpreter, with
    an in-process yardstick just before and just after; returns the three
    times in seconds."""
    code = SETUP_PROBE.format(source=yardstick.SOURCE, loops=yardstick.LOOPS,
                              build_code=build_code)
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S, check=True)
    return tuple(float(x) for x in proc.stdout.split())


class SetupSampler:
    """Times SETUP_REPEATS fresh set-ups, spread between the rounds of a
    loop so that one slow stretch of the machine cannot hold them all.
    setup_s is their median, each scaled by its own yardsticks."""

    def __init__(self, root, build_code, seconds):
        self.root, self.build_code = root, build_code
        self.every = seconds / SETUP_REPEATS
        self.samples = []
        fresh_setup_seconds(root, build_code)  # writes bytecode caches; untimed

    def __call__(self, loop_s):
        if (len(self.samples) < SETUP_REPEATS
                and loop_s >= self.every * len(self.samples)):
            self._sample()

    def _sample(self):
        self.samples.append(fresh_setup_seconds(self.root, self.build_code))

    def _all(self):
        while len(self.samples) < SETUP_REPEATS:
            self._sample()
        return self.samples

    def scaled(self):
        ruler = yardstick.inprocess()
        return statistics.median(took * ruler.scale((before,), (after,))
                                 for took, before, after in self._all())

    def unscaled(self):
        return statistics.median(took for took, _, _ in self._all())


def _nonzero_vector(rng, order, length):
    while True:
        vec = tuple(rng.randrange(order) for _ in range(length))
        if any(vec):
            return vec


def _unrank(n, weight, rank):
    """The rank-th weight-subset of range(n) in lexicographic order."""
    out, x = [], 0
    for left in range(weight, 0, -1):
        while math.comb(n - x - 1, left - 1) <= rank:
            rank -= math.comb(n - x - 1, left - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def stratified_supports(rng, n, weight, count):
    """`count` error supports of one weight, one drawn from each of `count`
    equal slices of the lexicographic list of all C(n, weight) of them.

    The folded trial decoder's cost depends on where a support falls in
    that list, so stratifying gives every seed the same spread of costs.
    """
    total = math.comb(n, weight)
    return [_unrank(n, weight, int((j + rng.random()) * total / count))
            for j in range(count)]


# -- library workloads --------------------------------------------------


@dataclass(frozen=True)
class LibraryWorkload:
    """A pipeline called in-process on one config; one op is one trial."""

    name: str
    module: str          # fracdec module holding the pipeline
    pipeline: str        # encode -> corrupt -> download -> decode function
    build_code: str      # builds the config, run after `import fracdec`
    n: int
    l: int
    message_order: int
    message_length: int
    symbol_order: int
    radius: int
    per_weight: int      # ops of each error weight in a round

    def build(self):
        scope = {}
        exec("import fracdec\n" + self.build_code, scope)
        return scope["cfg"]

    def inputs(self, seed, round_index=0):
        """One round's ops: (message, ErrorPattern) pairs whose weights cycle
        through 0..radius, per_weight of each weight.

        Each slot keeps its error support in every round, so that its
        median time compares like with like. Messages and error values are
        drawn afresh for each round, so a cache of earlier results cannot
        make a later round faster.
        """
        from fracdec.arraycode import ErrorPattern

        rng = random.Random(f"{self.name}/{seed}")
        weights = range(self.radius + 1)
        supports = {w: stratified_supports(rng, self.n, w, self.per_weight)
                    for w in weights}
        rng = random.Random(f"{self.name}/{seed}/{round_index}")
        out = []
        for j in range(self.per_weight):
            for w in weights:
                message = tuple(rng.randrange(self.message_order)
                                for _ in range(self.message_length))
                values = tuple(_nonzero_vector(rng, self.symbol_order, self.l)
                               for _ in range(w))
                out.append((message, ErrorPattern(support=supports[w][j],
                                                  values=values)))
        return out


LIBRARY = {
    "ts-wide": LibraryWorkload(
        name="ts-wide", module="fracdec.trace_scheme",
        pipeline="ts_full_pipeline",
        build_code="cfg = fracdec.ts_make_config(31, 30, 4, 4, 2)",
        n=30, l=4, message_order=31 ** 4, message_length=4, symbol_order=31,
        radius=11, per_weight=10),
    "frs-wide": LibraryWorkload(
        name="frs-wide", module="fracdec.frs_scheme",
        pipeline="frs_full_pipeline",
        build_code=("from fractions import Fraction\n"
                    "cfg = fracdec.frs_make_config(12, 3, 4, Fraction(1, 2))"),
        n=12, l=4, message_order=53, message_length=12, symbol_order=53,
        radius=3, per_weight=30),
}


def run_library(workload, cfg, round_inputs, seconds, min_rounds=MIN_ROUNDS,
                tracer=None, pipeline=None, between_rounds=None,
                first_round=0, ruler=None):
    """Closed loop of pipeline trials, in whole rounds, until `seconds` of
    loop time and `min_rounds` rounds are done. Round r runs the ops
    `round_inputs(first_round + r)`, made before the round starts.
    `between_rounds(loop_s)` runs after each round, outside the loop time.
    With a yardstick `ruler`, it is timed before the first op of a round
    and after every op, and each op is also recorded scaled by it."""
    if pipeline is None:
        pipeline = getattr(sys.modules[workload.module], workload.pipeline)
    if tracer:
        pipeline = tracer.root("bench.op", pipeline)
    digest = hashlib.sha256()
    phase = Phase()
    while phase.keep_going(seconds, min_rounds):
        inputs = round_inputs(first_round + phase.rounds)
        if not phase.times:
            phase.start(len(inputs))
        digest.update(repr([(m, p.support, p.values)
                            for m, p in inputs]).encode())
        round_start = perf_counter()
        before = measure_ruler(ruler, phase)
        for index, (message, pattern) in enumerate(inputs):
            start = perf_counter()
            try:
                decoded, _ = pipeline(cfg, message, pattern)
                ok = decoded == message
            except Exception:  # a raising trial is a failed op, not a crash
                ok = False
            took = perf_counter() - start
            if tracer:
                tracer.end_op()
            after = measure_ruler(ruler, phase)
            phase.record(index, took, ok,
                         ruler.scale(before, after) if ruler else None)
            before = after
        phase.loop_s += perf_counter() - round_start
        phase.rounds += 1
        if between_rounds:
            between_rounds(phase.loop_s)
        if phase.rounds == 1:
            phase.first_round = {
                "rs.decode_failures": (tracer.stats.failures.get(
                    "rs.rs_decode_unique", 0) if tracer else 0),
                "harness.silent_beyond_radius": 0,
                "harness.detected_beyond_radius": 0}
    phase.inputs_sha256 = digest.hexdigest()
    return phase


def measure_ruler(ruler, phase):
    """Time the yardstick once, if there is one, and keep the times."""
    if ruler is None:
        return None
    seconds = ruler.measure()
    phase.yardsticks.append(seconds)
    return seconds


# -- the CLI workload -----------------------------------------------------

CLI_CONFIGS = ("ts-q13-n12-k4", "ts-q17-n10-k4", "ts-q5-n4-k2",
               "frs-p37-n8-k3", "frs-p19-n6-k1")

# Decode trials per weight in each `simulate` command, set so that the five
# commands take similar time at the seed code: the p90 of a round then
# falls inside one group of commands rather than on the edge between two.
SIM_TRIALS_PER_WEIGHT = {"ts-q13-n12-k4": 7, "ts-q17-n10-k4": 6,
                         "ts-q5-n4-k2": 84, "frs-p37-n8-k3": 2,
                         "frs-p19-n6-k1": 56}

CLI_BUILD_CODE = ("from fracdec import serialization as ser\n"
                  "for name in {names!r}:\n"
                  "    ser.config_from_dict(ser.load_json("
                  "'configs/' + name + '.json'))").format(names=CLI_CONFIGS)

CLI_MAIN = "import sys; from fracdec.cli import main; sys.exit(main())"
CLI_CHILD = Path(__file__).with_name("cli_child.py")


@dataclass(frozen=True)
class Command:
    kind: str            # simulate, compare-naive, encode, corrupt, ...
    args: tuple
    out_file: str = None
    radius: int = 0
    message: tuple = ()


def _radius(spec):
    if spec["scheme"] == "ts":
        alpha = Fraction(spec["m"], spec["l"])
    else:
        alpha = Fraction(spec["alpha"])
    return int((spec["n"] - spec["k"] / alpha) // 2)


def cli_plan(root, workdir, seed):
    """One round of commands over the shipped configs, and the inputs
    digest. Writes each config's message file into workdir."""
    rng = random.Random(f"cli-shipped/{seed}")
    plan = []
    for name in CLI_CONFIGS:
        path = f"configs/{name}.json"
        spec = json.loads((root / path).read_text())
        scheme, n, radius = spec["scheme"], spec["n"], _radius(spec)
        if scheme == "ts":
            order, length = spec["q"] ** spec["l"], spec["k"]
        else:
            order, length = spec["p"], spec["k"] * spec["l"]
        message = tuple(rng.randrange(order) for _ in range(length))
        files = {part: str(workdir / f"{name}.{part}.json")
                 for part in ("message", "word", "bad", "down")}
        Path(files["message"]).write_text(json.dumps(
            {"format": 1, "scheme": scheme, "message": list(message)}))
        sim_seed, cmp_seed, corrupt_seed = (rng.randrange(2 ** 31)
                                            for _ in range(3))
        weights = ",".join(str(w) for w in range(n + 1))
        cfg = ("--config", path)
        plan += [
            Command("simulate", ("simulate", *cfg, "--mode", "sampled",
                                       "--weights", weights,
                                       "--trials-per-weight",
                                       str(SIM_TRIALS_PER_WEIGHT[name]),
                                       "--seed", str(sim_seed)),
                    radius=radius),
            Command("compare-naive", ("compare-naive", *cfg, "--t",
                                            str(radius), "--seed",
                                            str(cmp_seed))),
            Command("encode", (scheme, "encode", *cfg, "--message",
                                     files["message"], "--out", files["word"]),
                    out_file=files["word"]),
            Command("corrupt", (scheme, "corrupt", *cfg, "--in",
                                      files["word"], "--weight", str(radius),
                                      "--seed", str(corrupt_seed), "--out",
                                      files["bad"]),
                    out_file=files["bad"]),
            Command("download", (scheme, "download", *cfg, "--in",
                                       files["bad"], "--out", files["down"]),
                    out_file=files["down"]),
            Command("decode", (scheme, "decode", *cfg, "--in",
                                     files["down"]),
                    message=message),
        ]
    digest = hashlib.sha256()
    for cmd in plan:
        # the scratch directory differs per run; hash only the file names
        digest.update(repr([a if not a.startswith(str(workdir)) else
                            Path(a).name for a in cmd.args]).encode())
        digest.update(repr(cmd.message).encode())
    return plan, digest.hexdigest()


def check_command(cmd, returncode, stdout, counts):
    """Whether one command's result is correct; adds simulate tallies to
    `counts`."""
    if returncode != 0:
        return False
    if cmd.kind == "simulate":
        report = json.loads(stdout)
        ok = report["radius"] == cmd.radius
        for row in report["perWeight"]:
            counts["trials"] += row["trials"]
            if row["weight"] <= cmd.radius:
                ok = ok and row["successes"] == row["trials"]
            else:
                counts["silent"] += row["silentFailures"]
                counts["detected"] += row["detectedFailures"]
        return ok
    if cmd.kind == "compare-naive":
        return json.loads(stdout)["fractionalOutcome"] == "recovered"
    if cmd.kind == "decode":
        return tuple(json.loads(stdout)["message"]) == cmd.message
    return True


class CliRun:
    """Runs the command plan of one seed, one fresh process per command.

    Shared by the untraced and traced loops of a run, so that every output
    is compared with the first output of the same command.
    """

    def __init__(self, root, workdir, seed):
        self.root, self.workdir = root, workdir
        self.plan, self.inputs_sha256 = cli_plan(root, workdir, seed)
        self.first_outputs = {}

    def execute(self, index, traced=False):
        """Run plan[index]; returns (seconds, ok, counts, child trace,
        the child's peak resident set in KiB)."""
        cmd = self.plan[index]
        stats_file = self.workdir / f"stats-{index}.json"
        if traced:
            argv = [sys.executable, str(CLI_CHILD), str(stats_file),
                    repr(monotonic()), *cmd.args]
        else:
            argv = [sys.executable, "-c", CLI_MAIN, *cmd.args]
        start = perf_counter()
        returncode, stdout, rss_kb = run_child(argv, self.root)
        seconds = perf_counter() - start
        output = stdout
        if cmd.out_file and os.path.exists(cmd.out_file):
            output += Path(cmd.out_file).read_bytes()
        counts = {"trials": 0, "silent": 0, "detected": 0}
        try:
            ok = check_command(cmd, returncode, stdout, counts)
        except (ValueError, KeyError, TypeError):
            ok = False
        if self.first_outputs.setdefault(index, output) != output:
            ok = False
        child = None
        if traced and stats_file.exists():
            lines = stats_file.read_text().splitlines()
            child = {**json.loads(lines[0]), **json.loads(lines[-1])}
            stats_file.unlink()
        return seconds, ok, counts, child, rss_kb


def run_child(argv, cwd):
    """Run one command to its end; returns (exit code, standard output,
    its own peak RSS in KiB). A command still running after
    COMMAND_TIMEOUT_S is killed, so its exit code is nonzero.

    The child is reaped with os.wait4, so the RSS is that command's alone,
    not the largest of every process the benchmark has started.
    """
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(cwd),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


def child_ruler(root):
    """The CLI commands' yardstick: a fresh interpreter, spawned and reaped
    like a command (a timed `subprocess.run` would poll, and round its time
    up), then the in-process yardstick."""
    argv = [sys.executable, "-c", yardstick.CHILD_CODE]

    def measure_child():
        start = perf_counter()
        returncode, _, _ = run_child(argv, root)
        if returncode:
            raise RuntimeError(f"the yardstick child exited {returncode}")
        return perf_counter() - start

    return yardstick.Yardstick(
        (measure_child, yardstick.measure_inprocess),
        (yardstick.CHILD_NOMINAL_S, yardstick.NOMINAL_S))


def run_cli(runner, seconds, min_rounds=MIN_ROUNDS, traced=False,
            between_rounds=None, ruler=None):
    """Whole rounds of the command plan until `seconds` and `min_rounds`;
    `between_rounds` and `ruler` as in run_library."""
    phase = Phase()
    phase.start(len(runner.plan))
    stats = Stats()
    process_start_s = bench_s = 0.0
    first = {"rs.decode_failures": 0, "harness.silent_beyond_radius": 0,
             "harness.detected_beyond_radius": 0}
    while phase.keep_going(seconds, min_rounds):
        round_start = perf_counter()
        before = measure_ruler(ruler, phase)
        for index, cmd in enumerate(runner.plan):
            took, ok, counts, child, rss_kb = runner.execute(index, traced)
            after = measure_ruler(ruler, phase)
            phase.record(index, took, ok,
                         ruler.scale(before, after) if ruler else None)
            before = after
            phase.peak_rss_kb = max(phase.peak_rss_kb, rss_kb)
            if child is not None:
                child_stats = Stats.from_dict(child["stats"])
                stats.merge(child_stats)
                process_start_s += child["process_start_s"]
                bench_s += child["bench_s"]
            if phase.rounds == 0:
                if cmd.kind == "simulate":
                    phase.sim_trials[index] = counts["trials"]
                first["harness.silent_beyond_radius"] += counts["silent"]
                first["harness.detected_beyond_radius"] += counts["detected"]
                if child is not None:
                    first["rs.decode_failures"] += child_stats.failures.get(
                        "rs.rs_decode_unique", 0)
        phase.loop_s += perf_counter() - round_start
        phase.rounds += 1
        if between_rounds:
            between_rounds(phase.loop_s)
    phase.first_round = first
    phase.inputs_sha256 = runner.inputs_sha256
    return phase, stats, process_start_s, bench_s


# -- whole runs -------------------------------------------------------------


def workload_names():
    return (*LIBRARY, "cli-shipped")


def run_untraced(root, name, seed, seconds):
    """End-to-end metrics of one run, its measured phase, and the timings
    before yardstick scaling."""
    if name in LIBRARY:
        workload = LIBRARY[name]
        setup = SetupSampler(root, workload.build_code, seconds)
        phase = run_library(workload, workload.build(),
                            functools.partial(workload.inputs, seed), seconds,
                            between_rounds=setup, ruler=yardstick.inprocess())
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        setup = SetupSampler(root, CLI_BUILD_CODE, seconds)
        with cli_workdir(root) as workdir:
            phase, _, _, _ = run_cli(CliRun(root, workdir, seed), seconds,
                                     between_rounds=setup,
                                     ruler=child_ruler(root))
        peak_kb = phase.peak_rss_kb
    metrics, unscaled = end_to_end(phase, setup, peak_kb)
    return metrics, phase, unscaled


def run_traced(root, name, seed, seconds):
    """Per-layer metrics: an untraced loop for the overhead baseline, then
    at least one round of the same kind of ops with the tracer installed."""
    setup = Stats()
    if name in LIBRARY:
        workload = LIBRARY[name]
        cfg = workload.build()
        inputs = functools.partial(workload.inputs, seed)
        plain = run_library(workload, cfg, inputs, seconds)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.root("bench.setup", workload.build)()
            tracer.end_op(setup)
            traced = run_library(workload, cfg, inputs, seconds / 2,
                                 min_rounds=1, tracer=tracer,
                                 first_round=plain.rounds)
        finally:
            tracer.uninstall()
        stats, process_start_s = tracer.stats, 0.0
        bench_s = stats.layer_self.get("bench", 0.0)
    else:
        with cli_workdir(root) as workdir:
            runner = CliRun(root, workdir, seed)
            plain, _, _, _ = run_cli(runner, seconds)
            traced, stats, process_start_s, bench_s = run_cli(
                runner, seconds / 2, min_rounds=1, traced=True)
    ops = traced.ops
    op_s = sum(sum(t) for t in traced.times)
    layers_s = sum(stats.layer_self.get(layer, 0.0) for layer in LAYERS)
    extra = dict(traced.first_round)
    extra["cli.process_start_ms"] = 1e3 * process_start_s / ops
    extra["bench.self_ms"] = 1e3 * bench_s / ops
    extra["trace.unexplained_ms"] = 1e3 * (
        op_s - layers_s - process_start_s - bench_s) / ops
    extra["trace.overhead_ratio"] = ((ops / traced.loop_s)
                                     / (plain.ops / plain.loop_s))
    metrics = layer_metrics(stats, setup, op_s, extra)
    return metrics, (plain, traced), stats, setup


@contextlib.contextmanager
def cli_workdir(root):
    """A scratch directory inside the checkout, removed afterwards."""
    parent = root / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()
