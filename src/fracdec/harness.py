"""Deterministic simulation harness and the naive-vs-fractional demo.

Every trial draws its message and error pattern from its own seeded
stream (see `trials`), so a report is byte-identical per seed: exhaustive
and sampled modes always see the same messages and error values for a
given trial index.

The harness runs a config through the interface both schemes' configs
share (see `arraycode.ArrayConfig`), so it imports no scheme's module and
a process loads only the scheme its config was built by. It loads the
enumeration budget only for an exhaustive sweep, and `compare_naive`
computes the naive radius itself, so `bounds` is never loaded.
"""

import itertools
import json
from math import comb

from .arraycode import apply_error_pattern
from .errors import DecodeFailure
from .records import Record
from .rs import decode_columns
from .trials import (check_seed, random_error_pattern, random_message,
                     trial_stream)


def run_trial(cfg, message, pattern):
    """One encode-corrupt-download-decode pass.

    Returns (outcome, bundle) with outcome one of "success" (decoded equals
    the message), "detected" (the decoder raised), or "silent" (a wrong
    message came back quietly — never expected within the radius).
    """
    try:
        decoded, bundle = cfg.pipeline(message, pattern)
    except DecodeFailure:
        return "detected", None
    return ("success" if decoded == message else "silent"), bundle


class ExperimentSpec(Record):
    """What to simulate: a config, the error weights to try, how many value
    draws per weight (per support in exhaustive mode, total in sampled
    mode), the seed, and the support mode."""

    __slots__ = _fields = ("config", "weights", "trials_per_weight", "seed",
                           "support_mode")

    def __init__(self, config, weights, trials_per_weight, seed,
                 support_mode="exhaustive"):
        self._set(config=config, weights=tuple(weights),
                  trials_per_weight=trials_per_weight, seed=seed,
                  support_mode=support_mode)
        n = config.n
        # counts are plain ints: type() also refuses bools
        for w in self.weights:
            if type(w) is not int or not 0 <= w <= n:
                raise ValueError(f"weight {w!r} outside 0..{n}")
        if len(set(self.weights)) != len(self.weights):
            raise ValueError("weights must not repeat")
        if type(self.trials_per_weight) is not int or self.trials_per_weight < 1:
            raise ValueError("trials_per_weight must be an integer of at least 1")
        if self.support_mode not in ("exhaustive", "sampled"):
            raise ValueError("support_mode must be 'exhaustive' or 'sampled'")
        check_seed(self.seed)


class WeightStats(Record):
    __slots__ = _fields = ("weight", "trials", "successes",
                           "detected_failures", "silent_failures")

    def __init__(self, weight, trials, successes, detected_failures,
                 silent_failures):
        self._set(weight=weight, trials=trials, successes=successes,
                  detected_failures=detected_failures,
                  silent_failures=silent_failures)

    @property
    def success_rate(self):
        from fractions import Fraction
        return Fraction(self.successes, self.trials)


class ExperimentReport(Record):
    __slots__ = _fields = ("spec", "per_weight", "downloaded_per_trial",
                           "accessed_per_trial", "download_budget")

    def __init__(self, spec, per_weight, downloaded_per_trial,
                 accessed_per_trial, download_budget):
        self._set(spec=spec, per_weight=per_weight,
                  downloaded_per_trial=downloaded_per_trial,
                  accessed_per_trial=accessed_per_trial,
                  download_budget=download_budget)


def _trial_plan(cfg, weight, trials_per_weight, mode):
    """Yield (trial_index, pinned_support or None) for one weight."""
    if mode == "exhaustive":
        from .budget import check_budget
        check_budget(comb(cfg.n, weight) * trials_per_weight,
                     f"exhaustive weight-{weight} sweep")
        index = 0
        for support in itertools.combinations(range(cfg.n), weight):
            for _ in range(trials_per_weight):
                yield index, support
                index += 1
    else:
        for index in range(trials_per_weight):
            yield index, None


def simulate(spec):
    """Run the experiment; deterministic in (spec, seed) down to the byte.

    Every trial's accounting is checked against the alpha*n*l download
    budget; a violation would mean the scheme lied about its fraction.
    """
    cfg = spec.config
    budget = _download_budget(cfg)
    stats = []
    for weight in spec.weights:
        successes = detected = silent = trials = 0
        for index, support in _trial_plan(cfg, weight, spec.trials_per_weight,
                                          spec.support_mode):
            stream = trial_stream(spec.seed, weight, index)
            message = random_message(cfg, stream)
            pattern = random_error_pattern(cfg, stream, weight, support)
            outcome, bundle = run_trial(cfg, message, pattern)
            if bundle is not None and bundle.downloaded > budget:
                raise RuntimeError(
                    f"trial downloaded {bundle.downloaded} symbols, over the "
                    f"budget alpha*n*l = {budget}")
            trials += 1
            if outcome == "success":
                successes += 1
            elif outcome == "detected":
                detected += 1
            else:
                silent += 1
        stats.append(WeightStats(weight=weight, trials=trials,
                                 successes=successes,
                                 detected_failures=detected,
                                 silent_failures=silent))
    return ExperimentReport(
        spec=spec,
        per_weight=tuple(stats),
        downloaded_per_trial=cfg.downloaded_per_word,
        accessed_per_trial=cfg.accessed_per_word,
        download_budget=budget,
    )


def _download_budget(cfg):
    """alpha * n * l in symbols; integral for every valid config here."""
    budget = cfg.alpha * cfg.n * cfg.l
    if budget.denominator != 1:
        raise ValueError(f"download budget alpha*n*l = {budget} is not integral")
    return int(budget)


def report_to_dict(report):
    """JSON-ready dict; keys sorted at dump time for byte-stable output."""
    from . import __version__
    from .serialization import config_to_dict

    cfg = report.spec.config
    symbol_bits = (cfg.symbol_field.order - 1).bit_length()
    return {
        "format": 1,
        "version": __version__,
        "scheme": cfg.scheme,
        "config": config_to_dict(cfg),
        "seed": report.spec.seed,
        "supportMode": report.spec.support_mode,
        "trialsPerWeight": report.spec.trials_per_weight,
        "downloadedPerTrial": report.downloaded_per_trial,
        "accessedPerTrial": report.accessed_per_trial,
        "downloadBudget": report.download_budget,
        "radius": cfg.radius,
        "storage": {
            "symbolBits": symbol_bits,
            "columnBits": cfg.l * symbol_bits,
        },
        "perWeight": [
            {
                "weight": s.weight,
                "trials": s.trials,
                "successes": s.successes,
                "detectedFailures": s.detected_failures,
                "silentFailures": s.silent_failures,
                "successRate": str(s.success_rate),
            }
            for s in report.per_weight
        ],
    }


def report_to_json(report):
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


class NaiveComparison(Record):
    """Outcome of pitting whole-column reading against fractional reading
    on one crafted error pattern (equal download budgets)."""

    __slots__ = _fields = (
        "scheme", "t", "naive_radius", "fractional_radius", "read_columns",
        "message", "pattern", "naive_outcome", "fractional_outcome",
        "separated", "downloaded_naive", "downloaded_fractional", "note")

    def __init__(self, scheme, t, naive_radius, fractional_radius,
                 read_columns, message, pattern, naive_outcome,
                 fractional_outcome, separated, downloaded_naive,
                 downloaded_fractional, note):
        self._set(scheme=scheme, t=t, naive_radius=naive_radius,
                  fractional_radius=fractional_radius,
                  read_columns=read_columns, message=message,
                  pattern=pattern, naive_outcome=naive_outcome,
                  fractional_outcome=fractional_outcome, separated=separated,
                  downloaded_naive=downloaded_naive,
                  downloaded_fractional=downloaded_fractional, note=note)


def compare_naive(cfg, t, seed=0):
    """Build a weight-t pattern inside the first alpha*n columns and decode
    it both ways.

    The naive side reads those alpha*n columns whole and decodes the
    punctured code, radius max(0, floor((alpha*n - k) / 2)), the value of
    `bounds.radius_naive`, here from the integer alpha*n; the fractional side
    reads a fraction of all n columns at the same total download. For
    radius_naive < t <= radius_optimal the naive decoder cannot return the
    truth (it sits farther than its radius), so the separation is
    deterministic, not probabilistic.
    """
    alpha_n = cfg.alpha * cfg.n
    if alpha_n.denominator != 1:
        raise ValueError(f"alpha*n = {alpha_n} must be integral for the "
                         "whole-column reader")
    alpha_n = int(alpha_n)
    if type(t) is not int or t < 0:
        raise ValueError("t must be a nonnegative integer")
    check_seed(seed)
    if t > cfg.radius:
        raise ValueError(f"t = {t} exceeds the fractional radius {cfg.radius}; "
                         "neither side could demonstrate anything")
    naive_r = max(0, (alpha_n - cfg.k) // 2)
    read_columns = tuple(range(alpha_n))
    if t > len(read_columns):
        raise ValueError(f"cannot place {t} errors inside {alpha_n} columns")

    stream = trial_stream(seed, t, 0)
    message = random_message(cfg, stream)
    pattern = random_error_pattern(cfg, stream, t, support=read_columns[:t])

    naive_outcome = _decode_naive(cfg, message, pattern, read_columns, naive_r)
    outcome, _ = run_trial(cfg, message, pattern)
    fractional_outcome = {"success": "recovered", "silent": "miscorrected",
                          "detected": "failed"}[outcome]
    separated = naive_outcome != "recovered" and fractional_outcome == "recovered"
    note = ("" if t > naive_r else
            "no separation at these parameters: the weight is within the "
            "naive radius too")
    return NaiveComparison(
        scheme=cfg.scheme, t=t, naive_radius=naive_r,
        fractional_radius=cfg.radius, read_columns=read_columns,
        message=message, pattern=pattern, naive_outcome=naive_outcome,
        fractional_outcome=fractional_outcome, separated=separated,
        downloaded_naive=alpha_n * cfg.l,
        downloaded_fractional=cfg.downloaded_per_word, note=note,
    )


def _decode_naive(cfg, message, pattern, read_columns, naive_radius):
    """Decode from whole columns only, the way an alpha*n-column reader
    would, and classify the outcome against what the same reader decodes
    from the clean columns, at radius 0."""
    stored = cfg.encode(message)
    code = cfg.column_code(read_columns)
    want, _ = decode_columns(code, [stored[i] for i in read_columns], 0)
    corrupted = apply_error_pattern(cfg.symbol_field, stored, pattern)
    try:
        decoded, _ = decode_columns(
            code, [corrupted[i] for i in read_columns], naive_radius)
    except DecodeFailure:
        return "failed"
    return "recovered" if decoded == want else "miscorrected"


def comparison_to_dict(result):
    """JSON-ready rendering of a NaiveComparison."""
    return {
        "format": 1,
        "scheme": result.scheme,
        "t": result.t,
        "naiveRadius": result.naive_radius,
        "fractionalRadius": result.fractional_radius,
        "readColumns": list(result.read_columns),
        "message": list(result.message),
        "errorSupport": list(result.pattern.support),
        "errorValues": [list(v) for v in result.pattern.values],
        "naiveOutcome": result.naive_outcome,
        "fractionalOutcome": result.fractional_outcome,
        "separated": result.separated,
        "downloadedNaive": result.downloaded_naive,
        "downloadedFractional": result.downloaded_fractional,
        "note": result.note,
    }
