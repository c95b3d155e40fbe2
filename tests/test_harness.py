"""Simulation harness tests: the deterministic RNG, experiment plumbing,
report stability, and the naive-vs-fractional comparison."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from fracdec.arraycode import ErrorPattern
from fracdec.bounds import radius_naive
from fracdec.errors import BudgetExceeded
from fracdec.fields import ExtField, dual_basis
from fracdec.frs_scheme import (FrsConfig, frs_make_config,
                                smallest_primitive_root)
from fracdec.harness import (ExperimentSpec, _download_budget, compare_naive,
                             comparison_to_dict, report_to_dict,
                             report_to_json, run_trial, simulate)
from fracdec.primefield import PrimeField
from fracdec.serialization import config_from_dict, load_json
from fracdec.trace_scheme import TsConfig, ts_make_config
from fracdec.trials import (SplitMix64, random_column_offset,
                            random_error_pattern, random_message,
                            trial_stream)

ROOT = Path(__file__).resolve().parent.parent


def ts_ref():
    return ts_make_config(13, 12, 4, 4, 2)


def ts_small():
    return ts_make_config(17, 10, 4, 4, 2)


def frs_ref():
    return frs_make_config(8, 3, 4, Fraction(3, 4))


def test_splitmix_reference_vectors():
    """First outputs of the published splitmix64 for seed 0; pins the
    generator across platforms and releases."""
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F


def test_splitmix_seed_masking():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()
    assert SplitMix64(-1).next_u64() == SplitMix64((1 << 64) - 1).next_u64()


def test_below_bounds():
    g = SplitMix64(7)
    assert all(g.below(1) == 0 for _ in range(5))
    seen = {g.below(6) for _ in range(300)}
    assert seen == set(range(6))
    with pytest.raises(ValueError):
        g.below(0)


def run_child(*argv):
    """Run `python *argv` with the package importable, in a child process
    with a timeout, so a call that never returns fails the test rather
    than hanging it; return its stdout."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=path)).stdout


def test_below_draws_past_64_bits():
    """A bound over 2^64 draws each candidate from as many 64-bit words
    as it needs, concatenated, first draw highest, and returns a value in
    range (in a child process: a draw that never returns would hang)."""
    bounds = (2 ** 64 + 1, 2 ** 65, 257 ** 8, 2 ** 200 - 1)
    first, after, draws = json.loads(run_child("-c", f"""
import json
from fracdec.trials import SplitMix64
g = SplitMix64(3)
first, after = g.below(2 ** 65), g.next_u64()
print(json.dumps([first, after, [[g.below(b) for _ in range(50)]
                                 for b in {bounds!r}]]))
"""))
    ref = SplitMix64(3)
    # 2^128 is a multiple of 2^65, so the first candidate is kept
    assert first == (ref.next_u64() << 64 | ref.next_u64()) % 2 ** 65
    assert after == ref.next_u64()
    for bound, values in zip(bounds, draws):
        assert all(0 <= v < bound for v in values), bound


def test_below_draws_one_word_up_to_64_bits():
    """A bound up to 2^64 draws one word per candidate and rejects as the
    one-word rejection sampler does, so every seeded report is as
    before."""
    g, ref = SplitMix64(4), SplitMix64(4)
    for bound in (1, 6, 257 ** 7, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64) * 20:
        limit = 2 ** 64 - 2 ** 64 % bound
        while (v := ref.next_u64()) >= limit:
            pass
        assert g.below(bound) == v % bound
    assert g.next_u64() == ref.next_u64()


def test_cli_draws_messages_of_a_field_past_64_bits(tmp_path):
    """A trace config over GF(257^8) has message symbols of order 257^8 >
    2^64: `simulate` and `compare-naive` draw its messages and finish, in
    child processes with a timeout."""
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"format": 1, "scheme": "ts", "q": 257,
                                  "n": 8, "k": 2, "l": 8, "m": 2}))
    for argv in (["simulate", "--weights", "0", "--trials-per-weight", "1",
                  "--mode", "sampled"], ["compare-naive", "--t", "0"]):
        out = tmp_path / f"{argv[0]}.json"
        run_child("-m", "fracdec.cli", *argv, "--config", str(config),
                  "--out", str(out))
        report = json.loads(out.read_text())
        assert report["scheme"] == "ts"
    assert report["naiveOutcome"] == report["fractionalOutcome"] == "recovered"


def test_sample_properties():
    g = SplitMix64(8)
    for count in range(11):
        got = g.sample(10, count)
        assert len(got) == count == len(set(got))
        assert got == tuple(sorted(got))
        assert all(0 <= i < 10 for i in got)
    assert g.sample(10, 0) == ()
    assert g.sample(4, 4) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        g.sample(3, 4)


def test_trial_stream_is_a_function_of_all_three_inputs():
    base = trial_stream(5, 2, 9).next_u64()
    assert trial_stream(5, 2, 9).next_u64() == base
    assert trial_stream(6, 2, 9).next_u64() != base
    assert trial_stream(5, 3, 9).next_u64() != base
    assert trial_stream(5, 2, 10).next_u64() != base


def test_random_draw_helpers():
    for cfg in (ts_ref(), frs_ref()):
        stream = trial_stream(1, 0, 0)
        msg = random_message(cfg, stream)
        assert all(isinstance(v, int) for v in msg)
        off = random_column_offset(cfg, stream)
        assert len(off) == cfg.l and any(off)
        pat = random_error_pattern(cfg, stream, 2)
        assert pat.weight == 2
        pinned = random_error_pattern(cfg, stream, 2, support=(5, 1))
        assert pinned.support == (1, 5)
        with pytest.raises(ValueError):
            random_error_pattern(cfg, stream, 2, support=(1,))


def test_run_trial_classification():
    cfg = ts_ref()
    stream = trial_stream(40, 2, 0)
    msg = random_message(cfg, stream)
    pattern = random_error_pattern(cfg, stream, 2)
    outcome, bundle = run_trial(cfg, msg, pattern)
    assert outcome == "success" and bundle.downloaded == 24
    saw_non_success = False
    for index in range(30):
        stream = trial_stream(41, 3, index)
        msg = random_message(cfg, stream)
        pattern = random_error_pattern(cfg, stream, 3)
        outcome, bundle = run_trial(cfg, msg, pattern)
        assert outcome in ("success", "detected", "silent")
        assert (bundle is None) == (outcome == "detected")
        saw_non_success = saw_non_success or outcome != "success"
    assert saw_non_success


def test_experiment_spec_validation():
    cfg = ts_small()
    with pytest.raises(ValueError):
        ExperimentSpec(config=cfg, weights=(11,), trials_per_weight=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentSpec(config=cfg, weights=(1,), trials_per_weight=0, seed=0)
    with pytest.raises(ValueError):
        ExperimentSpec(config=cfg, weights=(1,), trials_per_weight=1, seed=0,
                       support_mode="all")
    with pytest.raises(ValueError):
        ExperimentSpec(config=cfg, weights=(1,), trials_per_weight=1, seed=-1)
    with pytest.raises(ValueError, match="weights must not repeat"):
        ExperimentSpec(config=cfg, weights=(0, 1, 1), trials_per_weight=1,
                       seed=0)


def test_simulate_exhaustive_counts_and_purity_within_radius():
    cfg = ts_small()
    assert cfg.radius == 1
    spec = ExperimentSpec(config=cfg, weights=(0, 1), trials_per_weight=3,
                          seed=3)
    report = simulate(spec)
    for stats, weight in zip(report.per_weight, (0, 1)):
        assert stats.trials == comb(10, weight) * 3
        assert stats.successes == stats.trials
        assert stats.detected_failures == stats.silent_failures == 0
        assert stats.success_rate == 1
    assert report.downloaded_per_trial == 20
    assert report.accessed_per_trial == 40
    assert report.download_budget == 20


def test_simulate_sampled_counts():
    cfg = ts_ref()
    spec = ExperimentSpec(config=cfg, weights=(2, 3), trials_per_weight=8,
                          seed=4, support_mode="sampled")
    report = simulate(spec)
    for stats in report.per_weight:
        assert stats.trials == 8
        assert stats.successes + stats.detected_failures \
            + stats.silent_failures == 8
    assert report.per_weight[0].successes == 8      # within the radius
    assert report.per_weight[1].successes < 8       # weight 3 must not be clean


def test_simulate_exhaustive_budget(monkeypatch):
    monkeypatch.setenv("FRACDEC_BUDGET", "50")
    cfg = ts_ref()
    spec = ExperimentSpec(config=cfg, weights=(2,), trials_per_weight=1,
                          seed=0)
    with pytest.raises(BudgetExceeded):
        simulate(spec)


def test_reports_byte_identical():
    cfg = frs_ref()
    spec = ExperimentSpec(config=cfg, weights=(0, 1, 2), trials_per_weight=2,
                          seed=11, support_mode="sampled")
    a = report_to_json(simulate(spec))
    b = report_to_json(simulate(spec))
    assert a == b
    other = ExperimentSpec(config=cfg, weights=(0, 1, 2), trials_per_weight=2,
                           seed=12, support_mode="sampled")
    assert report_to_json(simulate(other)) != a


def test_report_dict_shape():
    cfg = frs_ref()
    spec = ExperimentSpec(config=cfg, weights=(1,), trials_per_weight=2,
                          seed=0, support_mode="sampled")
    data = report_to_dict(simulate(spec))
    assert data["format"] == 1 and data["scheme"] == "frs"
    assert data["config"]["p"] == 37 and data["config"]["alpha"] == "3/4"
    assert data["radius"] == 2
    assert data["downloadBudget"] == 24
    assert data["storage"] == {"symbolBits": 6, "columnBits": 24}
    (row,) = data["perWeight"]
    assert row["weight"] == 1 and row["trials"] == 2
    assert row["successRate"] == "1"


def test_download_budget_values():
    assert _download_budget(ts_ref()) == 24
    assert _download_budget(frs_ref()) == 24
    assert _download_budget(ts_make_config(5, 4, 2, 2, 1)) == 4


def test_compare_naive_trace_separation():
    cfg = ts_ref()
    result = compare_naive(cfg, 2)
    assert result.naive_radius == 1 and result.fractional_radius == 2
    assert result.read_columns == tuple(range(6))
    assert result.pattern.support == (0, 1)
    assert result.naive_outcome in ("failed", "miscorrected")
    assert result.fractional_outcome == "recovered"
    assert result.separated and result.note == ""
    assert result.downloaded_naive == result.downloaded_fractional == 24


def test_compare_naive_folded_separation():
    cfg = frs_ref()
    result = compare_naive(cfg, 2)
    assert result.naive_radius == 1
    assert result.read_columns == tuple(range(6))
    assert result.naive_outcome in ("failed", "miscorrected")
    assert result.fractional_outcome == "recovered"
    assert result.separated
    assert result.downloaded_naive == result.downloaded_fractional == 24


def test_compare_naive_pins_a_naive_miscorrection():
    """On the shipped ts-q13-n12-k4 at t = 2 and seed 49 the whole-column
    reader decodes to another message: the corrupted columns lie within
    its radius of a different codeword. The fractional reader recovers
    the message."""
    cfg = config_from_dict(load_json(str(ROOT / "configs" /
                                         "ts-q13-n12-k4.json")))
    d = comparison_to_dict(compare_naive(cfg, 2, seed=49))
    assert d["naiveOutcome"] == "miscorrected"
    assert d["fractionalOutcome"] == "recovered"
    assert d["separated"] is True


def naive_radius_grid():
    """Valid trace configs over GF(13^l) and folded configs over GF(67),
    l = 2..4, every alpha = a/l, k and n (n <= 13 and n <= 16), for which
    alpha*n is an integer, as the whole-column reader needs."""
    base = PrimeField(13)
    for l in (2, 3, 4):
        ext = ExtField(base, l)
        basis = dual_basis(ext)
        for m in range(1, l + 1):
            for k in range(m, 13 * m // l + 1, m):
                subsets = tuple(tuple(range(j * (k // m), (j + 1) * (k // m)))
                                for j in range(m))
                for n in range(l * k // m, 14):
                    if n * m % l == 0:
                        yield TsConfig(ext=ext, k=k, omega=tuple(range(n)),
                                       subsets=subsets, basis=basis)
    field = PrimeField(67)
    gamma = smallest_primitive_root(67)
    for l in (2, 3, 4):
        for a in range(1, l + 1):
            alpha = Fraction(a, l)
            for k in range(1, 17):
                if (k / alpha).denominator != 1 or k / alpha > 16:
                    continue
                for n in range(int(k / alpha), 17):
                    if (alpha * n).denominator == 1:
                        yield FrsConfig(field=field, gamma=gamma, n=n, k=k,
                                        l=l, alpha=alpha)


def test_compare_naive_radius_matches_the_bound():
    """compare_naive forms the naive radius from the integer alpha*n
    itself, without `bounds`; it must equal bounds.radius_naive on the
    five shipped configs and on a grid of valid trace and folded ones."""
    shipped = [config_from_dict(load_json(str(path)))
               for path in sorted((ROOT / "configs").glob("*.json"))]
    assert len(shipped) == 5
    schemes = set()
    for cfg in [*shipped, *naive_radius_grid()]:
        result = compare_naive(cfg, 0)
        assert result.naive_radius == radius_naive(cfg.n, cfg.k, cfg.alpha)
        schemes.add(cfg.scheme)
    assert schemes == {"ts", "frs"}


def test_compare_naive_no_separation_note():
    cfg = ts_ref()
    result = compare_naive(cfg, 1)
    assert result.naive_outcome == result.fractional_outcome == "recovered"
    assert not result.separated and "no separation" in result.note
    assert compare_naive(cfg, 0).naive_outcome == "recovered"


def test_compare_naive_validation():
    cfg = ts_ref()
    with pytest.raises(ValueError):
        compare_naive(cfg, 3)      # beyond the fractional radius
    with pytest.raises(ValueError):
        compare_naive(cfg, -1)


def test_seed_range_is_64_bits():
    """trial_stream reads only the low 64 bits of a seed, so 2^64 replays 0
    and -3 replays 2^64 - 3. ExperimentSpec and compare_naive accept
    exactly [0, 2^64), with one message."""
    assert trial_stream(0, 1, 0).next_u64() == \
        trial_stream(2 ** 64, 1, 0).next_u64()
    assert trial_stream(-3, 1, 0).next_u64() == \
        trial_stream(2 ** 64 - 3, 1, 0).next_u64()
    cfg = ts_ref()
    for seed in (0, 2 ** 64 - 1):
        ExperimentSpec(config=cfg, weights=(1,), trials_per_weight=1,
                       seed=seed)
        compare_naive(cfg, 1, seed=seed)
    for seed in (-3, -1, 2 ** 64, 2 ** 64 + 3):
        message = rf"seed must be an integer in \[0, 2\*\*64\), got {seed}$"
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(config=cfg, weights=(1,), trials_per_weight=1,
                           seed=seed)
        with pytest.raises(ValueError, match=message):
            compare_naive(cfg, 1, seed=seed)


@pytest.mark.parametrize("bad", (True, False, 1.0, 1.5, "1", None))
def test_counts_must_be_plain_ints(bad):
    """Weights, the seed, trials_per_weight and t are counts: a bool or a
    float is refused up front instead of simulating or failing in range()."""
    cfg = ts_small()
    good = dict(config=cfg, weights=(1,), trials_per_weight=1, seed=0)
    for key, value in (("weights", (bad,)), ("weights", (0, bad)),
                       ("trials_per_weight", bad), ("seed", bad)):
        with pytest.raises(ValueError):
            ExperimentSpec(**{**good, key: value})
    with pytest.raises(ValueError):
        compare_naive(cfg, bad)
    with pytest.raises(ValueError):
        compare_naive(cfg, 1, seed=bad)


def test_compare_naive_deterministic():
    cfg = frs_ref()
    assert compare_naive(cfg, 2, seed=5) == compare_naive(cfg, 2, seed=5)
    d = comparison_to_dict(compare_naive(cfg, 2, seed=5))
    assert d["separated"] is True
    assert d["errorSupport"] == [0, 1]
    assert len(d["errorValues"]) == 2


def test_error_pattern_validation():
    with pytest.raises(ValueError):
        ErrorPattern(support=(3, 1), values=((1,), (1,)))   # not increasing
    with pytest.raises(ValueError):
        ErrorPattern(support=(1,), values=((0, 0),))        # zero offset
    with pytest.raises(ValueError):
        ErrorPattern(support=(1, 2), values=((1,),))        # length mismatch
