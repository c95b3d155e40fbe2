"""Radius bounds, the information-count condition, collision witnesses,
and the exact figure sweep."""

import time
from fractions import Fraction
from pathlib import Path

import pytest

from fracdec import arraycode
from fracdec.bounds import (emit_figure, figure_csv, find_download_collision,
                            list_capacity, list_decode_bruteforce,
                            min_info_check, radius_naive, radius_optimal,
                            radius_report, _decimal6)
from fracdec.errors import BudgetExceeded
from fracdec.frs_scheme import frs_make_config
from fracdec.primefield import PrimeField
from fracdec.rationals import as_fraction, brief
from fracdec.serialization import config_from_dict, load_json
from fracdec.trace_scheme import ts_make_config
from fracdec.trials import random_message, trial_stream
from oracles import ts_decode_bruteforce

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

HALF = Fraction(1, 2)


def test_as_fraction_forms():
    assert as_fraction(Fraction(3, 4)) == Fraction(3, 4)
    assert as_fraction(2) == 2
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("0.75") == Fraction(3, 4)
    with pytest.raises(TypeError):
        as_fraction(0.75)
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
        as_fraction("1/0")


def test_as_fraction_refuses_huge_decimal_exponents():
    """A decimal exponent past 4300 in magnitude is refused before
    Fraction expands it into a power of ten of that many digits, which
    took over a second at 2000000, in one short message that names the
    value by its first 20 characters; exponents up to 4300 still read."""
    assert as_fraction("1e4300") == 10 ** 4300
    assert as_fraction(" 5E-0_004_300 ") == Fraction(5, 10 ** 4300)
    for value in ("1e-2000000", "1e-20000000", "2.5E+4301", "1e0_4_3_0_1",
                  "1e000000000000000004301", "1e" + "9" * 5000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="decimal exponent of magnitude "
                                             "above 4300") as info:
            as_fraction(value)
        assert time.perf_counter() - start < 0.1
        assert repr(value[:20]) in str(info.value)
        assert len(str(info.value)) < 200


def test_brief_names_long_parts_by_their_digit_count():
    """Short rationals print in full; a numerator or denominator of 10^24
    or more prints as its digit count, exact at every power-of-ten and
    power-of-two edge, and past CPython's 4300-digit str() limit."""
    assert brief(Fraction(-3, 4)) == "-3/4" and brief(7) == "7"
    assert brief(Fraction(10 ** 24 - 1, 10 ** 24 - 2)) == (
        f"{10 ** 24 - 1}/{10 ** 24 - 2}")
    for x in [10 ** e + d for e in range(25, 80) for d in (-1, 0)] + [
            10 ** 24] + [2 ** b + d for b in range(80, 300) for d in (-1, 0)]:
        assert brief(Fraction(x)) == f"<{len(str(x))} digits>"
        assert brief(Fraction(1, x)) == f"1/<{len(str(x))} digits>"
    assert brief(Fraction(1, 10 ** 4300)) == "1/<4301 digits>"
    assert brief(-Fraction(10 ** 5000 - 1, 7)) == "-<5000 digits>/7"


def test_radius_frozen_examples():
    assert radius_naive(12, 4, HALF) == 1
    assert radius_optimal(12, 4, HALF) == 2
    assert radius_naive(8, 3, Fraction(3, 4)) == 1
    assert radius_optimal(8, 3, Fraction(3, 4)) == 2
    assert radius_optimal(12, 4, "1/2") == 2
    assert radius_naive(4, 2, HALF) == 0
    assert radius_optimal(4, 2, HALF) == 0
    assert radius_optimal(6, 1, Fraction(1, 3)) == 1


def test_radius_alpha_one_is_classical():
    for n in range(1, 15):
        for k in range(1, n + 1):
            assert radius_naive(n, k, 1) == radius_optimal(n, k, 1) \
                == (n - k) // 2


def test_radius_regime_validation():
    with pytest.raises(ValueError, match="below the rate"):
        radius_optimal(12, 4, Fraction(1, 4))
    with pytest.raises(ValueError, match="cannot exceed the whole word"):
        radius_naive(12, 4, Fraction(3, 2))
    with pytest.raises(ValueError):
        radius_optimal(12, 13, 1)
    with pytest.raises(TypeError):
        radius_optimal(Fraction(12), 4, HALF)
    with pytest.raises(TypeError):
        radius_optimal(12, 4, 0.5)


def test_radius_report_invariants():
    for n in (6, 8, 12, 15):
        for k in range(1, n + 1):
            for denom in (2, 3, 4):
                for numer in range(1, denom + 1):
                    alpha = Fraction(numer, denom)
                    if alpha < Fraction(k, n):
                        continue
                    rep = radius_report(n, k, alpha)
                    assert rep.naive <= rep.optimal
                    assert rep.naive == (alpha * n - k) // 2 if alpha * n >= k \
                        else rep.naive == 0
                    assert rep.optimal == radius_optimal(n, k, alpha)
                    assert rep.naive_normalized <= rep.optimal_normalized
                    assert isinstance(rep.optimal_normalized, Fraction)
                    # the floored radii are exactly n * the unfloored curves
                    assert rep.optimal == max(0, (n * rep.optimal_normalized
                                                  ).__floor__())
                    if alpha > rep.rate:
                        assert rep.optimal_normalized / rep.naive_normalized \
                            == 1 / alpha


def test_list_capacity():
    assert list_capacity(Fraction(2, 5), 1) == Fraction(3, 5)
    assert list_capacity(Fraction(2, 5), HALF) == Fraction(1, 5)
    assert list_capacity(0, HALF) == 1
    assert list_capacity(HALF, HALF) == 0
    with pytest.raises(ValueError):
        list_capacity(Fraction(3, 5), HALF)     # rate above alpha
    with pytest.raises(ValueError):
        list_capacity(HALF, 0)


def test_min_info_uniform():
    res = min_info_check([HALF] * 12, 2, 4)
    assert res.passed and res.min_total == 4 and res.witness == ()
    res = min_info_check([HALF] * 12, 3, 4)
    assert not res.passed and res.min_total == 3
    assert res.witness == (0, 1, 2, 3, 4, 5)


def test_min_info_mixed_and_errors():
    alphas = [1, 1, HALF, HALF, 0, 0]
    assert min_info_check(alphas, 1, 1).passed
    res = min_info_check(alphas, 2, 1)
    assert not res.passed and res.witness == (4, 5) and res.min_total == 0
    with pytest.raises(ValueError):
        min_info_check(alphas, 4, 1)            # 2t > n
    with pytest.raises(ValueError):
        min_info_check([2], 0, 1)               # fraction outside [0, 1]
    with pytest.raises(ValueError):
        min_info_check(alphas, -1, 1)
    with pytest.raises(TypeError):
        min_info_check([0.5] * 6, 1, 1)


def test_min_info_flip_at_shipped_radii():
    assert min_info_check([HALF] * 12, 2, 4).passed          # trace reference
    assert not min_info_check([HALF] * 12, 3, 4).passed
    assert min_info_check([Fraction(3, 4)] * 8, 2, 3).passed  # folded reference
    assert not min_info_check([Fraction(3, 4)] * 8, 3, 3).passed


def all_words(cfg):
    return [word for _, word in cfg.codewords()]


def test_collision_trace_full_download_none_at_radius():
    """m = l on the tiny instance: full columns, radius 1 achievable, so no
    two codewords collide at t = 1."""
    cfg = ts_make_config(5, 4, 2, 2, 2)
    assert cfg.radius == 1
    assert find_download_collision(cfg.base, all_words(cfg),
                                   cfg.download_fn(), 1) is None


def test_collision_trace_half_download_witness():
    """A proper half-download instance has radius 0; at t = 1 the converse
    construction must produce an indistinguishable pair, and at t = 0 the
    downloads are injective."""
    cfg = ts_make_config(5, 4, 2, 2, 1)
    assert cfg.radius == 0
    words = all_words(cfg)
    download = cfg.download_fn()
    assert find_download_collision(cfg.base, words, download, 0) is None
    wit = find_download_collision(cfg.base, words, download, 1)
    assert wit is not None
    assert wit.word_a != wit.word_b
    assert len(wit.agree_columns) == cfg.n - 2
    assert wit.pattern_a.weight <= 1 and wit.pattern_b.weight <= 1
    touched = set(wit.pattern_a.support) | set(wit.pattern_b.support)
    assert touched.isdisjoint(wit.agree_columns)
    # independent recheck: the two corrupted words download identically
    from fracdec.arraycode import apply_error_pattern
    ca = apply_error_pattern(cfg.base, wit.word_a, wit.pattern_a)
    cb = apply_error_pattern(cfg.base, wit.word_b, wit.pattern_b)
    assert download(ca) == download(cb)


def test_collision_truncated_downloads_lose_radius():
    """Serving only the first of the two per-column symbols of the m = 2
    tiny instance is not information-preserving; t = 1 collides."""
    cfg = ts_make_config(5, 4, 2, 2, 2)
    wit = find_download_collision(cfg.base, all_words(cfg),
                                  cfg.download_fn(1), 1)
    assert wit is not None


@pytest.mark.parametrize("count, products", [(2, 625), (1, 627)])
def test_collision_search_downloads_each_codeword_once(count, products,
                                                       monkeypatch):
    """The search downloads each of the 625 codewords of ts-q5-n4-k2 once,
    one product with cfg.served_download_map, which yields the served
    symbols alone, and building a witness downloads the two corrupted
    words once each: the full download has no collision at t = 1, the
    one-symbol download has."""
    cfg = config_from_dict(load_json(str(CONFIG_DIR / "ts-q5-n4-k2.json")))
    words, download = all_words(cfg), cfg.download_fn(count)
    products_made, original = [], arraycode.packed_product

    def counting(pmap, symbols):
        products_made.append(pmap)
        return original(pmap, symbols)

    monkeypatch.setattr(arraycode, "packed_product", counting)
    wit = find_download_collision(cfg.base, words, download, 1)
    assert (wit is None) == (count == cfg.m)
    assert len(products_made) == products
    assert all(pmap is cfg.served_download_map for pmap in products_made)
    assert cfg.served_download_map.outputs == cfg.downloaded_per_word


def test_witness_check_catches_a_download_that_mixes_columns():
    """The search compares downloads column by column, so it trusts each
    column's download to depend on that column alone. Here column 0
    serves nothing and every other column serves column 0: the two words
    agree on column 0's download, the crossed words still differ in
    column 0, and so in every other column's download."""
    words = [((0,), (0,), (0,)), ((1,), (0,), (0,))]

    def mixing(word):
        return ((),) + (word[0],) * (len(word) - 1)

    with pytest.raises(RuntimeError, match="depend on that column alone"):
        find_download_collision(PrimeField(5), words, mixing, 1)


def test_collision_folded_tiny():
    cfg = frs_make_config(6, 1, 3, Fraction(1, 3), p=19, gamma=2)
    assert cfg.radius == 1
    words, download = all_words(cfg), cfg.download_fn()
    assert find_download_collision(cfg.field, words, download, 1) is None
    wit = find_download_collision(cfg.field, words, download, 2)
    assert wit is not None
    assert len(wit.agree_columns) == cfg.n - 4
    assert wit.pattern_a.weight <= 2 and wit.pattern_b.weight <= 2


def test_collision_validation_and_budget(monkeypatch):
    cfg = ts_make_config(5, 4, 2, 2, 2)
    words = all_words(cfg)
    download = cfg.download_fn()
    with pytest.raises(ValueError):
        find_download_collision(cfg.base, words, download, 3)     # 2t > n
    with pytest.raises(ValueError):
        find_download_collision(cfg.base, [words[0][:3]], download, 1)
    with pytest.raises(ValueError, match="same number of columns"):
        find_download_collision(cfg.base, [words[0], words[1][:3]],
                                download, 1)
    assert find_download_collision(cfg.base, [], download, 1) is None
    monkeypatch.setenv("FRACDEC_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        find_download_collision(cfg.base, words, download, 1)


@pytest.mark.parametrize("build", [
    lambda: config_from_dict(load_json(CONFIG_DIR / "ts-q5-n4-k2.json")),
    lambda: ts_make_config(7, 7, 2, 2, 2),
], ids=["ts-q5-n4-k2", "q7-n7-k2-l2-m2"])
def test_list_decoder_matches_the_trace_oracle(build):
    """On trace configs, the list decoder written on the config interface
    returns exactly the message the trace scheme's own brute-force oracle
    names, or nothing where it names none, at every radius up to the
    config's: on codeword downloads with 0..n columns replaced by another
    codeword's downloads or random symbols."""
    cfg = build()
    named = 0
    for trial in range(cfg.n + 1):
        stream = trial_stream(27, cfg.n, trial)
        clean = cfg.download(cfg.encode(random_message(cfg, stream))).per_column
        other = cfg.download(cfg.encode(random_message(cfg, stream))).per_column
        bad = stream.sample(cfg.n, trial)
        per_column = tuple(
            (other[i] if trial % 2 else
             tuple(stream.below(cfg.base.q) for _ in range(cfg.m)))
            if i in bad else clean[i] for i in range(cfg.n))
        for radius in range(cfg.radius + 1):
            want = ts_decode_bruteforce(cfg, per_column, radius)
            assert list_decode_bruteforce(cfg, per_column, radius) == (
                [] if want is None else [want])
            named += want is not None
    assert 0 < named < (cfg.n + 1) * (cfg.radius + 1)


def test_figure_endpoints_and_monotonicity():
    rows = emit_figure(Fraction(2, 5), steps=61)
    assert len(rows) == 61
    assert rows[0].alpha == Fraction(2, 5)
    assert rows[0].naive_normalized == rows[0].optimal_normalized == 0
    assert rows[-1].alpha == 1
    assert rows[-1].naive_normalized == rows[-1].optimal_normalized \
        == Fraction(3, 10)
    for a, b in zip(rows, rows[1:]):
        assert b.alpha > a.alpha
        assert b.naive_normalized > a.naive_normalized
        assert b.optimal_normalized > a.optimal_normalized
    for row in rows[1:]:
        assert row.optimal_normalized / row.naive_normalized \
            == 1 / row.alpha
        assert row.optimal_normalized >= row.naive_normalized


def test_figure_validation():
    with pytest.raises(ValueError):
        emit_figure(0)
    with pytest.raises(ValueError):
        emit_figure(1)
    with pytest.raises(ValueError):
        emit_figure(HALF, steps=1)
    with pytest.raises(TypeError):
        emit_figure(0.4)


def test_figure_csv_frozen_line():
    rows = emit_figure(Fraction(2, 5), steps=61)
    text = figure_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "alpha,naive_normalized,optimal_normalized"
    assert lines[1] == "0.400000,0.000000,0.000000"
    assert lines[31] == "0.700000,0.150000,0.214286"
    assert lines[-1] == "1.000000,0.300000,0.300000"
    assert text.endswith("\n") and len(lines) == 62


def test_decimal6_rendering():
    assert _decimal6(Fraction(1, 3)) == "0.333333"
    assert _decimal6(Fraction(2, 3)) == "0.666667"
    assert _decimal6(Fraction(3, 14)) == "0.214286"
    assert _decimal6(Fraction(1, 2_000_000)) == "0.000000"   # half to even
    assert _decimal6(Fraction(3, 2_000_000)) == "0.000002"
    assert _decimal6(Fraction(-1, 4)) == "-0.250000"
    assert _decimal6(Fraction(5, 4)) == "1.250000"
