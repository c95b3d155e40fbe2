"""The decode side of both schemes: per-word Euclid runs, then one product.

`rs.decode_words` takes each served word's interpolant and runs Gao's
Euclid to a quotient, then applies the config's `decode_map` once: every word's
quotient coefficients go to their re-encoded served symbols, in served
order, and for a trace config on to the message digits. At every error
weight, past the radius too, the pipeline and the staged decode must end
as the per-word flow of `oracles.decode_words_per_word` does, whose words
are decoded, re-encoded and checked one at a time. And the one product
must not carry where every quotient coefficient is q - 1.
"""

import random
from operator import mul

import pytest

import oracles
from fracdec import arraycode
from fracdec.arraycode import ErrorPattern, apply_error_pattern
from fracdec.errors import DecodeFailure
from fracdec.rs import packed_product, served_map
from test_pipelines import CONFIGS
from test_transmit import CARRY_CONFIGS
from test_transmit import CONFIGS as CARRY_BUILDERS

PATTERNS_PER_WEIGHT = 2


def outcome(call, *args):
    """("ok", what `call` returned) or ("failed", the DecodeFailure text)."""
    try:
        return "ok", call(*args)
    except DecodeFailure as exc:
        return "failed", str(exc)


def random_pattern(rng, cfg, weight, thin):
    """An error pattern on `weight` random columns: each offset is random
    over all l symbols, or with `thin` one random symbol only, so that a
    trace column may reach one stream alone and a folded one may reach
    one served symbol or none."""
    q, l = cfg.symbol_field.q, cfg.l
    values = []
    for _ in range(weight):
        if thin:
            offset = [0] * l
            offset[rng.randrange(l)] = rng.randrange(1, q)
        else:
            offset = [rng.randrange(q) for _ in range(l)]
            offset[rng.randrange(l)] = rng.randrange(1, q)
        values.append(offset)
    return ErrorPattern(support=sorted(rng.sample(range(cfg.n), weight)),
                        values=values)


def pipeline_outcome(cfg, message, pattern, monkeypatch):
    """outcome() of cfg.pipeline as (message, corrected_columns), the
    columns read off its one `decode_words`, and its bundle or None."""
    corrected = []

    def recording(*args):
        result = decode_words(*args)
        corrected.append(result[2])
        return result

    decode_words = arraycode.decode_words
    monkeypatch.setattr(arraycode, "decode_words", recording)
    try:
        result = outcome(cfg.pipeline, message, pattern)
    finally:
        monkeypatch.undo()
    if result[0] == "failed":
        return result, None
    decoded, bundle = result[1]
    return ("ok", (decoded, *corrected)), bundle


@pytest.mark.parametrize("name", CONFIGS)
def test_decode_matches_the_per_word_reference(name, monkeypatch):
    """At every weight 0..n, on random and on one-symbol offsets, the
    pipeline and the staged decode return the reference's (message,
    corrected) or raise DecodeFailure with its text. Between them the
    cases reach a decoded message and both failures: a word with no
    codeword near, and, where words within their code's radius can add up
    to it, more corrected columns than the radius."""
    cfg = CONFIGS[name]()
    rng = random.Random(name)
    order, length = cfg.message_space
    seen = set()
    for weight in range(cfg.n + 1):
        for trial in range(2 * PATTERNS_PER_WEIGHT):
            message = tuple(rng.randrange(order) for _ in range(length))
            pattern = random_pattern(rng, cfg, weight, thin=trial % 2)
            bundle = cfg.download(apply_error_pattern(
                cfg.symbol_field, cfg.encode(message), pattern))
            served = [s for column in bundle.per_column for s in column]
            want = outcome(oracles.decode_reference, cfg, served)
            assert outcome(cfg.decode, bundle.per_column) == want
            got, served_bundle = pipeline_outcome(cfg, message, pattern,
                                                  monkeypatch)
            assert got == want
            assert served_bundle in (None, bundle)
            if weight <= cfg.radius:
                clean = cfg.download(cfg.encode(message)).per_column
                assert want == ("ok", (message, frozenset(
                    i for i in range(cfg.n)
                    if bundle.per_column[i] != clean[i])))
            seen.add(want[0] if want[0] == "ok" else want[1].split()[0])
    # a union past the radius needs words that each stay within their
    # code's radius: two words, or one whose radius exceeds the columns'
    union = (cfg.served_per_column > cfg.g
             or cfg.served_code.radius > cfg.radius)
    assert seen == {"ok", "no", *["nearest"] * union}


def reencoded(cfg, coeffs):
    """The served symbols of the words whose coefficients are `coeffs`,
    each word's k in turn, through oracles.rs_evaluate: column i serves
    g symbols of word 0, then g of word 1, and so on."""
    code, g = cfg.served_code, cfg.g
    words = [oracles.rs_evaluate(code, coeffs[j:j + code.k])
             for j in range(0, len(coeffs), code.k)]
    return [s for i in range(cfg.n) for word in words
            for s in word[i * g:(i + 1) * g]]


@pytest.mark.parametrize("name", CARRY_CONFIGS)
def test_decode_map_leaves_digits_room(name):
    """With every quotient coefficient at q - 1, decode_map's one product
    equals the textbook product of its matrix: the re-encoded served
    symbols oracles.rs_evaluate gives, then for a trace config the message
    digits the scalar peel reads. Its width is the least that holds its joint
    sum, every input's product; a folded map is the evaluation map at
    served_code's points, served_map's one word, with no interpolant
    outputs, so its width is not the pipeline's."""
    cfg = CARRY_BUILDERS[name]()
    pmap, q = cfg.decode_map, cfg.symbol_field.q
    terms = pmap.inputs
    bits = (terms * (q - 1) ** 2).bit_length()
    assert pmap.width == min(w for w in (8, 16, 32, 64) if w >= bits)
    assert oracles.largest_digit_sum(pmap) < 2 ** pmap.width
    coeffs = [q - 1] * pmap.inputs
    out = packed_product(pmap, coeffs)
    assert out == [sum(map(mul, row, coeffs)) % q
                   for row in zip(*oracles.map_digits(pmap))]
    served = reencoded(cfg, coeffs)
    assert out[:len(served)] == served
    if cfg.scheme == "ts":
        size = cfg.served_code.k
        message = oracles.ts_peel(cfg, [coeffs[j:j + size]
                                        for j in range(0, len(coeffs), size)])
        assert out[len(served):] == [a // q ** v % q for a in message
                                     for v in range(cfg.l)]
    else:
        assert len(out) == len(served)
        assert oracles.map_digits(pmap) == oracles.map_digits(
            served_map(cfg.served_code, 1, 1))
