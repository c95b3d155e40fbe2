"""The transmit side of `cfg.pipeline`: one packed sum from the message's
encode inputs and the error offsets to the served symbols.

`transmit_map` must be download_map after encode_map, and the digit width
it shares with download_map must hold both products at once: at the
carry boundary, where every message digit and every offset symbol is
q - 1, the pipeline still serves exactly what the staged chain serves. A
pipeline never forms the stored word: it makes no product with
download_map over a whole word and no encode product with n*l outputs.
"""

import sys

import pytest

import oracles
from fracdec import arraycode, rs
from fracdec.arraycode import ErrorPattern, apply_error_pattern
from fracdec.errors import DecodeFailure
from fracdec.trace_scheme import ts_make_config
from test_pipelines import CONFIGS as PIPELINE_CONFIGS

# the shipped configs and the two bench/run.py times, then two more.
# A served symbol reads l - m + 1 stored ones, so an output of the
# pipeline's packed sum adds kl + l - m + 1 products of at most (q - 1)^2:
# here 50 * 36^2 = 64800, just under 2^16, where one more would need
# 32-bit digits; and 51 * 36^2 = 66096 needs them, though the kl = 48
# message products alone would fit 16 bits.
CONFIGS = {**PIPELINE_CONFIGS,
           "ts-q37-n36-k12-l4-m3": lambda: ts_make_config(37, 36, 12, 4, 3),
           "ts-q37-n36-k12-l4-m2": lambda: ts_make_config(37, 36, 12, 4, 2)}
CARRY_CONFIGS = ("ts-wide", "frs-wide", "ts-q37-n36-k12-l4-m3",
                 "ts-q37-n36-k12-l4-m2")


def largest_message(cfg):
    """The message whose encode inputs are all q - 1."""
    order, length = cfg.message_space
    return (order - 1,) * length


def served_by_pipeline(cfg, message, pattern, monkeypatch):
    """(outcome, served): what cfg.pipeline returned or the type of what it
    raised, and the served symbols it handed the decoder."""
    seen = []

    def recording(code, served, g, radius, pmap):
        seen.append(tuple(served))
        return decode_words(code, served, g, radius, pmap)

    decode_words = arraycode.decode_words
    monkeypatch.setattr(arraycode, "decode_words", recording)
    try:
        result = cfg.pipeline(message, pattern)
    except DecodeFailure:
        result = DecodeFailure
    finally:
        monkeypatch.undo()
    (served,) = seen
    return result, served


def staged(cfg, message, pattern):
    """The same as `served_by_pipeline`, through the checked stages."""
    bundle = cfg.download(apply_error_pattern(
        cfg.symbol_field, cfg.encode(message), pattern))
    try:
        result = cfg.decode(bundle.per_column)[0], bundle
    except DecodeFailure:
        result = DecodeFailure
    return result, tuple(s for column in bundle.per_column for s in column)


@pytest.mark.parametrize("name", CARRY_CONFIGS)
def test_largest_digits_serve_as_the_staged_chain(name, monkeypatch):
    """Every message digit and every offset symbol at q - 1, on the first
    w columns for every weight w up to n: the one accumulation serves the
    staged chain's symbols, and the decode ends the same way: with the
    message up to the radius. (Past it the offsets are a codeword's own
    columns, so some weights decode to another message.)"""
    cfg = CONFIGS[name]()
    q, message = cfg.symbol_field.q, largest_message(cfg)
    for weight in range(cfg.n + 1):
        pattern = ErrorPattern(support=range(weight),
                               values=[(q - 1,) * cfg.l] * weight)
        want = staged(cfg, message, pattern)
        assert served_by_pipeline(cfg, message, pattern, monkeypatch) == want
        if weight <= cfg.radius:
            assert want[0][0] == message


def matrix(pmap):
    """A packed map's entries mod q, one tuple per input."""
    return [tuple(d % pmap.q for d in column)
            for column in oracles.map_digits(pmap)]


@pytest.mark.parametrize("name", CONFIGS)
def test_transmit_map_is_download_after_encode(name):
    """Entry (r, c) of transmit_map is the sum over stored symbols s of
    download entry (r, s) times encode entry (s, c), mod q; for a folded
    config that is the evaluation map at served_code's points, served_map's
    one word, and the config's decode_map is the very same object."""
    cfg = CONFIGS[name]()
    q = cfg.symbol_field.q
    download, encode = matrix(cfg.download_map), matrix(cfg.encode_map)
    composed = [tuple(sum(d[r] * e for d, e in zip(download, column)) % q
                      for r in range(cfg.download_map.outputs))
                for column in encode]
    assert matrix(cfg.transmit_map) == composed
    if cfg.scheme == "frs":
        assert oracles.map_digits(cfg.transmit_map) == oracles.map_digits(
            rs.served_map(cfg.served_code, 1, 1))
        assert cfg.decode_map is cfg.transmit_map


@pytest.mark.parametrize("name", CONFIGS)
def test_transmit_width_holds_the_joint_digit_sum(name):
    """transmit_map and download_map share the least digit width that
    holds (inputs + reads) * (q - 1)^2: the products of every encode input
    and of the stored symbols one served symbol reads, l - m + 1 in a
    trace config and 1 in a folded one; the largest digits the two
    products can reach sum below 2^width."""
    cfg = CONFIGS[name]()
    q = cfg.symbol_field.q
    reads = cfg.l - cfg.m + 1 if cfg.scheme == "ts" else 1
    assert reads == max(sum(map(bool, row)) for row in zip(
        *oracles.map_digits(cfg.download_map)))
    bits = ((cfg.encode_map.inputs + reads) * (q - 1) ** 2).bit_length()
    width = min(w for w in (8, 16, 32, 64) if w >= bits)
    assert cfg.transmit_map.width == cfg.download_map.width == width
    assert cfg.transmit_map.outputs == cfg.download_map.outputs
    assert (oracles.largest_digit_sum(cfg.transmit_map)
            + oracles.largest_digit_sum(cfg.download_map)) < 2 ** width
    if name == "ts-q37-n36-k12-l4-m3":
        assert bits == 16 and (51 * 36 ** 2).bit_length() == 17
    if name == "ts-q37-n36-k12-l4-m2":
        assert width == 32 and ((48 * 36 ** 2).bit_length()) == 16
    # each download column reads into its own column's served symbols
    for column in oracles.map_digits(cfg.download_map):
        touched = {r // cfg.served_per_column
                   for r, digit in enumerate(column) if digit}
        assert len(touched) <= 1


def test_packed_sum_refuses_maps_of_another_width():
    q = 31
    narrow = rs.packed_map(q, [[1, 2]])
    wide = rs.packed_map(q, [[1, 2]], terms=100)
    assert rs.packed_sum(narrow, [3], narrow, [(0, [4])]) == [7, 14]
    with pytest.raises(ValueError, match="same outputs and width"):
        rs.packed_sum(narrow, [3], wide, [])


@pytest.mark.parametrize("name", ("ts-wide", "frs-wide"))
def test_pipeline_never_forms_the_stored_word(name, monkeypatch):
    """One pipeline makes one packed sum, of the message's encode inputs
    with transmit_map and of each offset with the l download columns of
    its own column. Its other products are the decode's: one
    interpolation per served word, then exactly one with cfg.decode_map,
    which a folded pipeline skips only when its word is a codeword, for
    its map has no tail to read. So none is with download_map or
    encode_map, and none has n*l outputs."""
    cfg = CONFIGS[name]()
    products, sums = [], []
    originals = {"packed_product": rs.packed_product,
                 "packed_sum": rs.packed_sum}

    def recorder(fn, log):
        def recording(pmap, symbols, *rest):
            log.append((pmap, list(symbols), *rest))
            return originals[fn](pmap, symbols, *rest)
        return recording

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("fracdec"):
            for fn, log in (("packed_product", products),
                            ("packed_sum", sums)):
                if getattr(module, fn, None) is originals[fn]:
                    monkeypatch.setattr(module, fn, recorder(fn, log))
    q, message = cfg.symbol_field.q, largest_message(cfg)
    for weight in (0, 1, cfg.radius):
        del products[:], sums[:]
        pattern = ErrorPattern(support=range(weight),
                               values=[(q - 1,) * cfg.l] * weight)
        assert cfg.pipeline(message, pattern)[0] == message
        ((pmap, inputs, spread, offsets),) = sums
        assert pmap is cfg.transmit_map and spread is cfg.download_map
        assert len(inputs) == cfg.encode_map.inputs
        assert [(start, len(values)) for start, values in offsets] == [
            (i * cfg.l, cfg.l) for i in range(weight)]
        code, words = cfg.served_code, cfg.served_per_column // cfg.g
        tail = cfg.decode_map.outputs > cfg.downloaded_per_word
        decodes = [cfg.decode_map] if weight or tail else []
        assert tail == (cfg.scheme == "ts")
        assert list(map(id, next(zip(*products)))) == list(map(id, (
            [code.interpolation] * words + decodes)))
        for pmap, *_ in products:
            assert pmap.outputs != cfg.n * cfg.l
