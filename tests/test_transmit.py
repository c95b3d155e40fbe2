"""The transmit side of `cfg.pipeline`: one packed sum from the message's
encode inputs and the error offsets to the served symbols.

`transmit_map` must be download_map after encode_map, both reaching the
served symbols and then their words' interpolants, and the digit width
it shares with download_map must hold both products at once: at the
carry boundary, where every message digit and every offset symbol is
q - 1, the pipeline still serves exactly what the staged chain serves,
with each served word's textbook interpolant. A pipeline never forms the
stored word: it makes no product with download_map over a whole word and
no encode product with n*l outputs, and it never interpolates.
"""

import copy
import pickle
import sys

import pytest

import oracles
from fracdec import arraycode, rs
from fracdec.arraycode import ErrorPattern, apply_error_pattern
from fracdec.errors import DecodeFailure
from fracdec.trace_scheme import ts_make_config
from fracdec.trials import random_error_pattern, random_message, trial_stream
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


def handed_over(call, *args, monkeypatch):
    """(outcome, served, interpolants): what call(*args) returned or the
    type of what it raised, and the served symbols and interpolants it
    handed its one decode_words, never calling rs_interpolate."""
    seen = []

    def recording(code, served, interpolants, *rest):
        seen.append((tuple(served), tuple(interpolants)))
        return decode_words(code, served, interpolants, *rest)

    def refusing(*args):
        raise AssertionError("rs_interpolate called")

    decode_words = arraycode.decode_words
    monkeypatch.setattr(arraycode, "decode_words", recording)
    monkeypatch.setattr(rs, "rs_interpolate", refusing)
    try:
        result = call(*args)
    except DecodeFailure:
        result = DecodeFailure
    finally:
        monkeypatch.undo()
    ((served, interpolants),) = seen
    return result, served, interpolants


def served_by_pipeline(cfg, message, pattern, monkeypatch):
    """handed_over() of cfg.pipeline."""
    return handed_over(cfg.pipeline, message, pattern,
                       monkeypatch=monkeypatch)


def staged(cfg, message, pattern):
    """The same, through the checked stages: the staged chain's served
    symbols and, coefficient c of word j at c * words + j, the textbook
    interpolant of each served word (rs_interpolate of its symbols)."""
    bundle = cfg.download(apply_error_pattern(
        cfg.symbol_field, cfg.encode(message), pattern))
    try:
        result = cfg.decode(bundle.per_column)[0], bundle
    except DecodeFailure:
        result = DecodeFailure
    served = tuple(s for column in bundle.per_column for s in column)
    return result, served, word_interpolants(cfg, served)


def word_interpolants(cfg, served):
    """rs_interpolate of each word the served symbols carry, padded to n
    coefficients, coefficient c of word j at c * words + j."""
    code, g = cfg.served_code, cfg.g
    span = cfg.served_per_column
    words = [rs.rs_interpolate(code, [
        served[p // g * span + j * g + p % g] for p in range(code.n)])
        for j in range(span // g)]
    padded = [h + (0,) * (code.n - len(h)) for h in words]
    return tuple(c for row in zip(*padded) for c in row)


@pytest.mark.parametrize("name", CARRY_CONFIGS)
def test_largest_digits_serve_as_the_staged_chain(name, monkeypatch):
    """Every message digit and every offset symbol at q - 1, on the first
    w columns for every weight w up to n: the one accumulation serves the
    staged chain's symbols and, after them, each served word's textbook
    interpolant, which the staged decode's one product gives too; and the
    decode ends the same way: with the message up to the radius. (Past it
    the offsets are a codeword's own columns, so some weights decode to
    another message.)"""
    cfg = CONFIGS[name]()
    q, message = cfg.symbol_field.q, largest_message(cfg)
    for weight in range(cfg.n + 1):
        pattern = ErrorPattern(support=range(weight),
                               values=[(q - 1,) * cfg.l] * weight)
        want = staged(cfg, message, pattern)
        assert served_by_pipeline(cfg, message, pattern, monkeypatch) == want
        per_column = tuple(zip(*[iter(want[1])] * cfg.served_per_column))
        assert handed_over(cfg.decode, per_column,
                           monkeypatch=monkeypatch)[1:] == want[1:]
        if weight <= cfg.radius:
            assert want[0][0] == message


def matrix(pmap):
    """A packed map's entries mod q, one tuple per input."""
    return [tuple(d % pmap.q for d in column)
            for column in oracles.map_digits(pmap)]


@pytest.mark.parametrize("name", CONFIGS)
def test_transmit_map_is_download_after_encode(name):
    """Entry (r, c) of transmit_map is the sum over stored symbols s of
    download entry (r, s) times encode entry (s, c), mod q; its served
    outputs come first, then the served words' interpolants, which
    interpolation_map gives from the served outputs. For a folded config
    the served outputs are the evaluation map at served_code's points,
    served_map's one word, whose digits decode_map has alone, and the
    interpolant of a message's prefixes is the message itself."""
    cfg = CONFIGS[name]()
    q, size = cfg.symbol_field.q, cfg.downloaded_per_word
    download, encode = matrix(cfg.download_map), matrix(cfg.encode_map)
    composed = [tuple(sum(d[r] * e for d, e in zip(download, column)) % q
                      for r in range(cfg.download_map.outputs))
                for column in encode]
    transmit = matrix(cfg.transmit_map)
    assert transmit == composed
    assert cfg.transmit_map.outputs == 2 * size
    assert cfg.interpolation_map.outputs == 2 * size
    for column in transmit:
        assert list(column) == rs.packed_product(cfg.interpolation_map,
                                                 column[:size])
        assert column[size:] == word_interpolants(cfg, column[:size])
    if cfg.scheme == "frs":
        served = oracles.map_digits(rs.served_map(cfg.served_code, 1, 1))
        assert [c[:size] for c in oracles.map_digits(cfg.transmit_map)] == (
            served)
        assert oracles.map_digits(cfg.decode_map) == served
        assert [c[size:] for c in transmit] == [
            tuple(int(r == c) for r in range(size))
            for c in range(cfg.message_length)]


@pytest.mark.parametrize("name", CONFIGS)
def test_transmit_width_holds_the_joint_digit_sum(name):
    """transmit_map, download_map and interpolation_map share the least
    digit width above the largest digit sum an output of the pipeline's
    packed sum can reach. A served output adds the products of every
    encode input and of the stored symbols one served symbol reads,
    l - m + 1 in a trace config and 1 in a folded one. An interpolant
    output adds, in a trace config, every encode input's and, from every
    column, those of the stored symbols its word's served symbols read,
    n * (l - m + 1), whose download digits reach (q - 1)^2: a bound of
    (k*l + n*(l - m + 1)*(q - 1)) * (q - 1)^2. In a folded one it adds one
    message product, as the interpolant of a message's prefixes is the
    message, and one product of a canonical digit per served symbol: a
    bound of (n*alpha*l*(q - 1) + 1) * (q - 1), which holds the served
    outputs' kl * (q - 1)^2 + q - 1 as kl <= n*alpha*l. Output by output,
    the digit sums of the two maps the packed sum adds stay within the
    bound. The staged download's served_download_map is download_map's
    served outputs alone, at its width."""
    cfg = CONFIGS[name]()
    q, size = cfg.symbol_field.q, cfg.downloaded_per_word
    download = oracles.map_digits(cfg.download_map)
    rows = list(zip(*download))
    reads = cfg.l - cfg.m + 1 if cfg.scheme == "ts" else 1
    assert reads == max(sum(map(bool, row)) for row in rows[:size])
    assert max(max(row) for row in rows[:size]) < q
    spread, top = ((cfg.n * reads, (q - 1) ** 2) if cfg.scheme == "ts"
                   else (size, q - 1))
    assert spread >= max(sum(map(bool, row)) for row in rows[size:])
    assert max(max(row) for row in rows[size:]) <= top
    if cfg.scheme == "ts":
        terms = cfg.encode_map.inputs + spread * top // (q - 1)
        bound = terms * (q - 1) ** 2
    else:
        assert cfg.encode_map.inputs <= size
        bound = (size * (q - 1) + 1) * (q - 1)
    width = min(w for w in (8, 16, 32, 64) if w >= bound.bit_length())
    assert cfg.transmit_map.width == cfg.download_map.width == width
    assert cfg.interpolation_map.width == width
    assert cfg.transmit_map.outputs == cfg.download_map.outputs == 2 * size
    joint = [(q - 1) * (sum(a) + sum(b)) for a, b in zip(
        zip(*oracles.map_digits(cfg.transmit_map)), rows)]
    assert max(joint) <= bound < 2 ** width
    assert oracles.largest_digit_sum(cfg.interpolation_map) <= bound
    if name in ("ts-q37-n36-k12-l4-m3", "ts-q37-n36-k12-l4-m2"):
        # the served outputs alone would fit 16-bit digits at m = 3
        served = (cfg.encode_map.inputs + reads) * 36 ** 2
        assert served.bit_length() == (16 if cfg.m == 3 else 17)
        assert width == 32 and bound == (48 + 36 * reads * 36) * 36 ** 2
    if name == "frs-wide":
        # 24 * 52^2 + 52: the three maps pack 16-bit digits
        assert bound == 64948 and width == 16
    served_download = cfg.served_download_map
    assert (served_download.outputs, served_download.width) == (size, width)
    assert oracles.map_digits(served_download) == [c[:size]
                                                   for c in download]
    # each download column reads into its own column's served symbols
    for column in download:
        touched = {r // cfg.served_per_column
                   for r, digit in enumerate(column[:size]) if digit}
        assert len(touched) <= 1


def test_packed_sum_refuses_maps_of_another_width():
    q = 31
    narrow = rs.packed_map(q, [[1, 2]])
    wide = rs.packed_map(q, [[1, 2]], bound=100 * (q - 1) ** 2)
    assert rs.packed_sum(narrow, [3], narrow, [(0, [4])]) == [7, 14]
    with pytest.raises(ValueError, match="same outputs and width"):
        rs.packed_sum(narrow, [3], wide, [])


@pytest.mark.parametrize("name", ("ts-wide", "frs-wide"))
def test_pipeline_never_forms_the_stored_word(name, monkeypatch):
    """One pipeline makes one packed sum, of the message's encode inputs
    with transmit_map and of each offset with the l download columns of
    its own column, whose outputs hold the served words' interpolants
    too. Its other product is the decode's: exactly one with
    cfg.decode_map, which a folded pipeline skips only when its word is a
    codeword, for its map has no tail to read. So it interpolates no word
    on its own, none is with download_map or encode_map, and none has n*l
    outputs."""
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
        tail = cfg.decode_map.outputs > cfg.downloaded_per_word
        decodes = [cfg.decode_map] if weight or tail else []
        assert tail == (cfg.scheme == "ts")
        assert [id(pmap) for pmap, *_ in products] == list(map(id, decodes))
        for pmap, *_ in products:
            assert pmap.outputs != cfg.n * cfg.l


@pytest.mark.parametrize("name", PIPELINE_CONFIGS)
def test_interpolants_are_the_served_words_textbook_interpolants(
        name, monkeypatch):
    """At every weight 0..n, on seeded messages and patterns, the
    pipeline's interpolant outputs and those of the staged decode's one
    product with interpolation_map are rs_interpolate of each served
    word, and both hand decode_words the staged chain's served symbols."""
    cfg = PIPELINE_CONFIGS[name]()
    for weight in range(cfg.n + 1):
        for trial in range(2):
            stream = trial_stream(32, weight, trial)
            message = random_message(cfg, stream)
            pattern = random_error_pattern(cfg, stream, weight)
            want = staged(cfg, message, pattern)
            assert served_by_pipeline(cfg, message, pattern,
                                      monkeypatch) == want
            per_column = tuple(zip(*[iter(want[1])]
                                   * cfg.served_per_column))
            assert handed_over(cfg.decode, per_column,
                               monkeypatch=monkeypatch)[1:] == want[1:]


def test_decoders_never_call_rs_interpolate(monkeypatch):
    """The pipeline, the staged decode and decode_columns read every
    interpolant off a product; rs_interpolate, which raises here, is left
    to the oracles and the peel's set-up."""
    cfg = PIPELINE_CONFIGS["ts-q13-n12-k4"]()
    message = random_message(cfg, trial_stream(33, 1, 0))
    pattern = ErrorPattern(support=(2,), values=((1,) * cfg.l,))
    bundle = cfg.download(apply_error_pattern(
        cfg.symbol_field, cfg.encode(message), pattern))
    code = cfg.served_code
    word = rs.packed_product(rs.served_map(code, 1, 1), range(code.k))
    word[3] = (word[3] + 1) % code.field.q

    def refusing(*args):
        raise AssertionError("rs_interpolate called")

    monkeypatch.setattr(rs, "rs_interpolate", refusing)
    assert cfg.pipeline(message, pattern)[0] == message
    assert cfg.decode(bundle.per_column) == (message, frozenset({2}))
    assert rs.decode_columns(code, [(s,) for s in word], code.radius) == (
        (tuple(range(code.k)),), frozenset({3}))


@pytest.mark.parametrize("name", ("ts-wide", "frs-wide"))
def test_stage_bundles_split_their_columns_when_read(name):
    """A stage's bundle holds its served symbols unsplit until per_column
    is read, and behaves as the bundle built from the columns does: in
    equality, hash and repr, through copy, deepcopy and pickle, whichever
    is done first."""
    cfg = CONFIGS[name]()
    message = largest_message(cfg)
    pattern = ErrorPattern(support=(1,), values=((1,) * cfg.l,))
    word = apply_error_pattern(cfg.symbol_field, cfg.encode(message),
                               pattern)
    columns = cfg.download(word).per_column
    want = arraycode.DownloadBundle(columns, cfg.downloaded_per_word,
                                    cfg.accessed_per_word)
    for read in (lambda b: b.per_column, repr, hash, copy.copy,
                 copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b)),
                 lambda b: b == want):
        for bundle in (cfg.download(word), cfg.pipeline(message, pattern)[1]):
            assert type(vars(type(bundle))["per_column"]) is property
            read(bundle)
            assert bundle == want and hash(bundle) == hash(want)
            assert repr(bundle) == repr(want)
            assert pickle.dumps(bundle) == pickle.dumps(want)
            assert bundle.per_column == columns
