"""Folded-scheme tests: prefix downloads, decoding and its differential
check against the trial-discarding oracle, the punctured distance property,
and the list oracle."""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from fracdec.arraycode import (ErrorPattern, apply_error_pattern,
                               difference_pattern)
from fracdec.bounds import (find_download_collision, list_decode_bruteforce,
                            radius_naive)
from fracdec.errors import BudgetExceeded, DecodeFailure
from fracdec.frs_scheme import (FrsConfig, flatten_columns,
                                frs_full_pipeline, frs_make_config,
                                is_primitive_root, smallest_prime_above,
                                smallest_primitive_root)
from fracdec import frs_scheme
from fracdec.harness import _decode_naive
from fracdec.primefield import PrimeField, prime_factors
from fracdec.rs import RsCode, decode_columns
from fracdec.serialization import config_from_dict, load_json
from fracdec.trials import (random_column_offset, random_error_pattern,
                            random_message, trial_stream)
from oracles import trial_decode_columns

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_FOLDED = ("frs-p19-n6-k1", "frs-p37-n8-k3")
SHIPPED_TRACE = ("ts-q13-n12-k4", "ts-q17-n10-k4", "ts-q5-n4-k2")


def reference_config():
    return frs_make_config(8, 3, 4, Fraction(3, 4))


def tiny_config():
    return frs_make_config(6, 1, 3, Fraction(1, 3), p=19, gamma=2)


def test_prime_and_primitive_helpers():
    assert smallest_prime_above(32) == 37
    assert smallest_prime_above(1) == 2
    assert smallest_prime_above(2) == 3
    assert smallest_primitive_root(37) == 2
    assert smallest_primitive_root(2) == 1
    assert is_primitive_root(37, 2)
    assert not is_primitive_root(37, 6)    # 6^12 = 1 mod 37
    assert not is_primitive_root(5, 0)
    # pinned: the smallest primitive root of each p
    assert {p: smallest_primitive_root(p)
            for p in (3, 5, 7, 17, 23, 41, 53, 71, 97, 191, 409, 1009)} == {
        3: 2, 5: 2, 7: 3, 17: 3, 23: 5, 41: 6, 53: 2, 71: 7, 97: 5,
        191: 19, 409: 21, 1009: 11}
    for bad in (0, 1, 4, 9):
        with pytest.raises(ValueError):
            smallest_primitive_root(bad)


def test_primitive_root_search_factors_once(monkeypatch):
    """The search for a primitive root factors p - 1 once, however many
    candidates it tries. At the safe prime p = 2199023255867, p - 1 is 2
    times a 41-bit prime, so each factorisation by trial division is slow,
    and the search rejects g = 1 before it finds g = 2."""
    calls = []

    def counted(n):
        calls.append(n)
        return prime_factors(n)

    monkeypatch.setattr(frs_scheme, "prime_factors", counted)
    p = 2199023255867
    assert smallest_primitive_root(p) == 2
    assert calls == [p - 1]
    calls.clear()
    assert is_primitive_root(37, 2) and not is_primitive_root(37, 6)
    assert not is_primitive_root(37, 0)
    assert calls == [36, 36]
    with pytest.raises(ValueError, match="not a canonical element"):
        is_primitive_root(37, 37)


@pytest.mark.parametrize("args, shipped, p, gamma", [
    ((6, 1, 3, Fraction(1, 3)), "frs-p19-n6-k1", 19, 2),
    ((8, 3, 4, Fraction(3, 4)), "frs-p37-n8-k3", 37, 2),
    ((12, 3, 4, Fraction(1, 2)), None, 53, 2),
])
def test_default_field_and_gamma_pinned(args, shipped, p, gamma):
    """frs_make_config's default p and gamma, and the shipped configs that
    spell them out, stay what they were."""
    cfg = frs_make_config(*args)
    assert (cfg.field.q, cfg.gamma) == (p, gamma)
    if shipped is not None:
        loaded = config_from_dict(load_json(str(CONFIG_DIR / f"{shipped}.json")))
        assert loaded == cfg


def test_make_config_reference_values():
    cfg = reference_config()
    assert cfg.field.q == 37 and cfg.gamma == 2
    assert cfg.alpha_l == 3
    assert cfg.punctured_dim == 4
    assert cfg.message_length == 12
    assert cfg.radius == 2
    assert cfg.downloaded_per_word == cfg.accessed_per_word == 24
    assert cfg.points[:4] == (1, 2, 4, 8)
    assert cfg.column_points(1) == (16, 32, 27, 17)
    assert cfg.column_points(1, 2) == (16, 32)


def test_make_config_rejections():
    with pytest.raises(ValueError):
        frs_make_config(8, 9, 4, 1)                       # k > n
    with pytest.raises(ValueError):
        frs_make_config(8, 3, 4, 0)                       # alpha = 0
    with pytest.raises(ValueError):
        frs_make_config(8, 3, 4, Fraction(5, 4))          # alpha > 1
    with pytest.raises(ValueError):
        frs_make_config(8, 3, 4, Fraction(1, 3))          # alpha*l not integral
    with pytest.raises(ValueError):
        frs_make_config(8, 2, 4, Fraction(3, 4))          # k/alpha not integral
    with pytest.raises(ValueError):
        frs_make_config(3, 3, 4, Fraction(3, 4))          # k/alpha > n
    with pytest.raises(ValueError):
        frs_make_config(8, 3, 4, Fraction(3, 4), p=31)    # p <= n*l
    with pytest.raises(ValueError):
        frs_make_config(8, 3, 4, Fraction(3, 4), p=37, gamma=6)
    with pytest.raises(TypeError):
        frs_make_config(8, 3, 4, 0.75)                    # float alpha


def test_encode_frozen_tiny():
    """h = 1 + 2x over GF(5), gamma = 2, two columns of height two."""
    cfg = frs_make_config(2, 1, 2, 1, p=5, gamma=2)
    assert cfg.points == (1, 2, 4, 3)
    assert cfg.encode((1, 2)) == ((3, 0), (4, 2))


@pytest.mark.parametrize("cfg", (reference_config(), tiny_config(),
                                 frs_make_config(5, 2, 4, Fraction(1, 2))),
                         ids=("reference", "tiny", "half"))
def test_config_codes_are_powers_of_gamma(cfg):
    """encode_map evaluates at the points gamma^0, ..., gamma^(nl-1), and
    served_code is that code's puncturing to the first alpha*l points of
    each column."""
    q, l = cfg.field.q, cfg.l
    assert cfg.points == tuple(pow(cfg.gamma, i, q)
                               for i in range(cfg.n * l))
    assert cfg.encode_map.inputs == cfg.served_code.k == cfg.message_length
    assert cfg.served_code.omega == tuple(
        cfg.points[i * l + j] for i in range(cfg.n)
        for j in range(cfg.alpha_l))


def test_pipeline_and_list_oracle_evaluate_no_polynomial(polyring_calls):
    """Encoding and the list oracle apply the codes' evaluation tables:
    no polyring function runs."""
    cfg = tiny_config()
    stream = trial_stream(47, cfg.radius, 0)
    message = random_message(cfg, stream)
    pattern = random_error_pattern(cfg, stream, cfg.radius)
    calls = polyring_calls()
    decoded, bundle = frs_full_pipeline(cfg, message, pattern)
    hits = list_decode_bruteforce(cfg, bundle.per_column, cfg.radius)
    assert decoded == message and hits == [message]
    assert calls == []


def test_encode_identity_and_constant():
    """h = x stores the evaluation points themselves; h = 1 stores ones."""
    cfg = reference_config()
    word = cfg.encode((0, 1) + (0,) * 10)
    assert flatten_columns(word) == cfg.points
    ones = cfg.encode((1,) + (0,) * 11)
    assert ones == ((1,) * 4,) * 8


def test_encode_validation():
    cfg = reference_config()
    with pytest.raises(ValueError):
        cfg.encode((0,) * 11)
    with pytest.raises(ValueError):
        cfg.encode((37,) + (0,) * 11)


def test_download_prefix_and_accounting():
    cfg = reference_config()
    stream = trial_stream(31, 0, 0)
    msg = random_message(cfg, stream)
    word = cfg.encode(msg)
    bundle = cfg.download(word)
    assert bundle.per_column == tuple(col[:3] for col in word)
    assert bundle.downloaded == bundle.accessed == 24
    full = frs_make_config(8, 3, 4, 1)
    assert full.download(word).per_column == word


def prefix_affected(cfg, pattern):
    """Columns whose downloaded prefix the pattern actually changes."""
    return frozenset(i for i, vec in zip(pattern.support, pattern.values)
                     if any(v != 0 for v in vec[:cfg.alpha_l]))


def test_trial_decode_roundtrip_and_discard_reporting():
    cfg = reference_config()
    stream = trial_stream(32, 2, 0)
    supports = list(itertools.combinations(range(cfg.n), 2))[::3]
    for support in supports:
        msg = random_message(cfg, stream)
        values = tuple(random_column_offset(cfg, stream) for _ in support)
        pattern = ErrorPattern(support=support, values=values)
        word = apply_error_pattern(cfg.field, cfg.encode(msg), pattern)
        decoded, discarded = cfg.decode(cfg.download(word).per_column)
        assert decoded == msg
        assert discarded == prefix_affected(cfg, pattern)


def test_tail_corruption_is_invisible():
    """Corrupting only symbols the decoder never reads cannot disturb it,
    even in more columns than the radius."""
    cfg = reference_config()
    stream = trial_stream(33, 0, 0)
    msg = random_message(cfg, stream)
    tail_offset = (0, 0, 0, 5)
    pattern = ErrorPattern(support=(0, 2, 4, 5, 7),
                           values=(tail_offset,) * 5)
    word = apply_error_pattern(cfg.field, cfg.encode(msg), pattern)
    decoded, discarded = cfg.decode(cfg.download(word).per_column)
    assert decoded == msg and discarded == frozenset()


def test_beyond_radius_never_silently_absorbed():
    cfg = reference_config()
    stream = trial_stream(34, 3, 0)
    outcomes = {"ok": 0, "wrong": 0, "fail": 0}
    for _ in range(25):
        msg = random_message(cfg, stream)
        support = stream.sample(cfg.n, 3)
        values = tuple(random_column_offset(cfg, stream) for _ in support)
        pattern = ErrorPattern(support=support, values=values)
        try:
            decoded, _ = frs_full_pipeline(cfg, msg, pattern)
            outcomes["ok" if decoded == msg else "wrong"] += 1
        except DecodeFailure:
            outcomes["fail"] += 1
    assert sum(outcomes.values()) == 25
    assert outcomes["fail"] + outcomes["wrong"] >= 1


def test_punctured_distance_exhaustive_tiny():
    """Column distance of the prefix view is n - k/alpha + 1 on the tiny
    instance: by linearity, every nonzero message must light up at least 4
    of the 6 downloaded columns."""
    cfg = tiny_config()
    zero_grid = ((0,),) * cfg.n
    min_weight = cfg.n + 1
    for message in itertools.product(range(19), repeat=3):
        if message == (0, 0, 0):
            continue
        word = cfg.encode(message)
        grid = cfg.download(word).per_column
        weight = sum(1 for i in range(cfg.n) if grid[i] != zero_grid[i])
        min_weight = min(min_weight, weight)
    assert min_weight == cfg.n - cfg.punctured_dim + 1 == 4


def test_trial_decode_agrees_with_list_oracle_tiny():
    cfg = tiny_config()
    stream = trial_stream(35, 1, 0)
    for _ in range(4):
        msg = random_message(cfg, stream)
        support = stream.sample(cfg.n, 1)
        values = tuple(random_column_offset(cfg, stream) for _ in support)
        word = apply_error_pattern(
            cfg.field, cfg.encode(msg),
            ErrorPattern(support=support, values=values))
        grid = cfg.download(word).per_column
        decoded, _ = cfg.decode(grid)
        hits = list_decode_bruteforce(cfg, grid, cfg.radius)
        assert hits == [msg] if decoded == msg else decoded in hits
        assert decoded == msg


def test_list_bruteforce_edges():
    cfg = tiny_config()
    msg = (3, 14, 9)
    grid = cfg.download(cfg.encode(msg)).per_column
    assert list_decode_bruteforce(cfg, grid, 0) == [msg]
    everything = list_decode_bruteforce(cfg, grid, cfg.n)
    assert len(everything) == 19 ** 3
    with pytest.raises(ValueError):
        list_decode_bruteforce(cfg, grid[:-1], 0)


def test_list_bruteforce_budget(monkeypatch):
    monkeypatch.setenv("FRACDEC_BUDGET", "10")
    cfg = tiny_config()
    grid = ((0,),) * cfg.n
    with pytest.raises(BudgetExceeded):
        list_decode_bruteforce(cfg, grid, 1)
    for radius in (-1, 1.0, True, "1"):
        with pytest.raises(ValueError, match="radius must be"):
            list_decode_bruteforce(cfg, grid, radius)


def test_same_encoder_serves_multiple_fractions():
    """One stored word decodes from 3/4 prefixes and from full columns with
    the same radius; encoding does not depend on alpha."""
    cfg34 = reference_config()
    cfg1 = frs_make_config(8, 3, 4, 1)
    assert cfg34.radius == cfg1.radius == 2
    stream = trial_stream(36, 2, 0)
    msg = random_message(cfg34, stream)
    assert cfg34.encode(msg) == cfg1.encode(msg)
    support = (1, 6)
    values = tuple(random_column_offset(cfg34, stream) for _ in support)
    pattern = ErrorPattern(support=support, values=values)
    word = apply_error_pattern(cfg34.field, cfg34.encode(msg), pattern)
    dec34, _ = cfg34.decode(cfg34.download(word).per_column)
    dec1, _ = cfg1.decode(cfg1.download(word).per_column)
    assert dec34 == dec1 == msg


def test_trial_decoder_doubles_as_scalar_rs_decoder():
    """Height-one columns make the trial_decode_columns oracle a plain RS
    decoder; it
    must agree with the Euclid-based unique decoder on recovery and on the
    reported positions."""
    import random

    from fracdec.polyring import normalize
    from oracles import poly_eval

    rng = random.Random(99)
    field = PrimeField(13)
    code = RsCode(field, 2, tuple(range(8)))
    for _ in range(30):
        msg = tuple(rng.randrange(13) for _ in range(2))
        h = normalize(msg)
        word = [poly_eval(field, h, w) for w in code.omega]
        support = rng.sample(range(8), rng.randrange(code.radius + 1))
        for i in support:
            word[i] = field.add(word[i], rng.randrange(1, 13))
        (expect_h,), expect_pos = decode_columns(
            code, [(y,) for y in word], code.radius)
        got_h, got_pos = trial_decode_columns(
            field, [(y,) for y in word], [(w,) for w in code.omega],
            degree_bound=2, t_star=code.radius)
        assert got_h == expect_h == h
        assert got_pos == expect_pos == frozenset(support)


def shipped_config(name):
    return config_from_dict(load_json(CONFIG_DIR / f"{name}.json"))


def received_words(cfg, width, seed, trials_per_weight=9):
    """(message, stored, received) triples with corruption confined to the
    first `width` columns, at every weight 0..width, in three kinds of
    trial. The first adds random offsets. The second copies each bad column
    from one other codeword where it differs, so past the radius some words
    land near that codeword and decode to the wrong message. The third
    changes only the first symbol of each bad column, so a word with more
    bad columns than the radius can still lie within the symbol radius.
    Works for both schemes."""
    field = cfg.symbol_field
    for weight in range(width + 1):
        for index in range(trials_per_weight):
            stream = trial_stream(seed, weight, index)
            message = random_message(cfg, stream)
            stored = cfg.encode(message)
            other = cfg.encode(random_message(cfg, stream))
            received = list(stored)
            for i in stream.sample(width, weight):
                if index % 3 == 1 and other[i] != stored[i]:
                    received[i] = other[i]
                    continue
                if index % 3 == 2:
                    offset = (1 + stream.below(field.order - 1),) + (
                        0,) * (cfg.l - 1)
                else:
                    offset = random_column_offset(cfg, stream)
                received[i] = tuple(field.add(a, e)
                                    for a, e in zip(stored[i], offset))
            yield message, stored, tuple(received)


def decoded_or_failure(length, decode, *args):
    """(message padded to `length`, columns) from a decoder, or "failed"."""
    try:
        h, columns = decode(*args)
    except DecodeFailure:
        return "failed"
    return tuple(h) + (0,) * (length - len(h)), columns


def classify(result, message):
    if result == "failed":
        return "failed"
    return "recovered" if result[0] == message else "miscorrected"


@pytest.mark.parametrize("name", SHIPPED_FOLDED)
def test_decoder_matches_trial_oracle_at_every_weight(name):
    cfg = shipped_config(name)
    kl = cfg.message_length
    points = [cfg.column_points(i, cfg.alpha_l) for i in range(cfg.n)]
    seen = {"recovered": 0, "miscorrected": 0, "failed": 0}
    for message, _, received in received_words(cfg, cfg.n, seed=41):
        grid = cfg.download(received).per_column
        got = decoded_or_failure(kl, cfg.decode, grid)
        want = decoded_or_failure(kl, trial_decode_columns, cfg.field, grid,
                                  points, kl, cfg.radius)
        assert got == want
        seen[classify(got, message)] += 1
    assert all(seen.values()), seen


def decode_one_word(code, columns, radius):
    (h,), corrected = decode_columns(code, columns, radius)
    return h, corrected


@pytest.mark.parametrize("name", SHIPPED_FOLDED + SHIPPED_TRACE)
def test_naive_reader_matches_trial_oracle_at_every_weight(name):
    """The whole-column reader: full columns of the first alpha*n columns,
    decoded at the naive radius. The reference reads a trace column as the
    GF(q^l) symbol it stores and decodes one RS code over GF(q^l)."""
    cfg = shipped_config(name)
    kind = "frs" if isinstance(cfg, FrsConfig) else "ts"
    width = int(cfg.alpha * cfg.n)
    naive_r = radius_naive(cfg.n, cfg.k, cfg.alpha)
    read = tuple(range(width))
    if kind == "frs":
        field, length = cfg.field, cfg.message_length
        points = [cfg.column_points(i) for i in read]
        code = RsCode(field, length, flatten_columns(points))
    else:
        field, length = cfg.ext, cfg.k
        points = [(cfg.omega[i],) for i in read]
    seen = {"recovered": 0, "miscorrected": 0, "failed": 0}
    for message, stored, received in received_words(cfg, width, seed=43):
        columns = received[:width]
        if kind == "ts":
            columns = tuple((cfg.basis.reconstruct(c),) for c in columns)
        want = decoded_or_failure(length, trial_decode_columns, field,
                                  columns, points, length, naive_r)
        if kind == "frs":
            assert decoded_or_failure(length, decode_one_word, code, columns,
                                      naive_r) == want
        pattern = difference_pattern(cfg.symbol_field, stored, received)
        outcome = classify(want, message)
        assert _decode_naive(cfg, message, pattern, read, naive_r) == outcome
        seen[outcome] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", SHIPPED_FOLDED + SHIPPED_TRACE)
def test_pipeline_makes_no_prime_field_method_call(name, field_method_calls):
    """Building the config from its file, then encoding, corruption,
    downloads and decoding at the radius, and on the two tiny configs the
    collision search with its witness, run as integer loops and dot
    products mod q: no arithmetic method of PrimeField or ExtField runs."""
    cfg = shipped_config(name)
    stream = trial_stream(0, cfg.radius, 0)
    message = random_message(cfg, stream)
    pattern = random_error_pattern(cfg, stream, cfg.radius)
    decoded, _ = cfg.pipeline(message, pattern)
    assert decoded == message and pattern.weight == cfg.radius
    if name in ("frs-p19-n6-k1", "ts-q5-n4-k2"):
        words = [word for _, word in cfg.codewords()]
        assert find_download_collision(cfg.symbol_field, words,
                                       cfg.download_fn(),
                                       cfg.radius + 1) is not None
    assert field_method_calls == []


def test_folded_decode_interpolates_once(rs_calls):
    """An at-radius decode is one Euclid decode: trying discard sets would
    interpolate up to 1 + 8 + 28 times here."""
    calls = rs_calls("rs_interpolate")
    cfg = shipped_config("frs-p37-n8-k3")
    message = random_message(cfg, trial_stream(45, 2, 0))
    pattern = ErrorPattern(support=(0, 5), values=((1, 2, 3, 4),) * 2)
    word = apply_error_pattern(cfg.field, cfg.encode(message), pattern)
    calls.clear()
    decoded, corrected = cfg.decode(cfg.download(word).per_column)
    assert decoded == message and corrected == frozenset({0, 5})
    assert calls == ["rs_interpolate"]


def test_wide_folded_decode_at_radius():
    """n = 20, t = 6: trial discarding would try 60460 discard sets."""
    cfg = frs_make_config(20, 4, 4, Fraction(1, 2))
    assert cfg.radius == 6
    stream = trial_stream(46, 6, 0)
    message = random_message(cfg, stream)
    support = stream.sample(cfg.n, 6)
    pattern = ErrorPattern(support=support, values=((1, 2, 3, 4),) * 6)
    word = apply_error_pattern(cfg.field, cfg.encode(message), pattern)
    decoded, corrected = cfg.decode(cfg.download(word).per_column)
    assert decoded == message and corrected == frozenset(support)


def test_flatten_columns():
    cols = ((1, 2), (3, 4), (5, 6))
    assert flatten_columns(cols) == (1, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError):
        flatten_columns(((1, 2), (3,)))
    assert flatten_columns(()) == ()


def test_all_codewords_count():
    cfg = frs_make_config(2, 1, 2, 1, p=5, gamma=2)
    words = list(cfg.codewords())
    assert len(words) == 25
    assert len({w for _, w in words}) == 25


def test_download_fn_heights():
    cfg = reference_config()
    word = cfg.encode((0, 1) + (0,) * 10)
    assert cfg.download_fn()(word) == tuple(c[:3] for c in word)
    assert cfg.download_fn(1)(word) == tuple(c[:1] for c in word)
    assert cfg.download_fn(cfg.l)(word) == word
    with pytest.raises(ValueError, match=r"download count must lie in 0\.\.4, "
                       "the l symbols a column stores, got 5"):
        cfg.download_fn(5)
