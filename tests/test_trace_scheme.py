"""Trace-projection scheme tests: config validation, the download and
peeling identities, radius sweeps, and accounting."""

import itertools
import random
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

from fracdec import polyring as P
from fracdec.arraycode import DownloadBundle, ErrorPattern, apply_error_pattern
from fracdec.errors import DecodeFailure
from fracdec.fields import ExtField
from fracdec.harness import compare_naive
from fracdec.rs import decode_columns, rs_evaluate
from fracdec.serialization import config_from_dict, load_json
from fracdec import rs as rs_module
from fracdec import trace_scheme as ts_module
from fracdec.trace_scheme import ts_full_pipeline, ts_make_config
from fracdec.trials import (random_column_offset, random_error_pattern,
                            random_message, trial_stream)
import oracles
from oracles import ts_decode_bruteforce, ts_project_polys


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_TRACE = ("ts-q13-n12-k4", "ts-q17-n10-k4", "ts-q5-n4-k2")


def shipped_config(name):
    return config_from_dict(load_json(str(CONFIG_DIR / f"{name}.json")))


def reference_config():
    return ts_make_config(13, 12, 4, 4, 2)


def tiny_config():
    return ts_make_config(5, 4, 2, 2, 2)


def pattern_from_stream(cfg, stream, support):
    values = tuple(random_column_offset(cfg, stream) for _ in support)
    return ErrorPattern(support=tuple(support), values=values)


def differing_columns(cfg, message, per_column):
    """Columns where the message's downloads differ from `per_column`."""
    clean = cfg.download(cfg.encode(message)).per_column
    return frozenset(i for i in range(cfg.n)
                     if clean[i] != tuple(per_column[i]))


def test_make_config_reference_values():
    cfg = reference_config()
    assert cfg.alpha == Fraction(1, 2)
    assert cfg.omega == tuple(range(12))
    assert cfg.subsets == ((0, 1), (2, 3))
    assert cfg.annihilators[0] == (0, 12, 1)      # x^2 + 12x
    assert cfg.annihilators[1] == (6, 8, 1)       # x^2 + 8x + 6
    assert cfg.radius == 2
    assert cfg.served_code.k == 8
    assert cfg.downloaded_per_word == 24
    assert cfg.accessed_per_word == 48


def test_make_config_rejections():
    with pytest.raises(ValueError):
        ts_make_config(13, 12, 3, 4, 2)           # m does not divide k
    with pytest.raises(ValueError):
        ts_make_config(11, 12, 4, 4, 2)           # q < n
    with pytest.raises(ValueError):
        ts_make_config(12, 12, 4, 4, 2)           # q not prime
    with pytest.raises(ValueError):
        ts_make_config(13, 12, 4, 4, 5)           # m > l
    with pytest.raises(ValueError):
        ts_make_config(13, 12, 8, 4, 2)           # lk/m = 16 > n
    with pytest.raises(ValueError):
        ts_make_config(13, 12, 4, 4, 2, omega=(0,) * 12)   # repeated points
    with pytest.raises(ValueError):
        ts_make_config(13, 12, 4, 4, 2, subsets=((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        ts_make_config(13, 12, 4, 4, 2, subsets=((0,), (1,)))      # wrong size


@pytest.mark.parametrize("n, k, message", [
    (10 ** 18, 2, "n = 1000000000000000000 distinct base-field evaluation "
                  "points need q >= n, but q = 5"),
    (4, 10 ** 18, r"download streams form an \(n, lk/m\) = "
                  r"\(4, 1000000000000000000\) code; need lk/m to be an "
                  "integer at most n"),
], ids=["n", "k"])
def test_sizes_beyond_q_are_refused_before_defaults_are_built(n, k, message):
    """The default points 0..n-1 and subsets of k/m points each are built
    only after n and k are checked against q: a huge size is refused with
    the config's own ValueError, not a MemoryError."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        ts_make_config(5, n, k, 2, 2)

def test_encode_shape_and_membership():
    """The GF(q^l) reference for the base-field encoder: column i is the
    projection of h(omega_i), evaluated over the extension field, and the
    columns reconstruct to a codeword of the (n, k) RS code over GF(q^l)
    whose message is the one encoded."""
    for name in SHIPPED_TRACE:
        cfg = shipped_config(name)
        stream = trial_stream(11, 0, 0)
        for _ in range(5):
            msg = random_message(cfg, stream)
            word = cfg.encode(msg)
            assert len(word) == cfg.n and all(len(c) == cfg.l for c in word)
            h = P.normalize(msg)
            symbols = [oracles.poly_eval(cfg.ext, h, w) for w in cfg.omega]
            assert word == tuple(map(cfg.basis.project, symbols))
            assert tuple(map(cfg.basis.reconstruct, word)) == tuple(symbols)
            assert oracles.interpolate(cfg.ext, zip(cfg.omega[:cfg.k],
                                                    symbols)) == h


def test_encode_zero_and_constant():
    cfg = reference_config()
    zero = cfg.encode((0,) * 4)
    assert zero == ((0,) * 4,) * 12
    const = cfg.encode((17, 0, 0, 0))
    assert all(col == cfg.basis.project(17) for col in const)


def test_encode_validation():
    cfg = reference_config()
    with pytest.raises(ValueError):
        cfg.encode((1, 2, 3))
    with pytest.raises(ValueError):
        cfg.encode((1, 2, 3, cfg.ext.order))


def test_project_polys_reassemble():
    """Reassembling coefficientwise with nu recovers the message, and at a
    base-field point w the stack (h_0(w), ..., h_{l-1}(w)) is the trace
    projection of h(w), evaluated over GF(q^l)."""
    cfg = reference_config()
    stream = trial_stream(12, 0, 0)
    for _ in range(5):
        msg = random_message(cfg, stream)
        hs = ts_project_polys(cfg, msg)
        assert all(P.degree(h) < cfg.k for h in hs)
        for i, coeff in enumerate(msg):
            coords = tuple(hs[u][i] if i < len(hs[u]) else 0
                           for u in range(cfg.l))
            assert cfg.basis.reconstruct(coords) == coeff
        h = P.normalize(msg)
        for w in cfg.omega:
            assert tuple(oracles.poly_eval(cfg.base, h_u, w)
                         for h_u in hs) == \
                cfg.basis.project(oracles.poly_eval(cfg.ext, h, w))


def build_stream_poly(cfg, msg, j):
    """g_j built symbolically from the coordinate polynomials."""
    hs = ts_project_polys(cfg, msg)
    base, l, m = cfg.base, cfg.l, cfg.m
    pj = cfg.annihilators[j]
    g = P.poly_mul(base, hs[l - m + j], oracles.poly_pow(base, pj, l - m))
    for u in range(l - m):
        g = oracles.poly_add(base, g, P.poly_mul(base, hs[u],
                                                 oracles.poly_pow(base, pj, u)))
    return g


def test_download_identity():
    """Downloaded symbol j from a clean column i equals g_j(omega_i), with
    deg g_j below the inner dimension."""
    for cfg in (reference_config(), ts_make_config(17, 10, 4, 4, 2)):
        stream = trial_stream(13, 0, 0)
        for _ in range(20):
            msg = random_message(cfg, stream)
            served = cfg.download(cfg.encode(msg)).per_column
            for j in range(cfg.m):
                g = build_stream_poly(cfg, msg, j)
                assert P.degree(g) < cfg.served_code.k
                for i, w in enumerate(cfg.omega):
                    assert served[i][j] == oracles.poly_eval(cfg.base, g, w)


def annihilator_powers(cfg):
    """[i][j]: p_j(omega_i)^u for u = 0..l-m, computed by the oracles."""
    return [[tuple(cfg.base.pow(oracles.poly_eval(cfg.base, p_j, w), u)
                   for u in range(cfg.l - cfg.m + 1))
             for p_j in cfg.annihilators] for w in cfg.omega]


@pytest.mark.parametrize("name", SHIPPED_TRACE + ("q3-n3-k1-l1",))
def test_download_weights_are_annihilator_powers(name, polyring_calls):
    """Block i of cfg.download_map weighs served symbol j by p_j(omega_i)^u
    for u = 0..l-m (coordinates 0..l-m-1, then coordinate l-m+j), and by
    nothing else; a download is a product with it: no polyring function
    runs. At l = 1 the weights are one column of ones."""
    cfg = (ts_make_config(3, 3, 1, 1, 1) if name == "q3-n3-k1-l1"
           else shipped_config(name))
    l, m, split = cfg.l, cfg.m, cfg.l - cfg.m
    digits = oracles.map_digits(cfg.download_map)
    for i, row in enumerate(annihilator_powers(cfg)):
        for j, powers in enumerate(row):
            out = i * m + j
            used = [i * l + u for u in range(split)] + [i * l + split + j]
            assert tuple(digits[c][out] for c in used) == powers
            assert all(digits[c][out] == 0
                       for c in range(cfg.n * l) if c not in used)
    word = cfg.encode(random_message(cfg, trial_stream(15, 0, 0)))
    calls = polyring_calls()
    cfg.download(word)
    assert calls == []


def test_download_at_annihilator_roots():
    """Where p_j vanishes, the download exposes the bottom coordinate."""
    cfg = reference_config()
    stream = trial_stream(14, 0, 0)
    msg = random_message(cfg, stream)
    word = cfg.encode(msg)
    served = cfg.download(word).per_column
    hs = ts_project_polys(cfg, msg)
    for j, subset in enumerate(cfg.subsets):
        for w in subset:
            i = cfg.omega.index(w)
            assert served[i][j] == oracles.poly_eval(cfg.base, hs[0], w)
            assert served[i][j] == word[i][0]


def test_download_zero_column():
    """A zero column serves zeros, whatever the other columns hold."""
    cfg = reference_config()
    word = cfg.encode(random_message(cfg, trial_stream(16, 0, 0)))
    word = word[:3] + ((0,) * 4,) + word[4:]
    assert cfg.download(word).per_column[3] == (0, 0)


def test_peeling_identity():
    """After s exact peels, g_j^(s) agrees with h_s on A_j."""
    cfg = reference_config()
    base = cfg.base
    stream = trial_stream(15, 0, 0)
    for _ in range(10):
        msg = random_message(cfg, stream)
        hs = ts_project_polys(cfg, msg)
        streams = [build_stream_poly(cfg, msg, j) for j in range(cfg.m)]
        for s in range(cfg.l - cfg.m):
            for j in range(cfg.m):
                for w in cfg.subsets[j]:
                    assert oracles.poly_eval(base, streams[j], w) == \
                        oracles.poly_eval(base, hs[s], w)
            for j in range(cfg.m):
                quot, rem = P.poly_divmod(
                    base, oracles.poly_sub(base, streams[j], hs[s]),
                    cfg.annihilators[j])
                assert rem == ()
                streams[j] = quot
        for j in range(cfg.m):
            assert streams[j] == hs[cfg.l - cfg.m + j]


def test_roundtrip_all_weight_one_supports():
    cfg = reference_config()
    stream = trial_stream(16, 1, 0)
    msg = random_message(cfg, stream)
    for i in range(cfg.n):
        pattern = pattern_from_stream(cfg, stream, (i,))
        decoded, bundle = ts_full_pipeline(cfg, msg, pattern)
        assert decoded == msg
        assert bundle.downloaded == 24 and bundle.accessed == 48


def test_roundtrip_weight_two_sampled_supports():
    """A slice of the exhaustive radius sweep; the full 66-support sweep
    runs in the acceptance suite."""
    cfg = reference_config()
    stream = trial_stream(17, 2, 0)
    supports = list(itertools.combinations(range(cfg.n), 2))[::5]
    for support in supports:
        msg = random_message(cfg, stream)
        pattern = pattern_from_stream(cfg, stream, support)
        decoded, _ = ts_full_pipeline(cfg, msg, pattern)
        assert decoded == msg


def test_decode_returns_stored_array():
    cfg = reference_config()
    stream = trial_stream(18, 2, 0)
    msg = random_message(cfg, stream)
    stored = cfg.encode(msg)
    pattern = pattern_from_stream(cfg, stream, (4, 9))
    corrupted = apply_error_pattern(cfg.base, stored, pattern)
    decoded, corrected = cfg.decode(cfg.download(corrupted).per_column)
    assert cfg.encode(decoded) == stored
    assert corrected == {4, 9}


def test_beyond_radius_returns_stay_within_the_radius():
    """At weight radius+1 a decode may raise or return, and may return a
    wrong message; but whatever it returns has downloads within `radius`
    columns of the received ones, differing exactly on the corrected
    columns."""
    cfg = reference_config()
    stream = trial_stream(19, 3, 0)
    outcomes = {"ok": 0, "wrong": 0, "fail": 0}
    for trial in range(100):
        msg = random_message(cfg, stream)
        support = stream.sample(cfg.n, 3)
        pattern = pattern_from_stream(cfg, stream, support)
        bundle = cfg.download(apply_error_pattern(
            cfg.base, cfg.encode(msg), pattern))
        try:
            decoded, corrected = cfg.decode(bundle.per_column)
        except DecodeFailure:
            outcomes["fail"] += 1
            continue
        assert len(corrected) <= cfg.radius
        assert differing_columns(cfg, decoded, bundle.per_column) == corrected
        outcomes["ok" if decoded == msg else "wrong"] += 1
    assert outcomes["fail"] > 0 and outcomes["ok"] > 0, outcomes


# (q, n, k, l, m): the shipped shapes (the q = 5 one has l = m), m = 1 with
# three peels, l = 3 with m = 1 and m = 2, and k = m = 2 below l = 4
PEEL_CONFIGS = ((13, 12, 4, 4, 2), (17, 10, 4, 4, 2), (5, 4, 2, 2, 2),
                (13, 12, 2, 4, 1), (11, 10, 2, 3, 1), (7, 6, 2, 3, 2),
                (11, 10, 2, 4, 2))


@pytest.mark.parametrize("params", PEEL_CONFIGS,
                         ids=lambda p: "q{}-n{}-k{}-l{}-m{}".format(*p))
def test_peel_is_exact_beyond_the_radius(params):
    """Past the radius the stream decodes may correct different columns.
    A decode raises exactly when a stream decode fails or the union of
    their corrected columns exceeds the radius. Otherwise the peel inverts
    whatever they returned: the message's clean download streams are
    rs_evaluate(g_j), and the corrected columns are the union, which is where
    those downloads differ from the received ones. Inputs are random
    downloads and words corrupted in radius+1..n columns, a third of them
    by copying the columns of another codeword."""
    cfg = ts_make_config(*params)
    counts = {"stream": 0, "union": 0, "returned": 0}
    for trial in range(200):
        stream = trial_stream(31, cfg.radius, trial)
        if trial % 3 == 0:
            bundle = DownloadBundle(
                per_column=tuple(tuple(stream.below(cfg.base.q)
                                       for _ in range(cfg.m))
                                 for _ in range(cfg.n)),
                downloaded=cfg.downloaded_per_word,
                accessed=cfg.accessed_per_word)
        else:
            weight = cfg.radius + 1 + trial % (cfg.n - cfg.radius)
            msg = random_message(cfg, stream)
            stored = cfg.encode(msg)
            if trial % 3 == 1:
                received = apply_error_pattern(
                    cfg.base, stored, random_error_pattern(cfg, stream, weight))
            else:
                other = cfg.encode(random_message(cfg, stream))
                bad = stream.sample(cfg.n, weight)
                received = tuple(other[i] if i in bad else stored[i]
                                 for i in range(cfg.n))
            bundle = cfg.download(received)
        try:
            decoded_streams = [decode_columns(
                cfg.served_code, [(c[j],) for c in bundle.per_column],
                cfg.served_code.radius) for j in range(cfg.m)]
        except DecodeFailure:
            counts["stream"] += 1
            with pytest.raises(DecodeFailure):
                cfg.decode(bundle.per_column)
            continue
        union = frozenset().union(*(pos for _, pos in decoded_streams))
        if len(union) > cfg.radius:
            counts["union"] += 1
            with pytest.raises(DecodeFailure):
                cfg.decode(bundle.per_column)
            continue
        decoded, corrected = cfg.decode(bundle.per_column)
        clean = cfg.download(cfg.encode(decoded)).per_column
        for j, ((g_j,), _) in enumerate(decoded_streams):
            assert tuple(c[j] for c in clean) == rs_evaluate(cfg.served_code,
                                                             g_j)
        assert corrected == union == differing_columns(
            cfg, decoded, bundle.per_column)
        counts["returned"] += 1
    assert counts["returned"] > 0 and counts["stream"] > 0, counts
    # one stream corrects at most `radius` columns by itself
    assert (counts["union"] > 0) == (cfg.m > 1), counts


CONTRACT_CONFIGS = {"ts-q5-n4-k2": lambda: shipped_config("ts-q5-n4-k2"),
                    "q7-n6-k2-l2-m1": lambda: ts_make_config(7, 6, 2, 2, 1)}


@pytest.mark.parametrize("name", CONTRACT_CONFIGS)
def test_decode_contract_matches_bruteforce_oracle(name):
    """The decoder returns (msg, cols) exactly when some message's
    downloads lie within `radius` columns of the received ones; msg is
    that message and cols the columns where they differ. Otherwise it
    raises DecodeFailure. Inputs are codeword downloads with 0..n columns
    replaced by random symbols or by another codeword's downloads, and
    fully random downloads."""
    cfg = CONTRACT_CONFIGS[name]()
    seen = {"returned": 0, "failed": 0}
    for trial in range(300):
        stream = trial_stream(53, cfg.n, trial)
        clean = cfg.download(cfg.encode(random_message(cfg, stream))).per_column
        other = cfg.download(cfg.encode(random_message(cfg, stream))).per_column
        bad = stream.sample(cfg.n, trial % (cfg.n + 1))
        per_column = tuple(
            (other[i] if trial % 2 else
             tuple(stream.below(cfg.base.q) for _ in range(cfg.m)))
            if i in bad else clean[i] for i in range(cfg.n))
        want = ts_decode_bruteforce(cfg, per_column, cfg.radius)
        if want is None:
            with pytest.raises(DecodeFailure):
                cfg.decode(per_column)
            seen["failed"] += 1
            continue
        decoded, corrected = cfg.decode(per_column)
        assert decoded == want
        assert corrected == differing_columns(cfg, want, per_column)
        seen["returned"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", SHIPPED_TRACE)
def test_pipeline_runs_no_extension_field_arithmetic(name, monkeypatch):
    """The pipeline works on GF(q) coordinate polynomials: encoding,
    downloads, stream decodes and the peel call no GF(q^l) arithmetic, and
    neither does compare_naive."""
    cfg = shipped_config(name)
    stream = trial_stream(0, cfg.radius, 0)
    message = random_message(cfg, stream)
    pattern = random_error_pattern(cfg, stream, cfg.radius)
    calls = []
    for method in ("add", "sub", "neg", "mul", "inv", "div", "pow",
                   "frobenius", "trace"):
        def counted(self, *args, _method=method,
                    _original=getattr(ExtField, method)):
            calls.append(_method)
            return _original(self, *args)
        monkeypatch.setattr(ExtField, method, counted)
    decoded, _ = ts_full_pipeline(cfg, message, pattern)
    assert decoded == message
    assert calls == []
    # the whole-column reader decodes the stored rows over GF(q) too
    assert compare_naive(cfg, cfg.radius).fractional_outcome == "recovered"
    assert calls == []


@pytest.mark.parametrize("name", SHIPPED_TRACE)
def test_decode_is_stream_decodes_then_one_product(name, rs_calls,
                                                   rs_codes_built,
                                                   monkeypatch):
    """A decode builds no code and makes the m stream decodes through
    rs._decode_unique, each interpolating once, then one product with the
    decode table: the peel runs when the config is built, not per
    decode. Every product is counted by its map: each stream
    decode applies the inner code's interpolation and evaluation maps
    once, and cfg.decode_map is applied exactly once, last."""
    cfg = shipped_config(name)
    stream = trial_stream(48, cfg.radius, 0)
    message = random_message(cfg, stream)
    pattern = random_error_pattern(cfg, stream, cfg.radius)
    word = apply_error_pattern(cfg.base, cfg.encode(message), pattern)
    bundle = cfg.download(word)
    rs_codes_built.clear()
    calls = rs_calls("_decode_unique", "rs_interpolate", "tabulate_map")
    products, original = [], rs_module.packed_product

    def counting(pmap, symbols):
        products.append(pmap)
        return original(pmap, symbols)

    for module in (rs_module, ts_module):
        monkeypatch.setattr(module, "packed_product", counting)
    decoded, _ = cfg.decode(bundle.per_column)
    assert decoded == message
    assert calls == ["_decode_unique", "rs_interpolate"] * cfg.m
    code = cfg.served_code
    assert list(map(id, products)) == list(map(id, (
        [code.interpolation, code.evaluation] * cfg.m + [cfg.decode_map])))
    assert rs_codes_built == []


# The packed tables against the per-op paths they replace, on the shipped
# configs (ts-q5-n4-k2 has l = m, so no peel layer) and the shape of the
# ts-wide benchmark workload.
TABLE_CONFIGS = {**{name: (lambda name=name: shipped_config(name))
                    for name in SHIPPED_TRACE},
                 "q31-n30-k4-l4-m2": lambda: ts_make_config(31, 30, 4, 4, 2)}


def table_inputs(rng, q, length, count=10):
    """All q - 1, where packed digit sums are largest, then seeded random
    symbols."""
    return [[q - 1] * length] + [[rng.randrange(q) for _ in range(length)]
                                 for _ in range(count)]


@pytest.mark.parametrize("name", TABLE_CONFIGS)
def test_encode_table_is_projection_then_evaluation(name):
    """cfg.encode's one product equals evaluating the coordinate polynomials
    of ts_project_polys at the points."""
    cfg = TABLE_CONFIGS[name]()
    rng = random.Random(name)
    for digits in table_inputs(rng, cfg.base.q, cfg.k * cfg.l):
        message = tuple(cfg.ext.from_vec(digits[t:t + cfg.l])
                        for t in range(0, len(digits), cfg.l))
        assert cfg.encode(message) == tuple(zip(*(
            rs_evaluate(cfg.served_code, h)
            for h in ts_project_polys(cfg, message))))


@pytest.mark.parametrize("name", TABLE_CONFIGS)
def test_download_table_matches_the_weights(name):
    """cfg.download's one product, and cfg.download_fn's, equal the dot
    products of each column with its weights: served symbol j of column i
    weighs the column by p_j(omega_i)^u for u = 0..l-m."""
    cfg = TABLE_CONFIGS[name]()
    q, split = cfg.base.q, cfg.l - cfg.m
    weights = annihilator_powers(cfg)
    rng = random.Random(name)
    for symbols in table_inputs(rng, q, cfg.n * cfg.l):
        word = tuple(zip(*[iter(symbols)] * cfg.l))
        weighted = tuple(
            tuple(sum(map(mul, (*col[:split], col[split + j]), column)) % q
                  for j, column in enumerate(weights[i]))
            for i, col in enumerate(word))
        assert cfg.download(word).per_column == weighted
        assert cfg.download_fn()(word) == weighted


@pytest.mark.parametrize("name", TABLE_CONFIGS)
def test_decode_table_matches_the_scalar_peel(name):
    """The decoder's one product equals the scalar peel of tests/oracles.py
    on every unit stream, on streams of all q - 1 and on random streams.
    The streams reach the decoder as clean downloads, their evaluations at
    the points, so the stream decodes return them unchanged."""
    cfg = TABLE_CONFIGS[name]()
    q, size = cfg.base.q, cfg.served_code.k
    rng = random.Random(name)
    inputs = table_inputs(rng, q, cfg.m * size) + [
        [int(i == e) for i in range(cfg.m * size)]
        for e in range(cfg.m * size)]
    for coeffs in inputs:
        streams = [coeffs[j * size:(j + 1) * size] for j in range(cfg.m)]
        rows = [rs_evaluate(cfg.served_code, g) for g in streams]
        assert cfg.decode(tuple(zip(*rows))) == (
            oracles.ts_peel(cfg, streams), frozenset())


@pytest.mark.parametrize("name", TABLE_CONFIGS)
def test_tables_leave_digits_room(name):
    """In every output digit of every table, the products with the
    largest canonical symbols sum below 2^width, so nothing carries: for
    the canonical download and decode tables that is
    terms * (q - 1)^2 < 2^width, terms being the inputs the output reads;
    the encode table's Kronecker digits reach (q - 1)^2."""
    cfg = TABLE_CONFIGS[name]()
    q = cfg.base.q
    for pmap in (cfg.encode_map, cfg.download_map, cfg.decode_map):
        assert len(oracles.map_digits(pmap)) == pmap.inputs
        assert oracles.largest_digit_sum(pmap) < 2 ** pmap.width
    for pmap in (cfg.download_map, cfg.decode_map):
        digits = oracles.map_digits(pmap)
        terms = max(sum(map(bool, row)) for row in zip(*digits))
        assert max(map(max, digits)) < q
        assert terms * (q - 1) ** 2 < 2 ** pmap.width


def test_malformed_bundle_rejected():
    cfg = reference_config()
    good = cfg.download(cfg.encode((0,) * 4)).per_column
    with pytest.raises(ValueError):
        cfg.decode(good[:-1])
    with pytest.raises(ValueError):
        cfg.decode(tuple(c[:1] for c in good))


def test_m_equals_l_degenerates_to_plain_decoding():
    """m = l means full download; alpha = 1 and the classical radius."""
    cfg = ts_make_config(13, 12, 4, 4, 4)
    assert cfg.alpha == 1 and cfg.radius == 4
    stream = trial_stream(20, 4, 0)
    msg = random_message(cfg, stream)
    pattern = pattern_from_stream(cfg, stream, (0, 3, 7, 11))
    decoded, bundle = ts_full_pipeline(cfg, msg, pattern)
    assert decoded == msg
    assert bundle.downloaded == bundle.accessed == 48


def test_m_one_deepest_peeling():
    cfg = ts_make_config(13, 12, 3, 4, 1)
    assert cfg.served_code.k == 12 and cfg.radius == 0
    stream = trial_stream(21, 0, 0)
    msg = random_message(cfg, stream)
    decoded, _ = ts_full_pipeline(cfg, msg,
                                  ErrorPattern(support=(), values=()))
    assert decoded == msg


def test_annihilator_subsets_may_overlap_omega():
    """Default subsets sit inside omega; the identity still holds and
    decoding works (checked at the subset points directly too)."""
    cfg = reference_config()
    assert set(cfg.subsets[0]) | set(cfg.subsets[1]) <= set(cfg.omega)
    stream = trial_stream(22, 2, 0)
    msg = random_message(cfg, stream)
    pattern = pattern_from_stream(cfg, stream, (0, 2))  # inside the subsets
    decoded, _ = ts_full_pipeline(cfg, msg, pattern)
    assert decoded == msg


def test_disjoint_subsets_outside_omega_also_work():
    cfg = ts_make_config(17, 10, 4, 4, 2, subsets=((13, 14), (15, 16)))
    stream = trial_stream(23, 1, 0)
    msg = random_message(cfg, stream)
    pattern = pattern_from_stream(cfg, stream, (5,))
    decoded, _ = ts_full_pipeline(cfg, msg, pattern)
    assert decoded == msg


def test_all_codewords_enumeration():
    cfg = tiny_config()
    words = list(cfg.codewords())
    assert len(words) == cfg.ext.order ** cfg.k == 625
    seen = {word for _, word in words}
    assert len(seen) == 625   # encoding is injective


def test_download_fn_restriction():
    cfg = tiny_config()
    word = cfg.encode((7, 12))
    served = cfg.download(word).per_column
    assert cfg.download_fn()(word) == served
    assert cfg.download_fn(1)(word) == tuple(s[:1] for s in served)
    assert cfg.download_fn(0)(word) == ((),) * cfg.n
    with pytest.raises(ValueError, match=r"download count must lie in 0\.\.2, "
                       "the m symbols a column serves, got 3"):
        cfg.download_fn(3)
