"""Polynomial ring and Reed-Solomon tests, including oracle agreement."""

import inspect
import itertools
import random
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

import oracles

from fracdec import polyring as P
from fracdec.arraycode import ErrorPattern, apply_error_pattern
from fracdec.errors import DecodeFailure, InconsistentErasures
from fracdec.fields import ExtField, PrimeField
from fracdec.frs_scheme import (frs_decode_trial, frs_download_all,
                                frs_encode, frs_make_config)
from fracdec.rs import (PackedMap, RsCode, nearest_codeword_bruteforce,
                        packed_map, packed_product, rs_decode_unique,
                        rs_encode, rs_erasure_decode, rs_evaluate,
                        rs_interpolate, tabulate_map)
from fracdec.serialization import config_from_dict, load_json
from fracdec.trace_scheme import (TsConfig, ts_decode_message,
                                  ts_download_all, ts_encode, ts_make_config)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

F13 = PrimeField(13)
F5 = PrimeField(5)
F2 = PrimeField(2)


def test_poly_normal_form():
    assert P.normalize((0, 0, 0)) == ()
    assert P.normalize((1, 0, 2, 0)) == (1, 0, 2)
    assert P.degree(()) == -1
    assert P.degree((7,)) == 0


def test_poly_ring_ops():
    a, b = (1, 2), (3, 0, 4)
    assert P.poly_add(F13, a, b) == (4, 2, 4)
    assert P.poly_sub(F13, b, a) == (2, 11, 4)
    assert P.poly_mul(F13, a, b) == (3, 6, 4, 8)
    assert P.poly_mul(F13, a, ()) == ()
    assert P.poly_powmod(F13, (0, 1), 13, (1, 0, 1)) == (0, 1)  # x^2 = -1
    assert P.poly_powmod(F13, (5, 1), 0, (1, 0, 1)) == (1,)
    # gcd(2(x-1)(x-2), (x-1)(x-3)) = x - 1, made monic
    assert P.poly_gcd(F13, (4, 7, 2), (3, 9, 1)) == (12, 1)
    assert P.poly_gcd(F13, (3, 9, 1), ()) == (3, 9, 1)
    assert P.poly_gcd(F13, (), ()) == ()


def test_poly_divmod_examples():
    q, r = P.poly_divmod(F13, (0, 12, 1), (12, 1))   # (x^2 - x) / (x - 1)
    assert q == (0, 1) and r == ()
    q, r = P.poly_divmod(F2, (1, 0, 1), (1, 1))      # (x^2 + 1) / (x + 1)
    assert q == (1, 1) and r == ()
    with pytest.raises(ZeroDivisionError):
        P.poly_divmod(F13, (1, 1), ())


def test_poly_divmod_identity():
    random.seed(3)
    for _ in range(60):
        a = tuple(random.randrange(13) for _ in range(random.randrange(6)))
        b = tuple(random.randrange(13) for _ in range(random.randrange(1, 4)))
        if P.normalize(b) == ():
            continue
        q, r = P.poly_divmod(F13, P.normalize(a), P.normalize(b))
        back = P.poly_add(F13, P.poly_mul(F13, q, P.normalize(b)), r)
        assert back == P.normalize(a)
        assert P.degree(r) < P.degree(P.normalize(b))


def test_poly_eval():
    assert P.poly_eval(F13, (1, 2), 2) == 5
    assert P.poly_eval(F13, (), 7) == 0
    assert P.poly_eval(F13, (5,), 0) == 5


def test_poly_from_roots_vanishes():
    roots = (0, 1, 5)
    poly = P.poly_from_roots(F13, roots)
    assert P.degree(poly) == 3 and poly[-1] == 1
    for r in roots:
        assert P.poly_eval(F13, poly, r) == 0
    for x in range(13):
        if x not in roots:
            assert P.poly_eval(F13, poly, x) != 0


def test_kernel_refuses_extension_fields():
    """Reducing mod q is wrong in GF(q^l): the integer kernel raises
    instead of returning values reduced mod the wrong number."""
    f = ExtField(PrimeField(3), 2)
    a, b = (5, 7), (1, 1)
    for call in (lambda: P.poly_add(f, a, b), lambda: P.poly_sub(f, a, b),
                 lambda: P.poly_neg(f, a), lambda: P.poly_scale(f, a, 2),
                 lambda: P.poly_mul(f, a, b),
                 lambda: P.poly_divmod(f, a, b), lambda: P.poly_eval(f, a, 3),
                 lambda: P.poly_from_roots(f, (1, 3)),
                 lambda: P.poly_powmod(f, a, 3, b),
                 lambda: P.poly_gcd(f, a, b)):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError, match="prime field"):
        RsCode(f, 1, (0, 1, 2))


def random_poly(rng, q, max_len):
    return P.normalize(rng.randrange(q) for _ in range(rng.randrange(max_len + 1)))


@pytest.mark.parametrize("q", (2, 13, 31, 53))
def test_integer_kernel_matches_field_method_reference(q):
    field = PrimeField(q)
    rng = random.Random(q)
    for _ in range(150):
        a, b = random_poly(rng, q, 9), random_poly(rng, q, 6)
        x = rng.randrange(q)
        assert P.poly_mul(field, a, b) == oracles.poly_mul(field, a, b)
        assert P.poly_eval(field, a, x) == oracles.poly_eval(field, a, x)
        if b:
            assert P.poly_divmod(field, a, b) == oracles.poly_divmod(field, a, b)


@pytest.mark.parametrize("q", (2, 13, 31, 53, 257))
def test_poly_from_roots_matches_product(q):
    """The one-pass product equals the product of the linear factors
    x - r through poly_mul, on seeded root lists that include the empty
    list, 0 and repeated roots."""
    field = PrimeField(q)
    rng = random.Random(200 + q)
    root_lists = [(), (0,), (0, 0), (q - 1,) * 3, tuple(range(min(q, 20)))]
    for _ in range(40):
        roots = [rng.randrange(q) for _ in range(rng.randrange(1, 25))]
        root_lists += [tuple(roots), tuple(roots) + (0,) + tuple(roots[:3])]
    for roots in root_lists:
        expected = (1,)
        for r in roots:
            expected = P.poly_mul(field, expected, (-r % q, 1))
        assert P.poly_from_roots(field, roots) == expected


def table_columns(code, table):
    """Each packed entry of an RsCode table as the tuple of its n digits,
    `code.width` bits each, lowest first."""
    mask = (1 << code.width) - 1
    return [tuple(entry >> shift & mask
                  for shift in range(0, code.n * code.width, code.width))
            for entry in table]


@pytest.mark.parametrize("q", (2, 13, 31, 53))
def test_lagrange_basis_matches_reference(q):
    """Entry i of an RsCode's lagrange table packs L_i, the interpolant of
    the indicator of point i, on seeded point sets from a single point up
    to 13 points (the whole field for q <= 13), with and without 0 among
    the points."""
    field = PrimeField(q)
    rng = random.Random(100 + q)
    size = min(q, 13)
    point_sets = [(0,), (q - 1,), (0, 1), tuple(range(q - 1, q - 1 - size, -1))]
    for _ in range(10):
        xs = rng.sample(range(1, q), rng.randrange(1, size))
        point_sets += [tuple(xs), tuple(xs) + (0,)]
    for xs in point_sets:
        code = RsCode(field, len(xs), xs)
        basis = table_columns(code, code.lagrange)
        assert len(basis) == len(xs)
        for i, column in enumerate(basis):
            indicator = [(x, int(j == i)) for j, x in enumerate(xs)]
            assert column == oracles.interpolate(field, indicator)


@pytest.mark.parametrize("q, n, k", ((2, 2, 1), (13, 8, 3), (31, 30, 8),
                                     (53, 24, 12)))
def test_code_tables_match_reference(q, n, k):
    """lagrange applied to a word is its interpolant, and powers applied to
    a message is its evaluation at every point, with the packed tables read
    back as rows of integers."""
    field = PrimeField(q)
    rng = random.Random(n)
    code = RsCode(field, k, rng.sample(range(q), n))
    for _ in range(20):
        word = [rng.randrange(q) for _ in range(n)]
        got = P.normalize(sum(map(mul, word, row)) % q
                          for row in zip(*table_columns(code, code.lagrange)))
        assert got == oracles.interpolate(field, zip(code.omega, word))
        msg = random_poly(rng, q, k)
        assert [sum(map(mul, msg, row)) % q
                for row in zip(*table_columns(code, code.powers))] == [
            oracles.poly_eval(field, msg, w) for w in code.omega]


@pytest.mark.parametrize("q, n, k", ((13, 1, 1), (13, 6, 2), (13, 13, 5),
                                     (31, 1, 1), (31, 9, 4), (31, 31, 10)))
def test_rs_products_match_reference(q, n, k):
    """rs_interpolate is the textbook interpolant through the code's
    points, and rs_evaluate the textbook evaluation, padding included."""
    field = PrimeField(q)
    rng = random.Random(q * n + k)
    code = RsCode(field, k, rng.sample(range(q), n))
    for _ in range(25):
        word = [rng.randrange(q) for _ in range(n)]
        assert rs_interpolate(code, word) == oracles.interpolate(
            field, zip(code.omega, word))
        msg = [rng.randrange(q) for _ in range(rng.randrange(k + 1))]
        assert rs_evaluate(code, msg) == tuple(
            oracles.poly_eval(field, P.normalize(msg), w) for w in code.omega)
        assert rs_encode(code, msg) == rs_evaluate(code, msg)


@pytest.mark.parametrize("q, n, k", ((2, 1, 1), (2, 2, 1), (2, 2, 2),
                                     (31, 30, 8), (53, 48, 12),
                                     (4294967311, 5, 3), (4294967311, 5, 5)))
def test_packed_products_hold_at_the_carry_boundary(q, n, k):
    """The packed products equal the textbook ones where the digit sums
    are largest: words whose symbols are all q - 1 and messages of full
    length k with every coefficient q - 1, then seeded random words. The
    shapes are GF(2) at n = 1 and 2, the trace and folded benchmark codes,
    and GF(2^32 + 15), whose digits are wider than 64 bits."""
    field = PrimeField(q)
    rng = random.Random(n * k)
    code = RsCode(field, k, [q - 1] + rng.sample(range(q - 1), n - 1))
    assert n * (q - 1) ** 2 < 2 ** code.width
    words = [[q - 1] * n] + [[rng.randrange(q) for _ in range(n)]
                             for _ in range(10)]
    messages = [[q - 1] * k] + [[rng.randrange(q) for _ in range(k)]
                                for _ in range(10)]
    for word, msg in zip(words, messages):
        assert rs_interpolate(code, word) == oracles.interpolate(
            field, zip(code.omega, word))
        assert rs_evaluate(code, msg) == tuple(
            oracles.poly_eval(field, P.normalize(msg), w) for w in code.omega)


def matrix_product(q, columns, vector):
    """The textbook product of the matrix with these columns and a vector,
    mod q."""
    return [sum(map(mul, row, vector)) % q for row in zip(*columns)]


@pytest.mark.parametrize("q", (2, 13, 31, 4294967311))
def test_packed_maps_match_the_textbook_products(q):
    """packed_map's plain, Kronecker and block-diagonal layouts,
    packed_product on a slice of inputs and rows, and tabulate_map, each
    against the textbook matrix product, on vectors of all q - 1 and
    seeded random ones. At q = 2^32 + 15 the digits are wider than 64
    bits."""
    rng = random.Random(q)

    def matrix(rows, cols):
        return [[rng.randrange(q) for _ in range(rows)] for _ in range(cols)]

    left, right = matrix(5, 3), matrix(4, 2)
    kron = [[a * b % q for a in col_a for b in col_b]
            for col_a in left for col_b in right]
    blocks = [matrix(2, 3) for _ in range(4)]
    stacked = [[x for block in blocks for x in block[a]] for a in range(3)]
    diagonal = [[x if i == b else 0 for b in range(4) for x in block[a]]
                for i, block in enumerate(blocks) for a in range(3)]

    def linear(units):
        return [sum(map(mul, row, units)) for row in zip(*left)]

    cases = ((packed_map(q, left), left), (packed_map(q, left, right), kron),
             (packed_map(q, stacked, blocks=4), diagonal),
             (tabulate_map(q, 3, 3 * (q - 1), linear), left))
    for pmap, columns in cases:
        assert pmap.inputs == len(columns)
        assert pmap.outputs == len(columns[0])
        for vector in table_vectors(rng, q, len(columns)):
            assert packed_product(pmap, vector) == matrix_product(
                q, columns, vector)
    pmap = packed_map(q, stacked, blocks=4)
    for vector in table_vectors(rng, q, 3):
        for i, block in enumerate(blocks):
            assert packed_product(pmap, vector, first=3 * i,
                                  rows=range(2 * i, 2 * i + 2)) == \
                matrix_product(q, block, vector)


def table_vectors(rng, q, length, count=10):
    return [[q - 1] * length] + [[rng.randrange(q) for _ in range(length)]
                                 for _ in range(count)]


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda path: path.stem)
def test_shipped_codes_leave_digits_room(path):
    """Every code and packed map a shipped config builds packs its tables
    with digits wide enough that products of canonical symbols never
    carry: n * (q - 1)^2 < 2^width for a code's tables, and for a map,
    whose digits need not be reduced, each output's largest digit sum."""
    cfg = config_from_dict(load_json(str(path)))
    built = [getattr(cfg, name) for name in type(cfg).__slots__]
    codes = [v for v in built if isinstance(v, RsCode)]
    maps = [v for v in built if isinstance(v, PackedMap)]
    assert len(codes) == 1
    assert len(maps) == (3 if cfg.__class__.__name__ == "TsConfig" else 1)
    for code in codes:
        assert code.n * (code.field.q - 1) ** 2 < 2 ** code.width
    for pmap in maps:
        mask = (1 << pmap.width) - 1
        for shift in range(0, pmap.outputs * pmap.width, pmap.width):
            assert sum((pmap.q - 1) * (column >> shift & mask)
                       for column in pmap.columns) < 2 ** pmap.width


def test_rs_code_validation():
    RsCode(F13, 2, (0, 1, 2))
    for k in (2.0, True, "2", None):
        with pytest.raises(ValueError, match="k must be an int"):
            RsCode(F13, k, (0, 1, 2))
    with pytest.raises(ValueError):
        RsCode(F13, 2, (0, 1, 1))      # repeated point
    with pytest.raises(ValueError):
        RsCode(F13, 4, (0, 1, 2))      # k > n
    with pytest.raises(ValueError):
        RsCode(F13, 0, (0, 1, 2))
    with pytest.raises(ValueError):
        RsCode(F13, 1, (0, 13))        # point outside the field


def test_rs_encode_examples():
    code = RsCode(F13, 2, (0, 1, 2))
    assert rs_encode(code, (1, 2)) == (1, 3, 5)
    assert rs_encode(code, ()) == (0, 0, 0)
    assert rs_encode(code, (0, 0)) == (0, 0, 0)
    with pytest.raises(ValueError):
        rs_encode(code, (1, 2, 3))


def test_rs_encode_checks_trailing_coefficients():
    """A zero-valued bool or float in the padding is still not a symbol."""
    code = RsCode(F13, 2, (0, 1, 2, 3))
    for message in ((1, 0.0), (1, False), (0.0,), (1, 2, False)):
        with pytest.raises(ValueError, match="not a canonical element"):
            rs_encode(code, message)


def test_rs_encode_mds_injectivity():
    """Distinct messages differ in at least n - k + 1 positions."""
    code = RsCode(F5, 2, tuple(range(4)))
    words = {}
    for msg in itertools.product(range(5), repeat=2):
        word = rs_encode(code, msg)
        for other, prior in words.items():
            dist = sum(1 for x, y in zip(word, prior) if x != y)
            assert dist >= code.n - code.k + 1, (msg, other)
        words[msg] = word


def test_rs_decode_error_free():
    code = RsCode(F13, 3, tuple(range(7)))
    msg = (4, 0, 9)
    h, errs = rs_decode_unique(code, rs_encode(code, msg))
    assert h == P.normalize(msg) and errs == frozenset()


def test_rs_decode_repetition_example():
    code = RsCode(F13, 1, tuple(range(5)))
    h, errs = rs_decode_unique(code, (7, 7, 7, 0, 7))
    assert h == (7,) and errs == frozenset({3})


def test_rs_decode_reports_positions():
    code = RsCode(F13, 2, tuple(range(7)))
    msg = (3, 11)
    word = list(rs_encode(code, msg))
    word[1] = (word[1] + 5) % 13
    word[6] = (word[6] + 1) % 13
    h, errs = rs_decode_unique(code, tuple(word))
    assert h == msg and errs == frozenset({1, 6})


def test_rs_decode_matches_bruteforce_exhaustively():
    """On a tiny code, the unique decoder and the enumeration oracle agree
    for every received word in the whole space."""
    code = RsCode(F5, 1, tuple(range(4)))   # radius 1
    for received in itertools.product(range(5), repeat=4):
        best = nearest_codeword_bruteforce(code, received, code.radius)
        try:
            h, _ = rs_decode_unique(code, received)
            assert best and h == best[0][0]
            assert len([b for b in best if b[1] == best[0][1]]) == 1
        except DecodeFailure:
            assert not best


def test_rs_decode_matches_bruteforce_sampled():
    code = RsCode(F13, 2, tuple(range(8)))  # radius 3
    random.seed(5)
    for _ in range(300):
        msg = tuple(random.randrange(13) for _ in range(2))
        word = list(rs_encode(code, msg))
        for pos in random.sample(range(8), random.randrange(5)):
            word[pos] = (word[pos] + random.randrange(1, 13)) % 13
        received = tuple(word)
        best = nearest_codeword_bruteforce(code, received, code.radius)
        try:
            h, errs = rs_decode_unique(code, received)
            assert best and h == best[0][0]
            assert len(errs) == best[0][1]
        except DecodeFailure:
            assert not best


def test_rs_decode_never_exceeds_radius():
    """Whatever comes back is within the radius of the received word."""
    code = RsCode(F5, 2, tuple(range(5)))
    random.seed(6)
    for _ in range(200):
        received = tuple(random.randrange(5) for _ in range(5))
        try:
            h, errs = rs_decode_unique(code, received)
        except DecodeFailure:
            continue
        word = rs_encode(code, h + (0,) * (code.k - len(h)))
        dist = sum(1 for x, y in zip(word, received) if x != y)
        assert dist <= code.radius and len(errs) == dist


def test_rs_decode_degenerate_zero_radius():
    code = RsCode(F13, 3, (0, 1, 2))
    msg = (1, 4, 2)
    h, errs = rs_decode_unique(code, rs_encode(code, msg))
    assert h == msg and errs == frozenset()


def test_rs_decode_reuses_the_master_polynomial(polyring_calls,
                                                rs_codes_built):
    """RsCode builds its master polynomial and its interpolation and
    evaluation tables once; a decode must not rebuild any of them, build
    another code or evaluate a polynomial."""
    cfg = config_from_dict(load_json(str(CONFIG_DIR / "frs-p37-n8-k3.json")))
    code = cfg.prefix_code
    rs_codes_built.clear()
    calls = polyring_calls("poly_from_roots", "poly_eval")
    msg = tuple(range(1, code.k + 1))
    received = list(rs_encode(code, msg))
    for i in range(code.radius):
        received[2 * i] = (received[2 * i] + 1) % cfg.field.q
    h, errs = rs_decode_unique(code, received)
    assert h == msg and len(errs) == code.radius
    assert calls == [] and rs_codes_built == []


@pytest.mark.parametrize("q, n", ((2, 1), (13, 13), (31, 30)))
def test_rs_code_builds_its_master_once(q, n, polyring_calls):
    """The Lagrange table is derived from the code's own master polynomial,
    so a code multiplies out its points exactly once."""
    calls = polyring_calls("poly_from_roots")
    code = RsCode(PrimeField(q), 1, range(n))
    assert calls == ["poly_from_roots"]
    assert code.master == P.poly_from_roots(code.field, code.omega)


# The configs whose RS codes the schemes decode with: the benchmark's trace
# and folded shapes and the shipped configs.
DECODER_CONFIGS = {
    "ts-wide": lambda: ts_make_config(31, 30, 4, 4, 2),
    "frs-wide": lambda: frs_make_config(12, 3, 4, Fraction(1, 2)),
    **{path.stem: lambda path=path: config_from_dict(load_json(str(path)))
       for path in sorted(CONFIG_DIR.glob("*.json"))},
}


def decoder_code(cfg):
    return cfg.inner_code if isinstance(cfg, TsConfig) else cfg.prefix_code


def decode_outcome(decode, code, word):
    """(message, positions), or the DecodeFailure message."""
    try:
        return decode(code, word)
    except DecodeFailure as exc:
        return str(exc)


@pytest.mark.parametrize("name", DECODER_CONFIGS)
def test_packed_decoder_matches_the_scalar_euclid(name):
    """rs_decode_unique agrees with the coefficient-at-a-time Euclid
    decoder, message and positions or failure message, on the zero word,
    on seeded codewords hit at every error weight from 0 to n, and on
    uniformly random words."""
    code = decoder_code(DECODER_CONFIGS[name]())
    q, n = code.field.q, code.n
    rng = random.Random(name)
    words = [[0] * n]
    for weight in range(n + 1):
        for _ in range(4):
            word = list(rs_encode(code, [rng.randrange(q)
                                         for _ in range(code.k)]))
            for pos in rng.sample(range(n), weight):
                word[pos] = (word[pos] + rng.randrange(1, q)) % q
            words.append(word)
        words.append([rng.randrange(q) for _ in range(n)])
    kinds = set()
    for word in words:
        got = decode_outcome(rs_decode_unique, code, word)
        assert got == decode_outcome(oracles.rs_decode_euclid, code, word)
        kinds.add(type(got))
    assert kinds == {tuple, str}


def euclid_digits(code, received):
    """rs_decode_unique's packed run replayed on lists of exact digits: the
    same multiply-adds at the same digit offsets and the same masking, but
    no digit has a width to carry out of. Returns the message polynomial,
    or None where the decoder fails before its re-encode check, and the
    largest digit the run held."""
    q, n, k, t = code.field.q, code.n, code.k, code.radius
    r1 = rs_interpolate(code, received)
    pair0, pair1 = [0] * (t + 1) + list(code.master), [1] + [0] * t + list(r1)
    largest = max(pair0 + pair1)

    def multiply_add(acc, factor, addend, shift):
        acc.extend([0] * (len(addend) + shift - len(acc)))
        for i, digit in enumerate(addend, shift):
            acc[i] += factor * digit
        return max(acc)

    top0, top1, v_degree = n, len(r1) - 1, 0
    while 2 * top1 >= n + k:
        inv = pow(pair1[t + 1 + top1] % q, q - 2, q)
        for s in range(top0 - top1, -1, -1):
            f = pair0[t + 1 + top1 + s] * inv % q
            if f:
                largest = max(largest, multiply_add(pair0, q - f, pair1, s))
        v_degree += top0 - top1
        top0, top1 = top1, top1 - 1
        while top1 >= 0 and pair0[t + 1 + top1] % q == 0:
            top1 -= 1
        pair0, pair1 = pair1, pair0[:t + 2 + top1]
    if top1 < 0:
        return (), largest
    if not 0 <= top1 - v_degree < k:
        return None, largest
    r, v = pair1[t + 1:], pair1[:t + 1]
    inv = pow(v[v_degree] % q, q - 2, q)
    quotient = []
    for s in range(top1 - v_degree, -1, -1):
        f = r[v_degree + s] * inv % q
        quotient.append(f)
        if f:
            largest = max(largest, multiply_add(r, q - f, v, s))
    if any(c % q for c in r[:v_degree]):
        return None, largest
    return tuple(reversed(quotient)), largest


@pytest.mark.parametrize("q, n, k", ((2, 1, 1), (2, 2, 1), (2, 2, 2),
                                     (4294967311, 5, 1), (4294967311, 5, 3),
                                     (257, 256, 16)))
def test_packed_decoder_holds_at_the_carry_boundary(q, n, k):
    """No digit of the packed Euclid run reaches 2^decode_width: the width
    meets the bound rs_decode_unique proves, and a replay of the run on
    exact digits stays below it. The words are all q - 1, the word whose
    interpolant has every coefficient q - 1, codewords hit at the radius
    and random words; the shapes are GF(2) at n = 1 and 2, GF(2^32 + 15),
    whose digits are wider than 64 bits, and a full-length code over
    GF(257), whose run is 120 steps long."""
    field = PrimeField(q)
    rng = random.Random(n * k)
    code = RsCode(field, k, [q - 1] + rng.sample(range(q - 1), n - 1))
    t = code.radius
    assert (k + 1) * (q - 1) * (2 * q - 1) ** t < 2 ** code.decode_width
    full = RsCode(field, n, code.omega)
    words = [[q - 1] * n, rs_encode(full, [q - 1] * n)]
    for _ in range(2):
        word = list(rs_encode(code, [rng.randrange(q) for _ in range(k)]))
        for pos in rng.sample(range(n), t):
            word[pos] = (word[pos] + rng.randrange(1, q)) % q
        words += [word, [rng.randrange(q) for _ in range(n)]]
    for word in words:
        got = decode_outcome(rs_decode_unique, code, word)
        assert got == decode_outcome(oracles.rs_decode_euclid, code, word)
        message, largest = euclid_digits(code, word)
        assert largest < 2 ** code.decode_width
        if isinstance(got, tuple):
            assert message == got[0]


@pytest.mark.parametrize("name", DECODER_CONFIGS)
def test_scheme_decodes_call_no_polyring_function(name, polyring_calls):
    """Decoding runs on packed integers only: neither scheme's decode, at
    error weights 0 to n, calls any polyring function."""
    cfg = DECODER_CONFIGS[name]()
    if isinstance(cfg, TsConfig):
        field, message = cfg.base, tuple(range(1, cfg.k + 1))
        word = ts_encode(cfg, message)
        download, decode = ts_download_all, ts_decode_message
    else:
        field, message = cfg.field, tuple(range(1, cfg.message_length + 1))
        word = frs_encode(cfg, message)
        download = frs_download_all

        def decode(cfg, bundle):
            return frs_decode_trial(cfg, bundle.per_column)
    calls = polyring_calls(*(fn_name for fn_name, fn in vars(P).items()
                             if inspect.isfunction(fn)
                             and fn.__module__ == P.__name__))
    outcomes = set()
    for weight in range(cfg.n + 1):
        pattern = ErrorPattern(support=tuple(range(weight)),
                               values=((1,) * len(word[0]),) * weight)
        bundle = download(cfg, apply_error_pattern(field, word, pattern))
        calls.clear()
        try:
            decoded, _ = decode(cfg, bundle)
            outcomes.add(decoded == message)
        except DecodeFailure:
            outcomes.add(None)
        assert calls == [], weight
    assert True in outcomes and len(outcomes) > 1


def test_rs_erasure_decode():
    code = RsCode(F13, 3, tuple(range(8)))
    msg = (2, 0, 7)
    word = rs_encode(code, msg)
    # any k clean positions suffice
    h = rs_erasure_decode(code, [(5, word[5]), (0, word[0]), (3, word[3])])
    assert h == msg
    # extra consistent point is verified, not ignored
    h = rs_erasure_decode(code, [(5, word[5]), (0, word[0]), (3, word[3]),
                                 (7, word[7])])
    assert h == msg
    # altered extra point must be caught
    with pytest.raises(InconsistentErasures):
        rs_erasure_decode(code, [(5, word[5]), (0, word[0]), (3, word[3]),
                                 (7, (word[7] + 1) % 13)])
    with pytest.raises(ValueError):
        rs_erasure_decode(code, [(5, word[5]), (0, word[0])])
    with pytest.raises(ValueError):
        rs_erasure_decode(code, [(5, word[5]), (5, word[5]), (3, word[3])])
    # positions are plain ints: nothing is truncated or parsed
    for bad in (0.9, 1.9, 5.0, "1", True, None):
        with pytest.raises(ValueError):
            rs_erasure_decode(code, [(bad, word[1]), (0, word[0]),
                                     (3, word[3])])
    with pytest.raises(ValueError):
        rs_erasure_decode(RsCode(F13, 2, tuple(range(8))),
                          [(0.9, word[0]), ("1", word[1])])


def test_rs_erasure_all_k_subsets():
    """Recovery from every k-subset of coordinates, exhaustively."""
    code = RsCode(F13, 3, tuple(range(6)))
    msg = (9, 1, 12)
    word = rs_encode(code, msg)
    for subset in itertools.combinations(range(6), 3):
        pairs = [(pos, word[pos]) for pos in subset]
        assert rs_erasure_decode(code, pairs) == msg


def test_bruteforce_radius_edges():
    code = RsCode(F5, 1, tuple(range(4)))
    word = rs_encode(code, (3,))
    assert nearest_codeword_bruteforce(code, word, 0) == [((3,), 0)]
    everything = nearest_codeword_bruteforce(code, word, 4)
    assert len(everything) == 5
    for radius in (-1, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="radius must be"):
            nearest_codeword_bruteforce(code, word, radius)


def test_nearest_bruteforce_runs_no_field_arithmetic(monkeypatch):
    """The oracle encodes each candidate through the code's evaluation
    table: no GF(q) arithmetic method runs, and it finds what the
    per-position definition of distance finds."""
    code = RsCode(F13, 2, (0, 1, 2, 3, 5))
    received = (1, 3, 0, 7, 9)
    calls = []
    for method in ("add", "sub", "neg", "mul", "inv", "div", "pow"):
        def counted(self, *args, _method=method,
                    _original=getattr(PrimeField, method)):
            calls.append(_method)
            return _original(self, *args)
        monkeypatch.setattr(PrimeField, method, counted)
    hits = nearest_codeword_bruteforce(code, received, 3)
    monkeypatch.undo()
    assert calls == []
    want = []
    for msg in itertools.product(range(13), repeat=2):
        dist = sum(oracles.poly_eval(F13, P.normalize(msg), w) != r
                   for w, r in zip(code.omega, received))
        if dist <= 3:
            want.append((P.normalize(msg), dist))
    assert hits == sorted(want, key=lambda pair: pair[1])


def test_bruteforce_budget(monkeypatch):
    from fracdec.errors import BudgetExceeded
    monkeypatch.setenv("FRACDEC_BUDGET", "10")
    code = RsCode(F13, 2, tuple(range(5)))
    with pytest.raises(BudgetExceeded):
        nearest_codeword_bruteforce(code, (0,) * 5, 1)
