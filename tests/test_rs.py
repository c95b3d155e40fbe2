"""Polynomial ring and Reed-Solomon tests, including oracle agreement."""

import ast
import itertools
import random
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

import oracles

from fracdec import polyring as P
from fracdec import rs as rs_module
from fracdec.arraycode import ErrorPattern, apply_error_pattern
from fracdec.bounds import nearest_codeword_bruteforce
from fracdec.errors import DecodeFailure
from fracdec.fields import ExtField
from fracdec.frs_scheme import frs_make_config
from fracdec.primefield import PrimeField
from fracdec.rs import (PackedMap, RsCode, _pack, _unpack, decode_columns,
                        packed_map, packed_product, rs_interpolate,
                        served_map, tabulate_columns)
from fracdec.serialization import config_from_dict, load_json
from fracdec.trace_scheme import ts_make_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

F13 = PrimeField(13)
F5 = PrimeField(5)
F2 = PrimeField(2)


def decode_word(code, word):
    """The checked decode of one word: decode_columns on its n symbols as
    n columns of one symbol each, at the code's radius, as (message, error
    positions)."""
    (h,), positions = decode_columns(code, [(s,) for s in word], code.radius)
    return h, positions


def erasure_decode(code, known):
    """The message through the (position, symbol) pairs `known`:
    decode_columns at radius 0 on the code punctured to those positions."""
    punctured = RsCode(code.field, code.k,
                       [code.omega[pos] for pos, _ in known])
    (h,), _ = decode_columns(punctured, [(s,) for _, s in known], 0)
    return h


def test_poly_normal_form():
    assert P.normalize((0, 0, 0)) == ()
    assert P.normalize((1, 0, 2, 0)) == (1, 0, 2)
    assert P.degree(()) == -1
    assert P.degree((7,)) == 0


def test_poly_ring_ops():
    a, b = (1, 2), (3, 0, 4)
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
        back = oracles.poly_add(F13, P.poly_mul(F13, q, P.normalize(b)), r)
        assert back == P.normalize(a)
        assert P.degree(r) < P.degree(P.normalize(b))


def test_poly_from_roots_vanishes():
    roots = (0, 1, 5)
    poly = rs_module.poly_from_roots(F13, roots)
    assert P.degree(poly) == 3 and poly[-1] == 1
    for r in roots:
        assert oracles.poly_eval(F13, poly, r) == 0
    for x in range(13):
        if x not in roots:
            assert oracles.poly_eval(F13, poly, x) != 0


def test_kernel_refuses_extension_fields():
    """Reducing mod q is wrong in GF(q^l): the integer kernel raises
    instead of returning values reduced mod the wrong number."""
    f = ExtField(PrimeField(3), 2)
    a, b = (5, 7), (1, 1)
    for call in (lambda: P.poly_mul(f, a, b),
                 lambda: P.poly_divmod(f, a, b),
                 lambda: rs_module.poly_from_roots(f, (1, 3)),
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
        assert P.poly_mul(field, a, b) == oracles.poly_mul(field, a, b)
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
        assert rs_module.poly_from_roots(field, roots) == expected


def assert_code_maps_fit(code):
    """packed_map's no-carry bound on a code's interpolation map and on the
    evaluation map at its points, served_map's one word, whose entries are
    canonical: terms * (q - 1)^2 < 2^width, with n terms for interpolation
    and k for evaluation."""
    q = code.field.q
    for pmap, terms in ((code.interpolation, code.n),
                        (served_map(code, 1, 1), code.k)):
        assert (pmap.q, pmap.inputs, pmap.outputs) == (q, terms, code.n)
        assert max(map(max, oracles.map_digits(pmap))) < q
        assert terms * (q - 1) ** 2 < 2 ** pmap.width
        assert oracles.largest_digit_sum(pmap) < 2 ** pmap.width


@pytest.mark.parametrize("q", (2, 13, 31, 53))
def test_lagrange_basis_matches_reference(q):
    """Column i of an RsCode's interpolation map packs L_i, the
    interpolant of the indicator of point i, on seeded point sets from a
    single point up to 13 points (the whole field for q <= 13), with and
    without 0 among the points; it and the evaluation map at the points
    meet packed_map's no-carry bound."""
    field = PrimeField(q)
    rng = random.Random(100 + q)
    size = min(q, 13)
    point_sets = [(0,), (q - 1,), (0, 1), tuple(range(q - 1, q - 1 - size, -1))]
    for _ in range(10):
        xs = rng.sample(range(1, q), rng.randrange(1, size))
        point_sets += [tuple(xs), tuple(xs) + (0,)]
    for xs in point_sets:
        code = RsCode(field, len(xs), xs)
        assert_code_maps_fit(code)
        basis = oracles.map_digits(code.interpolation)
        assert len(basis) == len(xs)
        for i, column in enumerate(basis):
            indicator = [(x, int(j == i)) for j, x in enumerate(xs)]
            assert column == oracles.interpolate(field, indicator)


@pytest.mark.parametrize("q, n, k", ((2, 2, 1), (13, 8, 3), (31, 30, 8),
                                     (53, 24, 12)))
def test_code_tables_match_reference(q, n, k):
    """The interpolation map applied to a word is its interpolant, and the
    evaluation map at the points, served_map's one word, applied to a
    message is its evaluation at every point, with the packed maps read
    back as rows of integers; both meet packed_map's no-carry bound."""
    field = PrimeField(q)
    rng = random.Random(n)
    code = RsCode(field, k, rng.sample(range(q), n))
    assert_code_maps_fit(code)
    interpolation = list(zip(*oracles.map_digits(code.interpolation)))
    evaluation = list(zip(*oracles.map_digits(served_map(code, 1, 1))))
    for _ in range(20):
        word = [rng.randrange(q) for _ in range(n)]
        got = P.normalize(sum(map(mul, word, row)) % q
                          for row in interpolation)
        assert got == oracles.interpolate(field, zip(code.omega, word))
        msg = random_poly(rng, q, k)
        assert [sum(map(mul, msg, row)) % q for row in evaluation] == [
            oracles.poly_eval(field, msg, w) for w in code.omega]


@pytest.mark.parametrize("q, n, k", ((5, 4, 2), (31, 24, 2), (31, 30, 8),
                                     (509, 10, 2), (257, 256, 16),
                                     (65537, 256, 16), (2147483647, 7, 3),
                                     (2147483647, 64, 8), (4294967311, 40, 4)))
def test_decode_tables_take_linear_space(q, n, k):
    """An RsCode's decode fields take O(n) words beside its interpolation
    map's n^2 digits, also where the Euclid digits are wide: the start
    and each fold mask hold at most n + t + 2 digits, there are at most
    three masks, and the inverse table holds at most _INVERSE_LIMIT
    entries. From 25 points on, the decode fields but the inverses take
    no more bits than the map (a sweep of every prime q < 700 with
    n <= 120 found no exception); on fewer points n + t + 2 wide digits
    can outweigh n^2 narrow ones. The shapes are short and capped codes
    over GF(31), long codes, and GF(2^31 - 1) and GF(2^32 + 15), whose
    digits run to 936 and 632 bits."""
    field = PrimeField(q)
    code = RsCode(field, k, random.Random(n).sample(range(q), n))
    digits, width = n + code.radius + 2, code.decode_width
    assert code.decode_master < 2 ** (digits * width)
    assert len(code.decode_folds) <= 3
    assert all(fold[-1] < 2 ** (digits * 64) for fold in code.decode_folds)
    inverses = code.decode_inverses
    assert inverses is None or len(inverses) == q <= rs_module._INVERSE_LIMIT

    def bits(value):
        if isinstance(value, tuple):
            return sum(map(bits, value))
        return value.bit_length() if isinstance(value, int) else 0

    tables = sum(bits(getattr(code, name)) for name in type(code).__slots__
                 if name.startswith("decode_") and name != "decode_inverses")
    if n >= 25:
        assert tables <= bits(code.interpolation.columns)


@pytest.mark.parametrize("q, n, k", ((13, 1, 1), (13, 6, 2), (13, 13, 5),
                                     (31, 1, 1), (31, 9, 4), (31, 31, 10)))
def test_rs_products_match_reference(q, n, k):
    """rs_interpolate is the textbook interpolant through the code's
    points, and a product with the evaluation map at them, served_map's
    one word, the textbook evaluation, padding included."""
    field = PrimeField(q)
    rng = random.Random(q * n + k)
    code = RsCode(field, k, rng.sample(range(q), n))
    evaluation = served_map(code, 1, 1)
    for _ in range(25):
        word = [rng.randrange(q) for _ in range(n)]
        assert rs_interpolate(code, word) == oracles.interpolate(
            field, zip(code.omega, word))
        msg = [rng.randrange(q) for _ in range(rng.randrange(k + 1))]
        assert packed_product(evaluation, msg) == list(
            oracles.poly_eval(field, P.normalize(msg), w) for w in code.omega)


@pytest.mark.parametrize("q, n, k", ((2, 1, 1), (2, 2, 1), (2, 2, 2),
                                     (31, 30, 8), (53, 48, 12),
                                     (4294967311, 5, 3), (4294967311, 5, 5)))
def test_packed_products_hold_at_the_carry_boundary(q, n, k):
    """The packed products equal the textbook ones where the digit sums
    are largest: words whose symbols are all q - 1 and messages of full
    length k with every coefficient q - 1, then seeded random words. The
    shapes are GF(2) at n = 1 and 2, the trace and folded benchmark codes,
    and GF(2^32 + 15), whose digits are wider than 64 bits. The code's
    interpolation map and the evaluation map at its points meet
    packed_map's no-carry bound."""
    field = PrimeField(q)
    rng = random.Random(n * k)
    code = RsCode(field, k, [q - 1] + rng.sample(range(q - 1), n - 1))
    assert_code_maps_fit(code)
    evaluation = served_map(code, 1, 1)
    words = [[q - 1] * n] + [[rng.randrange(q) for _ in range(n)]
                             for _ in range(10)]
    messages = [[q - 1] * k] + [[rng.randrange(q) for _ in range(k)]
                                for _ in range(10)]
    for word, msg in zip(words, messages):
        assert rs_interpolate(code, word) == oracles.interpolate(
            field, zip(code.omega, word))
        assert packed_product(evaluation, msg) == list(
            oracles.poly_eval(field, P.normalize(msg), w) for w in code.omega)


def matrix_product(q, columns, vector):
    """The textbook product of the matrix with these columns and a vector,
    mod q."""
    return [sum(map(mul, row, vector)) % q for row in zip(*columns)]


@pytest.mark.parametrize("q", (2, 13, 31, 4294967311))
def test_packed_maps_match_the_textbook_products(q):
    """packed_map's plain, Kronecker and block-diagonal layouts,
    packed_product on an input padded with leading zeros and cut short,
    read on one block of outputs, and the map of tabulate_columns, each
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
             (packed_map(q, tabulate_columns(q, 3, 3 * (q - 1), linear)),
              left))
    for pmap, columns in cases:
        assert pmap.inputs == len(columns)
        assert pmap.outputs == len(columns[0])
        for vector in table_vectors(rng, q, len(columns)):
            assert packed_product(pmap, vector) == matrix_product(
                q, columns, vector)
    pmap = packed_map(q, stacked, blocks=4)
    for vector in table_vectors(rng, q, 3):
        for i, block in enumerate(blocks):
            padded = (0,) * (3 * i) + tuple(vector)
            assert packed_product(pmap, padded)[2 * i:2 * i + 2] == \
                matrix_product(q, block, vector)


def table_vectors(rng, q, length, count=10):
    return [[q - 1] * length] + [[rng.randrange(q) for _ in range(length)]
                                 for _ in range(count)]


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda path: path.stem)
def test_shipped_codes_leave_digits_room(path):
    """Every code and packed map a shipped config builds packs its maps
    with digits wide enough that products of canonical symbols never
    carry: packed_map's bound terms * (q - 1)^2 < 2^width for a code's
    two maps, and for every map, whose digits need not be reduced, each
    output's largest digit sum."""
    cfg = config_from_dict(load_json(str(path)))
    built = [getattr(cfg, name) for owner in type(cfg).__mro__
             for name in getattr(owner, "__slots__", ())]
    codes = [v for v in built if isinstance(v, RsCode)]
    maps = [v for v in built if isinstance(v, PackedMap)]
    assert len(codes) == 1
    # the folded decode_map is its transmit_map
    assert len(maps) == 4
    assert len(set(map(id, maps))) == (
        4 if cfg.__class__.__name__ == "TsConfig" else 3)
    for code in codes:
        assert_code_maps_fit(code)
        maps += [code.interpolation, served_map(code, 1, 1)]
    for pmap in maps:
        assert oracles.largest_digit_sum(pmap) < 2 ** pmap.width


def reference_digits(acc, count, width):
    """The `count` lowest `width`-bit digits of acc, lowest first, by
    repeated division."""
    digits = []
    for _ in range(count):
        acc, digit = divmod(acc, 2 ** width)
        digits.append(digit)
    return digits


@pytest.mark.parametrize("width", (8, 16, 32, 64, 80, 24))
def test_unpack_reads_every_digit_width(width):
    """_unpack reads digits of 1, 2, 4 and 8 bytes in C and any other whole
    number of bytes (an 80-bit decode_width, or the 3-byte digits
    tabulate_columns may pack its unit inputs at) by slices, and both agree
    with repeated division: on
    accumulators whose digits all hold 2^width - 1, the largest digit that
    does not carry, all hold q - 1 where it fits, all 0, or are seeded
    random."""
    rng = random.Random(width)
    top = 2 ** width - 1
    for q in (2, 31, 257, 4294967311):
        for count in (0, 1, 7, 40):
            for digits in ([top] * count, [min(q - 1, top)] * count,
                           [0] * count,
                           [rng.randrange(top + 1) for _ in range(count)]):
                acc = sum(d << i * width for i, d in enumerate(digits))
                assert reference_digits(acc, count, width) == digits
                assert _unpack(acc, count, width, q) == [d % q for d in digits]


@pytest.mark.parametrize("size", (1, 2, 4, 8, 10))
def test_pack_writes_every_digit_size(size):
    """_pack writes digits of 1, 2, 4 and 8 bytes with one struct call and
    digits of any other size (10 bytes: an 80-bit decode_width) by
    spreading struct-packed bytes over the digits; values of 2^64 or more
    take the per-value path. Each packed integer holds the values as its
    digits, and _unpack at a modulus above them reads them back."""
    rng = random.Random(size)
    top = 2 ** (8 * size) - 1
    lanes = [2 ** bits - 1 for bits in (8, 16, 32, 64, 8 * size)
             if bits <= 8 * size]
    for count in (0, 1, 3, 40):
        cases = [[0] * count, [rng.randrange(top + 1) for _ in range(count)]]
        cases += [[lane] * count for lane in lanes]
        cases += [[rng.randrange(lane + 1) for _ in range(count)]
                  for lane in lanes]
        for values in cases:
            packed = _pack(values, size)
            assert reference_digits(packed, count, 8 * size) == values
            assert packed < 2 ** (8 * size * count)
            assert _unpack(packed, count, 8 * size, top + 1) == values
            assert _pack(tuple(values), size) == packed


@pytest.mark.parametrize("q", (2, 13, 257, 65537, 4294967311))
def test_products_hold_at_all_q_minus_one(q):
    """packed_map rounds its digit size up to 1, 2, 4 or 8 bytes, and past
    8 keeps the least whole number of bytes. A map whose entries are all
    q - 1, applied to symbols that are all q - 1, fills every digit with
    terms * (q - 1)^2, the largest digit the no-carry bound allows, and
    each output still reads back as that value mod q."""
    rng = random.Random(q)
    for terms, outputs in ((1, 1), (3, 5), (40, 7)):
        pmap = packed_map(q, [[q - 1] * outputs] * terms)
        largest = terms * (q - 1) ** 2
        assert largest < 2 ** pmap.width
        bits = -(-largest.bit_length() // 8) * 8
        assert pmap.width == (bits if bits > 64 else
                              min(w for w in (8, 16, 32, 64) if w >= bits))
        assert packed_product(pmap, [q - 1] * terms) == [largest % q] * outputs
        acc = sum((q - 1) * column for column in pmap.columns)
        assert reference_digits(acc, outputs, pmap.width) == [largest] * outputs
        vector = [rng.randrange(q) for _ in range(terms)]
        assert packed_product(pmap, vector) == [
            sum(vector) * (q - 1) % q] * outputs


def test_unpack_matches_map_digits():
    """Unpacking each packed column of a map, at its width, gives the
    oracle's digits reduced mod q, for maps whose digits are 1, 2, 4, 8 and
    more than 8 bytes wide, and a tabulated map."""
    maps = [RsCode(PrimeField(q), k, range(n)).interpolation
            for q, n, k in ((2, 2, 1), (13, 8, 3), (257, 64, 16),
                            (65537, 20, 5), (4294967311, 5, 3))]
    maps.append(packed_map(31, tabulate_columns(31, 3, 3 * 30, lambda units: [
        sum(units), 2 * units[0] + units[2]])))
    widths = {pmap.width for pmap in maps}
    assert widths >= {8, 16, 32, 64} and max(widths) > 64
    for pmap in maps:
        assert [_unpack(column, pmap.outputs, pmap.width, pmap.q)
                for column in pmap.columns] == [
            [d % pmap.q for d in digits] for digits in oracles.map_digits(pmap)]


@pytest.mark.parametrize("order", ("little", "big"))
def test_digits_are_little_endian_on_any_host(order, monkeypatch):
    """Digit 0 is the lowest: every struct format in rs names its byte
    order ("<") rather than taking the host's, and packing and unpacking
    agree with the little-endian byte order whatever sys.byteorder says."""
    monkeypatch.setattr(sys, "byteorder", order)
    for size in (1, 2, 4, 8, 10):
        values = [1 + i for i in range(5)]
        packed = _pack(values, size)
        assert packed == int.from_bytes(
            b"".join(v.to_bytes(size, "little") for v in values), "little")
        assert _unpack(packed, 5, 8 * size, 2 ** 61 - 1) == values
    assert _unpack(0x0102, 1, 16, 65537) == [0x0102]
    assert _unpack(0x0102, 2, 8, 257) == [0x02, 0x01]
    tree = ast.parse(Path(rs_module.__file__).read_text(encoding="utf-8"))
    formats = [node.args[0] for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "struct"]
    assert formats
    for fmt in formats:
        assert isinstance(fmt, ast.JoinedStr)
        assert fmt.values[0].value.startswith("<")


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


def test_rs_encode_checks_trailing_coefficients():
    """A message is checked where it enters, by a config's encode. A
    zero-valued bool or float among the trailing coefficients of a folded
    config's message, the coefficients of its RS message polynomial, is
    still not a symbol."""
    cfg = frs_make_config(4, 1, 2, Fraction(1, 2))
    for message in ((1, 0.0), (1, False), (0.0, 0), (False, 0)):
        with pytest.raises(ValueError, match="not a canonical element"):
            cfg.encode(message)


def test_rs_encode_mds_injectivity():
    """Distinct messages differ in at least n - k + 1 positions."""
    code = RsCode(F5, 2, tuple(range(4)))
    words = {}
    for msg in itertools.product(range(5), repeat=2):
        word = oracles.rs_evaluate(code, msg)
        for other, prior in words.items():
            dist = sum(1 for x, y in zip(word, prior) if x != y)
            assert dist >= code.n - code.k + 1, (msg, other)
        words[msg] = word


def test_rs_decode_error_free():
    code = RsCode(F13, 3, tuple(range(7)))
    msg = (4, 0, 9)
    h, errs = decode_word(code, oracles.rs_evaluate(code, msg))
    assert h == P.normalize(msg) and errs == frozenset()


def test_rs_decode_repetition_example():
    code = RsCode(F13, 1, tuple(range(5)))
    h, errs = decode_word(code, (7, 7, 7, 0, 7))
    assert h == (7,) and errs == frozenset({3})


def test_rs_decode_reports_positions():
    code = RsCode(F13, 2, tuple(range(7)))
    msg = (3, 11)
    word = list(oracles.rs_evaluate(code, msg))
    word[1] = (word[1] + 5) % 13
    word[6] = (word[6] + 1) % 13
    h, errs = decode_word(code, tuple(word))
    assert h == msg and errs == frozenset({1, 6})


def test_rs_decode_matches_bruteforce_exhaustively():
    """On a tiny code, the unique decoder and the enumeration oracle agree
    for every received word in the whole space."""
    code = RsCode(F5, 1, tuple(range(4)))   # radius 1
    for received in itertools.product(range(5), repeat=4):
        best = nearest_codeword_bruteforce(code, received, code.radius)
        try:
            h, _ = decode_word(code, received)
            assert best and h == best[0][0]
            assert len([b for b in best if b[1] == best[0][1]]) == 1
        except DecodeFailure:
            assert not best


def test_rs_decode_matches_bruteforce_sampled():
    code = RsCode(F13, 2, tuple(range(8)))  # radius 3
    random.seed(5)
    for _ in range(300):
        msg = tuple(random.randrange(13) for _ in range(2))
        word = list(oracles.rs_evaluate(code, msg))
        for pos in random.sample(range(8), random.randrange(5)):
            word[pos] = (word[pos] + random.randrange(1, 13)) % 13
        received = tuple(word)
        best = nearest_codeword_bruteforce(code, received, code.radius)
        try:
            h, errs = decode_word(code, received)
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
            h, errs = decode_word(code, received)
        except DecodeFailure:
            continue
        word = oracles.rs_evaluate(code, h)
        dist = sum(1 for x, y in zip(word, received) if x != y)
        assert dist <= code.radius and len(errs) == dist


def test_rs_decode_degenerate_zero_radius():
    code = RsCode(F13, 3, (0, 1, 2))
    msg = (1, 4, 2)
    h, errs = decode_word(code, oracles.rs_evaluate(code, msg))
    assert h == msg and errs == frozenset()


def test_rs_decode_reuses_the_master_polynomial(polyring_calls, rs_calls,
                                                rs_codes_built):
    """RsCode builds its master polynomial, its interpolation table and
    its Euclid start once; a decode must not rebuild any of them, build
    another code or evaluate a polynomial."""
    cfg = config_from_dict(load_json(str(CONFIG_DIR / "frs-p37-n8-k3.json")))
    code = cfg.served_code
    rs_codes_built.clear()
    calls = polyring_calls("poly_mul", "poly_divmod", "poly_powmod",
                           "poly_gcd")
    roots = rs_calls("poly_from_roots")
    msg = tuple(range(1, code.k + 1))
    received = list(oracles.rs_evaluate(code, msg))
    for i in range(code.radius):
        received[2 * i] = (received[2 * i] + 1) % cfg.field.q
    h, errs = decode_word(code, received)
    assert h == msg and len(errs) == code.radius
    assert calls == roots == rs_codes_built == []


@pytest.mark.parametrize("q, n", ((2, 1), (13, 13), (31, 30)))
def test_rs_code_builds_its_master_once(q, n, rs_calls):
    """The Lagrange table and the Euclid start are derived from the code's
    own master polynomial, so a code multiplies out its points exactly
    once; the Euclid start packs that polynomial above the radius + 1
    digits of its zero cofactor."""
    calls = rs_calls("poly_from_roots")
    code = RsCode(PrimeField(q), 1, range(n))
    assert calls == ["poly_from_roots"]
    master = rs_module.poly_from_roots(code.field, code.omega)
    width = code.decode_width
    assert code.decode_master == _pack(master, width // 8) << (
        code.radius + 1) * width


def test_codes_and_configs_build_only_the_maps_they_apply(rs_calls):
    """Every packed map is built once, where its layout is fixed, and only
    if something applies it: an RsCode packs its interpolation map alone;
    a folded config its encode, download and transmit maps (transmit_map
    is also its decode_map) and its served code's; a trace config its
    encode, download, transmit and decode maps, its served code's and the
    anchor code's its decode table is read through."""
    calls = rs_calls("packed_map")
    RsCode(F13, 2, range(6))
    assert len(calls) == 1
    calls.clear()
    frs_make_config(12, 3, 4, Fraction(1, 2))
    assert len(calls) == 4
    calls.clear()
    ts_make_config(31, 30, 4, 4, 2)
    assert len(calls) == 6


# The configs whose RS codes the schemes decode with: the benchmark's trace
# and folded shapes and the shipped configs.
DECODER_CONFIGS = {
    "ts-wide": lambda: ts_make_config(31, 30, 4, 4, 2),
    "frs-wide": lambda: frs_make_config(12, 3, 4, Fraction(1, 2)),
    **{path.stem: lambda path=path: config_from_dict(load_json(str(path)))
       for path in sorted(CONFIG_DIR.glob("*.json"))},
}


def decode_outcome(decode, code, word):
    """(message, positions), or the DecodeFailure message."""
    try:
        return decode(code, word)
    except DecodeFailure as exc:
        return str(exc)


@pytest.mark.parametrize("name", DECODER_CONFIGS)
def test_packed_decoder_matches_the_scalar_euclid(name):
    """The packed decoder, through decode_columns one symbol per column,
    agrees with the coefficient-at-a-time Euclid decoder, message and
    positions or failure message, on the zero word, on seeded codewords
    hit at every error weight from 0 to n, and on uniformly random
    words."""
    code = DECODER_CONFIGS[name]().served_code
    q, n = code.field.q, code.n
    rng = random.Random(name)
    words = [[0] * n]
    for weight in range(n + 1):
        for _ in range(4):
            word = list(oracles.rs_evaluate(code, [
                rng.randrange(q) for _ in range(code.k)]))
            for pos in rng.sample(range(n), weight):
                word[pos] = (word[pos] + rng.randrange(1, q)) % q
            words.append(word)
        words.append([rng.randrange(q) for _ in range(n)])
    kinds = set()
    for word in words:
        got = decode_outcome(decode_word, code, word)
        assert got == decode_outcome(oracles.rs_decode_euclid, code, word)
        kinds.add(type(got))
    assert kinds == {tuple, str}


def euclid_digits(code, received):
    """rs._quotient's packed run replayed on lists of exact digits: the
    same multiply-adds at the same digit offsets, the same masking, and,
    where the decoder's tracked bound A would reach 2^decode_width, the
    same room made, but on digits that have no width to carry out of:
    each digit folded, x -> (x >> b) * (2^b mod q) + (x mod 2^b) for b =
    32, 16 and 8 with q < 2^b in turn, where the bounds that leaves fit
    the next division, and otherwise reduced mod q. After each division
    every r digit is at most A and every v digit at most A / s, and after
    each fold every digit at most the folded bound: the bounds
    rs._quotient proves. Returns the message polynomial, or None where
    the decoder fails before its re-encode check, the largest digit the
    run held, and the run's events in order: "divide" for each division,
    the final one too, and "fold" or "reduce" for each pair made room
    in."""
    q, n, k, t = code.field.q, code.n, code.k, code.radius
    cap = 2 ** code.decode_width
    full = (k + 1) * (q - 1) * (2 * q - 1) ** t
    shifts = [b for b in (32, 16, 8) if q < 2 ** b] if full >= 2 ** 64 else []
    r1 = rs_interpolate(code, received)
    master = rs_module.poly_from_roots(code.field, code.omega)
    pair0, pair1 = [0] * (t + 1) + list(master), [1] + [0] * t + list(r1)
    largest = max(pair0 + pair1)
    a0 = a1 = spread = q - 1
    events = []

    def fold_bound(bound):
        for b in shifts:
            bound = min(bound, (bound >> b) * (2 ** b % q) + 2 ** b - 1)
        return bound

    def fold(pair, bound):
        for b in shifts:
            pair = [(c >> b) * (2 ** b % q) + c % 2 ** b for c in pair]
        assert max(pair) <= bound
        return pair

    def make_room(pairs, bounds, grow):
        """The pairs folded or reduced, their bounds and the one event."""
        folded = [fold_bound(bound) for bound in bounds]
        if folded[0] + grow * folded[-1] < cap:
            return ([fold(p, b) for p, b in zip(pairs, folded)], folded,
                    "fold")
        return ([[c % q for c in p] for p in pairs], [q - 1] * len(pairs),
                "reduce")

    def multiply_add(acc, factor, addend, shift):
        acc.extend([0] * (len(addend) + shift - len(acc)))
        for i, digit in enumerate(addend, shift):
            acc[i] += factor * digit
        return max(acc)

    def assert_within(pair, bound):
        assert max(pair[t + 1:], default=0) <= bound
        assert max(pair[:t + 1]) <= bound // spread

    top0, top1, v_degree = n, len(r1) - 1, 0
    while 2 * top1 >= n + k:
        d = top0 - top1
        grow = (d + 1) * (q - 1)
        if a0 + grow * a1 >= cap:
            (pair0, pair1), (a0, a1), event = make_room(
                (pair0, pair1), (a0, a1), grow)
            spread = 1
            events += [event] * 2
        events.append("divide")
        inv = pow(pair1[t + 1 + top1] % q, q - 2, q)
        for s in range(d, -1, -1):
            f = pair0[t + 1 + top1 + s] * inv % q
            if f:
                largest = max(largest, multiply_add(pair0, q - f, pair1, s))
        a0, a1 = a1, a0 + grow * a1
        assert_within(pair0, a1)
        v_degree += d
        top0, top1 = top1, top1 - 1
        while top1 >= 0 and pair0[t + 1 + top1] % q == 0:
            top1 -= 1
        pair0, pair1 = pair1, pair0[:t + 2 + top1]
    if top1 < 0:
        return (), largest, events
    if not 0 <= top1 - v_degree < k:
        return None, largest, events
    grow = (top1 - v_degree + 1) * (q - 1)
    if a1 + grow * a1 // spread >= cap:
        (pair1,), (a1,), event = make_room((pair1,), (a1,), grow)
        spread = 1
        events.append(event)
    events.append("divide")
    bound = a1 + grow * a1 // spread
    r, v = pair1[t + 1:], pair1[:t + 1]
    inv = pow(v[v_degree] % q, q - 2, q)
    quotient = []
    for s in range(top1 - v_degree, -1, -1):
        f = r[v_degree + s] * inv % q
        quotient.append(f)
        if f:
            largest = max(largest, multiply_add(r, q - f, v, s))
    assert max(r) <= bound
    if any(c % q for c in r[:v_degree]):
        return None, largest, events
    return tuple(reversed(quotient)), largest, events


class InverseLog:
    """An inverse table, for any q, that logs "divide" at each lookup: the
    packed Euclid run makes one per division, the final one too."""

    def __init__(self, q, log):
        self.q, self.log = q, log

    def __getitem__(self, x):
        self.log.append("divide")
        return pow(x, -1, self.q)


@pytest.mark.parametrize("q, n, k", ((2, 1, 1), (2, 2, 1), (2, 2, 2),
                                     (4294967311, 5, 1), (4294967311, 5, 3),
                                     (31, 30, 8), (257, 128, 32),
                                     (257, 256, 128), (257, 256, 16),
                                     (65537, 256, 16), (2147483647, 7, 3)))
def test_packed_decoder_holds_at_the_carry_boundary(q, n, k, monkeypatch):
    """No digit of the packed Euclid run reaches 2^decode_width. Up to 64
    bits, or where one division from reduced digits does not fit 64 bits,
    the width meets the bound rs._quotient proves, so the run never makes
    room; otherwise the run has 64-bit digits and folds or reduces where
    its tracked bound says. A replay of the run on exact digits stays
    below 2^decode_width and within the tracked bounds, and the decoder's
    divisions, folds and exact reductions come in the replay's order: it
    makes room at exactly the divisions where the bound would reach
    2^decode_width, and folds and reduces as many pairs as the replay.
    Folds make room at every q up to 2^16 + 1 here; at q = 2^31 - 1 only
    the exact reduction does, and its decodes still match the scalar
    Euclid's. (A trigger of `> 2^w` in place of `>= 2^w` differs only
    where the bound is exactly 2^w, which no run here reaches: before any
    fold it is q - 1 times an odd number.)
    The words are all q - 1, the word whose interpolant has every
    coefficient q - 1, codewords hit at the radius and random words; the
    shapes are GF(2) at n = 1 and 2, GF(2^32 + 15), whose digits stay
    wider than 64 bits, the (30, 8) code over GF(31), whose bound of 74
    bits puts it on 64-bit digits, long codes over GF(257) and GF(65537),
    whose runs are 48, 64 and 120 steps long, and the (7, 3) code over
    GF(2^31 - 1)."""
    field = PrimeField(q)
    rng = random.Random(n * k)
    code = RsCode(field, k, [q - 1] + rng.sample(range(q - 1), n - 1))
    t = code.radius
    full = (k + 1) * (q - 1) * (2 * q - 1) ** t
    capped = (full.bit_length() > 64
              and (q - 1) * (1 + max(t + 1, k) * (q - 1)) < 2 ** 64)
    if capped:
        assert code.decode_width == 64
    else:
        assert full < 2 ** code.decode_width
    if q > 2 ** 32:
        assert code.decode_width > 64
    full_code = RsCode(field, n, code.omega)
    words = [[q - 1] * n, oracles.rs_evaluate(full_code, [q - 1] * n)]
    for _ in range(2):
        word = list(oracles.rs_evaluate(
            code, [rng.randrange(q) for _ in range(k)]))
        for pos in rng.sample(range(n), t):
            word[pos] = (word[pos] + rng.randrange(1, q)) % q
        words += [word, [rng.randrange(q) for _ in range(n)]]
    log = []
    object.__setattr__(code, "decode_inverses", InverseLog(q, log))
    for name in ("_fold", "_reduce"):
        original = getattr(rs_module, name)
        monkeypatch.setattr(rs_module, name,
                            lambda *args, _name=name[1:], _original=original:
                            log.append(_name) or _original(*args))
    folded = reduced = 0
    for word in words:
        log.clear()
        got = decode_outcome(decode_word, code, word)
        assert got == decode_outcome(oracles.rs_decode_euclid, code, word)
        message, largest, events = euclid_digits(code, word)
        assert largest < 2 ** code.decode_width
        codeword = len(rs_interpolate(code, word)) <= k  # runs no Euclid
        assert log == ([] if codeword else events)
        if isinstance(got, tuple):
            assert message == got[0]
        folded += events.count("fold")
        reduced += events.count("reduce")
    assert bool(folded or reduced) == capped
    assert bool(reduced) == (q == 2 ** 31 - 1)


def test_served_trace_code_decodes_on_64_bit_digits(rs_calls):
    """The (30, 8) code over GF(31) that ts_make_config(31, 30, 4, 4, 2)
    serves has a never-reduce bound of 74 bits, and one division from
    reduced digits fits 64, so its Euclid run uses 64-bit digits and
    folds them on the way, never reducing them exactly: folds at 32, 16
    and 8 bits take a bound near 2^64 below 2^15. Words hit at every
    weight 0..11 decode to the planted message and report the hit
    positions."""
    code = ts_make_config(31, 30, 4, 4, 2).served_code
    q, n, k, t = code.field.q, code.n, code.k, code.radius
    assert (q, n, k, t) == (31, 30, 8, 11)
    assert ((k + 1) * (q - 1) * (2 * q - 1) ** t).bit_length() == 74
    assert code.decode_width == 64
    assert [fold[:2] for fold in code.decode_folds] == [(32, 4), (16, 2),
                                                        (8, 8)]
    assert rs_module._fold_bound(2 ** 64 - 1, code.decode_folds) < 2 ** 15
    calls = rs_calls("_fold", "_reduce")
    rng = random.Random(3130)
    for weight in range(t + 1):
        for _ in range(5):
            message = tuple(rng.randrange(q) for _ in range(k - 1)) + (
                rng.randrange(1, q),)
            word = list(oracles.rs_evaluate(code, message))
            support = rng.sample(range(n), weight)
            for pos in support:
                word[pos] = (word[pos] + rng.randrange(1, q)) % q
            assert decode_word(code, word) == (message, frozenset(support))
    assert "_fold" in calls and "_reduce" not in calls


@pytest.mark.parametrize("q, n, k", ((2, 2, 1), (5, 4, 2), (31, 30, 8),
                                     (53, 24, 12)))
def test_codewords_leave_the_decoder_after_interpolation(q, n, k,
                                                         monkeypatch):
    """A received codeword leaves the checked decode, decode_columns one
    symbol per column, right after its one interpolation: on the zero word
    and on a codeword of each message degree below k, the decoder returns
    the message with no positions, as the scalar Euclid decoder does, and
    makes no other product: with no tail to read, nothing is re-encoded.
    Each of those words with one symbol changed is no codeword, so it
    takes the Euclid path: it fails where the radius is 0 and otherwise
    re-encodes, with one product with a map of the digits of the
    evaluation map at the points, served_map's one word, after the
    interpolation, and reports the changed position, as the
    scalar Euclid decoder does."""
    field = PrimeField(q)
    rng = random.Random(q * n + k)
    code = RsCode(field, k, rng.sample(range(q), n))
    messages = [()] + [tuple(rng.randrange(q) for _ in range(d))
                       + (rng.randrange(1, q),) for d in range(k)]
    products, original = [], rs_module.packed_product

    def counting(pmap, symbols):
        products.append(pmap)
        return original(pmap, symbols)

    for message in messages:
        word = list(oracles.rs_evaluate(code, message))
        assert oracles.rs_decode_euclid(code, word) == (message, frozenset())
        monkeypatch.setattr(rs_module, "packed_product", counting)
        products.clear()
        assert decode_word(code, word) == (message, frozenset())
        assert list(map(id, products)) == [id(code.interpolation)]
        monkeypatch.undo()
        pos = rng.randrange(n)
        word[pos] = (word[pos] + rng.randrange(1, q)) % q
        want = decode_outcome(oracles.rs_decode_euclid, code, word)
        monkeypatch.setattr(rs_module, "packed_product", counting)
        products.clear()
        got = decode_outcome(decode_word, code, word)
        monkeypatch.undo()
        assert got == want
        if code.radius:
            assert got == (message, frozenset({pos}))
            interpolation, reencode = products
            assert interpolation is code.interpolation
            assert oracles.map_digits(reencode) == oracles.map_digits(
                served_map(code, 1, 1))
        else:
            assert isinstance(got, str)


@pytest.mark.parametrize("name", DECODER_CONFIGS)
def test_scheme_decodes_call_no_polyring_function(name, polyring_calls):
    """Decoding runs on packed integers only: neither scheme's decode, at
    error weights 0 to n, calls any polyring function."""
    cfg = DECODER_CONFIGS[name]()
    message = tuple(range(1, cfg.message_space[1] + 1))
    word = cfg.encode(message)
    calls = polyring_calls()
    outcomes = set()
    for weight in range(cfg.n + 1):
        pattern = ErrorPattern(support=tuple(range(weight)),
                               values=((1,) * len(word[0]),) * weight)
        bundle = cfg.download(apply_error_pattern(cfg.symbol_field, word,
                                                  pattern))
        calls.clear()
        try:
            decoded, _ = cfg.decode(bundle.per_column)
            outcomes.add(decoded == message)
        except DecodeFailure:
            outcomes.add(None)
        assert calls == [], weight
    assert True in outcomes and len(outcomes) > 1


def test_decode_columns_reads_words_across_columns():
    """Column i carries g consecutive symbols of each word: word j is
    columns[i][j*g:(j+1)*g] read across i. With g = 2 symbols of each of
    two words per column, decode_columns returns what decoding each word
    so formed returns, and the union of the columns the decodes corrected;
    more corrected columns than the radius fail, and columns of unequal
    height, or a column count that does not divide n, raise ValueError."""
    code = RsCode(F13, 2, range(12))
    rng = random.Random(12)
    words = [list(oracles.rs_evaluate(
        code, [rng.randrange(13) for _ in range(2)])) for _ in range(2)]
    words[0][3] = (words[0][3] + 1) % 13
    words[1][10] = (words[1][10] + 5) % 13
    columns = [words[0][2 * i:2 * i + 2] + words[1][2 * i:2 * i + 2]
               for i in range(6)]
    messages, corrected = decode_columns(code, columns, 2)
    assert messages == tuple(decode_word(code, w)[0] for w in words)
    assert corrected == {1, 5}
    with pytest.raises(DecodeFailure, match="more than the radius 1"):
        decode_columns(code, columns, 1)
    for bad in (columns[:5], columns[:5] + [columns[5][:3]]):
        with pytest.raises(ValueError, match="uniform slices"):
            decode_columns(code, bad, 2)


def test_decode_columns_refuses_no_columns():
    """An empty column list carries no word: it is a bad shape, refused
    with the shape's ValueError before any division by the column count."""
    with pytest.raises(ValueError) as info:
        decode_columns(RsCode(F13, 2, range(6)), [], 1)
    assert str(info.value) == ("0 columns cannot carry words of length 6 "
                               "in uniform slices")


def test_decode_columns_refuses_empty_columns():
    """n columns of height 0 carry no word either: they are refused with
    the shape's ValueError rather than decoded to no messages at all."""
    with pytest.raises(ValueError) as info:
        decode_columns(RsCode(F13, 2, range(6)), [()] * 6, 1)
    assert str(info.value) == ("6 columns cannot carry words of length 6 "
                               "in uniform slices")


def test_decode_columns_checks_symbols_in_column_order():
    """decode_columns reports the first non-canonical symbol in column
    order, as a download reports the first in a stored word: with two
    words per column, column 1's second symbol comes before column 2's
    first, though row by row it would come after. A config's decode
    checks its downloads the same way."""
    code = RsCode(F13, 2, range(6))
    columns = [[0, 0] for _ in range(6)]
    columns[1][1], columns[2][0] = 13, -1
    with pytest.raises(ValueError) as info:
        decode_columns(code, columns, 2)
    assert str(info.value) == "13 is not a canonical element of GF(13)"
    cfg = ts_make_config(13, 6, 2, 2, 2)
    with pytest.raises(ValueError) as info:
        cfg.decode(columns)
    assert str(info.value) == "13 is not a canonical element of GF(13)"


def test_rs_erasure_decode():
    """An erasure decode is decode_columns at radius 0 on the punctured
    code: it returns the message from any k clean positions, checks every
    extra one, and raises DecodeFailure on any symbol off the codeword,
    whether or not the punctured code could correct it."""
    code = RsCode(F13, 3, tuple(range(8)))
    msg = (2, 0, 7)
    word = oracles.rs_evaluate(code, msg)
    # any k clean positions suffice
    h = erasure_decode(code, [(5, word[5]), (0, word[0]), (3, word[3])])
    assert h == msg
    # extra consistent point is verified, not ignored
    h = erasure_decode(code, [(5, word[5]), (0, word[0]), (3, word[3]),
                              (7, word[7])])
    assert h == msg
    # altered extra point must be caught: with one extra point no codeword
    # lies within the punctured code's radius 0, with two the punctured
    # code corrects it at its radius 1, more than 0
    with pytest.raises(DecodeFailure, match="no codeword within 0 errors"):
        erasure_decode(code, [(5, word[5]), (0, word[0]), (3, word[3]),
                              (7, (word[7] + 1) % 13)])
    with pytest.raises(DecodeFailure, match="more than the radius 0"):
        erasure_decode(code, [(5, word[5]), (0, word[0]), (3, word[3]),
                              (7, (word[7] + 1) % 13), (1, word[1])])
    # fewer than k positions, or a repeated one, is no punctured code
    with pytest.raises(ValueError, match="k <= n"):
        erasure_decode(code, [(5, word[5]), (0, word[0])])
    with pytest.raises(ValueError, match="distinct"):
        erasure_decode(code, [(5, word[5]), (5, word[5]), (3, word[3])])
    # a symbol outside the field is refused
    with pytest.raises(ValueError, match="not a canonical element"):
        erasure_decode(code, [(5, word[5]), (0, 13), (3, word[3])])


def test_rs_erasure_all_k_subsets():
    """Recovery from every k-subset of coordinates, exhaustively."""
    code = RsCode(F13, 3, tuple(range(6)))
    msg = (9, 1, 12)
    word = oracles.rs_evaluate(code, msg)
    for subset in itertools.combinations(range(6), 3):
        pairs = [(pos, word[pos]) for pos in subset]
        assert erasure_decode(code, pairs) == msg


def test_bruteforce_radius_edges():
    code = RsCode(F5, 1, tuple(range(4)))
    word = oracles.rs_evaluate(code, (3,))
    assert nearest_codeword_bruteforce(code, word, 0) == [((3,), 0)]
    everything = nearest_codeword_bruteforce(code, word, 4)
    assert len(everything) == 5
    for radius in (-1, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="radius must be"):
            nearest_codeword_bruteforce(code, word, radius)


def test_nearest_bruteforce_runs_no_field_arithmetic(monkeypatch):
    """The oracle encodes each candidate through one evaluation map at the
    code's points, served_map's one word: no GF(q) arithmetic method
    runs, and it finds what the per-position definition of distance
    finds."""
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
