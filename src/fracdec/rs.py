"""Reed-Solomon codes: evaluation encoding, unique decoding, erasure
decoding, and a brute-force nearest-codeword search used as an oracle.

A message is the coefficient tuple of a polynomial of degree < k over a
prime field GF(q); the codeword is its evaluations at n distinct points.
Unique decoding follows Gao's extended-Euclid method: interpolate the
received word, run the partial GCD against the master root polynomial
until the remainder degree drops below (n + k) / 2, and read the message
off the quotient. The Euclid run and the quotient are computed on packed
integers too (see `rs_decode_unique`): a remainder and its cofactor share
one integer, so each quotient term is one multiply-add.

Both linear maps a code applies on every call, interpolation through its
points and evaluation at them, depend on the code alone: `RsCode` builds
them once, the Lagrange columns by synthetic division of its master
polynomial, and packs each column of each table into one integer whose
fixed-width digits are the column's entries (Kronecker substitution).
`rs_evaluate` and `rs_interpolate`, the only products with those tables,
evaluate and interpolate at a code's points for the whole package: each
is one multiply-accumulate of the operand's symbols with the packed
columns, then one unpack of the n digits mod q. The digit width is chosen
so that n * (q - 1)^2 < 2^width, so no digit carries into the next and
the arithmetic stays exact.

The schemes' own linear maps are packed the same way, by the same packer
(`_pack`) and unpacker (`_unpack`): `packed_map` builds a `PackedMap`
from the columns of a matrix, from a Kronecker product of two, or as a
block-diagonal map; `tabulate_map` packs a linear function by running it
once on all its unit inputs together; `packed_product` is the one
product with a `PackedMap`. The folded encoder and the trace scheme's
encoder, downloads and decoder are each one such product. `RsCode` is a
frozen record (`records.Record`): its tables are derived slots, left out
of its equality, hash and repr. `PackedMap` is a `collections.namedtuple`.

Every product trusts its operands, like `polyring`, and here that trust
is a precondition: every symbol must be a canonical integer in [0, q). A
non-canonical symbol is not reduced mod q: a negative one borrows from
the neighbouring digits and an oversized one can carry into them, so the
product is silently wrong. Symbols are checked once, where they enter,
before any product sees them: `rs_encode`, `rs_decode_unique` (and so
`decode_columns`), `rs_erasure_decode` and `nearest_codeword_bruteforce`
run the field's check on their input; `frs_scheme.frs_encode` and
`trace_scheme.ts_encode` check each message symbol, and
`trace_scheme.ts_download` and `ts_download_all` every column symbol.
Every other operand is computed mod q from checked data: the quotient a
decode evaluates, the decoded streams the trace decode table reads, and
the messages the brute-force oracles draw from `field.elements()`.
"""

import itertools
from collections import namedtuple
from operator import mul, ne

from .budget import check_budget
from .errors import DecodeFailure, InconsistentErasures
from .fields import PrimeField
from .polyring import degree, normalize, poly_from_roots
from .records import Record


class RsCode(Record):
    """An (n, k) Reed-Solomon code over the prime field `field` with
    evaluation points `omega`.

    The derived fields are built once, here, and take O(n^2) memory:
    master: the monic polynomial whose roots are the points, which unique
        decoding starts its Euclid run from.
    width: the bit width of one packed digit, the least multiple of 8 with
        n * (q - 1)^2 < 2^width, so a sum of n products of canonical
        symbols fits in one digit.
    lagrange: n packed integers; digit j of entry i is point i's weight in
        coefficient j of the interpolant, so entry i packs the Lagrange
        basis polynomial (master / (x - omega_i)) / master'(omega_i). One
        synthetic-division pass over master yields the quotient from the
        top down, and Horner's rule on it as it appears gives
        master'(omega_i), so the table costs O(n^2) after master.
    powers: k packed integers; digit i of entry j is omega_i^j, so entry j
        is column j of the evaluation map.
    decode_width: the bit width of one digit of `rs_decode_unique`'s packed
        Euclid run, the least multiple of 8 with
        (k + 1) * (q - 1) * (2q - 1)^t < 2^decode_width, t the radius;
        `rs_decode_unique` proves that bound.
    decode_master: the Euclid run's start, master packed at decode_width
        above t + 1 zero digits (its cofactor, 0).
    Only `rs_interpolate` and `rs_evaluate` read the packed tables, and
    only `rs_decode_unique` the decode fields.
    """

    _fields = ("field", "k", "omega")
    __slots__ = _fields + ("master", "width", "lagrange", "powers",
                           "decode_width", "decode_master")

    def __init__(self, field, k, omega):
        omega = tuple(omega)
        self._set(field=field, k=k, omega=omega)
        for w in omega:
            field.check(w)
        if not isinstance(field, PrimeField):
            raise ValueError(f"Reed-Solomon codes here run over a prime field, "
                             f"not {field!r}")
        if len(set(omega)) != len(omega):
            raise ValueError("evaluation points must be distinct")
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"k must be an int, got {k!r}")
        if not 1 <= k <= len(omega):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={len(omega)}")
        q, n = field.q, len(omega)
        size = -(-(n * (q - 1) ** 2).bit_length() // 8)
        master = poly_from_roots(field, omega)
        lagrange = []
        for x in omega:
            quotient = [0] * n
            coef = slope = 0
            for j in range(n, 0, -1):
                coef = (coef * x + master[j]) % q
                quotient[j - 1] = coef
                slope = (slope * x + coef) % q
            scale = pow(slope, q - 2, q)
            lagrange.append(_pack([c * scale % q for c in quotient], size))
        powers = [_pack(c, size) for c in power_columns(q, omega, k)]
        t = (n - k) // 2
        decode_size = -(-((k + 1) * (q - 1) * (2 * q - 1) ** t)
                        .bit_length() // 8)
        self._set(master=master, width=8 * size, lagrange=tuple(lagrange),
                  powers=tuple(powers), decode_width=8 * decode_size,
                  decode_master=_pack((0,) * (t + 1) + master, decode_size))

    @property
    def n(self):
        return len(self.omega)

    @property
    def radius(self):
        """Largest number of errors unique decoding always corrects."""
        return (self.n - self.k) // 2


def power_columns(q, points, k):
    """The k columns of the evaluation map at `points` of polynomials of
    degree < k: column j lists the points' j-th powers mod q."""
    columns, column = [], [1] * len(points)
    for _ in range(k):
        columns.append(column)
        column = [c * w % q for c, w in zip(column, points)]
    return columns


def rs_encode(code, message):
    """Evaluate the message polynomial at the code's points, checking
    every coefficient, trailing zeros included."""
    message = tuple(message)
    for c in message:
        code.field.check(c)
    h = normalize(message)
    if degree(h) >= code.k:
        raise ValueError(f"message degree {degree(h)} >= k = {code.k}")
    return rs_evaluate(code, h)


def _pack(values, size):
    """One integer whose little-endian digits, `size` bytes each, are the
    nonnegative `values`."""
    return int.from_bytes(b"".join(map(
        int.to_bytes, values, itertools.repeat(size),
        itertools.repeat("little"))), "little")


def _unpack(acc, count, width, q):
    """The `count` lowest digits, `width` bits each, of a product with a
    packed table, lowest first, each reduced mod q."""
    mask = (1 << width) - 1
    return [(acc >> shift & mask) % q
            for shift in range(0, count * width, width)]


def rs_evaluate(code, h):
    """h at the code's points through `code.powers`; h is at most k
    canonical coefficients, trailing zeros allowed."""
    return tuple(_unpack(sum(map(mul, h, code.powers)), code.n, code.width,
                         code.field.q))


def rs_interpolate(code, word):
    """The polynomial of degree < n through the n canonical symbols of the
    sequence `word` at the code's points, through `code.lagrange`."""
    coeffs = _unpack(sum(map(mul, word, code.lagrange)), code.n, code.width,
                     code.field.q)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class PackedMap(namedtuple("PackedMap", "q outputs width columns")):
    """A GF(q)-linear map from `inputs` to `outputs` symbols, packed like an
    RsCode table: one integer per input symbol, whose digit r, `width` bits
    wide, is a nonnegative integer congruent mod q to the map's entry in
    output r. `width` is the least multiple of 8 bits with
    terms * (q - 1) * top < 2^width, where terms is the number of inputs
    one output depends on and top bounds the digits, so a product with
    canonical symbols never carries from one digit into the next. Build
    one with `packed_map`; only `packed_product` reads the packed columns.
    """

    __slots__ = ()

    @property
    def inputs(self):
        return len(self.columns)


def packed_map(q, columns, right=((1,),), blocks=1):
    """Pack a GF(q)-linear map given by the columns of its matrix, each a
    sequence of canonical symbols, one column per input symbol.

    right: the map is the Kronecker product of `columns` with this second
        matrix, also given by columns: input a * len(right) + b has column
        columns[a] (x) right[b], whose entry i * len(right[0]) + u is
        columns[a][i] * right[b][u]. Each packed column is one product of
        two packed integers, so its digits are these products unreduced,
        at most (q - 1)^2. The default, a 1 x 1 identity, leaves the map
        as given, with canonical entries.
    blocks: the map is block-diagonal with this many equal blocks, and each
        given column stacks the same column of every block, block 0 first:
        input i * c + a, for c given columns, is column a of block i.
    """
    columns = [tuple(c) for c in columns]
    right = [tuple(c) for c in right]
    height, stride = len(columns[0]), len(right[0])
    terms = len(columns) * len(right)
    top = (q - 1) * max(max(c) for c in right)
    size = -(-(terms * (q - 1) * top).bit_length() // 8)
    right = [_pack(c, size) for c in right]
    packed = [c * r for c in (_pack(c, size * stride) for c in columns)
              for r in right]
    if blocks > 1:
        span = height * stride // blocks * 8 * size
        mask = (1 << span) - 1
        packed = [col & (mask << i * span)
                  for i in range(blocks) for col in packed]
    return PackedMap(q=q, outputs=height * stride, width=8 * size,
                     columns=tuple(packed))


def tabulate_map(q, inputs, top, linear):
    """Pack the GF(q)-linear map that `linear` computes, run once on all
    of its unit inputs together.

    `linear` receives the `inputs` unit vectors, each one integer with a
    digit per input, and returns the map's rows, one per output. It must
    combine its arguments only by sums and by products with nonnegative
    integers, keeping every digit congruent mod q to the exact value, and
    nonnegative and at most `top`, so that digits never carry.
    """
    width = top.bit_length()
    rows = linear([1 << e * width for e in range(inputs)])
    return packed_map(q, zip(*(_unpack(row, inputs, width, q) for row in rows)))


def packed_product(pmap, symbols, first=0, rows=None):
    """Outputs `rows` (a range; all by default) of the map applied to the
    vector that holds the canonical `symbols` at inputs first, first + 1,
    ... and zeros elsewhere, each reduced mod q. The caller checks the
    symbols and their count: a non-canonical symbol corrupts neighbouring
    digits, and a short sequence leaves the remaining inputs zero.
    """
    if rows is None:
        rows = range(pmap.outputs)
    columns = pmap.columns[first:first + len(symbols)]
    return _unpack(sum(map(mul, symbols, columns)) >> rows.start * pmap.width,
                   len(rows), pmap.width, pmap.q)


def rs_decode_unique(code, received):
    """Decode up to floor((n - k) / 2) errors.

    Returns (message, error_positions) with error_positions a frozenset.
    Raises DecodeFailure when no codeword lies within the radius; by the
    final re-encode check the result is never silently wrong.

    Gao's partial extended Euclid runs from (r0, v0) = (master, 0) and
    (r1, v1) = (interpolant, 1) while 2 deg r1 >= n + k. If a codeword
    lies within the radius, r1 / v1 is an exact division whose quotient is
    its message. So a quotient of degree >= k, or a zero quotient of a
    nonzero r1, fails at once; any other quotient is re-encoded and kept
    only if it lies within the radius, which an inexact division's never
    does.

    Each pair (r, v) is one integer of w-bit digits, w = decode_width:
    digit i is congruent mod q to coefficient i of v, and digit t + 1 + i
    to coefficient i of r, t the radius. A quotient term f x^s is read off
    the top digit of r0 mod q, and r0 -= f x^s r1 with v0 -= f x^s v1 is
    the one multiply-add pair0 += (q - f) * pair1 << s * w, which leaves a
    digit congruent to 0 where the term cancelled. After each division the
    digits above the remainder's degree, all congruent to 0, are masked
    off. The degree of v is the sum of the quotient degrees so far, at
    most t (below), so v stays in its t + 1 digits.

    No digit carries. Every addend is nonnegative, so each digit only
    grows, by at most (q - 1) times a digit of pair1 per term that reaches
    it. If a dividend's digits are at most A_{i-1} and the divisor's A_i,
    a quotient of degree d leaves digits at most
    A_{i+1} = A_{i-1} + (d + 1)(q - 1) A_i <= (2q - 1)^d A_i, as
    A_{i-1} <= A_i and 1 + (d + 1)(q - 1) <= (2q - 1)^d for d >= 1. Every
    quotient degree is at least 1, and the degrees sum to n minus the
    degree of the last divisor, at most n - ceil((n + k) / 2) = t. The r
    digits start canonical (A_0 = A_1 = q - 1), so they stay at most
    (q - 1)(2q - 1)^t; the v digits start at 0 and 1, so they stay at most
    (2q - 1)^t. The final division runs only when its quotient has degree
    < k, so it adds at most k terms of (q - 1) times a digit of v, and no
    digit exceeds (k + 1)(q - 1)(2q - 1)^t < 2^w.
    """
    field, n, k = code.field, code.n, code.k
    received = tuple(received)
    if len(received) != n:
        raise ValueError(f"received word has {len(received)} symbols, expected {n}")
    field.check_all(received)
    q, width = field.q, code.decode_width
    mask = (1 << width) - 1
    low = (code.radius + 1) * width
    r1 = rs_interpolate(code, received)
    pair0, pair1 = code.decode_master, _pack((1, *(0,) * code.radius, *r1),
                                            width // 8)
    top0, top1, v_degree = n, len(r1) - 1, 0
    while 2 * top1 >= n + k:
        inv = pow((pair1 >> low + top1 * width) % q, q - 2, q)
        for s in range(top0 - top1, -1, -1):
            f = (pair0 >> low + (top1 + s) * width & mask) * inv % q
            if f:
                pair0 += (q - f) * pair1 << s * width
        v_degree += top0 - top1
        top0, top1 = top1, top1 - 1
        while top1 >= 0 and not (pair0 >> low + top1 * width & mask) % q:
            top1 -= 1
        pair0, pair1 = pair1, pair0 & (1 << low + (top1 + 1) * width) - 1
    if top1 < 0:
        h = ()
    elif not 0 <= top1 - v_degree < k:
        raise DecodeFailure(
            f"no codeword within {code.radius} errors of the received word")
    else:
        r, v = pair1 >> low, pair1 & (1 << low) - 1
        inv = pow((v >> v_degree * width) % q, q - 2, q)
        quotient = []
        for s in range(top1 - v_degree, -1, -1):
            f = (r >> (v_degree + s) * width & mask) * inv % q
            quotient.append(f)
            if f:
                r += (q - f) * v << s * width
        h = tuple(reversed(quotient))
    codeword = rs_evaluate(code, h)
    positions = frozenset(i for i in range(n) if codeword[i] != received[i])
    if len(positions) > code.radius:
        raise DecodeFailure(
            f"no codeword within {code.radius} errors of the received word")
    return h, positions


def decode_columns(code, columns, radius):
    """Decode words of `code` whose errors share columns.

    Column i carries g = code.n // len(columns) consecutive symbols of each
    word: word j is columns[i][j*g:(j+1)*g] read across i, in the order of
    `code.omega`. Returns (messages, corrected_columns): one message
    polynomial per word and the union of the columns the decodes corrected.
    Raises DecodeFailure when a word decode fails or the union has more
    than `radius` columns. Exact whenever g * radius <= code.radius.
    """
    columns = tuple(tuple(c) for c in columns)
    g, height = code.n // len(columns), len(columns[0])
    if (g * len(columns) != code.n or height % g
            or any(len(c) != height for c in columns)):
        raise ValueError(f"{len(columns)} columns cannot carry words of "
                         f"length {code.n} in uniform slices")
    messages, corrected = [], set()
    for start in range(0, height, g):
        word = tuple(v for col in columns for v in col[start:start + g])
        h, positions = rs_decode_unique(code, word)
        messages.append(h)
        corrected.update(pos // g for pos in positions)
    if len(corrected) > radius:
        raise DecodeFailure(
            f"nearest codeword differs on {len(corrected)} columns, more "
            f"than the radius {radius}")
    return tuple(messages), frozenset(corrected)


def rs_erasure_decode(code, known):
    """Recover the message from >= k error-free (position, value) pairs.

    Interpolates through the first k pairs and checks the rest; any
    disagreement raises InconsistentErasures since the inputs were claimed
    to be clean. Positions must be plain ints.
    """
    field = code.field
    known = list(known)
    positions = [pos for pos, _ in known]
    for pos in positions:
        if not isinstance(pos, int) or isinstance(pos, bool):
            raise ValueError(f"position {pos!r} is not an int")
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate positions in erasure input")
    for pos, val in known:
        if not 0 <= pos < code.n:
            raise ValueError(f"position {pos} outside codeword of length {code.n}")
        field.check(val)
    if len(known) < code.k:
        raise ValueError(f"need at least k = {code.k} clean symbols, got {len(known)}")
    head, tail = known[:code.k], known[code.k:]
    head_code = RsCode(field, code.k, [code.omega[pos] for pos, _ in head])
    h = rs_interpolate(head_code, [val for _, val in head])
    codeword = rs_evaluate(code, h)
    for pos, val in tail:
        if codeword[pos] != val:
            raise InconsistentErasures(
                f"symbol at position {pos} is off the interpolated polynomial")
    return h


def nearest_codeword_bruteforce(code, received, radius):
    """All (message, distance) pairs with distance <= radius, by full search.

    The list is sorted by distance, ties broken by canonical message order
    (lexicographic on the padded coefficient tuple). Enumerates all q^k
    messages, so it is gated by the enumeration budget. The radius must be
    a nonnegative int.
    """
    field, n, k = code.field, code.n, code.k
    if not isinstance(radius, int) or isinstance(radius, bool) or radius < 0:
        raise ValueError(f"radius must be a nonnegative int, got {radius!r}")
    received = tuple(received)
    if len(received) != n:
        raise ValueError(f"received word has {len(received)} symbols, expected {n}")
    for c in received:
        field.check(c)
    check_budget(field.order ** k, f"nearest-codeword search over {field!r}^{k}")
    hits = []
    for message in itertools.product(field.elements(), repeat=k):
        dist = sum(map(ne, rs_evaluate(code, message), received))
        if dist <= radius:
            hits.append((normalize(message), dist))
    hits.sort(key=lambda pair: pair[1])  # stable: canonical order within ties
    return hits
