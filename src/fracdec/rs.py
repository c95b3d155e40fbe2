"""Reed-Solomon codes: evaluation encoding and unique decoding of words
whose errors share columns.

A message is the coefficient tuple of a polynomial of degree < k over a
prime field GF(q); the codeword is its evaluations at n distinct points.
Unique decoding follows Gao's extended-Euclid method: interpolate the
received word, run the partial GCD against the master root polynomial
until the remainder degree drops below (n + k) / 2, and read the message
off the quotient. The Euclid run and the quotient are computed on packed
integers too (see `_decode_unique`): a remainder and its cofactor share
one integer, so each quotient term is one multiply-add.

Every GF(q)-linear map the package applies is one `PackedMap`: each
column of its matrix is packed into one integer whose fixed-width digits
are the column's entries (Kronecker substitution), so applying the map is
one multiply-accumulate of the input symbols with the packed columns,
then one unpack of the output digits mod q. `packed_product` is that one
product. `packed_map` builds a map from the columns of a matrix, from a
Kronecker product of two, or as a block-diagonal map, and chooses the
digit width so that no digit carries into the next; `tabulate_map` packs
a linear function by running it once on all its unit inputs together.

`RsCode` builds its two maps once: `evaluation` at its points, and
`interpolation` through them, whose Lagrange columns come from synthetic
division of its master polynomial. `rs_evaluate` and `rs_interpolate`
apply them for the whole package. The folded encoder and the trace
scheme's encoder, downloads and decoder are each one product with a map
of their config too. `RsCode` is a frozen record (`records.Record`): its
maps are derived slots, left out of its equality, hash and repr.
`PackedMap` is a `collections.namedtuple`.

Every product trusts its operands, like `polyring`, and here that trust
is a precondition: every symbol must be a canonical integer in [0, q). A
non-canonical symbol is not reduced mod q: a negative one borrows from
the neighbouring digits and an oversized one can carry into them, so the
product is silently wrong. Symbols are checked once, where they enter,
before any product sees them. In this module only `decode_columns`, the
one checked decoder, checks its input: its columns' shape, then all their
symbols in one pass in column order, before it hands them to `decode_words`.
A single word is n columns of one symbol each, and an erasure decode is
`decode_columns` on the code punctured to the known positions, at radius
0. `rs_evaluate` is the one encoder. `packed_product`, `rs_evaluate`,
`rs_interpolate` and `decode_words` check nothing: `decode_words` takes
a word's served symbols, flat and column by column, forms the words of
the code from them, the one place in the package that does, and decodes
each through `_decode_unique`. Elsewhere `arraycode.apply_error_pattern`
checks every word and offset symbol, and the stages both scheme configs
share (`arraycode.ArrayConfig`) check what enters them: `encode` each
message symbol, `download` every stored symbol, and `decode` the
downloads through `decode_columns`. Their `pipeline` checks its message
and error pattern as `encode` and `apply_error_pattern` do, then keeps
canonical symbols in one flat list down to `decode_words`. Every other
operand is computed mod q from checked data: the quotient a decode
evaluates, the decoded streams the trace decode table reads, and the
messages the brute-force oracles, all in `bounds`, draw from
`field.elements()`. This kernel imports neither `polyring` nor the budget.
"""

import itertools
import struct
from collections import namedtuple
from operator import floordiv, mul, ne

from .errors import DecodeFailure
from .primefield import PrimeField, prime_q
from .records import Record

# struct codes of the unsigned digits rs packs in C, by width in bits
_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


class RsCode(Record):
    """An (n, k) Reed-Solomon code over the prime field `field` with
    evaluation points `omega`.

    The derived fields are built once, here, and take O(n^2) memory:
    master: the monic polynomial whose roots are the points, which unique
        decoding starts its Euclid run from.
    evaluation: the packed map from the k coefficients of a polynomial of
        degree < k to its values at the n points; input j's column lists
        the points' j-th powers.
    interpolation: the packed map from n values at the points to the n
        coefficients of their interpolant; input i's column is the Lagrange
        basis polynomial (master / (x - omega_i)) / master'(omega_i). One
        synthetic-division pass over master yields the quotient from the
        top down, and Horner's rule on it as it appears gives
        master'(omega_i), so the map costs O(n^2) after master.
    decode_width: the bit width of one digit of `_decode_unique`'s packed
        Euclid run: the least of 8, 16, 32 and 64, or past 64 the least
        multiple of 8, with (k + 1) * (q - 1) * (2q - 1)^t < 2^decode_width,
        t the radius; but 64 wherever that bound passes 64 bits and one
        division from reduced digits fits,
        (q - 1) * (1 + max(t + 1, k) * (q - 1)) < 2^64.
    decode_master: the Euclid run's start, master packed at decode_width
        above t + 1 zero digits (its cofactor, 0).
    Only `rs_evaluate` and `rs_interpolate` apply the two maps, and only
    `_decode_unique` reads the decode fields.
    """

    _fields = ("field", "k", "omega")
    __slots__ = _fields + ("master", "evaluation", "interpolation",
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
            lagrange.append([c * scale % q for c in quotient])
        t = (n - k) // 2
        bits = ((k + 1) * (q - 1) * (2 * q - 1) ** t).bit_length()
        if bits > 64 and ((q - 1) * (1 + max(t + 1, k) * (q - 1))
                          ).bit_length() <= 64:
            bits = 64
        decode_size = _digit_bytes(bits)
        self._set(master=master,
                  evaluation=packed_map(q, power_columns(q, omega, k)),
                  interpolation=packed_map(q, lagrange),
                  decode_width=8 * decode_size,
                  decode_master=_pack(master, decode_size)
                  << (t + 1) * 8 * decode_size)

    @property
    def n(self):
        return len(self.omega)

    @property
    def radius(self):
        """Largest number of errors unique decoding always corrects."""
        return (self.n - self.k) // 2


def poly_from_roots(field, roots):
    """Monic polynomial whose roots are exactly the given elements of the
    prime field `field`, multiplied by each x - r in place; TypeError for
    any other field."""
    q = prime_q(field, "a root polynomial")
    out = [1]
    for r in roots:
        out.append(1)
        for i in range(len(out) - 2, 0, -1):
            out[i] = (out[i - 1] - r * out[i]) % q
        out[0] = -r * out[0] % q
    return tuple(out)


def power_columns(q, points, k):
    """The k columns of the evaluation map at `points` of polynomials of
    degree < k: column j lists the points' j-th powers mod q."""
    columns, column = [], [1] * len(points)
    for _ in range(k):
        columns.append(column)
        column = [c * w % q for c, w in zip(column, points)]
    return columns


def _digit_bytes(bits):
    """The bytes of a digit of at least `bits` bits: 1, 2, 4 or 8, so that
    struct reads and writes it, or past 8 the least whole number."""
    size = -(-bits // 8)
    return 1 << (size - 1).bit_length() if size < 8 else size


def _pack(values, size):
    """One integer whose little-endian digits, `size` bytes each, are the
    nonnegative `values`, a sequence, packed in C: one `struct.pack` at 1,
    2, 4 or 8 bytes; at other sizes extended-slice assignment spreads the
    struct-packed values over a `bytearray`. Values of 2^64 or more are
    converted one by one."""
    code = _FORMATS.get(8 * size)
    if code:
        return int.from_bytes(struct.pack(f"<{len(values)}{code}", *values),
                              "little")
    need = -(-max(values, default=0).bit_length() // 8) or 1
    lane = 1 << (need - 1).bit_length()
    if lane > 8 or need > size:
        return int.from_bytes(b"".join(map(
            int.to_bytes, values, itertools.repeat(size),
            itertools.repeat("little"))), "little")
    lanes = struct.pack(f"<{len(values)}{_FORMATS[8 * lane]}", *values)
    digits = bytearray(size * len(values))
    for b in range(need):
        digits[b::size] = lanes[b::lane]
    return int.from_bytes(digits, "little")


def _unpack(acc, count, width, q):
    """The `count` digits, `width` bits each, of 0 <= acc < 2^(count *
    width), lowest first, each reduced mod q: at 1, 2, 4 or 8 bytes by one
    `struct.unpack`, at other widths by a shift and mask per digit."""
    code = _FORMATS.get(width)
    if code is None:
        mask = (1 << width) - 1
        return [(acc >> shift & mask) % q
                for shift in range(0, count * width, width)]
    return [d % q for d in struct.unpack(
        f"<{count}{code}", acc.to_bytes(count * width // 8, "little"))]


def rs_evaluate(code, h):
    """h at the code's points, through `code.evaluation`; h is at most k
    canonical coefficients, trailing zeros allowed."""
    return tuple(packed_product(code.evaluation, h))


def rs_interpolate(code, word):
    """The polynomial of degree < n through the n canonical symbols of
    `word` at the code's points, through `code.interpolation`."""
    coeffs = packed_product(code.interpolation, word)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class PackedMap(namedtuple("PackedMap", "q outputs width columns")):
    """A GF(q)-linear map from `inputs` to `outputs` symbols, packed as one
    integer per input symbol, whose digit r, `width` bits wide, is a
    nonnegative integer congruent mod q to the map's entry in output r.
    `width` is the least of 8, 16, 32 and 64 bits, or past 64 the least
    multiple of 8, with terms * (q - 1) * top < 2^width, where terms is
    the number of inputs one output depends on and top bounds the digits,
    so a product with canonical symbols never carries from one digit into
    the next, and digits of up to 8 bytes are read in C. Build one with
    `packed_map`; only `packed_product` reads the packed columns.
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
    size = _digit_bytes((terms * (q - 1) * top).bit_length())
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


def packed_product(pmap, symbols):
    """The map applied to the vector that holds the canonical `symbols` at
    its first inputs and zeros after them, each output reduced mod q. The
    caller checks the symbols and their count: a non-canonical symbol
    corrupts neighbouring digits, and a short sequence leaves the remaining
    inputs zero.
    """
    return _unpack(sum(map(mul, symbols, pmap.columns)), pmap.outputs,
                   pmap.width, pmap.q)


def _decode_unique(code, received):
    """Decode up to floor((n - k) / 2) errors in a word of n canonical
    symbols, unchecked: `decode_words` is its one caller.

    Returns (message, error_positions) with error_positions a frozenset.
    Raises DecodeFailure when no codeword lies within the radius; by the
    final re-encode check the result is never silently wrong.

    A word whose interpolant has at most k coefficients is a codeword, and
    that interpolant is its message: it is returned with no positions at
    once, before any Euclid step, division or re-encode.

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
    it. If the dividend's r digits are at most A_{i-1} and the divisor's
    A_i, a quotient of degree d leaves r digits at most
    A_{i+1} = A_{i-1} + (d + 1)(q - 1) A_i. The v digits obey it from 0 and
    1, against A_0 = A_1 = q - 1, so they stay at most A / s, s = q - 1.
    The final division, of degree e < k, leaves digits at most
    A + (e + 1)(q - 1) A / s. The run tracks A, and reduces every digit of
    the pairs it divides mod q (one unpack, one repack) before a division
    whose bound could reach 2^w, which sets A = q - 1 and s = 1.

    At the width of (k + 1)(q - 1)(2q - 1)^t that never happens: as
    A_{i-1} <= A_i and 1 + (d + 1)(q - 1) <= (2q - 1)^d, a division
    multiplies A by at most (2q - 1)^d, and every d >= 1 while they sum to
    n minus the degree of the last divisor, at most
    n - ceil((n + k) / 2) = t; so A <= (q - 1)(2q - 1)^t and the final
    digits stay at most (k + 1) A. At 64 bits one division from reduced
    digits fits (see `RsCode`), so a reduction always makes room.
    """
    n, k, q, width = code.n, code.k, code.field.q, code.decode_width
    mask, cap = (1 << width) - 1, 1 << width
    low = (code.radius + 1) * width
    r1 = rs_interpolate(code, received)
    if len(r1) <= k:  # the word is a codeword: r1 is its message
        return r1, frozenset()
    pair0, pair1 = code.decode_master, _pack(r1, width // 8) << low | 1
    top0, top1, v_degree = n, len(r1) - 1, 0
    a0 = a1 = spread = q - 1
    while 2 * top1 >= n + k:
        d = top0 - top1
        grow = (d + 1) * (q - 1)
        if a0 + grow * a1 >= cap:
            pair0, pair1 = _reduce(pair0, width, q), _reduce(pair1, width, q)
            a0, a1, spread = q - 1, q - 1, 1
        inv = pow((pair1 >> low + top1 * width) % q, -1, q)
        for s in range(d, -1, -1):
            f = (pair0 >> low + (top1 + s) * width & mask) * inv % q
            if f:
                pair0 += (q - f) * pair1 << s * width
        a0, a1 = a1, a0 + grow * a1
        v_degree += d
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
        if a1 + (top1 - v_degree + 1) * (q - 1) * a1 // spread >= cap:
            pair1 = _reduce(pair1, width, q)
        r, v = pair1 >> low, pair1 & (1 << low) - 1
        inv = pow((v >> v_degree * width) % q, -1, q)
        quotient = []
        for s in range(top1 - v_degree, -1, -1):
            f = (r >> (v_degree + s) * width & mask) * inv % q
            quotient.append(f)
            if f:
                r += (q - f) * v << s * width
        h = tuple(reversed(quotient))
    codeword = rs_evaluate(code, h)
    positions = frozenset(itertools.compress(range(n),
                                             map(ne, codeword, received)))
    if len(positions) > code.radius:
        raise DecodeFailure(
            f"no codeword within {code.radius} errors of the received word")
    return h, positions


def _reduce(pair, width, q):
    """`pair` with every `width`-bit digit reduced mod q."""
    return _pack(_unpack(pair, -(-pair.bit_length() // width), width, q),
                 width // 8)


def decode_columns(code, columns, radius):
    """Decode words of `code` whose errors share columns.

    Column i, a sequence, carries g = code.n // len(columns) consecutive
    symbols of each word: word j is columns[i][j*g:(j+1)*g] read across i,
    in the order of `code.omega`. The columns' shape is checked (at least
    one column, each of the same positive height, a multiple of g), then
    every symbol, once and in column order, before the first decode; then
    `decode_words` decodes the columns' symbols and returns its result.
    A single word is n columns of one symbol each. At radius 0 on the
    code punctured to some positions, it is an erasure decode: it returns
    the message exactly when the symbols at those positions lie on one
    codeword, and raises DecodeFailure otherwise.
    """
    count, n = len(columns), code.n
    g = n // count if count else 0
    height = len(columns[0]) if count else 0
    if (g * count != n or not height or height % g
            or set(map(len, columns)) != {height}):
        raise ValueError(f"{count} columns cannot carry words of "
                         f"length {n} in uniform slices")
    served = code.field.check_all(itertools.chain.from_iterable(columns))
    return decode_words(code, served, g, radius)


def decode_words(code, served, g, radius):
    """Decode the words of `code` that a word's served symbols carry.

    `served` is flat and column by column: each column serves the same
    number of canonical symbols, g consecutive symbols of each word, so
    word j is symbols j*g to j*g+g-1 of every column, read across the
    columns, and its position p lies in column p // g. This is the one
    place served symbols become words. Unchecked, like `packed_product`:
    the caller passes canonical symbols, n of each word.

    Returns (messages, corrected_columns): one message polynomial per word
    and the union of the columns the decodes corrected. Raises
    DecodeFailure when a word decode fails or the union has more than
    `radius` columns. Exact whenever g * radius <= code.radius.
    """
    span = len(served) // code.n * g  # the symbols one column serves
    if span == g:  # one word: the served symbols themselves
        words = [served]
    else:  # row r: symbol r of every column; word j interleaves g rows
        words = [served[r::span] for r in range(span)]
        if g > 1:
            words = [tuple(itertools.chain.from_iterable(zip(*words[r:r + g])))
                     for r in range(0, span, g)]
    messages, corrected = [], set()
    for word in words:
        h, positions = _decode_unique(code, word)
        messages.append(h)
        corrected.update(map(floordiv, positions, itertools.repeat(g)))
    if len(corrected) > radius:
        raise DecodeFailure(
            f"nearest codeword differs on {len(corrected)} columns, more "
            f"than the radius {radius}")
    return tuple(messages), frozenset(corrected)
