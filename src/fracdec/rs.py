"""Reed-Solomon codes: evaluation encoding and unique decoding of words
whose errors share columns.

A message is the coefficient tuple of a polynomial of degree < k over a
prime field GF(q); the codeword is its evaluations at n distinct points.
Unique decoding follows Gao's extended-Euclid method: interpolate the
received word, run the partial GCD against the master root polynomial
until the remainder degree drops below (n + k) / 2, and read the message
off the quotient. The Euclid run and the quotient are computed on packed
integers too (see `_quotient`): a remainder and its cofactor share one
integer, so each quotient term is one multiply-add.

Every GF(q)-linear map the package applies is one `PackedMap`: each
column of its matrix is packed into one integer whose fixed-width digits
are the column's entries (Kronecker substitution), so applying the map is
one multiply-accumulate of the input symbols with the packed columns,
then one unpack of the output digits mod q. `packed_product` is that one
product; `packed_sum` adds, in the same accumulation, the products of a
few sparse runs of inputs with a second map of the same outputs and
width. `packed_map` builds a map from the columns of a matrix, from a
Kronecker product of two, or as a block-diagonal map, and chooses the
digit width so that no digit carries into the next, also where two maps
are summed; `tabulate_columns` tabulates a linear function by running
it once on all its unit inputs together.

`RsCode` builds only what its decoder reads, once: the `interpolation`
map through its points, whose Lagrange columns come from synthetic
division of its master polynomial and which `rs_interpolate` applies for
the whole package, and the start of its packed Euclid run. Every
evaluation map is built once, where its layout is fixed. Each scheme
config (`arraycode.ArrayConfig`) packs its maps at set-up: `encode_map`
(message to stored symbols), `download_map` (stored to served symbols)
and `transmit_map` (message straight to served symbols), the last two
at one width, so that a pipeline serves a message and its error offsets
in one `packed_sum`; and `decode_map` (see `served_map`), from decoded
words to their re-encoded served symbols and, for the trace config, on
to the message digits. `decode_columns` and the nearest-codeword oracle
in `bounds` each build one `served_map` per call. `RsCode` is a frozen
record (`records.Record`): its map and decode fields are derived slots,
left out of its equality, hash and repr. `PackedMap` is a
`collections.namedtuple`.

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
0. `packed_product`, `packed_sum`, `rs_interpolate` and `decode_words`
check nothing but that `packed_sum`'s two maps share outputs and width.

`decode_words`, the one decoder, run by the pipeline, the staged decode
and `decode_columns`, is the one place served symbols become words: per
word an interpolation and, unless it is a codeword, a Euclid run to a
quotient; then one product re-encodes every word in served order, and
reads any tail, such as the trace message digits, and one comparison
with the served symbols finds the columns that differ. Elsewhere
`arraycode.apply_error_pattern` checks every word and offset symbol, and
the stages both scheme configs share (`arraycode.ArrayConfig`) check
what enters them: `encode` each message symbol, `download` every stored
symbol, and `decode` every served one. Their `pipeline` checks its
message and error pattern as `encode` and `apply_error_pattern` do, then
serves them in one `packed_sum` and hands the served symbols to
`decode_words`. Every other operand is computed mod q from checked data:
the quotients a decode re-encodes, and the messages the brute-force
oracles, all in `bounds`, draw from `field.elements()`. This kernel
imports neither `polyring` nor the budget.
"""

import itertools
import struct
from collections import namedtuple
from operator import mul, ne

from .errors import DecodeFailure
from .primefield import PrimeField, prime_q
from .records import Record

# struct codes of the unsigned digits rs packs in C, by width in bits
_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


class RsCode(Record):
    """An (n, k) Reed-Solomon code over the prime field `field` with
    evaluation points `omega`.

    The derived fields are what decoding reads, built once, here, in
    O(n^2) memory, from master, the monic polynomial whose roots are the
    points (`poly_from_roots`):
    interpolation: the packed map from n values at the points to the n
        coefficients of their interpolant; input i's column is the Lagrange
        basis polynomial (master / (x - omega_i)) / master'(omega_i). One
        synthetic-division pass over master yields the quotient from the
        top down, and Horner's rule on it as it appears gives
        master'(omega_i), so the map costs O(n^2) after master.
    decode_width: the bit width of one digit of `_quotient`'s packed
        Euclid run: the least of 8, 16, 32 and 64, or past 64 the least
        multiple of 8, with (k + 1) * (q - 1) * (2q - 1)^t < 2^decode_width,
        t the radius; but 64 wherever that bound passes 64 bits and one
        division from reduced digits fits,
        (q - 1) * (1 + max(t + 1, k) * (q - 1)) < 2^64.
    decode_master: the Euclid run's start, master packed at decode_width
        above t + 1 zero digits (its cofactor, 0).
    Only `rs_interpolate` applies the map, and only `_quotient` reads the
    decode fields.
    """

    _fields = ("field", "k", "omega")
    __slots__ = _fields + ("interpolation", "decode_width",
                           "decode_master")

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
        self._set(interpolation=packed_map(q, lagrange),
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
    """The `count` digits, `width` bits each (a multiple of 8), of
    0 <= acc < 2^(count * width), lowest first, each reduced mod q, read
    off one `to_bytes`: at 1, 2, 4 or 8 bytes by one `struct.unpack`, at
    other sizes one slice per digit."""
    data = acc.to_bytes(count * width // 8, "little")
    code = _FORMATS.get(width)
    if code:
        return [d % q for d in struct.unpack(f"<{count}{code}", data)]
    size = width // 8
    return [int.from_bytes(data[i:i + size], "little") % q
            for i in range(0, len(data), size)]


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
    the number of inputs one output depends on (or, for maps that
    `packed_sum` adds, their joint count) and top bounds the digits, so a
    product with canonical symbols never carries from one digit into the
    next, and digits of up to 8 bytes are read in C. Build one with
    `packed_map`; only `packed_product` and `packed_sum` read the packed
    columns.
    """

    __slots__ = ()

    @property
    def inputs(self):
        return len(self.columns)


def packed_map(q, columns, right=((1,),), blocks=1, terms=None):
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
    terms: how many products of a symbol with a digit one output sums,
        by default the given columns times len(right). Maps that
        `packed_sum` adds in one accumulation each pass their joint
        count, so that they share a width that holds the joint sum.
    """
    columns = [tuple(c) for c in columns]
    right = [tuple(c) for c in right]
    height, stride = len(columns[0]), len(right[0])
    if terms is None:
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


def tabulate_columns(q, inputs, top, linear):
    """The columns of the GF(q)-linear map that `linear` computes, one
    tuple of canonical entries per input, from one run on all of its unit
    inputs together.

    `linear` receives the `inputs` unit vectors, each one integer with a
    digit per input, and returns the map's rows, one per output. It must
    combine its arguments only by sums and by products with nonnegative
    integers, keeping every digit congruent mod q to the exact value, and
    nonnegative and at most `top`, so that digits never carry. Each unit
    digit is the least whole number of bytes that holds `top`, so every
    row is read off one `to_bytes`.
    """
    width = 8 * -(-top.bit_length() // 8)
    rows = linear([1 << e * width for e in range(inputs)])
    return list(zip(*(_unpack(row, inputs, width, q) for row in rows)))


def packed_product(pmap, symbols):
    """The map applied to the vector that holds the canonical `symbols` at
    its first inputs and zeros after them, each output reduced mod q. The
    caller checks the symbols and their count: a non-canonical symbol
    corrupts neighbouring digits, and a short sequence leaves the remaining
    inputs zero.
    """
    return _unpack(sum(map(mul, symbols, pmap.columns)), pmap.outputs,
                   pmap.width, pmap.q)


def packed_sum(pmap, symbols, spread, offsets):
    """`packed_product(pmap, symbols)` plus `spread` applied to a vector
    that is zero but at the `offsets`, in one accumulation reduced mod q
    once. Each (start, values) pair of `offsets` holds canonical values at
    inputs start, start + 1, ..., so it costs len(values) products with
    `spread`'s columns there, whatever `spread`'s size. The two maps must
    share outputs and digit width, and that width must hold the joint
    digit sum (see `packed_map`'s `terms`); unchecked otherwise, like
    `packed_product`.
    """
    if (pmap.outputs, pmap.width) != (spread.outputs, spread.width):
        raise ValueError("summed maps need the same outputs and width")
    acc, columns = sum(map(mul, symbols, pmap.columns)), spread.columns
    for start, values in offsets:
        acc += sum(map(mul, values, columns[start:start + len(values)]))
    return _unpack(acc, pmap.outputs, pmap.width, pmap.q)


def _quotient(code, r1):
    """The message polynomial Gao's decoder reads off a word that is no
    codeword, from its interpolant `r1`, more than k canonical
    coefficients with a nonzero top one; not yet re-encoded:
    `decode_words` is its one caller, and checks the quotient against the
    word.

    Returns the quotient as a tuple of at most k coefficients, trailing
    zeros dropped. Raises DecodeFailure when its degree shows that no
    codeword lies within the radius.

    Gao's partial extended Euclid runs from (r0, v0) = (master, 0) and
    (r1, v1) = (interpolant, 1) while 2 deg r1 >= n + k. If a codeword
    lies within the radius, r1 / v1 is an exact division whose quotient is
    its message. So a quotient of degree >= k, or a zero quotient of a
    nonzero r1, fails at once; any other quotient is returned, and the
    re-encode check in `decode_words` keeps it only if it lies within the
    radius, which an inexact division's never does.

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
        return ()
    if not 0 <= top1 - v_degree < k:
        raise _no_codeword(code)
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
    return tuple(reversed(quotient))


def _no_codeword(code):
    """The failure of a word with no codeword within the code's radius."""
    return DecodeFailure(
        f"no codeword within {code.radius} errors of the received word")


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
    `decode_words` decodes the columns' symbols with the `served_map` of
    their layout. Returns (messages, corrected_columns) as `decode_words`
    does, without a tail. A single word is n columns of one symbol each.
    At radius 0 on the code punctured to some positions, it is an erasure
    decode: it returns the message exactly when the symbols at those
    positions lie on one codeword, and raises DecodeFailure otherwise.
    """
    count, n = len(columns), code.n
    g = n // count if count else 0
    height = len(columns[0]) if count else 0
    if (g * count != n or not height or height % g
            or set(map(len, columns)) != {height}):
        raise ValueError(f"{count} columns cannot carry words of "
                         f"length {n} in uniform slices")
    served = code.field.check_all(itertools.chain.from_iterable(columns))
    messages, _, corrected = decode_words(code, served, g, radius,
                                          served_map(code, g, height // g))
    return messages, corrected


def decode_words(code, served, g, radius, pmap):
    """Decode the words of `code` that a word's served symbols carry.

    `served` is flat and column by column: each column serves the same
    number of canonical symbols, g consecutive symbols of each word, so
    word j is symbols j*g to j*g+g-1 of every column, read across the
    columns, and its position p lies in column p // g. This is the one
    place served symbols become words. Unchecked, like `packed_product`:
    the caller passes canonical symbols, n of each word.

    Each word is interpolated; an interpolant of at most k coefficients
    is a codeword's message, and any other runs Gao's Euclid to a quotient
    (`_quotient`). Then one product with `pmap` (see `served_map`) takes
    every word's message coefficients, word j's coefficient c at input
    j*k + c, to the re-encoded served symbols in served order and then to
    any further outputs, the tail. One comparison with `served`, column by
    column, finds the columns where the re-encodes differ; only if a word
    could differ on more than code.radius symbols there (g a column) are
    its errors counted. When every word is a codeword, nothing is
    compared, and the product runs only for a tail.

    Returns (messages, tail, corrected_columns): one message polynomial per
    word, trailing zeros dropped, the tail, and those columns. Raises
    DecodeFailure when a word has no codeword within code.radius of it or
    the columns number more than `radius`. Exact whenever
    g * radius <= code.radius.
    """
    size = len(served)
    span = size // code.n * g  # the symbols one column serves
    if span == g:  # one word: the served symbols themselves
        words = [served]
    else:  # row r: symbol r of every column; word j interleaves g rows
        words = [served[r::span] for r in range(span)]
        if g > 1:
            words = [tuple(itertools.chain.from_iterable(zip(*words[r:r + g])))
                     for r in range(0, span, g)]
    k, t = code.k, code.radius
    messages, coeffs, clean = [], [], True
    for word in words:
        h = rs_interpolate(code, word)
        if len(h) > k:
            h, clean = _quotient(code, h), False
        messages.append(h)
        coeffs += h
        coeffs += (0,) * (k - len(h))
    if clean:  # each word is its own re-encode: only a tail is left to read
        out = packed_product(pmap, coeffs) if pmap.outputs > size else []
        return tuple(messages), out[size:], frozenset()
    out = packed_product(pmap, coeffs)
    corrected = frozenset(itertools.compress(itertools.count(), map(
        ne, zip(*[iter(out)] * span), zip(*[iter(served)] * span))))
    if len(corrected) * g > t:  # a word may differ on more than t symbols
        wrong = list(map(ne, out, served))
        rows = [wrong[r::span].count(True) for r in range(span)]
        if max(map(sum, zip(*[iter(rows)] * g))) > t:
            raise _no_codeword(code)
    if len(corrected) > radius:
        raise DecodeFailure(
            f"nearest codeword differs on {len(corrected)} columns, more "
            f"than the radius {radius}")
    return tuple(messages), out[size:], corrected


def served_map(code, g, words, tail=()):
    """The map `decode_words` applies to `words` words of `code` served g
    symbols a column: from each word's k coefficients (word j's
    coefficient c at input j*k + c) to its evaluations at the points,
    placed where the served symbols hold them, position p of word j at
    output (p // g) * g * words + j * g + p % g; then, if `tail` gives one
    column of canonical symbols per input, those as further outputs. Its
    width holds a sum over every input. One word with no tail is the
    code's evaluation map: from k coefficients to the values at its
    points, input j's column the points' j-th powers.
    """
    q, n, span = code.field.q, code.n, g * words
    powers, columns = power_columns(q, code.omega, code.k), []
    for j in range(words):
        for power in powers:
            column = [0] * (n * words)
            for u in range(g):
                column[j * g + u::span] = power[u::g]
            columns.append(column)
    return packed_map(q, [[*c, *t] for c, t in zip(
        columns, tail or itertools.repeat(()))])
