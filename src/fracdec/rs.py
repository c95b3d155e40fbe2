"""Reed-Solomon codes: evaluation encoding and unique decoding of words
whose errors share columns.

A message is the coefficient tuple of a polynomial of degree < k over a
prime field GF(q); the codeword is its evaluations at n distinct points.
Unique decoding follows Gao's extended-Euclid method: interpolate the
received word, run the partial GCD against the master root polynomial
until the remainder degree drops below (n + k) / 2, and read the message
off the quotient. The Euclid run and the quotient are computed on packed
integers too (see `_quotient`): a remainder and its cofactor share one
integer, so each quotient term is one multiply-add, and where a proven
bound on the digits would reach the digit width, the run folds every
digit of both pairs in a few big-integer operations, mapping
hi * 2^s + lo to hi * (2^s mod q) + lo, and reduces each digit mod q only
where no fold makes room.

Every GF(q)-linear map the package applies is one `PackedMap`: each
column of its matrix is packed into one integer whose fixed-width digits
are the column's entries (Kronecker substitution), so applying the map is
one multiply-accumulate of the input symbols with the packed columns,
then one unpack of the output digits mod q. `packed_product` is that one
product; `packed_sum` adds, in the same accumulation, the products of a
few sparse runs of inputs with a second map of the same outputs and
width. `packed_map` builds a map from the columns of a matrix or from a
Kronecker product of two, and chooses the digit width so that no digit
carries into the next, also where two maps are summed; `block_map`
combines a map's columns block by block, `leading_map` keeps a map's
first outputs, and `tabulate_columns`
tabulates a linear function by running it once on all its unit inputs.

`RsCode` builds only what its decoder reads, once: the `interpolation`
map through its points, whose Lagrange columns come from synthetic
division of its master polynomial, and the start and tables of its
packed Euclid run: its folds and, for small q, its inverses. Every map
of a layout is built once, where the layout is fixed: each scheme
config's (`arraycode.ArrayConfig`) at set-up, and one `served_map` and
one `interpolation_map` per `decode_columns` call. `interpolation_map`
takes served symbols to themselves and then their words' interpolants,
so a config's `download_map` and `transmit_map` reach both outputs too,
and a pipeline serves a message and its error offsets, and interpolates
them, in one `packed_sum`. `RsCode` is a frozen
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
and `decode_columns`, takes the served symbols and their words'
interpolants and never interpolates: per word that is no codeword a
Euclid run to a quotient; then one product re-encodes every word in
served order, and reads any tail, such as the trace message digits, and
one comparison with the served symbols finds the columns that differ.
Elsewhere `arraycode.apply_error_pattern` checks every word and offset
symbol, and the stages both scheme configs share (`arraycode.ArrayConfig`)
check what enters them: `encode` each message symbol, `download` every stored
symbol, and `decode` every served one. Their `pipeline` checks its
message and error pattern as `encode` and `apply_error_pattern` do, then
serves them in one `packed_sum` and hands its outputs to
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

# The largest q whose code keeps a table of inverses for its Euclid run. A
# lookup saves about 0.1 us a division over pow(x, -1, q), 2-6% of a decode
# at the radius, and the table costs about 0.07 us an entry to build (Python
# 3.11): at q = 127 it takes 9 us, a fifth of an (8, 2) code's build, and
# pays after about 6 such decodes; at q = 509, 44 us, more than the build,
# and about 26 decodes.
_INVERSE_LIMIT = 1 << 7


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
    decode_folds: the run's folds (see `_quotient`), only at that capped
        width of 64: one for each s of 32, 16 and 8 with q < 2^s,
        (s, c = 2^s mod q, 2^s - c, a mask of the 64 - s low bits of each
        of n + t + 2 digits); otherwise empty.
    decode_inverses: the inverses mod q, entry x of x (0 at 0), for
        q <= _INVERSE_LIMIT; None above it, where the run calls pow.
    Only `rs_interpolate` and `interpolation_map` read the map, and only
    `_quotient` the decode fields. Beside the start, n + t + 2 digits of
    decode_width bits, the run's tables take O(n) words: at most three
    masks of n + t + 2 64-bit digits and at most _INVERSE_LIMIT inverses.
    From about 25 points on, the start and masks together take fewer bits
    than the map's n^2 digits.
    """

    _fields = ("field", "k", "omega")
    __slots__ = _fields + ("interpolation", "decode_width", "decode_master",
                           "decode_folds", "decode_inverses")

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
        capped = bits > 64 and ((q - 1) * (1 + max(t + 1, k) * (q - 1))
                                ).bit_length() <= 64
        width = 64 if capped else 8 * _digit_bytes(bits)
        low = (t + 1) * width
        self._set(interpolation=packed_map(q, lagrange),
                  decode_width=width,
                  decode_master=_pack(master, width // 8) << low,
                  decode_folds=tuple(
                      (s, pow(2, s, q), (1 << s) - pow(2, s, q),
                       _digit_mask(64 - s, n + t + 2))
                      for s in (32, 16, 8) if capped and q < 1 << s),
                  decode_inverses=_inverses(q) if q <= _INVERSE_LIMIT
                  else None)

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


def _digit_mask(bits, count):
    """The mask of the `bits` low bits, a multiple of 8, of each of `count`
    64-bit digits."""
    return int.from_bytes(bytes(8 - bits // 8).rjust(8, b"\xff") * count,
                          "little")


def _inverses(q):
    """The inverses mod the prime q as a tuple: entry x is the inverse of
    x, and entry 0 is 0. Each entry comes from an earlier one, as
    q = (q // x) x + q % x gives 1/x = -(q // x) / (q % x) mod q."""
    inverses = [0, 1]
    for x in range(2, q):
        inverses.append(-(q // x) * inverses[q % x] % q)
    return tuple(inverses)


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
    multiple of 8, above the largest digit sum an output can reach: over
    its inputs, q - 1 times their digits there (for maps that `packed_sum`
    adds, the sum of both maps' sums). So a product with canonical symbols
    never carries from one digit into the next, and digits of up to 8
    bytes are read in C. Build one with `packed_map`; only
    `packed_product` and `packed_sum` read the packed columns.
    """

    __slots__ = ()

    @property
    def inputs(self):
        return len(self.columns)


def packed_map(q, columns, right=((1,),), bound=None):
    """Pack a GF(q)-linear map given by the columns of its matrix, each a
    sequence of canonical symbols, one column per input symbol.

    right: the map is the Kronecker product of `columns` with this second
        matrix, also given by columns: input a * len(right) + b has column
        columns[a] (x) right[b], whose entry i * len(right[0]) + u is
        columns[a][i] * right[b][u]. Each packed column is one product of
        two packed integers, so its digits are these products unreduced,
        at most (q - 1)^2. The default, a 1 x 1 identity, leaves the map
        as given, with canonical entries.
    bound: the largest digit sum an output can reach (see `PackedMap`),
        by default q - 1 times the largest digit, times every input; the
        width is the least that holds it. Maps that `packed_sum` adds in
        one accumulation each pass their joint bound, so that they share
        a width that holds the joint sum.
    """
    columns = [tuple(c) for c in columns]
    right = [tuple(c) for c in right]
    height, stride = len(columns[0]), len(right[0])
    if bound is None:
        bound = (len(columns) * len(right) * (q - 1) ** 2
                 * max(map(max, right)))
    size = _digit_bytes(bound.bit_length())
    right = [_pack(c, size) for c in right]
    packed = [c * r for c in (_pack(c, size * stride) for c in columns)
              for r in right]
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
    digit sum (see `packed_map`'s `bound`); unchecked otherwise, like
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
    Inverses come from `decode_inverses`, or pow above its q.

    No digit carries. Every addend is nonnegative, so each digit only
    grows, by at most (q - 1) times a digit of pair1 per term that reaches
    it. If the dividend's r digits are at most A_{i-1} and the divisor's
    A_i, a quotient of degree d leaves r digits at most
    A_{i+1} = A_{i-1} + (d + 1)(q - 1) A_i. The v digits obey it from 0 and
    1, against A_0 = A_1 = q - 1, so they stay at most A / s, s = q - 1.
    The final division, of degree e < k, leaves digits at most
    A + (e + 1)(q - 1) A / s. The run tracks A for each pair, and before a
    division whose bound could reach 2^w it makes room in the pairs it
    divides, and sets s = 1:
    - by folds, where their bounds leave room. The fold at b bits, one of
      the code's `decode_folds` (b = 32, 16, 8 with q < 2^b), maps each
      digit x = hi 2^b + lo, lo < 2^b, to hi c + lo, c = 2^b mod q, which
      is congruent to x. As c < 2^b, the new digit is at most x, and at
      most (A >> b) c + 2^b - 1 when x <= A; v digits, at most A / s <= A,
      too. So after each fold in turn the pair's new A is the least of A
      and that bound (`_fold_bound`), which the folds shrink from near 2^w
      while q is small. A new digit and its term hi c stay at most the old
      A < 2^w, so the packed fold carries nowhere: one shift and one mask
      give every hi, and one multiply and one subtraction take
      hi (2^b - c) from each digit, which leaves hi c + lo >= 0 and so
      borrows nowhere; hi (2^b - c) <= x < 2^w, so the product carries
      nowhere either (`_fold`).
    - otherwise, by reducing every digit mod q (one unpack, one repack),
      which sets A = q - 1.

    At the width of (k + 1)(q - 1)(2q - 1)^t that never happens: as
    A_{i-1} <= A_i and 1 + (d + 1)(q - 1) <= (2q - 1)^d, a division
    multiplies A by at most (2q - 1)^d, and every d >= 1 while they sum to
    n minus the degree of the last divisor, at most
    n - ceil((n + k) / 2) = t; so A <= (q - 1)(2q - 1)^t and the final
    digits stay at most (k + 1) A. At 64 bits one division from reduced
    digits fits (see `RsCode`), so an exact reduction always makes room,
    and folds are taken only where they do: at q = 31 they take a bound
    near 2^64 below 2^15, which leaves room for about eight more
    divisions, but at q = 2^31 - 1 only below 2^34, and a division
    multiplies it by about 2q, so that run reduces exactly.
    """
    n, k, q, width = len(code.omega), code.k, code.field.q, code.decode_width
    mask, cap = (1 << width) - 1, 1 << width
    folds, inverses = code.decode_folds, code.decode_inverses
    low = ((n - k) // 2 + 1) * width
    pair0, pair1 = code.decode_master, _pack(r1, width // 8) << low | 1
    top0, top1, lead, v_degree = n, len(r1) - 1, r1[-1], 0
    a0 = a1 = spread = q - 1
    while 2 * top1 >= n + k:
        d = top0 - top1
        grow = (d + 1) * (q - 1)
        a2 = a0 + grow * a1
        if a2 >= cap:
            b0, b1 = _fold_bound(a0, folds), _fold_bound(a1, folds)
            if b0 + grow * b1 < cap:
                pair0, pair1, a0, a1 = (_fold(pair0, folds),
                                        _fold(pair1, folds), b0, b1)
            else:
                pair0, pair1 = (_reduce(pair0, width, q),
                                _reduce(pair1, width, q))
                a0 = a1 = q - 1
            a2, spread = a0 + grow * a1, 1
        inv = inverses[lead] if inverses else pow(lead, -1, q)
        at = low + top1 * width
        for s in range(d, -1, -1):
            f = (pair0 >> at + s * width & mask) * inv % q
            if f:
                pair0 += (q - f) * pair1 << s * width
        a0, a1 = a1, a2
        v_degree += d
        top0, lead = top1, 0
        while not lead and top1:
            top1, at = top1 - 1, at - width
            lead = (pair0 >> at & mask) % q
        if not lead:
            top1 = -1
        pair0, pair1 = pair1, pair0 & (1 << low + (top1 + 1) * width) - 1
    if top1 < 0:
        return ()
    if not 0 <= top1 - v_degree < k:
        raise _no_codeword(code)
    grow = (top1 - v_degree + 1) * (q - 1)
    if a1 + grow * a1 // spread >= cap:
        b1 = _fold_bound(a1, folds)
        pair1 = (_fold(pair1, folds) if b1 + grow * b1 < cap
                 else _reduce(pair1, width, q))
    r, v = pair1 >> low, pair1 & (1 << low) - 1
    lead = (v >> v_degree * width) % q
    inv = inverses[lead] if inverses else pow(lead, -1, q)
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


def _fold_bound(bound, folds):
    """The bound on the digits, at most `bound`, of a pair `_fold` folds:
    each fold takes it to the least of itself and
    (bound >> s) * (2^s mod q) + 2^s - 1."""
    for shift, residue, _, _ in folds:
        bound = min(bound, (bound >> shift) * residue + (1 << shift) - 1)
    return bound


def _fold(pair, folds):
    """`pair` with each digit hi * 2^s + lo, lo < 2^s, mapped to
    hi * (2^s mod q) + lo by each fold in turn: hi * (2^s - 2^s mod q) is
    taken from it."""
    for shift, _, drop, highs in folds:
        pair -= (pair >> shift & highs) * drop
    return pair


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
    `decode_words` decodes them, with the interpolants of one product with
    their layout's `interpolation_map`, and that layout's `served_map`.
    Returns (messages, corrected_columns) as `decode_words` does, without
    a tail. A single word is n columns of one symbol each. At radius 0 on
    the code punctured to some positions, it is an erasure decode: it
    returns the message exactly when the symbols at those positions lie
    on one codeword, and raises DecodeFailure otherwise.
    """
    count, n = len(columns), code.n
    g = n // count if count else 0
    height = len(columns[0]) if count else 0
    if (g * count != n or not height or height % g
            or set(map(len, columns)) != {height}):
        raise ValueError(f"{count} columns cannot carry words of "
                         f"length {n} in uniform slices")
    served = code.field.check_all(itertools.chain.from_iterable(columns))
    words = height // g
    messages, _, corrected = decode_words(code, served, packed_product(
        interpolation_map(code, g, words), served)[len(served):], g, radius,
        served_map(code, g, words))
    return messages, corrected


def decode_words(code, served, interpolants, g, radius, pmap):
    """Decode the words of `code` that a word's served symbols carry.

    `served` is flat and column by column: each column serves the same
    number of canonical symbols, g consecutive symbols of each word, so
    word j is symbols j*g to j*g+g-1 of every column, read across the
    columns, and its position p lies in column p // g. `interpolants`, a
    list, holds coefficient c of word j's interpolant at c*words + j, as
    `interpolation_map` gives them. Unchecked, like `packed_product`.

    An interpolant of at most k coefficients is a codeword's message, and
    any other runs Gao's Euclid to a quotient (`_quotient`). Then one
    product with `pmap` (see `served_map`) takes every word's message
    coefficients, word j's coefficient c at input j*k + c, to the
    re-encoded served symbols in served order and then to any further
    outputs, the tail. One comparison with `served`, column by column,
    finds the columns where the re-encodes differ; only if a word could
    differ on more than code.radius symbols there (g a column) are its
    errors counted. When every word is a codeword, nothing is compared,
    and the product runs only for a tail.

    Returns (messages, tail, corrected_columns): one message polynomial per
    word, trailing zeros dropped, the tail, and those columns. Raises
    DecodeFailure when a word has no codeword within code.radius of it or
    the columns number more than `radius`. Exact whenever
    g * radius <= code.radius.
    """
    n, k, size = len(code.omega), code.k, len(served)
    t = (n - k) // 2
    span, words = size // n * g, len(interpolants) // n
    messages, coeffs, clean = [], [], True
    for j in range(words):
        h = interpolants[j::words]
        while h and not h[-1]:
            h.pop()
        if len(h) > k:
            h, clean = _quotient(code, h), False
        messages.append(tuple(h))
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


def interpolation_map(code, g, words, bound=0):
    """The map from `words` words of `code` served g symbols a column, as
    `served_map` places them, to themselves and then every word's
    interpolant, coefficient c of word j at output n*words + c*words + j:
    the column of position p of word j is a one at its own output, then
    code.interpolation's column p, its digit c moved to that output. Its
    width holds the largest of `bound` (see `packed_map`) and its own
    digit sum, n * (q - 1)^2 at an interpolant output."""
    q, n, span = code.field.q, len(code.omega), g * words
    basis, old = code.interpolation, code.interpolation.width // 8
    size = _digit_bytes(max(bound, n * (q - 1) ** 2).bit_length())
    lagrange = []
    for column in basis.columns:
        data = column.to_bytes(n * old, "little")
        digits = bytearray(2 * n * words * size)
        for b in range(old):
            digits[n * words * size + b::words * size] = data[b::old]
        lagrange.append(int.from_bytes(digits, "little"))
    return PackedMap(q, 2 * n * words, 8 * size, tuple(
        lagrange[s // span * g + s % g] << s % span // g * 8 * size
        | 1 << s * 8 * size for s in range(n * words)))


def block_map(pmap, weights):
    """The map whose column i*l + u is the sum of `pmap`'s columns i*S + r
    times weights[i][u][r], unreduced, for n = len(weights) blocks of
    S = pmap.inputs // n inputs: block-diagonal if pmap's are."""
    per, columns = pmap.inputs // len(weights), []
    for i, column in enumerate(weights):
        block = pmap.columns[i * per:i * per + per]
        columns += [sum(map(mul, w, block)) for w in column]
    return pmap._replace(columns=tuple(columns))


def leading_map(pmap, outputs):
    """`pmap` cut to its first `outputs` outputs, at its width: each
    column with the digits above them masked off."""
    mask = (1 << outputs * pmap.width) - 1
    return pmap._replace(outputs=outputs,
                         columns=tuple(c & mask for c in pmap.columns))
