"""Brute-force reference decoders the tests compare the library against."""

import functools
import itertools

from fracdec import polyring
from fracdec.budget import check_budget
from fracdec.errors import DecodeFailure
from fracdec.polyring import degree, normalize
from fracdec.rs import poly_from_roots, rs_interpolate


# Polynomial arithmetic through the field's own add/sub/mul/neg/div, so it
# runs over any field, GF(q^l) included: the generic reference the integer
# `fracdec.polyring` is compared against, and the arithmetic of the
# oracles below. Polynomials are normalized tuples, constant term first.

def poly_add(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    return normalize([*map(field.add, a, b), *a[len(b):]])


def poly_sub(field, a, b):
    return poly_add(field, a, tuple(map(field.neg, b)))


def poly_mul(field, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ca, cb))
    return normalize(out)


def poly_pow(field, a, exponent):
    """a**exponent by repeated squaring."""
    if exponent < 0:
        raise ValueError("polynomial exponent must be nonnegative")
    result = (1,)
    square = a
    while exponent:
        if exponent & 1:
            result = poly_mul(field, result, square)
        exponent >>= 1
        if exponent:
            square = poly_mul(field, square, square)
    return result


def poly_divmod(field, a, b):
    """Long division: (quotient, remainder) with deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if len(a) < len(b):
        return (), a
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    inv_lead = field.div(1, b[-1])
    for shift in range(len(a) - len(b), -1, -1):
        factor = field.mul(rem[shift + len(b) - 1], inv_lead)
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(factor, c))
    return normalize(quot), normalize(rem)


def poly_eval(field, a, x):
    """Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = field.add(field.mul(acc, x), c)
    return acc


def rs_evaluate(code, h):
    """The codeword of message h in the RS code `code`: h at each of the
    code's points by Horner's rule, trailing zeros allowed."""
    return tuple(poly_eval(code.field, h, w) for w in code.omega)


def interpolate(field, points):
    """Lagrange's formula, building each basis polynomial from its roots."""
    points = list(points)
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x coordinates")
    acc = [0] * len(points)
    for x_i, y_i in points:
        basis, denom = (1,), 1
        for x_j in xs:
            if x_j != x_i:
                basis = poly_mul(field, basis, (field.neg(x_j), 1))
                denom = field.mul(denom, field.sub(x_i, x_j))
        scale = field.div(y_i, denom)
        for d, c in enumerate(basis):
            acc[d] = field.add(acc[d], field.mul(scale, c))
    return normalize(acc)


def trial_decode_columns(field, columns, column_points, degree_bound, t_star):
    """Interpolate-and-verify decoding for evaluation array codes.

    Tries discarding every subset of up to t_star columns, smallest subsets
    first and each size in ascending index order. For each trial it
    interpolates a candidate from the first degree_bound surviving
    evaluations and accepts iff the candidate reproduces every surviving
    evaluation. Returns (coefficients, discarded_columns) for the first
    accepted trial; raises DecodeFailure when none is.

    When the columns carry distinct evaluation points of one polynomial of
    degree < degree_bound and at most t_star columns are corrupted, the
    clean-column agreement count exceeds what two distinct candidates can
    share, so the accepted candidate is unique and correct.
    """
    n = len(columns)
    if len(column_points) != n:
        raise ValueError("need one point tuple per column")
    for pts, col in zip(column_points, columns):
        if len(pts) != len(col):
            raise ValueError("column/point length mismatch")
    pairs_per_column = [tuple(zip(pts, col))
                        for pts, col in zip(column_points, columns)]
    for size in range(min(t_star, n) + 1):
        for discard in itertools.combinations(range(n), size):
            discarded = set(discard)
            pairs = [pair for i in range(n) if i not in discarded
                     for pair in pairs_per_column[i]]
            if len(pairs) < degree_bound:
                continue
            candidate = interpolate(field, pairs[:degree_bound])
            if all(poly_eval(field, candidate, x) == y
                   for x, y in pairs[degree_bound:]):
                return candidate, frozenset(discard)
    raise DecodeFailure(
        f"no consistent candidate after discarding up to {t_star} columns")


def rs_decode_euclid(code, received):
    """One word's unique decode, one coefficient at a time: Gao's partial
    extended Euclid from the master polynomial and the interpolant,
    dividing in `fracdec.polyring`, then the exact quotient r1 / v1 and
    the re-encode check, as the packed decoder (`fracdec.rs._quotient`,
    then the re-encode in `fracdec.rs.decode_words`) does them. The
    reference the packed decoder is compared against, DecodeFailure
    messages included."""
    field, n, k = code.field, code.n, code.k
    received = tuple(received)
    if len(received) != n:
        raise ValueError(f"received word has {len(received)} symbols, expected {n}")
    for c in received:
        field.check(c)
    failure = f"no codeword within {code.radius} errors of the received word"
    r0 = poly_from_roots(field, code.omega)
    r1 = rs_interpolate(code, received)
    v0, v1 = (), (1,)
    while 2 * degree(r1) >= n + k:
        quot, rem = polyring.poly_divmod(field, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, poly_sub(field, v0, polyring.poly_mul(field, quot, v1))
    h, rem = polyring.poly_divmod(field, r1, v1)
    if rem != () or degree(h) >= k:
        raise DecodeFailure(failure)
    codeword = rs_evaluate(code, h)
    positions = frozenset(i for i in range(n) if codeword[i] != received[i])
    if len(positions) > code.radius:
        raise DecodeFailure(failure)
    return h, positions


def decode_words_per_word(code, served, g, radius):
    """`fracdec.rs.decode_words` as it ran word by word before the one
    product: each word of the served symbols (word j's position p is
    served symbol (p // g) * span + j * g + p % g, span the symbols a
    column serves) is interpolated, run through Euclid, re-encoded and
    checked against the radius on its own (`rs_decode_euclid`), and then
    the union of the columns the words corrected is checked. Returns
    (messages, corrected_columns) or raises DecodeFailure with the
    library's texts."""
    span = len(served) // code.n * g
    messages, corrected = [], set()
    for j in range(span // g):
        word = [served[p // g * span + j * g + p % g] for p in range(code.n)]
        h, positions = rs_decode_euclid(code, word)
        messages.append(h)
        corrected.update(p // g for p in positions)
    if len(corrected) > radius:
        raise DecodeFailure(
            f"nearest codeword differs on {len(corrected)} columns, more "
            f"than the radius {radius}")
    return tuple(messages), frozenset(corrected)


def decode_reference(cfg, served):
    """(message, corrected_columns) of a config's decode of its served
    symbols, flat and column by column, by the per-word flow
    (`decode_words_per_word`) and, for a trace config, the scalar peel
    (`ts_peel`); a folded config's message is its one word's polynomial
    padded to kl."""
    polys, corrected = decode_words_per_word(cfg.served_code, served, cfg.g,
                                             cfg.radius)
    if cfg.scheme == "ts":
        return ts_peel(cfg, polys), corrected
    (h,) = polys
    return h + (0,) * (cfg.message_length - len(h)), corrected


def ts_project_polys(cfg, message):
    """The l coordinate polynomials h_u of a trace-scheme message.

    h_u has the u-th trace coordinate of each message coefficient, so it is
    a polynomial over the base field of degree < k, and evaluating the
    stack (h_0(w), ..., h_{l-1}(w)) reproduces the stored column at w.
    """
    coords = [cfg.basis.project(a) for a in message]
    return tuple(normalize(tuple(c[u] for c in coords)) for u in range(cfg.l))


def irreducible_by_trial_division(base, coeffs):
    """Whether a monic polynomial over the prime field `base` is irreducible,
    by dividing it by every monic polynomial of degree 1 to deg/2."""
    coeffs = normalize(coeffs)
    deg = degree(coeffs)
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(base.elements(), repeat=d):
            if poly_divmod(base, coeffs, (*lower, 1))[1] == ():
                return False
    return True


def ts_peel(cfg, streams):
    """The message the peel reads off the m decoded streams of a trace
    config, one stream at a time and through the field methods: the
    reference the config's packed decode table is compared against.

    Each layer interpolates the streams' values on the annihilator subsets
    into one coordinate polynomial h_u, subtracts it and divides stream j
    by p_j exactly; after l - m layers stream j is h_{l-m+j}, and symbol t
    is reconstructed from its trace coordinates (h_0[t], ..., h_{l-1}[t]).
    """
    base, k = cfg.base, cfg.k
    streams = [normalize(g) for g in streams]
    coord_polys = []
    for _ in range(cfg.l - cfg.m):
        h_u = interpolate(base, [(a, poly_eval(base, g, a))
                                 for g, subset in zip(streams, cfg.subsets)
                                 for a in subset])
        coord_polys.append(h_u)
        quotients = []
        for g, p_j in zip(streams, cfg.annihilators):
            diff = normalize(base.sub(x, y) for x, y in itertools.zip_longest(
                g, h_u, fillvalue=0))
            quot, rem = poly_divmod(base, diff, p_j)
            assert rem == (), "p_j must divide g_j - h_u exactly"
            quotients.append(quot)
        streams = quotients
    coord_polys = [h + (0,) * (k - len(h)) for h in (*coord_polys, *streams)]
    return tuple(map(cfg.basis.reconstruct, zip(*coord_polys)))


def map_digits(pmap):
    """Each packed column of an `rs.PackedMap` as the tuple of its
    `outputs` digits, unreduced, lowest first: the map's matrix, read back
    without `rs.packed_product`."""
    mask = (1 << pmap.width) - 1
    return [tuple(column >> shift & mask
                  for shift in range(0, pmap.outputs * pmap.width, pmap.width))
            for column in pmap.columns]


def largest_digit_sum(pmap):
    """The largest digit a product of the map with canonical symbols can
    reach: over every output, the sum of (q - 1) times the output's digit
    in each column. No digit carries while this is below 2^width."""
    return max(sum((pmap.q - 1) * d for d in row)
               for row in zip(*map_digits(pmap)))


@functools.lru_cache(maxsize=4)
def _ts_download_table(cfg):
    """(message, downloads) for every message of a trace config."""
    check_budget(cfg.ext.order ** cfg.k,
                 f"download table over {cfg.ext!r}^{cfg.k}")
    return tuple((message, cfg.download(word).per_column)
                 for message, word in cfg.codewords())


def ts_decode_bruteforce(cfg, per_column, radius):
    """The message whose downloads differ from `per_column` in at most
    `radius` columns, or None when there is none.

    Enumerates every message, gated by the budget. Raises ValueError when
    two messages qualify: the radius is then too large to name one.
    """
    per_column = tuple(tuple(c) for c in per_column)
    hits = [message for message, downloads in _ts_download_table(cfg)
            if sum(a != b for a, b in zip(downloads, per_column)) <= radius]
    if len(hits) > 1:
        raise ValueError(f"{len(hits)} messages lie within {radius} columns")
    return hits[0] if hits else None


class ExtFieldReference:
    """GF(q^l) arithmetic without `polyring`: a schoolbook convolution of
    coordinate vectors, folded back below degree l with a table of the
    reduced powers x^(l+i) mod modulus. The independent reference
    `ExtField` arithmetic is tested against."""

    def __init__(self, ext):
        q, l = ext.q, ext.degree
        self.q, self.l = q, l
        neg_low = [-c % q for c in ext.modulus[:l]]
        # rows[i] = coordinates of x^(l+i) reduced mod modulus
        rows = [neg_low]
        for _ in range(l - 2):
            prev = rows[-1]
            shifted = [0] + prev[:-1]
            rows.append([(shifted[v] + prev[-1] * neg_low[v]) % q
                         for v in range(l)])
        self.reduction = rows

    def to_vec(self, a):
        return [a // self.q ** i % self.q for i in range(self.l)]

    def pack(self, coords):
        return sum(c % self.q * self.q ** i for i, c in enumerate(coords))

    def add(self, a, b):
        return self.pack(x + y for x, y in zip(self.to_vec(a), self.to_vec(b)))

    def mul(self, a, b):
        q, l = self.q, self.l
        conv = [0] * (2 * l - 1)
        for i, ca in enumerate(self.to_vec(a)):
            for j, cb in enumerate(self.to_vec(b)):
                conv[i + j] = (conv[i + j] + ca * cb) % q
        out = conv[:l]
        for i in range(l - 1):
            for v in range(l):
                out[v] = (out[v] + conv[l + i] * self.reduction[i][v]) % q
        return self.pack(out)

    def pow(self, a, e):
        result = 1
        for bit in bin(e)[2:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def trace(self, a):
        """Sum of the l conjugates a^(q^i), as an extension element."""
        acc, conj = 0, a
        for _ in range(self.l):
            acc = self.add(acc, conj)
            conj = self.pow(conj, self.q)
        return acc
