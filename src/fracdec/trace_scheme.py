"""Reed-Solomon array code decodable from an m/l fraction of each column.

The code is an (n, k) RS code over F = GF(q^l) with all evaluation points
in the base field B = GF(q). Each codeword symbol is stored as its l trace
coordinates, giving an l x n array over B. To decode, every column serves m
base-field symbols: the last m coordinates are each combined with the first
l - m through powers of an annihilator polynomial p_j that vanishes on a
designated subset A_j of evaluation points. The j-th served symbol at point
w is the evaluation at w of

    g_j = h_{l-m+j} * p_j^{l-m} + sum_{u < l-m} h_u * p_j^u,

a polynomial of degree < lk/m, where h_u collects the u-th trace coordinate
of each message coefficient. Each of the m download streams is therefore a
codeword of an (n, lk/m) RS code over B, with errors in shared columns.
The h_u can be peeled off the decoded streams one degree layer at a time,
using that p_j vanishes on A_j, so interpolating g_j on the union of the
A_j sees only the current bottom layer.

Encoding, downloading and that peel are fixed GF(q)-linear maps of the
config, so each is one packed table (`rs.packed_map`), built once, and
each use is one multiply-accumulate with it; so is encoding and
downloading at once, whose table also yields the streams' interpolants.
The peel is exact for any streams, so it runs once per config, on all
the unit streams together, to derive the decode table. A decode
(`rs.decode_words`) runs each stream's Euclid to a quotient, then one
product with the config's decode map: its outputs are the m re-encoded
streams in served order, checked against the served symbols, and then
the decode table's message digits. It returns a message exactly when some
message's downloads lie within floor((n - k/alpha) / 2) columns of the
received ones, with the columns where they differ; otherwise it raises
DecodeFailure. The stages are `arraycode.ArrayConfig`'s, shared with
the folded scheme; this module supplies the layout and the tables.

Every column is read in full (l symbols accessed) but transmits only m, so
the download fraction is alpha = m/l while the corrected error count is
floor((n - lk/m) / 2) = floor((n - k/alpha) / 2).
"""

from itertools import cycle
from math import prod
from operator import mul

from .arraycode import ArrayConfig
from .fields import ExtField, dual_basis
from .primefield import PrimeField
from .rs import (RsCode, block_map, interpolation_map, packed_map,
                 packed_product, poly_from_roots, power_columns,
                 rs_interpolate, served_map, tabulate_columns)


class TsConfig(ArrayConfig):
    """Frozen parameters of one trace-scheme instance.

    ext: the symbol field GF(q^l).
    k: message length over ext.
    omega: n distinct evaluation points, all in the base field.
    subsets: the m pairwise disjoint annihilator subsets A_j, each of size
        k/m, drawn from the base field (they need not be evaluation points).
    basis: trace-dual basis pair used to split symbols into coordinates.
    scheme (class attribute): "ts", the name the file formats and the CLI
        give the scheme.

    Derived, once per config: annihilators p_j; place_values, the
    base-q place values q^0, ..., q^(l-1) of a symbol's polynomial-basis
    digits; the layout of
    `arraycode.ArrayConfig`, whose stages this scheme runs: a message is k
    symbols of ext; each column serves m symbols, one of each of the m
    download streams, the words of served_code, the (n, lk/m) RS code over
    the base field (so g = 1); and the GF(q)-linear maps of the scheme,
    each one packed multiply-accumulate:
    encode_map: the k*l polynomial-basis digits of a message (symbol t's
        digit v at input t*l + v) to the n*l stored symbols (column i's
        coordinate u at output i*l + u). It is the Kronecker product of
        the evaluation map at omega with the trace projection, so column i
        holds the trace coordinates of the RS codeword symbol h(omega_i),
        (h_0(omega_i), ..., h_{l-1}(omega_i)), where h_u has the u-th
        trace coordinate of each message symbol.
    interpolation_map: the n*m served symbols (column i's symbol j at
        input and output i*m + j) to themselves, then to the m streams'
        interpolants (`rs.interpolation_map`).
    download_map: the n*l stored symbols to those outputs, column i's
        served symbols reading only its own (`rs.block_map`). Served
        symbol j of column i weighs the column's coordinates by the powers
        p_j(w_i)^0, ..., p_j(w_i)^(l-m), so on a clean column it is
        exactly g_j(omega_i). p_j(w_i) is the product of w_i - a over
        A_j, and its powers are one `rs.power_columns` table.
    transmit_map: download_map after encode_map. Served symbol j of
        column i weighs the column's coordinates by row j of the m x l
        download block W_i, and digit v of symbol t puts omega_i^t times
        column v of the trace projection P there, so entry
        (i*m + j, t*l + v) is omega_i^t * (W_i P)[j][v]; the streams of
        that digit are those of digit v of symbol 0 times x^t, whose
        interpolants are moved up t coefficients. The three are packed
        at a width that holds the k*l message products and the
        coordinates' products an interpolant adds from every column, so
        the pipeline adds both in one `rs.packed_sum`.
    decode_map: the l*k coefficients of the m decoded streams (stream j's
        coefficient c at input j*lk/m + c) to the n*m re-encoded served
        symbols (`rs.served_map`), then, as its tail, to the k*l digits
        of the message, in encode_map's input order, which the peel
        derives once, here (see `_decode_table`).
    """

    scheme = "ts"
    _fields = ("ext", "k", "omega", "subsets", "basis")
    __slots__ = _fields + ("annihilators", "place_values")

    def __init__(self, ext, k, omega, subsets, basis):
        base = ext.base
        omega = tuple(omega)
        subsets = tuple(tuple(s) for s in subsets)
        self._set(ext=ext, k=k, omega=omega, subsets=subsets, basis=basis)

        n, l, m = len(omega), ext.degree, len(subsets)
        _check_sizes(base.q, n, k, l, m)
        for w in omega:
            base.check(w)
        if len(set(omega)) != n:
            raise ValueError("evaluation points must be distinct")
        flat = [a for s in subsets for a in s]
        for a in flat:
            base.check(a)
        if len(set(flat)) != len(flat):
            raise ValueError("annihilator subsets must be pairwise disjoint "
                             "with distinct elements")
        if any(len(s) != k // m for s in subsets):
            raise ValueError(f"each annihilator subset must have k/m = {k // m} "
                             "elements")
        if basis.ext != ext:
            raise ValueError("basis pair belongs to a different field")

        q, split = base.q, l - m
        annihilators = tuple(poly_from_roots(base, s) for s in subsets)
        # served symbol j of column i (output i*m + j) weighs coordinate
        # u < l-m by p_j(w_i)^u and coordinate l-m+j by p_j(w_i)^(l-m),
        # where p_j(w_i) is the product of w_i - a over the roots a in A_j
        values = [prod(w - a for a in s) % q for w in omega for s in subsets]
        powers = power_columns(q, values, split + 1)
        served = powers[:split] + [
            [c if r % m == j else 0 for r, c in enumerate(powers[split])]
            for j in range(m)]
        # column v of P holds the trace coordinates of x^v; row r = i*m + j
        # of `mixed` is row j of W_i P, and the omega_i^t repeat m times
        place_values = tuple(q ** v for v in range(l))
        proj = [basis.project(p) for p in place_values]
        mixed = [[sum(map(mul, row, p)) % q for p in proj]
                 for row in zip(*served)]
        omega_powers = power_columns(q, omega, k)
        spread = [[c for c in column for _ in range(m)]
                  for column in omega_powers]
        # an interpolant coefficient adds k*l message products and, from
        # each column, l-m+1 offset products of digits up to (q-1)^2
        terms = k * l + n * (split + 1) * (q - 1)
        code = RsCode(base, l * k // m, omega)
        interpolation = interpolation_map(code, 1, m, terms=terms)
        # digit v of symbol t's streams are x^t times digit v of symbol 0's,
        # of degree <= (l-m)k/m < lk/m - t: the interpolants move up t places
        digits = list(zip(*mixed))
        bottom = [[c for cs in zip(*(packed_product(code.interpolation,
                                                    d[j::m])
                                     for j in range(m))) for c in cs]
                  for d in digits]
        transmit = [[a * b % q for a, b in zip(column, digit)]
                    + [0] * (t * m) + low[:(n - t) * m]
                    for t, column in enumerate(spread)
                    for digit, low in zip(digits, bottom)]
        self._set(
            annihilators=annihilators, place_values=place_values,
            served_code=code, g=1, served_per_column=m, message_field=ext,
            message_length=k,
            encode_map=packed_map(q, omega_powers, right=proj),
            interpolation_map=interpolation, download_map=block_map(
                interpolation, [[c[i * m:i * m + m] for c in served]
                                for i in range(n)]),
            transmit_map=packed_map(q, transmit, terms=terms),
            decode_map=served_map(code, 1, m, tail=_decode_table(
                base, k, subsets, annihilators, basis)))

    @property
    def base(self):
        return self.ext.base

    @property
    def n(self):
        return len(self.omega)

    @property
    def l(self):
        return self.ext.degree

    @property
    def m(self):
        return len(self.subsets)

    @property
    def alpha(self):
        from fractions import Fraction
        return Fraction(self.m, self.l)

    @property
    def radius(self):
        """floor((n - k/alpha) / 2), met with equality by the decoder."""
        return (self.n - self.l * self.k // self.m) // 2

    @property
    def accessed_per_word(self):
        """n*l: a column transmits m of its l symbols' worth of information
        but must be read in full to form the combinations."""
        return self.n * self.l

    def _inputs(self, message):
        """The message's polynomial-basis digits, its symbols' base-q
        digits."""
        q, place_values = self.base.q, self.place_values
        return [a // p % q for a in message for p in place_values]

    def _message(self, streams, digits):
        """The message whose polynomial-basis digits are decode_map's tail
        `digits`: symbol t is its l digits read in base q. The stream
        polynomials themselves are not needed."""
        return tuple(map(sum, zip(*[map(mul, digits, cycle(
            self.place_values))] * self.l)))

    def download_fn(self, count=None):
        """Word -> per-column downloads, for the searches in `bounds`: the
        first `count` of each column's m served symbols (default all m)."""
        count = self.m if count is None else count
        if not 0 <= count <= self.m:
            raise ValueError(f"download count must lie in 0..{self.m}, the m "
                             f"symbols a column serves, got {count}")
        return lambda word: tuple(served[:count] for served in
                                  self.download(word).per_column)

    def column_code(self, columns):
        """The code each stored row is a word of, read at whole columns."""
        return RsCode(self.base, self.k, [self.omega[i] for i in columns])


def _check_sizes(q, n, k, l, m):
    """The checks of a trace config that read only its sizes: n points of
    GF(q), and m streams of an (n, lk/m) code. As lk/m >= k, they bound k
    by n <= q too."""
    if k < 1:
        raise ValueError("message length k must be at least 1")
    if not 1 <= m <= l:
        raise ValueError(f"need 1 <= m <= l, got m={m}, l={l}")
    if k % m != 0:
        raise ValueError(f"m = {m} must divide k = {k}")
    if n > q:
        raise ValueError(
            f"n = {n} distinct base-field evaluation points need q >= n, "
            f"but q = {q}")
    if l * k % m != 0 or l * k // m > n:
        from fractions import Fraction
        raise ValueError(
            f"download streams form an (n, lk/m) = ({n}, {Fraction(l * k, m)}) "
            "code; need lk/m to be an integer at most n")


def ts_make_config(q, n, k, l, m, *, omega=None, subsets=None, modulus=None,
                   zeta=None):
    """Build a TsConfig, filling defaults.

    omega defaults to 0..n-1; subsets default to consecutive blocks of
    k/m points starting at 0 (overlap with omega is harmless: the scheme
    never evaluates anything it needs at an annihilator root it cannot
    afford); modulus defaults to the first irreducible polynomial in
    lexicographic order; zeta defaults to the polynomial basis. The sizes
    are checked before omega or the subsets are built, so an n or k beyond
    q is refused without building them.
    """
    base = PrimeField(q)
    ext = ExtField(base, l, modulus)
    _check_sizes(q, n, k, l, m)
    if omega is None:
        omega = tuple(range(n))
    omega = tuple(omega)
    if len(omega) != n:
        raise ValueError(f"expected {n} evaluation points, got {len(omega)}")
    if subsets is None:
        size = k // m
        subsets = tuple(tuple(range(j * size, (j + 1) * size))
                        for j in range(m))
    elif len(subsets := tuple(subsets)) != m:
        raise ValueError(f"m = {m} needs {m} subsets A, got {len(subsets)}")
    basis = dual_basis(ext, zeta)
    return TsConfig(ext=ext, k=k, omega=omega, subsets=tuple(subsets),
                    basis=basis)


def _decode_table(base, k, subsets, annihilators, basis):
    """The decode table: the message digits as a GF(q)-linear function of
    the l*k stream coefficients, one column per coefficient, tabulated by
    running the peel once on all the unit streams together
    (`rs.tabulate_columns`).

    Stream j is g_j = sum_{u < l-m} h_u * p_j^u + h_{l-m+j} * p_j^(l-m).
    Every p_j vanishes on A_j, so on the union of the subsets the current
    bottom layer of each g_j is exposed, and those k points pin down one
    h_u of degree < k through the (k, k) code on A_0, then A_1, and so on.
    h_u agrees with g_j on A_j, whose points are distinct roots of p_j, so
    p_j divides g_j - h_u exactly, whatever the streams are, and the
    quotient is the next layer, k/m degrees lower. After l-m layers stream
    j is the top layer h_{l-m+j}. Symbol t's digits are its trace
    coordinates (h_0[t], ..., h_{l-1}[t]) through the polynomial-basis
    coordinates of the dual basis nu.

    Every step is a sum of products with canonical weights: the values at
    A_j use the powers of its points, h_u the Lagrange basis of the anchor
    code, a subtraction adds q - 1 times the subtrahend, and the exact
    quotient by p_j reads each coefficient off the series s of 1/p_j,
    quotient[i] = sum_t s[t] * dividend[i + d + t]. So a layer whose
    streams have `length` coefficients, each at most b, yields values at
    most length*(q-1)*b, h_u at most k*(q-1) times that, remainders at most
    b + (q-1)*h_u and quotients at most length*(q-1) times those: `bound`
    follows that product through the layers.
    """
    q, l, m = base.q, basis.l, len(subsets)
    size, d, neg = l * k // m, k // m, q - 1
    anchor = RsCode(base, k, [a for s in subsets for a in s])
    basis_polys = [rs_interpolate(anchor, [int(i == r) for r in range(k)])
                   for i in range(k)]
    lagrange = [[h[t] if t < len(h) else 0 for h in basis_polys]
                for t in range(k)]
    powers = [list(zip(*power_columns(q, s, size))) for s in subsets]
    series = [[1] for _ in annihilators]
    for p_j, s in zip(annihilators, series):
        for t in range(1, size - d):
            s.append(-sum(p_j[d - i] * s[t - i]
                          for i in range(1, min(t, d) + 1)) % q)
    recon = list(zip(*map(basis.ext.to_vec, basis.nu)))
    bound, length = 1, size
    for _ in range(l - m):
        bound *= length * neg * (1 + k * length * neg ** 3)
        length -= d

    def peel(units):
        streams = [units[j * size:(j + 1) * size] for j in range(m)]
        layers = []
        for _ in range(l - m):
            values = [sum(map(mul, pw, g))
                      for g, at in zip(streams, powers) for pw in at]
            h = [sum(map(mul, row, values)) for row in lagrange]
            layers.append(h)
            for j, (g, s) in enumerate(zip(streams, series)):
                rem = [x + neg * y for x, y in zip(g, h)] + g[k:]
                streams[j] = [sum(map(mul, s, rem[i + d:]))
                              for i in range(len(rem) - d)]
        return [sum(map(mul, row, coords))
                for coords in zip(*layers, *streams) for row in recon]

    return tabulate_columns(q, l * k, l * neg * bound, peel)


def ts_full_pipeline(cfg, message, pattern):
    """cfg.pipeline(message, pattern); see `arraycode.ArrayConfig`."""
    return cfg.pipeline(message, pattern)
