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
each use is one multiply-accumulate with it. The peel is exact for any
streams, so it runs once per config, on all the unit streams together,
to derive the decode table; the decoder is the stream decodes
(`rs.decode_columns`) plus one product with that table. It returns a
message exactly when some message's downloads lie within
floor((n - k/alpha) / 2) columns of the received ones, with the columns
where they differ; otherwise it raises DecodeFailure.

Every column is read in full (l symbols accessed) but transmits only m, so
the download fraction is alpha = m/l while the corrected error count is
floor((n - lk/m) / 2) = floor((n - k/alpha) / 2).
"""

import itertools
from operator import mul

from .arraycode import DownloadBundle, apply_error_pattern
from .fields import ExtField, PrimeField, dual_basis
from .polyring import normalize, poly_eval, poly_from_roots
from .records import Record
from .rs import (RsCode, decode_columns, packed_map, packed_product,
                 power_columns, rs_interpolate, tabulate_map)


class TsConfig(Record):
    """Frozen parameters of one trace-scheme instance.

    ext: the symbol field GF(q^l).
    k: message length over ext.
    omega: n distinct evaluation points, all in the base field.
    subsets: the m pairwise disjoint annihilator subsets A_j, each of size
        k/m, drawn from the base field (they need not be evaluation points).
    basis: trace-dual basis pair used to split symbols into coordinates.
    scheme (class attribute): "ts", how the harness, the file formats and
        the CLI tell the two schemes' configs apart.

    Derived, once per config: annihilators p_j; inner_code, the (n, lk/m)
    RS code over the base field the download streams belong to;
    download_weights[i][j] = (p_j(w_i)^0, ..., p_j(w_i)^(l-m)), the
    weights column i combines its symbols with to serve symbol j; and the
    three GF(q)-linear maps of the scheme, packed by `rs.packed_map` so
    that each runs as one multiply-accumulate:
    encode_map: the k*l polynomial-basis digits of a message (symbol t's
        digit v at input t*l + v) to the n*l stored symbols (column i's
        coordinate u at output i*l + u). It is the Kronecker product of
        the evaluation map at omega with the trace projection.
    download_map: block-diagonal, the n*l stored symbols to the n*m served
        ones (column i's symbol j at output i*m + j), built from
        download_weights.
    decode_map: the l*k coefficients of the m decoded streams (stream j's
        coefficient c at input j*lk/m + c) to the k*l digits of the
        message, in encode_map's input order. The peel derives it once,
        here (see `_decode_table`), so a decode is the m stream decodes
        plus one product with it.
    """

    scheme = "ts"
    _fields = ("ext", "k", "omega", "subsets", "basis")
    __slots__ = _fields + ("annihilators", "inner_code", "download_weights",
                           "encode_map", "download_map", "decode_map")

    def __init__(self, ext, k, omega, subsets, basis):
        base = ext.base
        omega = tuple(omega)
        subsets = tuple(tuple(s) for s in subsets)
        self._set(ext=ext, k=k, omega=omega, subsets=subsets, basis=basis)

        n, l, m = len(omega), ext.degree, len(subsets)
        if k < 1:
            raise ValueError("message length k must be at least 1")
        if not 1 <= m <= l:
            raise ValueError(f"need 1 <= m <= l, got m={m}, l={l}")
        if k % m != 0:
            raise ValueError(f"m = {m} must divide k = {k}")
        if n > base.q:
            raise ValueError(
                f"n = {n} distinct base-field evaluation points need q >= n, "
                f"but q = {base.q}")
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
        if l * k % m != 0 or l * k // m > n:
            from fractions import Fraction
            raise ValueError(
                f"download streams form an (n, lk/m) = ({n}, {Fraction(l * k, m)}) "
                "code; need lk/m to be an integer at most n")
        if basis.ext != ext:
            raise ValueError("basis pair belongs to a different field")

        q, split = base.q, l - m
        annihilators = tuple(poly_from_roots(base, s) for s in subsets)
        weights = []
        for w in omega:
            row = []
            for p_j in annihilators:
                value, powers = poly_eval(base, p_j, w), [1]
                for _ in range(split):
                    powers.append(powers[-1] * value % q)
                row.append(tuple(powers))
            weights.append(tuple(row))
        # served symbol j of column i weighs coordinate u < l-m by
        # p_j(w_i)^u and coordinate l-m+j by p_j(w_i)^(l-m); column u of
        # the download map stacks these weights for every (i, j)
        by_power = list(zip(*(v for row in weights for v in row)))
        served = by_power[:split]
        for j in range(m):
            top = [0] * (n * m)
            top[j::m] = by_power[split][j::m]
            served.append(top)
        self._set(
            annihilators=annihilators,
            inner_code=RsCode(base, l * k // m, omega),
            download_weights=tuple(weights),
            encode_map=packed_map(
                q, power_columns(q, omega, k),
                right=[basis.project(q ** v) for v in range(l)]),
            download_map=packed_map(q, served, blocks=n),
            decode_map=_decode_table(base, k, subsets, annihilators, basis))

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
        """floor((n - k/alpha) / 2), met with equality by ts_decode_message."""
        return (self.n - self.l * self.k // self.m) // 2

    @property
    def downloaded_per_word(self):
        return self.n * self.m

    @property
    def accessed_per_word(self):
        return self.n * self.l


def ts_make_config(q, n, k, l, m, *, omega=None, subsets=None, modulus=None,
                   zeta=None):
    """Build a TsConfig, filling defaults.

    omega defaults to 0..n-1; subsets default to consecutive blocks of
    k/m points starting at 0 (overlap with omega is harmless: the scheme
    never evaluates anything it needs at an annihilator root it cannot
    afford); modulus defaults to the first irreducible polynomial in
    lexicographic order; zeta defaults to the polynomial basis.
    """
    base = PrimeField(q)
    ext = ExtField(base, l, modulus)
    if omega is None:
        omega = tuple(range(n))
    omega = tuple(omega)
    if len(omega) != n:
        raise ValueError(f"expected {n} evaluation points, got {len(omega)}")
    if subsets is None:
        if m >= 1 and k % m == 0:
            size = k // m
            subsets = tuple(tuple(range(j * size, (j + 1) * size))
                            for j in range(m))
        else:
            subsets = ((),) * m  # let TsConfig raise the precise error
    elif len(subsets := tuple(subsets)) != m:
        raise ValueError(f"m = {m} needs {m} subsets A, got {len(subsets)}")
    basis = dual_basis(ext, zeta)
    return TsConfig(ext=ext, k=k, omega=omega, subsets=tuple(subsets),
                    basis=basis)


def ts_encode(cfg, message):
    """Encode k field symbols into an l x n array of base-field symbols.

    Column i holds the trace coordinates of the RS codeword symbol
    h(omega_i), lowest basis index first. The trace is GF(q)-linear and
    omega_i lies in GF(q), so that column is (h_0(omega_i), ...,
    h_{l-1}(omega_i)) for the coordinate polynomials of ts_project_polys:
    a GF(q)-linear map of the message's polynomial-basis digits, which
    cfg.encode_map applies in one product.
    """
    message = tuple(message)
    if len(message) != cfg.k:
        raise ValueError(f"message must have exactly k = {cfg.k} symbols")
    ext = cfg.ext
    digits = [c for a in message for c in ext.to_vec(ext.check(a))]
    return tuple(zip(*[iter(packed_product(cfg.encode_map, digits))] * cfg.l))


def ts_project_polys(cfg, message):
    """The l coordinate polynomials h_u of a message.

    h_u has the u-th trace coordinate of each message coefficient, so it is
    a polynomial over the base field of degree < k, and evaluating the
    stack (h_0(w), ..., h_{l-1}(w)) reproduces the stored column at w.
    """
    message = tuple(message)
    if len(message) != cfg.k:
        raise ValueError(f"message must have exactly k = {cfg.k} symbols")
    coords = [cfg.basis.project(cfg.ext.check(a)) for a in message]
    return tuple(normalize(tuple(c[u] for c in coords)) for u in range(cfg.l))


def _stored_symbols(cfg, columns):
    """The symbols of the stored `columns`, column by column, each checked
    before any product sees it, with every column of exactly l."""
    check_all, l = cfg.base.check_all, cfg.l
    symbols = []
    for column in columns:
        column = tuple(column)
        if len(column) != l:
            check_all(symbols)  # a bad symbol in an earlier column comes first
            raise ValueError(f"column must have l = {l} symbols, got {len(column)}")
        symbols.extend(column)
    return check_all(symbols)


def ts_download(cfg, column, index):
    """The m base-field symbols column `index` serves to the decoder.

    Symbol j equals coordinate (l-m+j) scaled by p_j(w)^(l-m) plus the
    first l-m coordinates scaled by ascending powers of p_j(w), weights
    cfg.download_weights[index][j]: block `index` of cfg.download_map. On
    a clean column this is exactly g_j(omega_index).
    """
    symbols = _stored_symbols(cfg, (column,))
    if not 0 <= index < cfg.n:
        raise ValueError(f"column index {index} out of range")
    m = cfg.m
    return tuple(packed_product(cfg.download_map, symbols, first=index * cfg.l,
                                rows=range(index * m, index * m + m)))


def ts_download_all(cfg, columns):
    """Downloads from every column, with transfer accounting: one product
    with cfg.download_map.

    Each column transmits m of its l symbols' worth of information but must
    be read in full to form the combinations, so downloaded = n*m while
    accessed = n*l.
    """
    columns = tuple(columns)
    if len(columns) != cfg.n:
        raise ValueError(f"word must have n = {cfg.n} columns")
    served = packed_product(cfg.download_map, _stored_symbols(cfg, columns))
    return DownloadBundle(
        per_column=tuple(zip(*[iter(served)] * cfg.m)),
        downloaded=cfg.downloaded_per_word,
        accessed=cfg.accessed_per_word,
    )


def ts_decode_message(cfg, bundle):
    """Decode the m download streams and read the message off them.

    The streams are words of one (n, lk/m) RS code whose errors share
    columns; more than `radius` corrected columns in all is a failure.
    The peel that turns the decoded streams into the message is linear and
    exact for any streams, so it is cfg.decode_map, one product, and no
    check can fail after the stream decodes.

    Returns (message, corrected_columns) exactly when some message's
    downloads lie within `radius` columns of the received ones;
    corrected_columns is where that message's downloads differ. Raises
    DecodeFailure otherwise.
    """
    m = cfg.m
    per_column = tuple(tuple(c) for c in bundle.per_column)
    if len(per_column) != cfg.n or any(len(c) != m for c in per_column):
        raise ValueError(f"download bundle must be {cfg.n} columns of {m} symbols")
    streams, corrected = decode_columns(cfg.inner_code, per_column, cfg.radius)
    size = cfg.inner_code.k
    coeffs = [c for g in streams for c in (*g, *(0,) * (size - len(g)))]
    digits = packed_product(cfg.decode_map, coeffs)
    # symbol t is its l polynomial-basis digits read in base q
    place = [cfg.base.q ** v for v in range(cfg.l)]
    return tuple(sum(map(mul, digits[t:t + cfg.l], place))
                 for t in range(0, len(digits), cfg.l)), corrected


def _decode_table(base, k, subsets, annihilators, basis):
    """The decode map: the message digits as a GF(q)-linear function of the
    l*k stream coefficients, tabulated by running the peel once on all the
    unit streams together (`rs.tabulate_map`).

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

    return tabulate_map(q, l * k, l * neg * bound, peel)


def ts_full_pipeline(cfg, message, pattern):
    """encode -> corrupt -> download -> decode, returning (message, bundle).

    The bundle carries the exact downloaded/accessed counts of the run.
    """
    stored = ts_encode(cfg, message)
    corrupted = apply_error_pattern(cfg.base, stored, pattern)
    bundle = ts_download_all(cfg, corrupted)
    decoded, _ = ts_decode_message(cfg, bundle)
    return decoded, bundle


def ts_all_codewords(cfg):
    """Iterate (message, array word) over the whole code, in canonical
    message order. Budget-gated via the callers that materialize it."""
    for message in itertools.product(cfg.ext.elements(), repeat=cfg.k):
        yield message, ts_encode(cfg, message)


def ts_download_fns(cfg, count=None):
    """Per-column download maps column -> served symbols, for collision
    search. count limits to the first `count` served symbols (count=m is
    the full scheme; smaller counts model stingier downloads)."""
    if count is None:
        count = cfg.m
    if not 0 <= count <= cfg.m:
        raise ValueError(f"count must be between 0 and m = {cfg.m}")

    def make(i):
        return lambda column: ts_download(cfg, column, i)[:count]

    return tuple(make(i) for i in range(cfg.n))
