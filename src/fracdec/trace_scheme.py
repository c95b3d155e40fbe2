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
codeword of an (n, lk/m) RS code over B, with errors in shared columns;
the streams are decoded and the h_u are then peeled off one degree layer
at a time, using that p_j vanishes on A_j, so interpolating g_j on the
union of the A_j sees only the current bottom layer.

The decoder returns a message exactly when some message's downloads lie
within floor((n - k/alpha) / 2) columns of the received ones, with the
columns where they differ; otherwise it raises DecodeFailure.

Every column is read in full (l symbols accessed) but transmits only m, so
the download fraction is alpha = m/l while the corrected error count is
floor((n - lk/m) / 2) = floor((n - k/alpha) / 2).
"""

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from operator import mul

from .arraycode import DownloadBundle, apply_error_pattern
from .fields import ExtField, PrimeField, dual_basis
from .polyring import (normalize, poly_divmod, poly_eval, poly_from_roots,
                       poly_sub)
from .rs import RsCode, decode_columns, rs_evaluate, rs_interpolate


@dataclass(frozen=True)
class TsConfig:
    """Frozen parameters of one trace-scheme instance.

    ext: the symbol field GF(q^l).
    k: message length over ext.
    omega: n distinct evaluation points, all in the base field.
    subsets: the m pairwise disjoint annihilator subsets A_j, each of size
        k/m, drawn from the base field (they need not be evaluation points).
    basis: trace-dual basis pair used to split symbols into coordinates.

    Derived, once per config: annihilators p_j; inner_code, the (n, lk/m)
    RS code over the base field the download streams belong to;
    anchor_code, the (k, k) RS code on the points of A_0, then A_1, and so
    on, whose interpolation recovers each peel layer; and
    download_weights[i][j] = (p_j(w_i)^0, ..., p_j(w_i)^(l-m)), the
    weights column i combines its symbols with to serve symbol j.
    """

    ext: ExtField
    k: int
    omega: tuple
    subsets: tuple
    basis: object
    annihilators: tuple = dc_field(init=False, repr=False, compare=False)
    inner_code: RsCode = dc_field(init=False, repr=False, compare=False)
    anchor_code: RsCode = dc_field(init=False, repr=False, compare=False)
    download_weights: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ext, base = self.ext, self.ext.base
        omega = tuple(self.omega)
        subsets = tuple(tuple(s) for s in self.subsets)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "subsets", subsets)

        n, k, l, m = len(omega), self.k, ext.degree, len(subsets)
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
            raise ValueError(
                f"download streams form an (n, lk/m) = ({n}, {Fraction(l * k, m)}) "
                "code; need lk/m to be an integer at most n")
        if self.basis.ext != ext:
            raise ValueError("basis pair belongs to a different field")

        annihilators = tuple(poly_from_roots(base, s) for s in subsets)
        object.__setattr__(self, "annihilators", annihilators)
        object.__setattr__(self, "inner_code", RsCode(base, l * k // m, omega))
        object.__setattr__(self, "anchor_code", RsCode(base, k, flat))
        object.__setattr__(self, "download_weights", tuple(
            tuple(tuple(pow(poly_eval(base, p_j, w), u, base.q)
                        for u in range(l - m + 1)) for p_j in annihilators)
            for w in omega))

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
    h_{l-1}(omega_i)) for the coordinate polynomials of ts_project_polys,
    and the encoder runs over the base field only.
    """
    hs = ts_project_polys(cfg, message)
    # each h_u has degree < k <= lk/m, a message of the inner code
    return tuple(zip(*(rs_evaluate(cfg.inner_code, h) for h in hs)))


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


def ts_download(cfg, column, index):
    """The m base-field symbols column `index` serves to the decoder.

    Symbol j equals coordinate (l-m+j) scaled by p_j(w)^(l-m) plus the
    first l-m coordinates scaled by ascending powers of p_j(w): one dot
    product with cfg.download_weights[index][j]. On a clean column this is
    exactly g_j(omega_index).
    """
    base, l, split = cfg.base, cfg.l, cfg.l - cfg.m
    column = tuple(column)
    if len(column) != l:
        raise ValueError(f"column must have l = {l} symbols, got {len(column)}")
    for c in column:
        base.check(c)
    if not 0 <= index < cfg.n:
        raise ValueError(f"column index {index} out of range")
    low = column[:split]
    return tuple(sum(map(mul, (*low, column[split + j]), weights)) % base.q
                 for j, weights in enumerate(cfg.download_weights[index]))


def ts_download_all(cfg, columns):
    """Downloads from every column, with transfer accounting.

    Each column transmits m of its l symbols' worth of information but must
    be read in full to form the combinations, so downloaded = n*m while
    accessed = n*l.
    """
    columns = tuple(columns)
    if len(columns) != cfg.n:
        raise ValueError(f"word must have n = {cfg.n} columns")
    return DownloadBundle(
        per_column=tuple(ts_download(cfg, col, i)
                         for i, col in enumerate(columns)),
        downloaded=cfg.downloaded_per_word,
        accessed=cfg.accessed_per_word,
    )


def ts_decode_message(cfg, bundle):
    """Decode the m download streams and peel out the message.

    Returns (message, corrected_columns) exactly when some message's
    downloads lie within `radius` columns of the received ones; the peel is
    exact, so corrected_columns is where that message's downloads differ.
    Raises DecodeFailure otherwise.
    """
    base, l, m, k = cfg.base, cfg.l, cfg.m, cfg.k
    per_column = tuple(tuple(c) for c in bundle.per_column)
    if len(per_column) != cfg.n or any(len(c) != m for c in per_column):
        raise ValueError(f"download bundle must be {cfg.n} columns of {m} symbols")

    # stage 1: the streams are words of one (n, lk/m) RS code whose errors
    # share columns; more than `radius` corrected columns in all is a failure
    streams, corrected = decode_columns(cfg.inner_code, per_column, cfg.radius)

    # stage 2: peel the shared low layers h_0, ..., h_{l-m-1}. Every p_j
    # vanishes on A_j, so on the union of the subsets the current bottom
    # layer of each g_j is exposed; those k points pin down one h_u of
    # degree < k. h_u agrees with g_j on A_j, whose points are distinct
    # roots of p_j, so p_j divides g_j - h_u exactly, whatever the stream
    # decoder returned, and the quotient is the next layer, k/m degrees
    # lower. No check can fail here: only stage 1 can.
    coord_polys = []
    for _ in range(l - m):
        h_u = rs_interpolate(cfg.anchor_code, [
            poly_eval(base, g, w)
            for g, subset in zip(streams, cfg.subsets) for w in subset])
        coord_polys.append(h_u)
        streams = [poly_divmod(base, poly_sub(base, g, h_u), p_j)[0]
                   for g, p_j in zip(streams, cfg.annihilators)]

    # stage 3: stream j started below degree lk/m and lost k/m degrees per
    # peel, so what is left is the top layer h_{l-m+j}, of degree < k
    coord_polys = [h + (0,) * (k - len(h)) for h in (*coord_polys, *streams)]
    return tuple(map(cfg.basis.reconstruct, zip(*coord_polys))), corrected


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
