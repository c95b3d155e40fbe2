"""Folded Reed-Solomon array code decodable from a prefix of each column.

Columns are l consecutive evaluations of one polynomial h of degree
< kl at successive powers of a primitive element gamma: column i holds
(h(gamma^(i*l)), ..., h(gamma^(i*l + l - 1))). The decoder asks each column
for only its first alpha*l entries. The punctured word it sees is itself a
folded code with n columns of height alpha*l built from a degree < kl
polynomial, i.e. an (n, k/alpha) MDS array code. Flattened, it is an RS
code of length n*alpha*l and dimension kl, so one Euclid run on the
flattened prefixes, then one product that re-encodes its quotient for
the check against them, corrects floor((n - k/alpha) / 2) column errors
while downloading exactly an alpha fraction. Nothing outside the prefix
is ever read, so downloaded symbols equal accessed symbols: the access
overhead of combining full columns is zero.

The folded scheme needs only GF(p): it imports `primefield`, not
`fields`, `polyring` or the enumeration budget. Its list-decoding
reference is `bounds.list_decode_bruteforce`, which serves either scheme.
"""

import itertools

from .arraycode import ArrayConfig
from .primefield import PrimeField, is_prime, prime_factors
from .rationals import as_fraction, brief
from .rs import (RsCode, block_map, interpolation_map, leading_map,
                 packed_map, power_columns)


def smallest_prime_above(bound):
    """Smallest prime strictly greater than bound."""
    p = max(2, bound + 1)
    while not is_prime(p):
        p += 1
    return p


def smallest_primitive_root(p):
    """Smallest primitive element of GF(p), factoring p - 1 once."""
    elements, factors = PrimeField(p).elements(), prime_factors(p - 1)
    return next(g for g in elements if g and _generates(p, g, factors))


def is_primitive_root(p, g):
    return (PrimeField(p).check(g) != 0
            and _generates(p, g, prime_factors(p - 1)))


def _generates(p, g, factors):
    """Whether nonzero g generates GF(p)*; `factors` are those of p - 1."""
    return all(pow(g, (p - 1) // f, p) != 1 for f in factors)


class FrsConfig(ArrayConfig):
    """Frozen parameters of one folded-scheme instance.

    field: GF(p) with p > n*l so the n*l evaluation points gamma^0, ...,
        gamma^(nl-1) are distinct.
    gamma: a primitive element of the field.
    n, k, l: column count, message size in columns, column height.
    alpha: download fraction; alpha*l and k/alpha must be integers.
    scheme (class attribute): "frs", the name the file formats and the
        CLI give the scheme.
    alpha_l: derived; the prefix height alpha*l each column serves.
    punctured_dim: derived; the column dimension k/alpha of the punctured
        code.
    points: derived; the n*l evaluation points gamma^0, ..., gamma^(nl-1),
        l per column.

    The rest of the derived slots are the layout of
    `arraycode.ArrayConfig`, whose stages this scheme runs: a message is
    the kl coefficients of h, lowest first, in the field; each column
    serves its prefix, its first alpha*l symbols, read verbatim, so
    accessed_per_word == downloaded_per_word == n*alpha*l; radius is
    floor((n - k/alpha) / 2); and served_code is the puncturing of the
    (nl, kl) code to the prefixes, the prefix points of column 0, then of
    column 1, and so on, whose one word the concatenated prefixes are
    (so g = alpha*l). Its symbol radius floor(alpha*l*(n - k/alpha)/2)
    covers alpha*l * radius, so one Euclid decode finds the stored message
    whenever at most `radius` columns are bad; the decoded h is padded
    back to length kl.

    The config's maps are encode_map, evaluation at `points` of a
    polynomial of degree < kl (column j holds the points' j-th powers),
    the (nl, kl) RS code that the folded code cuts into n columns of l
    symbols; decode_map, evaluation at the prefix points, cut from
    encode_map's columns, the matrix `rs.served_map` gives served_code's
    one word; interpolation_map, the prefixes to themselves and then to
    their interpolant; download_map, the selection of each column's
    prefix, on to those outputs; served_download_map, the prefixes alone;
    and transmit_map, decode_map and then the identity, as the
    interpolant of a message's prefixes is the message. So an interpolant
    output of the pipeline's packed sum adds one message product of a
    digit 1 and one offset product per served symbol, and a served one kl
    message products and one offset product, where kl <= n*alpha*l: the
    pipeline's three maps carry the width of the largest digit sum,
    (n*alpha*l*(p - 1) + 1) * (p - 1), 16 bits at (12, 3, 4, 1/2). A
    decode is one Euclid run on the flattened prefixes, then one product
    with decode_map.
    """

    scheme = "frs"
    _fields = ("field", "gamma", "n", "k", "l", "alpha")
    __slots__ = _fields + ("alpha_l", "punctured_dim", "points")

    def __init__(self, field, gamma, n, k, l, alpha):
        alpha = as_fraction(alpha)
        self._set(field=field, gamma=gamma, n=n, k=k, l=l, alpha=alpha)
        if n < 1 or k < 1 or l < 1:
            raise ValueError("n, k, l must all be at least 1")
        if k > n:
            raise ValueError(f"need k <= n, got k={k}, n={n}")
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {brief(alpha)}")
        if (alpha * l).denominator != 1:
            raise ValueError(f"alpha*l = {brief(alpha * l)} must be an "
                             "integer")
        if (k / alpha).denominator != 1:
            raise ValueError(f"k/alpha = {k / alpha} must be an integer")
        if k / alpha > n:
            raise ValueError(
                f"k/alpha = {k / alpha} exceeds n = {n}: the punctured code "
                "would have rate above 1")
        if field.q <= n * l:
            raise ValueError(
                f"field size {field.q} must exceed n*l = {n * l} for distinct "
                "evaluation points")
        if not is_primitive_root(field.q, gamma):
            raise ValueError(f"{gamma} is not a primitive root mod {field.q}")
        q, alpha_l = field.q, int(alpha * l)
        points = tuple(pow(gamma, i, q) for i in range(n * l))
        prefix = (1,) * alpha_l + (0,) * (l - alpha_l)
        powers = power_columns(q, points, k * l)
        evaluation = [list(itertools.compress(c, itertools.cycle(prefix)))
                      for c in powers]
        # an interpolant coefficient adds one message product of a digit 1
        # and one offset product per served symbol; kl <= size = n*alpha*l
        size, punctured_dim = n * alpha_l, int(k / alpha)
        bound = (size * (q - 1) + 1) * (q - 1)
        code = RsCode(field, k * l, itertools.compress(
            points, itertools.cycle(prefix)))
        interpolation = interpolation_map(code, alpha_l, 1, bound)
        download = block_map(interpolation, [[
            [int(r == u) for r in range(alpha_l)] for u in range(l)]] * n)
        self._set(alpha_l=alpha_l, punctured_dim=punctured_dim,
                  points=points, g=alpha_l, served_per_column=alpha_l,
                  message_field=field, message_length=k * l,
                  downloaded_per_word=size, accessed_per_word=size,
                  radius=(n - punctured_dim) // 2,
                  served_code=code, encode_map=packed_map(q, powers),
                  interpolation_map=interpolation, download_map=download,
                  served_download_map=leading_map(download, size),
                  transmit_map=packed_map(q, [
                      c + [0] * j + [1] + [0] * (size - j - 1)
                      for j, c in enumerate(evaluation)], bound=bound),
                  decode_map=packed_map(q, evaluation))

    def column_points(self, i, height=None):
        """Evaluation points of column i (first `height` of them)."""
        if height is None:
            height = self.l
        return self.points[i * self.l: i * self.l + height]

    def _inputs(self, message):
        """The message itself: h's coefficients are encode_map's inputs."""
        return message

    def _message(self, polys, tail):
        """The one decoded polynomial h, padded with zeros to length kl;
        decode_map has no tail."""
        (h,) = polys
        return h + (0,) * (self.message_length - len(h))

    def download_fn(self, count=None):
        """Word -> per-column downloads, for the searches in `bounds`: the
        first `count` of each column's l stored symbols (default alpha*l)."""
        count = self.alpha_l if count is None else count
        if not 0 <= count <= self.l:
            raise ValueError(f"download count must lie in 0..{self.l}, the l "
                             f"symbols a column stores, got {count}")
        return lambda word: tuple(column[:count] for column in word)

    def column_code(self, columns):
        """The code whole columns, concatenated, are a word of."""
        return RsCode(self.field, self.message_length, flatten_columns(
            self.column_points(i) for i in columns))


def frs_make_config(n, k, l, alpha, *, p=None, gamma=None):
    """Build an FrsConfig; p defaults to the smallest prime > n*l and gamma
    to the smallest primitive root mod p."""
    if p is None:
        p = smallest_prime_above(n * l)
    field = PrimeField(p)
    if gamma is None:
        gamma = smallest_primitive_root(p)
    return FrsConfig(field=field, gamma=gamma, n=n, k=k, l=l,
                     alpha=as_fraction(alpha))


def flatten_columns(columns):
    """Concatenate columns of uniform height into one flat tuple."""
    columns = tuple(tuple(c) for c in columns)
    if columns and any(len(c) != len(columns[0]) for c in columns):
        raise ValueError("columns must have uniform height")
    return tuple(v for col in columns for v in col)


def frs_full_pipeline(cfg, message, pattern):
    """cfg.pipeline(message, pattern); see `arraycode.ArrayConfig`."""
    return cfg.pipeline(message, pattern)
