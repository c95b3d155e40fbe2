"""Folded Reed-Solomon array code decodable from a prefix of each column.

Columns are l consecutive evaluations of one polynomial h of degree
< kl at successive powers of a primitive element gamma: column i holds
(h(gamma^(i*l)), ..., h(gamma^(i*l + l - 1))). The decoder asks each column
for only its first alpha*l entries. The punctured word it sees is itself a
folded code with n columns of height alpha*l built from a degree < kl
polynomial, i.e. an (n, k/alpha) MDS array code. Flattened, it is an RS
code of length n*alpha*l and dimension kl, so one Euclid decode corrects
floor((n - k/alpha) / 2) column errors while downloading exactly an alpha
fraction. Nothing outside the prefix is ever read, so downloaded symbols
equal accessed symbols: the access overhead of combining full columns is
zero.

The folded scheme needs only GF(p): it imports `primefield`, not
`fields`, `polyring` or the enumeration budget. Its list-decoding
reference is `bounds.list_decode_bruteforce`, which serves either scheme.
"""

import itertools

from .arraycode import ArrayConfig
from .primefield import PrimeField, is_prime, prime_factors
from .rationals import as_fraction
from .rs import RsCode, packed_map, power_columns


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
    encode_map: derived; evaluation at `points` of a polynomial of degree
        < kl, packed by `rs.packed_map` (column j holds the points' j-th
        powers): the (nl, kl) RS code that the folded code cuts into n
        columns of l symbols, kept as the one map the encoder reads.

    The rest of the derived slots are the layout of
    `arraycode.ArrayConfig`, whose stages this scheme runs: a message is
    the kl coefficients of h, lowest first, in the field; each column
    serves its prefix, its first alpha*l symbols, read verbatim, so
    downloaded == accessed; and served_code is the puncturing of the
    (nl, kl) code to the prefixes, the prefix points of column 0, then of
    column 1, and so on, whose one word the concatenated prefixes are
    (so g = alpha*l). Its symbol radius floor(alpha*l*(n - k/alpha)/2)
    covers alpha*l * radius, so one Euclid decode finds the stored message
    whenever at most `radius` columns are bad; the decoded h is padded
    back to length kl.
    """

    scheme = "frs"
    _fields = ("field", "gamma", "n", "k", "l", "alpha")
    __slots__ = _fields + ("alpha_l", "punctured_dim", "points", "encode_map")

    def __init__(self, field, gamma, n, k, l, alpha):
        alpha = as_fraction(alpha)
        self._set(field=field, gamma=gamma, n=n, k=k, l=l, alpha=alpha)
        if n < 1 or k < 1 or l < 1:
            raise ValueError("n, k, l must all be at least 1")
        if k > n:
            raise ValueError(f"need k <= n, got k={k}, n={n}")
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        if (alpha * l).denominator != 1:
            raise ValueError(f"alpha*l = {alpha * l} must be an integer")
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
        points = tuple(pow(gamma, i, field.q) for i in range(n * l))
        alpha_l = int(alpha * l)
        self._set(alpha_l=alpha_l, punctured_dim=int(k / alpha),
                  points=points, encode_map=packed_map(
                      field.q, power_columns(field.q, points, k * l)),
                  g=alpha_l, served_per_column=alpha_l, message_field=field,
                  message_length=k * l)
        self._set(served_code=RsCode(field, k * l, self._serve(points)))

    @property
    def radius(self):
        """floor((n - k/alpha) / 2): the column errors one Euclid decode of
        the flattened prefixes always corrects."""
        return (self.n - self.punctured_dim) // 2

    @property
    def accessed_per_word(self):
        """Equal to downloaded_per_word: prefixes are served verbatim, so no
        extra symbols are touched."""
        return self.n * self.alpha_l

    def column_points(self, i, height=None):
        """Evaluation points of column i (first `height` of them)."""
        if height is None:
            height = self.l
        return self.points[i * self.l: i * self.l + height]

    def _inputs(self, message):
        """The message itself: h's coefficients are encode_map's inputs."""
        return message

    def _serve(self, stored):
        """The prefixes, the first alpha*l of each column's l symbols."""
        head = self.alpha_l
        return tuple(itertools.compress(stored, itertools.cycle(
            (1,) * head + (0,) * (self.l - head))))

    def _message(self, polys):
        """The one decoded polynomial h, padded with zeros to length kl."""
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
