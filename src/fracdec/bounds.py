"""Decoding-radius bounds under a download budget, and their witnesses.

For an (n, k) MDS code read at download fraction alpha, the naive strategy
(read alpha*n whole columns, decode the punctured code) corrects
floor((alpha*n - k) / 2) errors, while reading a little of every column
achieves floor((n - k/alpha) / 2). The optimal radius is tight: the
collision search here builds, for any would-be larger radius, two
codewords plus error patterns that are indistinguishable from the
downloads, and the information-count check certifies that every n - 2t
columns must together carry k symbols' worth of downloads. The search
downloads whole words, one call per codeword, through the download it is
given: for a scheme config, `cfg.download_fn(count)`, the scheme's own
download path.

The package's exhaustive searches are all here, each gated by the budget
and importing the code it runs only when it runs: the collision search, a
list decoder for either scheme and the RS nearest-codeword search.

All rates and fractions are exact Fractions; see rationals.as_fraction.
"""

import itertools
from fractions import Fraction
from math import comb, floor
from operator import ne

from .budget import check_budget
from .rationals import as_fraction
from .records import Record


def _validate_regime(n, k, alpha):
    if not isinstance(n, int) or not isinstance(k, int):
        raise TypeError("n and k must be integers")
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if not Fraction(k, n) <= alpha <= 1:
        reason = ("below the rate even erasure-free recovery is impossible"
                  if alpha < 1 else "a download cannot exceed the whole word")
        raise ValueError(
            f"alpha = {alpha} must lie in [k/n, 1] = [{Fraction(k, n)}, 1]: "
            f"{reason}")


def radius_naive(n, k, alpha):
    """floor((alpha*n - k) / 2): radius when alpha*n full columns are read
    and the rest ignored."""
    alpha = as_fraction(alpha)
    _validate_regime(n, k, alpha)
    return max(0, floor((alpha * n - k) / 2))


def radius_optimal(n, k, alpha):
    """floor((n - k/alpha) / 2): the best radius any alpha-fraction download
    can achieve, met by the schemes in this package."""
    alpha = as_fraction(alpha)
    _validate_regime(n, k, alpha)
    return max(0, floor((n - k / alpha) / 2))


def list_capacity(rate, alpha):
    """1 - R/alpha: the largest normalized radius at which list decoding
    from an alpha fraction can work at rate R, as n grows."""
    rate, alpha = as_fraction(rate), as_fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0 <= rate <= alpha:
        raise ValueError(
            f"rate = {rate} must lie in [0, alpha] = [0, {alpha}]")
    return 1 - rate / alpha


class RadiusReport(Record):
    """Side-by-side exact radii for one (n, k, alpha) triple."""

    __slots__ = _fields = ("n", "k", "alpha", "rate", "naive", "optimal",
                           "naive_normalized", "optimal_normalized",
                           "list_capacity")

    def __init__(self, n, k, alpha, rate, naive, optimal, naive_normalized,
                 optimal_normalized, list_capacity):
        self._set(n=n, k=k, alpha=alpha, rate=rate, naive=naive,
                  optimal=optimal, naive_normalized=naive_normalized,
                  optimal_normalized=optimal_normalized,
                  list_capacity=list_capacity)


def radius_report(n, k, alpha):
    """Compare the two radii; normalized values are the unfloored t/n."""
    alpha = as_fraction(alpha)
    _validate_regime(n, k, alpha)
    rate = Fraction(k, n)
    return RadiusReport(
        n=n, k=k, alpha=alpha, rate=rate,
        naive=radius_naive(n, k, alpha),
        optimal=radius_optimal(n, k, alpha),
        naive_normalized=(alpha - rate) / 2,
        optimal_normalized=(1 - rate / alpha) / 2,
        list_capacity=list_capacity(rate, alpha),
    )


class MinInfoResult(Record):
    """Outcome of the information-count necessary condition.

    Correcting t errors forces every n - 2t columns to jointly download at
    least k symbols' worth; min_total is the minimum over all such column
    sets and witness names a violating set when the condition fails.
    """

    __slots__ = _fields = ("passed", "min_total", "witness")

    def __init__(self, passed, min_total, witness):
        self._set(passed=passed, min_total=min_total, witness=witness)


def min_info_check(alphas, t, k):
    """Check sum of the n - 2t smallest per-column download fractions >= k.

    alphas lists each column's downloaded fraction (of one symbol), t the
    target radius, k the code dimension. Sorting is equivalent to minimizing
    over all (n - 2t)-subsets, so the check is exact.
    """
    alphas = [as_fraction(a) for a in alphas]
    for a in alphas:
        if not 0 <= a <= 1:
            raise ValueError(f"per-column fraction {a} outside [0, 1]")
    n = len(alphas)
    if not isinstance(t, int) or t < 0:
        raise ValueError("t must be a nonnegative integer")
    if 2 * t > n:
        raise ValueError(f"2t = {2 * t} exceeds n = {n}: no columns would "
                         "remain trustworthy")
    order = sorted(range(n), key=lambda i: (alphas[i], i))
    chosen = tuple(sorted(order[: n - 2 * t]))
    total = sum((alphas[i] for i in chosen), Fraction(0))
    passed = total >= k
    return MinInfoResult(passed=passed, min_total=total,
                         witness=() if passed else chosen)


class CollisionWitness(Record):
    """Two codewords plus error patterns with identical downloads.

    Corrupting word_a by pattern_a and word_b by pattern_b yields words
    whose downloads agree on every column, so no decoder working from these
    downloads can tell the two apart. agree_columns is the clean overlap
    (the n - 2t columns where the original codewords already download
    identically); the patterns touch only the remaining 2t columns, t each.
    """

    __slots__ = _fields = ("word_a", "word_b", "pattern_a", "pattern_b",
                           "agree_columns")

    def __init__(self, word_a, word_b, pattern_a, pattern_b, agree_columns):
        self._set(word_a=word_a, word_b=word_b, pattern_a=pattern_a,
                  pattern_b=pattern_b, agree_columns=agree_columns)


def find_download_collision(field, codewords, download, t):
    """Search for a pair of codewords indistinguishable at radius t.

    codewords: sequence of array words (tuples of columns), all with the
    same n columns; download: a map from a whole word to its n per-column
    downloads, called once per codeword. Scans every (n - 2t)-subset of
    columns for two codewords with equal downloads there, then splits the
    other 2t columns into halves and crosses each word halfway to the
    other. Returns the first witness in canonical subset/codeword order,
    or None when radius t is achievable on this set. Every codeword symbol
    is checked against `field`.
    """
    codewords = [tuple(map(field.check_all, word)) for word in codewords]
    if not codewords:
        return None
    n = len(codewords[0])
    if any(len(word) != n for word in codewords):
        raise ValueError("all codewords must have the same number of columns")
    if not isinstance(t, int) or t < 0:
        raise ValueError("t must be a nonnegative integer")
    if 2 * t > n:
        raise ValueError(f"2t = {2 * t} exceeds n = {n}")
    check_budget(len(codewords) * comb(n, n - 2 * t),
                 f"collision search over {len(codewords)} codewords")

    downloads = [download(word) for word in codewords]
    for subset in itertools.combinations(range(n), n - 2 * t):
        seen = {}
        for idx, word in enumerate(codewords):
            key = tuple(downloads[idx][i] for i in subset)
            prior = seen.setdefault(key, idx)
            if prior == idx or codewords[prior] == word:
                continue
            return _build_witness(field, codewords[prior], word,
                                  subset, t, download)
    return None


def _build_witness(field, word_a, word_b, agree_columns, t, download):
    """Cross two download-colliding codewords into a decoder trap.

    The columns outside the overlap are split J1 | J2 with t slots each;
    word_a takes word_b's columns on J1 and word_b takes word_a's on J2,
    leaving both corrupted words identical to (b on J1, a on J2, either on
    the overlap) as far as downloads go, provided each column's download
    depends on that column alone. The search compares downloads column by
    column and so assumes that; the one comparison of the two corrupted
    words' downloads here is what checks it, and a download that mixes
    columns raises RuntimeError.
    """
    from .arraycode import apply_error_pattern, difference_pattern

    n = len(word_a)
    rest = [i for i in range(n) if i not in set(agree_columns)]
    j1, j2 = rest[:t], rest[t:]
    pattern_a = difference_pattern(field, word_a, word_b, j1)
    pattern_b = difference_pattern(field, word_b, word_a, j2)
    corrupted_a = apply_error_pattern(field, word_a, pattern_a)
    corrupted_b = apply_error_pattern(field, word_b, pattern_b)
    if download(corrupted_a) != download(corrupted_b):
        raise RuntimeError(
            "collision construction failed its own download check; "
            "a column's download must depend on that column alone")
    return CollisionWitness(word_a=word_a, word_b=word_b,
                            pattern_a=pattern_a, pattern_b=pattern_b,
                            agree_columns=tuple(agree_columns))


def _check_radius(radius):
    if not isinstance(radius, int) or isinstance(radius, bool) or radius < 0:
        raise ValueError(f"radius must be a nonnegative int, got {radius!r}")


def list_decode_bruteforce(cfg, per_column, radius):
    """Every message of `cfg.codewords()` whose `cfg.download_fn()`
    downloads differ from `per_column` on at most `radius` columns, in
    canonical message order, for a config of either scheme.

    Checks the radius, a nonnegative int, then every symbol of per_column,
    then its shape, n columns of served_per_column symbols; the enumeration
    is gated by the budget.
    """
    _check_radius(radius)
    per_column = tuple(map(cfg.symbol_field.check_all, per_column))
    n, size = cfg.n, cfg.served_per_column
    if len(per_column) != n or any(len(c) != size for c in per_column):
        raise ValueError(f"expected {n} columns of {size} downloaded symbols")
    field, length = cfg.message_field, cfg.message_length
    check_budget(field.order ** length, f"list decoding over {field!r}^{length}")
    download = cfg.download_fn()
    return [message for message, word in cfg.codewords()
            if sum(map(ne, download(word), per_column)) <= radius]


def nearest_codeword_bruteforce(code, received, radius):
    """All (message, distance) pairs with distance <= radius, by full search
    of the RS code `code`.

    The list is sorted by distance, ties broken by canonical message order
    (lexicographic on the padded coefficient tuple). Enumerates all q^k
    messages, so it is gated by the enumeration budget. The radius must be
    a nonnegative int.
    """
    from .polyring import normalize
    from .rs import rs_evaluate

    field, n, k = code.field, code.n, code.k
    _check_radius(radius)
    received = tuple(received)
    if len(received) != n:
        raise ValueError(f"received word has {len(received)} symbols, expected {n}")
    field.check_all(received)
    check_budget(field.order ** k, f"nearest-codeword search over {field!r}^{k}")
    hits = []
    for message in itertools.product(field.elements(), repeat=k):
        dist = sum(map(ne, rs_evaluate(code, message), received))
        if dist <= radius:
            hits.append((normalize(message), dist))
    hits.sort(key=lambda pair: pair[1])  # stable: canonical order within ties
    return hits


class FigureRow(Record):
    __slots__ = _fields = ("alpha", "naive_normalized", "optimal_normalized")

    def __init__(self, alpha, naive_normalized, optimal_normalized):
        self._set(alpha=alpha, naive_normalized=naive_normalized,
                  optimal_normalized=optimal_normalized)


def emit_figure(rate, steps=61):
    """Rows of (alpha, naive, optimal) normalized radii at a fixed rate.

    alpha sweeps [rate, 1] in `steps` evenly spaced exact points; at
    alpha = rate both curves hit 0, at alpha = 1 both hit (1 - rate) / 2.
    """
    rate = as_fraction(rate)
    if not 0 < rate < 1:
        raise ValueError(f"rate must lie in (0, 1), got {rate}")
    if steps < 2:
        raise ValueError("need at least 2 sweep points")
    rows = []
    for i in range(steps):
        alpha = rate + Fraction(i, steps - 1) * (1 - rate)
        rows.append(FigureRow(
            alpha=alpha,
            naive_normalized=(alpha - rate) / 2,
            optimal_normalized=(1 - rate / alpha) / 2,
        ))
    return rows


def _decimal6(value):
    """Render an exact Fraction with 6 decimal digits, round half to even."""
    scaled = round(value * 10 ** 6)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10 ** 6)
    return f"{sign}{whole}.{frac:06d}"


def figure_csv(rows):
    """CSV text for emit_figure rows; exact rationals rounded at the last
    possible moment, never via float."""
    lines = ["alpha,naive_normalized,optimal_normalized"]
    for row in rows:
        lines.append(",".join(_decimal6(v) for v in
                              (row.alpha, row.naive_normalized,
                               row.optimal_normalized)))
    return "\n".join(lines) + "\n"
