"""Shared plumbing for array codes.

A word of an array code is a tuple of n columns, each column a tuple of
field elements; one corrupted column counts as one error regardless of how
many of its entries changed.
"""

import itertools

from .records import Record


class ErrorPattern(Record):
    """A set of corrupted columns and the additive offsets applied to them.

    support: strictly increasing column indices.
    values: one offset vector per supported column, each with at least one
        nonzero entry (a zero offset would not corrupt anything).
    """

    __slots__ = _fields = ("support", "values")

    def __init__(self, support, values):
        support = tuple(support)
        values = tuple(map(tuple, values))
        self._set(support=support, values=values)
        if len(support) != len(values):
            raise ValueError("support and values must have the same length")
        if any(support[i] >= support[i + 1] for i in range(len(support) - 1)):
            raise ValueError("support indices must be strictly increasing")
        if any(i < 0 for i in support):
            raise ValueError("support indices must be nonnegative")
        for idx, vec in zip(support, values):
            if not any(vec):
                raise ValueError(f"offset for column {idx} is all zero")

    @property
    def weight(self):
        return len(self.support)


def _prime(field):
    """The q of a prime field; TypeError for any other field."""
    if field.order != field.char:
        raise TypeError(f"error patterns apply over prime fields only, "
                        f"not {field!r}")
    return field.q


def apply_error_pattern(field, columns, pattern):
    """Add the pattern's offsets onto a word, columnwise over the prime
    field `field`.

    Every symbol of the word and of the offsets is checked against the
    field first, so a word that leaves here is canonical whether or not its
    columns were hit. The sums are integers reduced mod q, so a field that
    is not prime raises TypeError.
    """
    columns = [tuple(col) for col in columns]
    symbols = list(field.check_all(itertools.chain.from_iterable(columns)))
    bounds = list(itertools.accumulate(map(len, columns), initial=0))
    offsets = _checked_offsets(field, pattern, bounds)
    _add_offsets(_prime(field), symbols, offsets)
    return tuple(tuple(symbols[a:b]) for a, b in zip(bounds, bounds[1:]))


def _checked_offsets(field, pattern, bounds):
    """The pattern's offsets as (start, offset) pairs on a flat word whose
    column i is symbols bounds[i] to bounds[i + 1]. In support order, each
    column must lie in the word, each offset must have its column's length
    and every offset symbol is checked against `field`; the first fault
    raises."""
    n, offsets = len(bounds) - 1, []
    for idx, vec in zip(pattern.support, pattern.values):
        if idx >= n:
            raise ValueError(f"error column {idx} outside word of length {n}")
        start = bounds[idx]
        if len(vec) != bounds[idx + 1] - start:
            raise ValueError(f"offset length {len(vec)} != column length "
                             f"{bounds[idx + 1] - start}")
        offsets.append((start, field.check_all(vec)))
    return offsets


def _add_offsets(q, symbols, offsets):
    """Add each checked (start, offset) pair onto the flat list of
    canonical `symbols` in place, mod q."""
    for start, vec in offsets:
        end = start + len(vec)
        symbols[start:end] = [(a + e) % q
                              for a, e in zip(symbols[start:end], vec)]


def _stored_symbols(field, columns, height):
    """The symbols of a stored word, column by column, in one flat tuple:
    every column must hold exactly `height` symbols, and every symbol is
    checked against `field` before any product sees it. A good word costs
    one check_all pass; on a bad one the first fault in column order
    raises."""
    columns = tuple(map(tuple, columns))
    if set(map(len, columns)) - {height}:
        short = next(i for i, c in enumerate(columns) if len(c) != height)
        # a bad symbol in an earlier column comes first
        field.check_all(itertools.chain.from_iterable(columns[:short]))
        raise ValueError(f"column must have l = {height} symbols, "
                         f"got {len(columns[short])}")
    return field.check_all(itertools.chain.from_iterable(columns))


def difference_pattern(field, base_word, other_word, columns=None):
    """ErrorPattern e with base_word + e == other_word on the given columns.

    columns defaults to all of them; columns where the words agree are
    skipped, so the pattern weight can be below len(columns). Both words'
    symbols there are checked first; then a non-prime field raises TypeError.
    """
    if columns is None:
        columns = range(len(base_word))
    pairs = [(i, [(field.check(a), field.check(b))
                  for a, b in zip(base_word[i], other_word[i])])
             for i in sorted(columns)]
    q = _prime(field)
    support, values = [], []
    for i, column in pairs:
        offsets = tuple((b - a) % q for a, b in column)
        if any(offsets):
            support.append(i)
            values.append(offsets)
    return ErrorPattern(support=tuple(support), values=tuple(values))


class DownloadBundle(Record):
    """Per-column downloaded symbols plus exact transfer accounting.

    downloaded counts base-field symbols sent over the wire; accessed counts
    base-field symbols a node had to read to produce them. The two differ
    only for schemes that compute on more symbols than they transmit.
    """

    __slots__ = _fields = ("per_column", "downloaded", "accessed")

    def __init__(self, per_column, downloaded, accessed):
        self._set(per_column=tuple(map(tuple, per_column)),
                  downloaded=downloaded, accessed=accessed)
