"""Shared plumbing for array codes.

A word of an array code is a tuple of n columns, each column a tuple of
field elements; one corrupted column counts as one error regardless of how
many of its entries changed.
"""

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class ErrorPattern:
    """A set of corrupted columns and the additive offsets applied to them.

    support: strictly increasing column indices.
    values: one offset vector per supported column, each with at least one
        nonzero entry (a zero offset would not corrupt anything).
    """

    support: tuple
    values: tuple

    def __post_init__(self):
        support = tuple(self.support)
        values = tuple(tuple(v) for v in self.values)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)
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
    field.check_all(itertools.chain.from_iterable(columns))
    offsets = []
    for idx, vec in zip(pattern.support, pattern.values):
        if idx >= len(columns):
            raise ValueError(f"error column {idx} outside word of length {len(columns)}")
        if len(vec) != len(columns[idx]):
            raise ValueError(f"offset length {len(vec)} != column length "
                             f"{len(columns[idx])}")
        offsets.append((idx, field.check_all(vec)))
    q = _prime(field)
    for idx, vec in offsets:
        columns[idx] = tuple((a + e) % q for a, e in zip(columns[idx], vec))
    return tuple(columns)


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


@dataclass(frozen=True)
class DownloadBundle:
    """Per-column downloaded symbols plus exact transfer accounting.

    downloaded counts base-field symbols sent over the wire; accessed counts
    base-field symbols a node had to read to produce them. The two differ
    only for schemes that compute on more symbols than they transmit.
    """

    per_column: tuple
    downloaded: int
    accessed: int

    def __post_init__(self):
        object.__setattr__(self, "per_column",
                           tuple(tuple(c) for c in self.per_column))
