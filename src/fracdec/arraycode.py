"""Shared plumbing for array codes, and the stages both schemes run.

A word of an array code is a tuple of n columns, each column a tuple of
field elements; one corrupted column counts as one error regardless of how
many of its entries changed.

`ArrayConfig` is the base of both schemes' configs. It writes each stage
once: encode, download, decode, the full pipeline and the enumeration of
the code. A scheme supplies its layout as derived slots and three small
methods; `rs.decode_words` is the one place served symbols become words.
"""

import itertools

from .primefield import prime_q
from .records import Record
from .rs import decode_columns, decode_words, packed_product


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
    _add_offsets(prime_q(field, "an error pattern"), symbols, offsets)
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
    q = prime_q(field, "an error pattern")
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


class ArrayConfig(Record):
    """The stages of an array code that serves a linear function of each
    column and corrects the bad columns with one RS unique decoder.

    A message is `message_length` symbols of `message_field`. It is stored
    as n columns of l symbols of `symbol_field`, the n*l stored symbols
    being one product with the config's packed `encode_map`. Each column
    serves `served_per_column` symbols, g consecutive symbols of each of
    the words of `served_code`, an RS code over the symbol field. Besides
    those derived slots, a scheme has n, l, radius and accessed_per_word,
    and defines three methods, each handed canonical symbols:
    _inputs(message): encode_map's inputs for a checked message;
    _serve(stored): the served symbols of the n*l stored ones; both flat
        and column by column;
    _message(polys): the message whose served words decode to `polys`,
        one polynomial per word.

    Every stage checks what enters it, once, and passes canonical symbols
    on: `encode` and `pipeline` each message symbol, `download` every
    stored symbol, served or not, `decode` every served one through
    `rs.decode_columns`, and `pipeline` the error pattern as
    `apply_error_pattern` does.
    """

    __slots__ = ("served_code", "g", "served_per_column", "message_field",
                 "message_length")

    @property
    def symbol_field(self):
        """The field of the stored and the served symbols, GF(q)."""
        return self.served_code.field

    @property
    def message_space(self):
        """(order, length): the order of the message symbols' field, and
        the message length."""
        return self.message_field.order, self.message_length

    @property
    def downloaded_per_word(self):
        return self.n * self.served_per_column

    def _checked_message(self, message):
        """The message as a tuple of exactly message_length symbols, each
        checked against the message field."""
        message = tuple(message)
        if len(message) != self.message_length:
            raise ValueError(f"message must have exactly "
                             f"{self.message_length} symbols")
        return self.message_field.check_all(message)

    def encode(self, message):
        """The stored word of a message, n columns of l symbols: one
        product with encode_map. Every message symbol is checked."""
        stored = packed_product(self.encode_map,
                                self._inputs(self._checked_message(message)))
        return tuple(zip(*[iter(stored)] * self.l))

    def download(self, word):
        """The served symbols of a stored word, with transfer accounting.
        The word must have n columns of l symbols, and every symbol is
        checked, served or not; the first fault in column order raises."""
        columns = tuple(word)
        if len(columns) != self.n:
            raise ValueError(f"word must have n = {self.n} columns")
        return self._bundle(self._serve(
            _stored_symbols(self.symbol_field, columns, self.l)))

    def _bundle(self, served):
        """The bundle of a word's served symbols, flat and column by
        column."""
        return DownloadBundle(
            per_column=zip(*[iter(served)] * self.served_per_column),
            downloaded=self.downloaded_per_word,
            accessed=self.accessed_per_word)

    def decode(self, per_column):
        """Decode n columns of served symbols.

        Returns (message, corrected_columns) exactly when some message's
        downloads lie within `radius` columns of the received ones;
        corrected_columns is where that message's downloads differ.
        Raises DecodeFailure otherwise, and ValueError on a bundle of
        another shape or on a symbol outside the field, the first in
        column order.
        """
        n, size = self.n, self.served_per_column
        if len(per_column) != n or set(map(len, per_column)) != {size}:
            raise ValueError(f"download bundle must be {n} columns of {size} "
                             "symbols")
        polys, corrected = decode_columns(self.served_code, per_column,
                                          self.radius)
        return self._message(polys), corrected

    def pipeline(self, message, pattern):
        """encode -> corrupt -> download -> decode, returning (message,
        bundle), the bundle with the run's exact transfer accounting.

        Only what enters is checked: the message, as `encode` checks it,
        and the pattern, as `apply_error_pattern` checks it, with the same
        errors in the same order. The word then stays one flat list of
        canonical symbols, and its served symbols go to `rs.decode_words`
        unchecked. Raises DecodeFailure as `decode` does.
        """
        stored = packed_product(self.encode_map,
                                self._inputs(self._checked_message(message)))
        field, l = self.served_code.field, self.l
        _add_offsets(field.q, stored, _checked_offsets(
            field, pattern, range(0, len(stored) + 1, l)))
        served = self._serve(stored)
        polys, _ = decode_words(self.served_code, served, self.g, self.radius)
        return self._message(polys), self._bundle(served)

    def codewords(self):
        """Every (message, word) of the code, in canonical message order."""
        for message in itertools.product(self.message_field.elements(),
                                         repeat=self.message_length):
            yield message, self.encode(message)
