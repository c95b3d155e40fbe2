"""Shared plumbing for array codes, and the stages both schemes run.

A word of an array code is a tuple of n columns, each column a tuple of
field elements; one corrupted column counts as one error regardless of how
many of its entries changed.

`ArrayConfig` is the base of both schemes' configs. It writes each stage
once: encode, download, decode, the full pipeline and the enumeration of
the code. A scheme supplies its layout, sizes and six packed maps as
derived slots, and two small methods. The full pipeline checks a
well-shaped error pattern in one pass against the config's n and l, and
runs the column-by-column loop only to find a faulty pattern's first
fault. It never forms the stored word: the served symbols and their
words' interpolants are linear in the message and the offsets, so its
transmit side is one `rs.packed_sum` that yields both, as the staged
`decode`'s one product does from the served symbols. Both go to one
`rs.decode_words`: a Euclid run per word to a quotient, then one product
with the scheme's `decode_map` that re-encodes every word in served
order and, for the trace scheme, reads the message digits too.
"""

import itertools

from .primefield import prime_q
from .records import Record
from .rs import decode_words, packed_product, packed_sum


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
    heights = set(map(len, columns))
    offsets = _checked_offsets(field, pattern, len(columns),
                               heights.pop() if len(heights) == 1 else None,
                               bounds)
    q = prime_q(field, "an error pattern")
    for start, vec in offsets:
        end = start + len(vec)
        symbols[start:end] = [(a + e) % q
                              for a, e in zip(symbols[start:end], vec)]
    return tuple(tuple(symbols[a:b]) for a, b in zip(bounds, bounds[1:]))


def _checked_offsets(field, pattern, n, l, bounds=None):
    """The pattern's offsets as (start, offset) pairs on a flat word of n
    columns of l symbols, column i symbols i*l to i*l + l, or, where l is
    None, of uneven columns, column i symbols bounds[i] to bounds[i + 1].
    A well-shaped pattern costs one pass: its support lies below n, every
    offset has l symbols, and one check_all checks them all. Any other
    takes the loop in support order: each column must lie in the word,
    each offset must have its column's length and every offset symbol is
    checked against `field`; the first fault raises."""
    support, values = pattern.support, pattern.values
    if (not support or support[-1] < n) and {*map(len, values)} <= {l}:
        field.check_all(itertools.chain.from_iterable(values))
        return [(i * l, vec) for i, vec in zip(support, values)]
    bounds, offsets = bounds or range(0, n * l + 1, l), []
    for idx, vec in zip(support, values):
        if idx >= n:
            raise ValueError(f"error column {idx} outside word of length {n}")
        start = bounds[idx]
        if len(vec) != bounds[idx + 1] - start:
            raise ValueError(f"offset length {len(vec)} != column length "
                             f"{bounds[idx + 1] - start}")
        offsets.append((start, field.check_all(vec)))
    return offsets


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


class _BundleSlots(Record):
    __slots__ = ("per_column", "downloaded", "accessed")


class DownloadBundle(_BundleSlots):
    """Per-column downloaded symbols plus exact transfer accounting.

    downloaded counts base-field symbols sent over the wire; accessed counts
    base-field symbols a node had to read to produce them. The two differ
    only for schemes that compute on more symbols than they transmit.
    A stage's bundle holds a `zip` of its columns until per_column is
    read, so a caller of the counts alone never splits them."""

    __slots__ = ()
    _fields = _BundleSlots.__slots__

    def __init__(self, per_column, downloaded, accessed):
        self._set(per_column=tuple(map(tuple, per_column)),
                  downloaded=downloaded, accessed=accessed)

    def _columns(self, slot=_BundleSlots.per_column):
        if slot.__get__(self).__class__ is zip:
            slot.__set__(self, tuple(slot.__get__(self)))
        return slot.__get__(self)

    # _set, copy and pickle write the slot itself
    per_column = property(_columns, _BundleSlots.per_column.__set__)


class ArrayConfig(Record):
    """The stages of an array code that serves a linear function of each
    column and corrects the bad columns with one RS unique decoder.

    A message is `message_length` symbols of `message_field`. It is stored
    as n columns of l symbols of `symbol_field`. Each column serves
    `served_per_column` symbols, g consecutive symbols of each of the
    words of `served_code`, an RS code over the symbol field. A scheme
    sets those derived slots, the sizes downloaded_per_word (n times
    served_per_column), accessed_per_word and radius, set once so that
    no op recomputes them, and six packed maps (`rs.PackedMap`):
    encode_map: the encode inputs of a message to its n*l stored symbols,
        column by column;
    interpolation_map: the served symbols, flat and column by column, to
        themselves and their words' interpolants (`rs.interpolation_map`);
    download_map: the n*l stored symbols to those outputs, column i's
        served symbols reading only its own l stored ones;
    served_download_map: download_map's served outputs alone
        (`rs.leading_map`), which the staged `download` applies;
    transmit_map: the composite of the two, the encode inputs of a
        message to those outputs of its stored word, built from the
        scheme's structure rather than by composing the two maps;
    decode_map: the map `rs.decode_words` applies after its Euclid runs,
        from every word's quotient coefficients to their re-encoded
        served symbols (`rs.served_map`) and then to any tail the
        scheme's message is read from.
    interpolation_map, download_map and transmit_map share their digit
    width, which holds the largest digit sum an output reaches from the
    encode inputs plus the stored symbols it reads, so one accumulation
    adds both of the last two.
    Besides those slots, a scheme has n and l, and defines two methods,
    each handed canonical symbols:
    _inputs(message): encode_map's inputs for a checked message;
    _message(polys, tail): the message whose served words decode to
        `polys`, one polynomial per word, with decode_map's tail `tail`.

    Every stage checks what enters it, once, and passes canonical symbols
    on: `encode` and `pipeline` each message symbol, `download` every
    stored symbol, served or not, `decode` every served one, and
    `pipeline` the error pattern as `apply_error_pattern` does.
    """

    __slots__ = ("served_code", "g", "served_per_column", "message_field",
                 "message_length", "downloaded_per_word", "accessed_per_word",
                 "radius", "encode_map", "interpolation_map", "download_map",
                 "served_download_map", "transmit_map", "decode_map")

    @property
    def symbol_field(self):
        """The field of the stored and the served symbols, GF(q)."""
        return self.served_code.field

    @property
    def message_space(self):
        """(order, length): the order of the message symbols' field, and
        the message length."""
        return self.message_field.order, self.message_length

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
        """The served symbols of a stored word, with transfer accounting:
        one product with served_download_map, which yields them alone
        and no interpolant. The word must have n columns of l
        symbols, and every symbol is checked, served or not; the first
        fault in column order raises."""
        columns = tuple(word)
        if len(columns) != self.n:
            raise ValueError(f"word must have n = {self.n} columns")
        return self._bundle(packed_product(
            self.served_download_map,
            _stored_symbols(self.symbol_field, columns, self.l)))

    def _bundle(self, out, slots=_BundleSlots):
        """The bundle of a word's served symbols, the first of `out`,
        flat and column by column, its slots written directly."""
        size = self.downloaded_per_word
        bundle = DownloadBundle.__new__(DownloadBundle)
        slots.per_column.__set__(bundle, zip(*[iter(out[:size])]
                                             * self.served_per_column))
        slots.downloaded.__set__(bundle, size)
        slots.accessed.__set__(bundle, self.accessed_per_word)
        return bundle

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
        return self._decoded(packed_product(
            self.interpolation_map, self.symbol_field.check_all(
                itertools.chain.from_iterable(per_column))))

    def _decoded(self, out):
        """(message, corrected_columns) from a word's canonical served
        symbols, flat and column by column, then their words'
        interpolants: `rs.decode_words` with decode_map."""
        size = self.downloaded_per_word
        polys, tail, corrected = decode_words(
            self.served_code, out[:size], out[size:], self.g, self.radius,
            self.decode_map)
        return self._message(polys, tail), corrected

    def pipeline(self, message, pattern):
        """encode -> corrupt -> download -> decode, returning (message,
        bundle), the bundle with the run's exact transfer accounting.

        Only what enters is checked: the message, as `encode` checks it,
        and the pattern, as `apply_error_pattern` checks it, with the same
        errors in the same order: a well-shaped pattern in one pass
        against n and l, a faulty one column by column. The stored word
        is never formed: the served symbols and their words' interpolants
        are the message's inputs through transmit_map plus each offset,
        (i*l, offset) for column i, through the download columns of its
        own l stored symbols, one `rs.packed_sum`, and they are decoded
        unchecked, as `decode` decodes its checked ones.
        Raises DecodeFailure as `decode` does.
        """
        inputs = self._inputs(self._checked_message(message))
        out = packed_sum(self.transmit_map, inputs, self.download_map,
                         _checked_offsets(self.symbol_field, pattern,
                                          self.n, self.l))
        return self._decoded(out)[0], self._bundle(out)

    def codewords(self):
        """Every (message, word) of the code, in canonical message order."""
        for message in itertools.product(self.message_field.elements(),
                                         repeat=self.message_length):
            yield message, self.encode(message)
