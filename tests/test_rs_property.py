"""A seeded property test of the packed RS decoder against the scalar
Euclid, over random prime fields up to 2^31 - 1: small fields run on
narrow digits that never need room, larger ones on 64-bit digits that the
run folds, and fields near 2^31 on 64-bit digits it reduces exactly.
Skipped where `hypothesis` is not installed."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import oracles  # noqa: E402
from test_rs import decode_outcome, decode_word  # noqa: E402

from fracdec.primefield import PrimeField, is_prime  # noqa: E402
from fracdec.rs import RsCode  # noqa: E402


def next_prime(x):
    while not is_prime(x):
        x += 1
    return x


@st.composite
def hit_words(draw):
    """A code over a random prime field up to 2^31 - 1, and a codeword of
    it hit at up to radius + 2 random positions."""
    bits = draw(st.integers(1, 31))
    q = next_prime(draw(st.integers(2 ** (bits - 1) + 1, 2 ** bits - 1))
                   if bits > 1 else 2)
    if q >= 2 ** 31:
        q = 2 ** 31 - 1
    n = draw(st.integers(1, min(q, 40)))
    k = draw(st.integers(1, n))
    omega = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n,
                          unique=True))
    code = RsCode(PrimeField(q), k, omega)
    word = list(oracles.rs_evaluate(code, draw(st.lists(
        st.integers(0, q - 1), min_size=k, max_size=k))))
    weight = draw(st.integers(0, min(n, code.radius + 2)))
    for pos in draw(st.permutations(range(n)))[:weight]:
        word[pos] = (word[pos] + draw(st.integers(1, q - 1))) % q
    return code, word


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(hit_words())
def test_packed_decoder_matches_the_scalar_euclid_on_random_fields(case):
    """rs.decode_columns, one symbol a column, agrees with the
    coefficient-at-a-time Euclid decoder, message and positions or
    failure message, within the radius and up to two errors past it."""
    code, word = case
    assert decode_outcome(decode_word, code, word) == decode_outcome(
        oracles.rs_decode_euclid, code, word)
