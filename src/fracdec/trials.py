"""Seeded draws for trials: the splitmix64 generator, the per-trial
stream, and the random messages and error patterns drawn from it.

Randomness policy: every trial derives its own 64-bit stream from
(seed, weight, trialIndex) through the splitmix64 finalizer, so reports are
byte-identical across runs: exhaustive and sampled modes always see the
same messages and error values for a given trial index.

`harness` draws its trials here, and the CLI's `corrupt` draws its error
pattern here without loading the harness.
"""

from .arraycode import ErrorPattern

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SALT = 0xD1B54A32D192ED03


def _mix64(z):
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The splitmix64 generator: tiny, portable, and fully specified, so
    identical seeds give identical streams on every platform."""

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def below(self, bound):
        """Uniform integer in [0, bound) by rejection sampling (no modulo
        bias). Each candidate is the fewest 64-bit draws, concatenated,
        that reach bound - 1: one draw for every bound up to 2^64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        words = -(-(bound - 1).bit_length() // 64) or 1
        span = 1 << 64 * words
        limit = span - span % bound
        while True:
            v = self.next_u64()
            for _ in range(words - 1):
                v = v << 64 | self.next_u64()
            if v < limit:
                return v % bound

    def sample(self, n, count):
        """`count` distinct indices from range(n), sorted; partial
        Fisher-Yates so the draw count is fixed."""
        if not 0 <= count <= n:
            raise ValueError(f"cannot sample {count} of {n}")
        pool = list(range(n))
        for i in range(count):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:count]))


def check_seed(seed):
    """Refuse a seed outside [0, 2^64): trial_stream reads only its low 64
    bits, so any other seed would replay one inside that range."""
    if type(seed) is not int or not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def trial_stream(seed, weight, trial_index):
    """The per-trial generator: seed, weight, and trial index are folded
    into one splitmix64 state."""
    s = _mix64(seed)
    s = _mix64(s ^ (weight & _MASK64) ^ _GOLDEN)
    s = _mix64(s ^ (trial_index & _MASK64) ^ _SALT)
    return SplitMix64(s)


def random_message(cfg, stream):
    order, length = cfg.message_space
    return tuple(stream.below(order) for _ in range(length))


def random_column_offset(cfg, stream):
    """A uniformly random nonzero column offset (at least one nonzero
    symbol, so one offset = one column error)."""
    order = cfg.symbol_field.order
    while True:
        vec = tuple(stream.below(order) for _ in range(cfg.l))
        if any(vec):
            return vec


def random_error_pattern(cfg, stream, weight, support=None):
    """Error pattern of the given column weight; support drawn from the
    stream unless pinned by the caller."""
    if support is None:
        support = stream.sample(cfg.n, weight)
    support = tuple(sorted(support))
    if len(support) != weight:
        raise ValueError(f"support size {len(support)} != weight {weight}")
    values = tuple(random_column_offset(cfg, stream) for _ in support)
    return ErrorPattern(support=support, values=values)
