"""Prime fields GF(q), and the primality and factoring they rest on.

An element of GF(q) is its residue, a canonical integer in [0, q). This
is all the arithmetic the folded scheme needs, so a folded process loads
this module and not `fields`, whose extension fields, Rabin's test and
trace-dual bases only the trace scheme uses. `fields` builds its
`ExtField` over a `PrimeField` from here and shares its `check` and
`check_all`.

The library computes on plain integers mod q. The arithmetic methods are
a reference that the tests and the benchmark tracer read. They assume
canonical operands: `check` is the one validator, and the public entry
points that take symbols from a caller or a file run it once per
incoming symbol.
"""


# The first 13 primes. No composite below _PSI_13 is a strong probable
# prime to all of them (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n):
    """Whether the integer n is prime, by Miller-Rabin to the bases
    _BASES, which is exact below _PSI_13; ValueError at or above it."""
    if n >= _PSI_13:
        raise ValueError(f"primality is decided only below {_PSI_13}, "
                         f"not for {n}")
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _BASES:
        # n passes base a if a^odd = 1 or a^(odd * 2^r) = -1 for some r < twos
        x = pow(a, odd, n)
        if x == 1:
            continue
        for _ in range(twos):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def prime_factors(n):
    """Sorted distinct prime factors of n >= 1, by trial division."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_q(field, what):
    """The q of a prime field, whose integer arithmetic mod q `what` runs;
    TypeError for any other field, where reducing mod q would be wrong."""
    if field.order != field.char:
        raise TypeError(f"{what} runs over prime fields only, not {field!r}")
    return field.q


class PrimeField:
    """GF(q) for prime q, with arithmetic on canonical integers."""

    def __init__(self, q):
        if not isinstance(q, int) or isinstance(q, bool):
            raise ValueError(f"field size {q!r} is not an integer")
        if not is_prime(q):
            raise ValueError(f"field size {q} is not prime")
        self.q = q
        self.order = q
        self.char = q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.q == other.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"GF({self.q})"

    def check(self, a):
        """`a`, if it is an int, not a bool, in [0, self.order)."""
        # a plain int skips the isinstance tests; anything else takes them
        if (type(a) is not int and (not isinstance(a, int)
                                    or isinstance(a, bool))
                or not 0 <= a < self.order):
            raise ValueError(f"{a!r} is not a canonical element of {self!r}")
        return a

    def check_all(self, symbols):
        """The symbols as a tuple, each checked with `check`. One pass
        over plain ints in range stands for the checks; otherwise every
        symbol is checked in order, so the first bad one raises as it
        would alone."""
        symbols = tuple(symbols)
        if (set(map(type, symbols)) != {int} or min(symbols) < 0
                or max(symbols) >= self.order):
            for a in symbols:
                self.check(a)
        return symbols

    def elements(self):
        return range(self.q)

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return pow(a, self.q - 2, self.q)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            raise ValueError("exponent must be nonnegative; invert first")
        return pow(a, e, self.q)
