"""Prime fields, extension fields, and trace-dual basis pairs.

Elements are canonical integers. In GF(q) an element is its residue in
[0, q). In GF(q^l), built as GF(q)[x]/(modulus), the element with
coordinate vector (c_0, ..., c_{l-1}) is encoded as sum(c_i * q**i), so
base-field elements keep their integer value when read in the extension.

The library computes on plain integers mod q. The arithmetic methods (in
the extension, `polyring` reduced modulo `modulus`) are a reference that
the tests and the benchmark tracer read. They assume canonical operands:
`check` is the one validator, and the public entry points that take
symbols from a caller or a file run it once per incoming symbol.
"""

import operator

from . import polyring
from .records import Record


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


def _check(field, a):
    """`a`, if it is an int, not a bool, in [0, field.order)."""
    # a plain int skips the isinstance tests; anything else takes them
    if (type(a) is not int and (not isinstance(a, int)
                                or isinstance(a, bool))
            or not 0 <= a < field.order):
        raise ValueError(f"{a!r} is not a canonical element of {field!r}")
    return a


def _check_all(field, symbols):
    """The symbols as a tuple, each checked with `field.check`. One pass
    over plain ints in range stands for the checks; otherwise every symbol
    is checked in order, so the first bad one raises as it would alone."""
    symbols = tuple(symbols)
    if (set(map(type, symbols)) != {int} or min(symbols) < 0
            or max(symbols) >= field.order):
        for a in symbols:
            field.check(a)
    return symbols


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

    check = _check
    check_all = _check_all

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


def poly_is_irreducible(base, coeffs):
    """Whether a monic polynomial over GF(q) has no factor of degree >= 1.

    Rabin's test: a monic f of degree l >= 1 is irreducible iff
    x^(q^l) = x (mod f) and gcd(x^(q^(l/r)) - x, f) = 1 for each prime
    r | l. The powers x^(q^i) mod f come from i repeated q-th powers, so the
    cost is polynomial in l and log q.
    """
    coeffs = polyring.normalize(base.check(c) for c in coeffs)
    deg = polyring.degree(coeffs)
    if deg < 1:
        return False
    if coeffs[-1] != 1:
        raise ValueError("irreducibility check expects a monic polynomial")
    x = polyring.poly_divmod(base, (0, 1), coeffs)[1]
    maximal = {deg // r for r in prime_factors(deg)}
    power = x
    for i in range(1, deg + 1):
        power = polyring.poly_powmod(base, power, base.q, coeffs)
        if i in maximal:
            # a maximal divisor exists only for deg >= 2, where x mod f is
            # x itself, so x^(q^i) - x lowers coefficient 1 by one
            diff = list(power) + [0] * (2 - len(power))
            diff[1] = (diff[1] - 1) % base.q
            if polyring.poly_gcd(base, polyring.normalize(diff),
                                 coeffs) != (1,):
                return False
    return power == x


def default_modulus(base, l):
    """First monic irreducible of degree l under lexicographic order on
    (c_0, ..., c_{l-1}). Deterministic, so configs can omit the modulus.

    For l >= 2 the search skips the q^(l-1) leading candidates with c_0 = 0:
    x divides each of them, and testing them would cost far more than the
    few candidates after them (29,791 tests against 2 at q = 31, l = 4).
    The candidates are made one at a time, from a counter whose base-q
    digits, most significant first, are (c_0, ..., c_{l-1}), so the search
    holds no list of field elements and runs over any q.
    """
    q = base.q
    for index in range(q ** (l - 1) if l >= 2 else 0, q ** l):
        lower = []
        for _ in range(l):
            index, c = divmod(index, q)
            lower.append(c)
        candidate = (*reversed(lower), 1)
        if poly_is_irreducible(base, candidate):
            return candidate
    raise RuntimeError(f"no irreducible polynomial of degree {l} over {base!r}")


class ExtField:
    """GF(q^l) as GF(q)[x]/(modulus) with integer-encoded elements."""

    def __init__(self, base, l, modulus=None):
        if not isinstance(base, PrimeField):
            raise ValueError("extension must be built over a PrimeField")
        if l < 1:
            raise ValueError("extension degree must be at least 1")
        if modulus is None:
            modulus = default_modulus(base, l)
        else:
            modulus = polyring.normalize(base.check(c) for c in modulus)
            if polyring.degree(modulus) != l:
                raise ValueError(f"modulus degree {polyring.degree(modulus)} != {l}")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if not poly_is_irreducible(base, modulus):
                raise ValueError(f"modulus {modulus} is reducible over {base!r}")
        self.base = base
        self.q = base.q
        self.degree = l
        self.modulus = modulus
        self.order = base.q ** l
        self.char = base.q

    def __eq__(self, other):
        return (isinstance(other, ExtField)
                and self.q == other.q
                and self.degree == other.degree
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash(("ExtField", self.q, self.degree, self.modulus))

    def __repr__(self):
        return f"GF({self.q}^{self.degree})"

    check = _check
    check_all = _check_all

    def elements(self):
        return range(self.order)

    def to_vec(self, a):
        """Coordinates (c_0, ..., c_{l-1}) in the polynomial basis."""
        out = []
        for _ in range(self.degree):
            a, c = divmod(a, self.q)
            out.append(c)
        return tuple(out)

    def from_vec(self, vec):
        """The element with the given coordinates, each checked against
        the base field."""
        vec = [self.base.check(c) for c in vec]
        if len(vec) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(vec)}")
        return _pack(vec, self.q)

    def add(self, a, b):
        return _pack(map(operator.add, self.to_vec(a), self.to_vec(b)), self.q)

    def sub(self, a, b):
        return _pack(map(operator.sub, self.to_vec(a), self.to_vec(b)), self.q)

    def neg(self, a):
        return _pack([-c for c in self.to_vec(a)], self.q)

    def mul(self, a, b):
        product = polyring.poly_mul(self.base, self.to_vec(a), self.to_vec(b))
        return _pack(polyring.poly_divmod(self.base, product, self.modulus)[1],
                     self.q)

    def pow(self, a, e):
        if e < 0:
            raise ValueError("exponent must be nonnegative; invert first")
        return _pack(polyring.poly_powmod(self.base, self.to_vec(a), e,
                                          self.modulus), self.q)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return self.pow(a, self.order - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def frobenius(self, a):
        """The q-power map, a field automorphism fixing the base field."""
        return self.pow(a, self.q)

    def trace(self, a):
        """Sum of the l Frobenius conjugates; lands in the base field and is
        returned as a base-field integer."""
        acc = a
        conj = a
        for _ in range(self.degree - 1):
            conj = self.frobenius(conj)
            acc = self.add(acc, conj)
        return self.to_vec(acc)[0]


def _pack(coords, q):
    """Integer encoding of coordinates, each one taken mod q."""
    return sum(c % q * q ** i for i, c in enumerate(coords))


def polynomial_basis(ext):
    """The basis (1, x, x^2, ...) of the extension over its base field."""
    return tuple(ext.q ** i for i in range(ext.degree))


def _invert_matrix(q, rows):
    """Inverse of a square matrix mod a prime q by Gauss-Jordan elimination.

    Returns None when the matrix is singular.
    """
    n = len(rows)
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], q - 2, q)
        aug[col] = [inv * c % q for c in aug[col]]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            aug[r] = [(aug[r][j] - factor * aug[col][j]) % q
                      for j in range(2 * n)]
    return tuple(tuple(row[n:]) for row in aug)


def dual_basis(ext, zeta=None):
    """Trace-dual basis pair for the extension over its base field, from a
    basis zeta (default: the polynomial basis)."""
    if zeta is None:
        zeta = polynomial_basis(ext)
    return TraceDualBasis(ext=ext, zeta=zeta)


class TraceDualBasis(Record):
    """A basis zeta of GF(q^l) over GF(q) together with its trace dual nu.

    project(beta) yields the base-field coordinates (trace(zeta_j * beta))_j,
    and reconstruct recovers beta = sum_j coords_j * nu_j, so the pair gives
    a lossless split of every extension element into l base-field symbols.

    Both directions are l x l matrices over the base field, built once from
    zeta. P[u][v] = trace(zeta_u * x^v) = sum_a vec(zeta_u)[a] * s[a + v]
    maps beta's coordinates to its trace coordinates; s[t] = trace(x^t),
    the power sums of the roots of the modulus c, follow mod q by Newton's
    identities: s[0] = l, s[t] = -(t * c[l-t] if t <= l else 0)
    - sum_{i=1}^{min(t-1, l)} c[l-i] * s[t-i]. As trace(zeta_j * nu_i) =
    delta_ij, P maps vec(nu_i) to the i-th unit vector: nu is the columns
    of P's inverse, and a singular P means zeta is not a basis.
    """

    _fields = ("ext", "zeta", "nu")
    __slots__ = _fields + ("_proj", "_recon")

    def __init__(self, ext, zeta):
        zeta = tuple(ext.check(z) for z in zeta)
        if len(zeta) != ext.degree:
            raise ValueError(
                f"basis must have {ext.degree} elements, got {len(zeta)}")
        q, l, c = ext.q, ext.degree, ext.modulus
        s = [l % q]
        for t in range(1, 2 * l - 1):
            acc = t * c[l - t] if t <= l else 0
            acc += sum(c[l - i] * s[t - i] for i in range(1, min(t, l + 1)))
            s.append(-acc % q)
        proj = tuple(tuple(sum(a * s[i + v] for i, a in enumerate(vec)) % q
                           for v in range(l))
                     for vec in map(ext.to_vec, zeta))
        recon = _invert_matrix(q, proj)
        if recon is None:
            raise ValueError("given elements are linearly dependent over the "
                             "base field (singular trace projection matrix)")
        self._set(ext=ext, zeta=zeta,
                  nu=tuple(_pack(col, ext.q) for col in zip(*recon)),
                  _proj=proj, _recon=recon)

    @property
    def l(self):
        return self.ext.degree

    def project(self, beta):
        """Base-field coordinate vector (trace(zeta_0 beta), ..., trace(zeta_{l-1} beta))."""
        vec = self.ext.to_vec(beta)
        q = self.ext.q
        return tuple(sum(map(operator.mul, row, vec)) % q for row in self._proj)

    def reconstruct(self, coords):
        """Inverse of project: the unique beta with the given trace coordinates."""
        coords = tuple(self.ext.base.check(c) for c in coords)
        if len(coords) != self.l:
            raise ValueError(f"expected {self.l} coordinates, got {len(coords)}")
        return _pack([sum(row[i] * coords[i] for i in range(self.l))
                      for row in self._recon], self.ext.q)
