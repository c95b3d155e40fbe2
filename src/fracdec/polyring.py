"""The polynomial ring over a prime field GF(q) that the library runs:
the products, division, powers mod a polynomial and gcd that Rabin's
irreducibility test and the reference field arithmetic in `fields` need,
and `poly_from_roots`, the root polynomial of a point set. Evaluation and
interpolation at a code's points live in `rs`.

A polynomial is a tuple of field elements, constant coefficient first,
with no trailing zeros; the zero polynomial is the empty tuple, of degree
-1. Every function takes the field as its first argument, reads its q once
and runs plain integer loops reduced mod q, with no per-coefficient field
method call. A field that is not prime (such as an `ExtField`, whose q is
its characteristic) raises TypeError rather than return values reduced
mod the wrong number.
Coefficients and points must be canonical integers of that field. Nothing
here validates them: callers check symbols where they enter, with the
field's `check`.
"""


def _prime(field):
    """The q of a prime field; TypeError for any other field."""
    if field.order != field.char:
        raise TypeError(f"polyring works over prime fields only, not {field!r}")
    return field.q


def normalize(coeffs):
    """Strip trailing zero coefficients, returning a canonical tuple."""
    coeffs = tuple(coeffs)
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def degree(a):
    return len(a) - 1


def poly_mul(field, a, b):
    """Schoolbook product: accumulate each coefficient, then reduce it once."""
    q = _prime(field)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return normalize([c % q for c in out])


def poly_divmod(field, a, b):
    """Long division: return (quotient, remainder) with deg r < deg b."""
    q = _prime(field)
    if not b:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if len(a) < len(b):
        return (), a
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    inv_lead = pow(b[-1], q - 2, q)
    for shift in range(len(a) - len(b), -1, -1):
        factor = rem[shift + len(b) - 1] * inv_lead % q
        if factor == 0:
            continue
        quot[shift] = factor
        for i, c in enumerate(b, shift):
            rem[i] = (rem[i] - factor * c) % q
    return normalize(quot), normalize(rem)


def poly_from_roots(field, roots):
    """Monic polynomial whose roots are exactly the given elements,
    multiplied by each x - r in place."""
    q = _prime(field)
    out = [1]
    for r in roots:
        out.append(1)
        for i in range(len(out) - 2, 0, -1):
            out[i] = (out[i - 1] - r * out[i]) % q
        out[0] = -r * out[0] % q
    return tuple(out)


def poly_powmod(field, a, exponent, modulus):
    """a^exponent mod modulus by square-and-multiply, reducing every product."""
    if exponent < 0:
        raise ValueError("polynomial exponent must be nonnegative")
    result = poly_divmod(field, (1,), modulus)[1]
    square = poly_divmod(field, a, modulus)[1]
    while exponent:
        if exponent & 1:
            result = poly_divmod(field, poly_mul(field, result, square),
                                 modulus)[1]
        exponent >>= 1
        if exponent:
            square = poly_divmod(field, poly_mul(field, square, square),
                                 modulus)[1]
    return result


def poly_gcd(field, a, b):
    """Monic greatest common divisor by Euclid's algorithm; gcd(0, 0) = 0."""
    q = _prime(field)
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    if not a:
        return ()
    inv_lead = pow(a[-1], q - 2, q)
    return tuple(c * inv_lead % q for c in a)
