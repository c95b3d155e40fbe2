"""Univariate polynomial arithmetic over a prime field GF(q).

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


def poly_add(field, a, b):
    q = _prime(field)
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % q
    return normalize(out)


def poly_neg(field, a):
    q = _prime(field)
    return tuple(-c % q for c in a)


def poly_sub(field, a, b):
    return poly_add(field, a, poly_neg(field, b))


def poly_scale(field, a, c):
    q = _prime(field)
    if c == 0:
        return ()
    return tuple(coef * c % q for coef in a)


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


def poly_eval(field, a, x):
    """Evaluate by Horner's rule."""
    q = _prime(field)
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % q
    return acc


def poly_from_roots(field, roots):
    """Monic polynomial whose roots are exactly the given elements."""
    q = _prime(field)
    out = (1,)
    for r in roots:
        out = poly_mul(field, out, (-r % q, 1))
    return out


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
    return poly_scale(field, a, pow(a[-1], q - 2, q)) if a else ()


def lagrange_basis(field, xs):
    """The polynomials L_i of degree < len(xs) with L_i(xs[j]) = [i == j].

    L_i is (M / (x - xs[i])) / M'(xs[i]) for the monic M whose roots are
    the xs. One synthetic-division pass over M yields the quotient
    coefficients from the top down, and Horner's rule on them as they
    appear gives the quotient at xs[i], which is M'(xs[i]); so the whole
    basis costs O(len^2) after building M.
    """
    q = _prime(field)
    xs = list(xs)
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x coordinates")
    master = poly_from_roots(field, xs)
    out = []
    for x in xs:
        quotient = [0] * len(xs)
        coef = slope = 0
        for j in range(len(xs), 0, -1):
            coef = (coef * x + master[j]) % q
            quotient[j - 1] = coef
            slope = (slope * x + coef) % q
        scale = pow(slope, q - 2, q)
        out.append(tuple(c * scale % q for c in quotient))
    return out


def interpolate(field, points):
    """Unique polynomial of degree < len(points) through the given points.

    points is a sequence of (x, y) pairs with distinct x; the result is
    sum_i y_i * L_i over the Lagrange basis of the x coordinates.
    """
    q = _prime(field)
    points = list(points)
    acc = [0] * len(points)
    for (_, y), basis in zip(points, lagrange_basis(field,
                                                    (x for x, _ in points))):
        for j, c in enumerate(basis):
            acc[j] += y * c
    return normalize([c % q for c in acc])
