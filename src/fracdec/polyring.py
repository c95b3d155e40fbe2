"""Univariate polynomial arithmetic over a finite field.

A polynomial is a tuple of field elements, constant coefficient first,
with no trailing zeros; the zero polynomial is the empty tuple, of degree
-1. Every function takes the field as its first argument; any object with
add/sub/mul/div/neg methods works. The library calls them over prime fields
only; the tests also run them over `ExtField` as a GF(q^l) reference.
Coefficients and points must be canonical integers of that field. Nothing
here validates them: callers check symbols where they enter, with the
field's `check`.
"""


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
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = field.add(out[i], c)
    return normalize(out)


def poly_neg(field, a):
    return tuple(field.neg(c) for c in a)


def poly_sub(field, a, b):
    return poly_add(field, a, poly_neg(field, b))


def poly_scale(field, a, c):
    if c == 0:
        return ()
    return tuple(field.mul(coef, c) for coef in a)


def poly_mul(field, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb == 0:
                continue
            out[i + j] = field.add(out[i + j], field.mul(ca, cb))
    return normalize(out)


def poly_pow(field, a, exponent):
    if exponent < 0:
        raise ValueError("polynomial exponent must be nonnegative")
    result = (1,)
    square = a
    while exponent:
        if exponent & 1:
            result = poly_mul(field, result, square)
        exponent >>= 1
        if exponent:
            square = poly_mul(field, square, square)
    return result


def poly_divmod(field, a, b):
    """Long division: return (quotient, remainder) with deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if len(a) < len(b):
        return (), a
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    inv_lead = field.div(1, b[-1])
    for shift in range(len(a) - len(b), -1, -1):
        factor = field.mul(rem[shift + len(b) - 1], inv_lead)
        if factor == 0:
            continue
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(factor, c))
    return normalize(quot), normalize(rem)


def poly_eval(field, a, x):
    """Evaluate by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_from_roots(field, roots):
    """Monic polynomial whose roots are exactly the given elements."""
    out = (1,)
    for r in roots:
        out = poly_mul(field, out, (field.neg(r), 1))
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
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    return poly_scale(field, a, field.div(1, a[-1])) if a else ()


def interpolate(field, points):
    """Unique polynomial of degree < len(points) through the given points.

    points is a sequence of (x, y) pairs with distinct x. Runs in O(len^2)
    by dividing the master root polynomial by each (x - x_i).
    """
    points = list(points)
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x coordinates")
    return _interpolate(field, points, poly_from_roots(field, xs))


def _interpolate(field, points, master):
    """interpolate, given the list of points and the monic polynomial whose
    roots are their x coordinates, for callers that already hold it."""
    acc = ()
    for x, y in points:
        if y == 0:
            continue
        # synthetic division of the monic master polynomial by (t - x)
        basis = [0] * (len(points))
        carry = master[-1]
        for j in range(len(points) - 1, -1, -1):
            basis[j] = carry
            carry = field.add(master[j], field.mul(carry, x))
        denom = poly_eval(field, basis, x)
        scale = field.div(y, denom)
        acc = poly_add(field, acc, poly_scale(field, basis, scale))
    return acc
