"""Field arithmetic, trace, and dual-basis tests, plus where symbols are
validated.

Small fields are checked exhaustively (GF(q) for q <= 13, GF(4), GF(8),
GF(9)); larger ones by seeded sampling.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fracdec import fields
from fracdec.arraycode import (ErrorPattern, apply_error_pattern,
                               difference_pattern)
from fracdec.bounds import find_download_collision, list_decode_bruteforce
from fracdec.fields import (ExtField, TraceDualBasis, default_modulus,
                            dual_basis, poly_is_irreducible, polynomial_basis)
from fracdec.frs_scheme import frs_make_config
from fracdec.primefield import PrimeField, is_prime, prime_factors
from fracdec.rs import RsCode, decode_columns
from fracdec.serialization import config_from_dict, load_json
from fracdec.trace_scheme import ts_make_config
from fracdec.trials import random_error_pattern, random_message, trial_stream
from oracles import ExtFieldReference, irreducible_by_trial_division

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def gf4():
    return ExtField(PrimeField(2), 2)


def gf8():
    return ExtField(PrimeField(2), 3)


def gf9():
    return ExtField(PrimeField(3), 2)


def test_prime_validation():
    PrimeField(2)
    PrimeField(13)
    for bad in (0, 1, 4, 9, 12, 100):
        with pytest.raises(ValueError):
            PrimeField(bad)
    for bad in (37.0, 2.0, True, "13"):
        with pytest.raises(ValueError, match="not an integer"):
            PrimeField(bad)


def test_prime_helpers():
    assert [p for p in range(-3, 50) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert [n for n in range(950, 1020) if is_prime(n)] == \
        [953, 967, 971, 977, 983, 991, 997, 1009, 1013, 1019]
    assert prime_factors(36) == [2, 3]
    assert prime_factors(37) == [37]
    assert prime_factors(1) == []


def test_is_prime_matches_trial_division():
    assert [n for n in range(-50, 10 ** 5) if is_prime(n)] == \
        [n for n in range(2, 10 ** 5) if prime_factors(n) == [n]]


@pytest.mark.parametrize("n, prime", [
    (3215031751, False),                   # strong pseudoprime to 2, 3, 5, 7
    (3825123056546413051, False),          # to every base 2..23
    (318665857834031151167461, False),     # psi_12: every base 2..37
    (2 ** 32 + 15, True),
    (2 ** 61 - 1, True),
    (2 ** 64 - 59, True),
    (3317044064679887385961980, False),    # even, just below psi_13
])
def test_is_prime_on_large_numbers(n, prime):
    assert is_prime(n) is prime


@pytest.mark.parametrize("n", [3317044064679887385961981, 2 ** 89 - 1])
def test_is_prime_refuses_numbers_past_its_exact_range(n):
    with pytest.raises(ValueError, match="primality is decided only below"):
        is_prime(n)
    with pytest.raises(ValueError, match="primality is decided only below"):
        PrimeField(n)


def test_prime_field_examples():
    f = PrimeField(13)
    assert f.add(7, 9) == 3
    assert f.mul(5, 8) == 1
    assert f.inv(5) == 8
    assert f.div(1, 5) == 8
    assert f.pow(2, 12) == 1


def test_field_axioms_exhaustive_small_primes():
    for q in (2, 3, 5, 7, 11, 13):
        f = PrimeField(q)
        els = list(f.elements())
        for a in els:
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
            for b in els:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in els:
                    assert f.mul(a, f.add(b, c)) == \
                        f.add(f.mul(a, b), f.mul(a, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_field_axioms_exhaustive_gf4():
    f = gf4()
    els = list(f.elements())
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_division_by_zero():
    f = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        gf4().inv(0)


# Symbols that are not canonical elements of the field they are offered to.
BAD_SYMBOLS = {"GF(7)": (7, -1, True), "GF(4)": (4,)}


def entry_points(label):
    """The public entry points that take symbols of one field, each as a
    function that plants one given symbol among valid ones."""
    field = PrimeField(7) if label == "GF(7)" else gf4()
    hit_first = ErrorPattern(support=(0,), values=((1,),))
    points = {
        "check": lambda bad: field.check(bad),
        "check_all": lambda bad: field.check_all((0, bad, 1)),
        "RsCode": lambda bad: RsCode(field, 1, (0, 1, bad)),
        "apply_error_pattern-word":
            lambda bad: apply_error_pattern(field, ((0,), (bad,)), hit_first),
        "apply_error_pattern-offset": lambda bad: apply_error_pattern(
            field, ((0,), (0,)), ErrorPattern(support=(1,), values=((bad,),))),
        "difference_pattern-base": lambda bad: difference_pattern(
            field, ((0,), (bad,)), ((0,), (1,))),
        "difference_pattern-other": lambda bad: difference_pattern(
            field, ((0,), (1,)), ((0,), (bad,))),
        "find_download_collision": lambda bad: find_download_collision(
            field, [((0,), (0,)), ((0,), (bad,))], tuple, 0),
    }
    if label == "GF(7)":
        # Reed-Solomon codes run over prime fields only
        code = RsCode(field, 1, (0, 1, 2))
        ts = ts_make_config(7, 4, 2, 2, 2)
        frs = frs_make_config(2, 1, 2, Fraction(1, 2), p=7)
        points.update({
            "decode_columns":
                lambda bad: decode_columns(code, ((0,), (0,), (bad,)), 1),
            "poly_is_irreducible":
                lambda bad: poly_is_irreducible(field, (bad, 0, 1)),
            "ts_make_config-omega":
                lambda bad: ts_make_config(7, 4, 2, 2, 2, omega=(0, 1, 2, bad)),
            "ts_make_config-A":
                lambda bad: ts_make_config(7, 4, 2, 2, 2, subsets=((0,), (bad,))),
            "ts_make_config-modulus":
                lambda bad: ts_make_config(7, 4, 2, 2, 2, modulus=(bad, 0, 1)),
            "TsConfig.download":
                lambda bad: ts.download(((0, bad),) + ((0, 0),) * 3),
            "frs_make_config-gamma": lambda bad: frs_make_config(
                2, 1, 2, Fraction(1, 2), p=7, gamma=bad),
            "FrsConfig.encode": lambda bad: frs.encode((0, bad)),
            "FrsConfig.download":
                lambda bad: frs.download(((0, bad), (0, 0))),
            # a bad symbol raises before the shape, here a third column
            "list_decode_bruteforce": lambda bad: list_decode_bruteforce(
                frs, ((0,), (bad,), (0,)), 0),
        })
    else:
        ts = ts_make_config(2, 2, 1, 2, 1)
        points.update({
            "ts_make_config-zeta":
                lambda bad: ts_make_config(2, 2, 1, 2, 1, zeta=(1, bad)),
            "dual_basis": lambda bad: dual_basis(field, zeta=(1, bad)),
            "TraceDualBasis":
                lambda bad: TraceDualBasis(ext=field, zeta=(1, bad)),
            "TsConfig.encode": lambda bad: ts.encode((bad,)),
        })
    return points


ENTRY_POINTS = [(label, name) for label in BAD_SYMBOLS
                for name in entry_points(label)]


@pytest.mark.parametrize("label, name", ENTRY_POINTS,
                         ids=[f"{label}-{name}" for label, name in ENTRY_POINTS])
def test_entry_points_reject_out_of_field_symbols(label, name):
    """Arithmetic trusts its operands, so every entry point must refuse a
    non-canonical symbol itself, through the field's check."""
    call = entry_points(label)[name]
    for bad in BAD_SYMBOLS[label]:
        with pytest.raises(ValueError, match="not a canonical element"):
            call(bad)


class Subint(int):
    pass


@pytest.mark.parametrize("field", (PrimeField(7), gf4()), ids=repr)
def test_check_accepts_exactly_the_canonical_ints(field):
    """Both field classes share one check: an int in [0, order), an int
    subclass too but never a bool, comes back unchanged; anything else
    raises with the one message."""
    assert vars(PrimeField)["check"] is vars(ExtField)["check"]
    top = field.order - 1
    for a in (0, 1, top, Subint(top)):
        assert field.check(a) is a
    for bad in (-1, top + 1, Subint(-1), True, False, 1.0, "1", None,
                Fraction(1), 3 ** 99):
        with pytest.raises(ValueError) as info:
            field.check(bad)
        assert str(info.value) == (
            f"{bad!r} is not a canonical element of {field!r}")


@pytest.mark.parametrize("field", (PrimeField(7), gf4()), ids=repr)
def test_vector_check_is_the_symbol_checks_in_order(field):
    """check_all returns its symbols as a tuple and raises exactly what
    checking them one at a time raises first."""
    top = field.order - 1
    assert field.check_all(iter([0, top, 1])) == (0, top, 1)
    assert field.check_all([]) == ()
    for symbols in ([0, top + 1, -1], [1, -1, 2.0], [True, top + 1],
                    [0, 1.0, top + 1], [top, 3 ** 99]):
        with pytest.raises(ValueError) as one_at_a_time:
            for a in symbols:
                field.check(a)
        with pytest.raises(ValueError) as vector:
            field.check_all(symbols)
        assert str(vector.value) == str(one_at_a_time.value)


@pytest.mark.parametrize("scheme", ("ts", "frs"))
def test_downloads_check_a_word_in_column_order(scheme):
    """Both schemes' downloads check a word the same way: the column count
    first, then the first fault in column order, whether a symbol outside
    the field or a column that is not l = 2 symbols high."""
    cfg = (ts_make_config(7, 4, 2, 2, 2) if scheme == "ts"
           else frs_make_config(4, 1, 2, Fraction(1, 2), p=11))
    q = cfg.symbol_field.q
    good = ((0, 1),) * 4
    assert len(cfg.download(good).per_column) == 4
    cases = [
        (good[:3], "word must have n = 4 columns"),
        (((0, 1), (0, q), (0,), (0, 1)), "not a canonical element"),
        (((0, 1), (0,), (0, q), (0, 1)), "column must have l = 2 symbols"),
        (((0, 1), (0, 1), (0, 1), (0, 1, 2)), "column must have l = 2 symbols"),
    ]
    for word, message in cases:
        with pytest.raises(ValueError, match=message):
            cfg.download(word)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda path: path.stem)
def test_pipeline_checks_each_symbol_a_bounded_number_of_times(path,
                                                              monkeypatch):
    """Validation runs where symbols enter, not on every field operation:
    one pipeline at the radius checks its message and its offsets once
    each, one at a time or in vectors, and no symbol the library computed,
    the served symbols it decodes included, where per-operation checks
    made thousands."""
    calls = []
    for cls in (PrimeField, ExtField):
        def counted(self, a, _check=cls.check):
            calls.append(a)
            return _check(self, a)

        def counted_all(self, symbols, _check_all=cls.check_all):
            symbols = tuple(symbols)
            calls.extend(symbols)
            return _check_all(self, symbols)
        monkeypatch.setattr(cls, "check", counted)
        monkeypatch.setattr(cls, "check_all", counted_all)
    cfg = config_from_dict(load_json(str(path)))
    stream = trial_stream(0, cfg.radius, 0)
    message = random_message(cfg, stream)
    pattern = random_error_pattern(cfg, stream, cfg.radius)
    calls.clear()
    decoded, _ = cfg.pipeline(message, pattern)
    assert decoded == message
    entering = len(message) + sum(map(len, pattern.values))
    assert len(calls) == entering


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        PrimeField(7).pow(2, -1)
    with pytest.raises(ValueError):
        gf4().pow(2, -1)


# The first monic irreducible of each degree under lexicographic order on
# (c_0, ..., c_{l-1}), as the exhaustive trial-division search found them.
# Configs that omit their modulus depend on every entry.
DEFAULT_MODULI = {
    (2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1), (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (3, 1): (0, 1), (3, 2): (1, 0, 1), (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1), (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (5, 1): (0, 1), (5, 2): (1, 1, 1), (5, 3): (1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1), (5, 5): (1, 0, 0, 0, 4, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1),
    (7, 1): (0, 1), (7, 2): (1, 0, 1), (7, 3): (1, 0, 1, 1),
    (7, 4): (1, 0, 0, 1, 1),
    (11, 1): (0, 1), (11, 2): (1, 0, 1), (11, 3): (1, 0, 4, 1),
    (11, 4): (1, 0, 0, 4, 1),
    (13, 1): (0, 1), (13, 2): (1, 3, 1), (13, 3): (1, 0, 4, 1),
    (13, 4): (1, 0, 0, 1, 1),
    (17, 1): (0, 1), (17, 2): (1, 1, 1), (17, 3): (1, 0, 3, 1),
    (17, 4): (1, 0, 0, 3, 1),
    (19, 1): (0, 1), (19, 2): (1, 0, 1), (19, 3): (1, 0, 1, 1),
    (19, 4): (1, 0, 0, 6, 1),
    (23, 1): (0, 1), (23, 2): (1, 0, 1), (23, 3): (1, 0, 3, 1),
    (23, 4): (1, 0, 0, 4, 1),
    (29, 1): (0, 1), (29, 2): (1, 1, 1), (29, 3): (1, 0, 2, 1),
    (29, 4): (1, 0, 0, 3, 1),
    (31, 1): (0, 1), (31, 2): (1, 0, 1), (31, 3): (1, 0, 3, 1),
    (31, 4): (1, 0, 0, 1, 1),
}


def test_default_moduli():
    assert {(q, l) for q, l in DEFAULT_MODULI if l <= 4} == {
        (q, l) for q in range(32) if is_prime(q) for l in range(1, 5)}
    for (q, l), modulus in DEFAULT_MODULI.items():
        assert default_modulus(PrimeField(q), l) == modulus, (q, l)


def test_default_modulus_searches_large_fields_lazily():
    """The candidate search never materialises the field: over
    GF(2^32 + 15), where q = 3 mod 4, x^2 + 1 is the first candidate and
    irreducible, and a trace config without a modulus builds."""
    q = 4294967311
    assert default_modulus(PrimeField(q), 2) == (1, 0, 1)
    assert ts_make_config(q, 5, 2, 2, 1).ext.modulus == (1, 0, 1)


def test_irreducibility_matches_trial_division():
    """Rabin's test against trial division: every monic polynomial of small
    degree over small fields, a seeded sample of quartics over GF(11) and
    GF(13), and every pinned default modulus. Degrees 5 and 6 are where
    the final x^(q^l) = x step matters: below 5, the gcd steps alone rule
    out every factor."""
    cases = [(q, (*lower, 1))
             for q, top in ((2, 6), (3, 5), (5, 4), (7, 4), (11, 3), (13, 3))
             for l in range(top + 1)
             for lower in itertools.product(range(q), repeat=l)]
    rng = random.Random(11)
    cases += [(q, (*(rng.randrange(q) for _ in range(4)), 1))
              for q in (11, 13) for _ in range(1000)]
    cases += [(q, modulus) for (q, _), modulus in DEFAULT_MODULI.items()]
    irreducible = 0
    for q, coeffs in cases:
        base = PrimeField(q)
        want = irreducible_by_trial_division(base, coeffs)
        assert poly_is_irreducible(base, coeffs) == want, (q, coeffs)
        irreducible += want
    assert 0 < irreducible < len(cases)
    with pytest.raises(ValueError, match="monic"):
        poly_is_irreducible(PrimeField(5), (1, 0, 2))


@pytest.fixture
def tested(monkeypatch):
    """The polynomials poly_is_irreducible is called on, in order."""
    calls = []

    def counted(base, coeffs, _test=fields.poly_is_irreducible):
        calls.append(coeffs)
        return _test(base, coeffs)

    monkeypatch.setattr(fields, "poly_is_irreducible", counted)
    return calls


def test_default_modulus_tests_few_candidates(tested):
    """The search skips candidates with c_0 = 0, which exhaustive trial
    division tested by the thousand: 29,793 of them at (31, 4)."""
    for q, l in ((31, 4), (13, 4), (17, 4), (5, 4)):
        tested.clear()
        assert default_modulus(PrimeField(q), l) == DEFAULT_MODULI[q, l]
        assert len(tested) <= 10, (q, l, len(tested))


def test_default_modulus_is_tested_once(tested):
    """ExtField tests its default modulus only inside the search, and a
    modulus from the caller once."""
    ExtField(PrimeField(13), 4)
    assert tested.count(DEFAULT_MODULI[13, 4]) == 1
    tested.clear()
    ExtField(PrimeField(13), 4, modulus=DEFAULT_MODULI[13, 4])
    assert tested == [DEFAULT_MODULI[13, 4]]


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        ExtField(PrimeField(2), 2, modulus=(1, 0, 1))  # y^2+1 = (y+1)^2
    with pytest.raises(ValueError):
        ExtField(PrimeField(2), 2, modulus=(1, 1))     # wrong degree
    with pytest.raises(ValueError):
        ExtField(PrimeField(13), 2, modulus=(1, 0, 2))  # not monic


def test_gf4_multiplication_table():
    f = gf4()
    y = 2  # coordinate vector (0, 1)
    assert f.mul(y, y) == 3          # y^2 = y + 1
    assert f.mul(y, 3) == 1          # y(y+1) = y^2 + y = 1
    assert f.mul(3, 3) == 2          # (y+1)^2 = y


def test_ext_field_inverses_and_frobenius():
    for f in (gf4(), gf8(), gf9()):
        for a in f.elements():
            if a:
                assert f.mul(a, f.inv(a)) == 1
            # Frobenius is additive and multiplicative, fixes the base field
            assert f.frobenius(f.frobenius(a)) == \
                f.pow(a, f.q * f.q)
        for b in range(f.q):
            assert f.frobenius(b) == b


def test_vec_roundtrip():
    f = ExtField(PrimeField(13), 4)
    random.seed(0)
    for _ in range(50):
        a = random.randrange(f.order)
        assert f.from_vec(f.to_vec(a)) == a
    with pytest.raises(ValueError):
        f.from_vec((1, 2, 3))
    with pytest.raises(ValueError):
        f.from_vec((1, 2, 3, 13))


def test_trace_values_gf4():
    f = gf4()
    assert f.trace(0) == 0
    assert f.trace(1) == 0   # 1 + 1 in characteristic 2
    assert f.trace(2) == 1   # y + y^2 = y + (y+1)
    assert f.trace(3) == 1


def test_trace_linearity_and_surjectivity_exhaustive():
    for f in (gf4(), gf8(), gf9()):
        image = set()
        for a in f.elements():
            ta = f.trace(a)
            image.add(ta)
            assert 0 <= ta < f.q
            assert f.trace(f.frobenius(a)) == ta
            for b in f.elements():
                assert f.trace(f.add(a, b)) == (ta + f.trace(b)) % f.q
            for c in range(f.q):
                assert f.trace(f.mul(c, a)) == (c * ta) % f.q
        assert image == set(range(f.q))


def test_trace_sampled_large_field():
    f = ExtField(PrimeField(13), 4)
    random.seed(1)
    for _ in range(40):
        a, b = random.randrange(f.order), random.randrange(f.order)
        assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % 13
        c = random.randrange(13)
        assert f.trace(f.mul(c, a)) == (c * f.trace(a)) % 13


def check_unary_against_reference(f, ref, a):
    for e in (0, 1, 2, f.q, f.order - 2):
        assert f.pow(a, e) == ref.pow(a, e)
    if a:
        assert ref.mul(a, f.inv(a)) == 1
    assert f.frobenius(a) == ref.pow(a, f.q)
    assert f.trace(a) == ref.trace(a)


@pytest.mark.parametrize("q, l", [(2, 3), (3, 2), (2, 4), (3, 3), (5, 2)],
                         ids=lambda v: str(v))
def test_ext_arithmetic_matches_reference_exhaustive(q, l):
    f = ExtField(PrimeField(q), l)
    ref = ExtFieldReference(f)
    for a in f.elements():
        check_unary_against_reference(f, ref, a)
        for b in f.elements():
            assert f.mul(a, b) == ref.mul(a, b)


@pytest.mark.parametrize("q", (13, 17, 31))
def test_ext_arithmetic_matches_reference_sampled(q):
    """Products on 2,000 seeded pairs of GF(q^4); the slower unary
    operations on the first 200 of them."""
    f = ExtField(PrimeField(q), 4)
    ref = ExtFieldReference(f)
    rng = random.Random(q)
    pairs = [(rng.randrange(f.order), rng.randrange(f.order))
             for _ in range(2000)]
    for a, b in pairs:
        assert f.mul(a, b) == ref.mul(a, b)
    for a, _ in pairs[:200]:
        check_unary_against_reference(f, ref, a)


def test_dual_basis_gf4_example():
    f = gf4()
    db = dual_basis(f, zeta=(1, 2))      # (1, y)
    assert db.nu == (3, 1)               # (1+y, 1)
    # and the defining delta property, exhaustively
    for i, ni in enumerate(db.nu):
        for j, zj in enumerate(db.zeta):
            assert f.trace(f.mul(ni, zj)) == (1 if i == j else 0)


def test_dual_basis_self_dual():
    f = gf4()
    db = dual_basis(f, zeta=(2, 3))      # (y, y^2) is self-dual
    assert db.nu == db.zeta


def test_dual_basis_dependent_rejected():
    with pytest.raises(ValueError):
        dual_basis(gf4(), zeta=(1, 1))
    with pytest.raises(ValueError):
        dual_basis(gf9(), zeta=(1, 2))   # 2 = 1+1 is base-field dependent on 1


def test_dual_basis_delta_exhaustive_small_fields():
    for f in (gf4(), gf8(), gf9()):
        db = dual_basis(f)
        for i in range(f.degree):
            for j in range(f.degree):
                want = 1 if i == j else 0
                assert f.trace(f.mul(db.nu[i], db.zeta[j])) == want


def test_dual_basis_delta_on_random_bases():
    """Random bases have non-symmetric projection matrices, so nu must be
    read off the columns of the inverse, not its rows."""
    rng = random.Random(3)
    for f in (gf8(), gf9(), ExtField(PrimeField(13), 4)):
        independent = 0
        for _ in range(20):
            zeta = tuple(rng.randrange(f.order) for _ in range(f.degree))
            try:
                db = dual_basis(f, zeta)
            except ValueError as exc:
                assert "linearly dependent" in str(exc)
                continue
            independent += 1
            for i in range(f.degree):
                for j in range(f.degree):
                    want = 1 if i == j else 0
                    assert f.trace(f.mul(db.nu[i], zeta[j])) == want
        assert independent >= 5


def test_trace_dual_basis_rejects_dependent_zeta():
    """nu is derived from zeta, so the one way to get a bad pair is a zeta
    that is not a basis."""
    with pytest.raises(ValueError, match="linearly dependent"):
        TraceDualBasis(ext=gf4(), zeta=(1, 1))
    for f in (gf8(), gf9()):
        zeta = polynomial_basis(f)
        assert TraceDualBasis(ext=f, zeta=zeta) == dual_basis(f)
        with pytest.raises(TypeError):
            TraceDualBasis(ext=f, zeta=zeta, nu=dual_basis(f).nu)
        for dependent in (0, zeta[0]):
            with pytest.raises(ValueError, match="linearly dependent"):
                TraceDualBasis(ext=f, zeta=(*zeta[:-1], dependent))


def test_dual_basis_makes_no_extension_field_call(field_method_calls):
    """The projection matrix comes from the modulus's power sums on integers
    mod q: building the pair calls no arithmetic method of either field."""
    for f in (gf8(), gf9(), ExtField(PrimeField(13), 4)):
        dual_basis(f)
    assert field_method_calls == []


# All 50 fields GF(q^l) with prime q <= 31, 1 <= l <= 5 and q^l <= 10^6,
# including q | l (such as GF(4), where trace(1) = 0) and l = 1.
POWER_SUM_FIELDS = [(q, l) for q in range(2, 32) if is_prime(q)
                    for l in range(1, 6) if q ** l <= 10 ** 6]


def test_dual_basis_power_sums_match_extension_traces():
    """The power-sum projection matrix equals trace(zeta_u * x^v) computed
    in extension arithmetic, for the default basis and three seeded random
    zetas per field. A zeta whose coordinates are dependent (one is forced
    per field) makes that matrix singular and raises the same ValueError."""
    assert len(POWER_SUM_FIELDS) == 50
    rng = random.Random(11)
    for q, l in POWER_SUM_FIELDS:
        f = ExtField(PrimeField(q), l)
        xs = polynomial_basis(f)
        zetas = [xs] + [tuple(rng.randrange(f.order) for _ in range(l))
                        for _ in range(3)]
        zetas.append((*zetas[-1][:-1], 0))
        for zeta in zetas:
            want = tuple(tuple(f.trace(f.mul(z, x_v)) for x_v in xs)
                         for z in zeta)
            dependent = fields._invert_matrix(q, [f.to_vec(z)
                                                  for z in zeta]) is None
            assert (fields._invert_matrix(q, want) is None) == dependent
            if dependent:
                with pytest.raises(ValueError, match="linearly dependent"):
                    TraceDualBasis(ext=f, zeta=zeta)
            else:
                assert TraceDualBasis(ext=f, zeta=zeta)._proj == want


# nu of the default basis for the three shipped trace fields and GF(31^4),
# pinned so that no change to the extension arithmetic or to the dual-basis
# derivation can move it.
@pytest.mark.parametrize("q, l, nu", [
    (13, 4, (25209, 25768, 25811, 12998)),
    (17, 4, (75963, 52442, 15511, 20704)),
    (5, 2, (17, 8)),
    (31, 4, (277979, 870984, 705601, 916741)),
], ids=lambda v: str(v) if isinstance(v, int) else "nu")
def test_dual_basis_nu_pinned(q, l, nu):
    assert dual_basis(ExtField(PrimeField(q), l)).nu == nu


def test_project_reconstruct_inverse():
    for f in (gf4(), gf8(), gf9()):
        db = dual_basis(f)
        for a in f.elements():
            proj = db.project(a)
            assert proj == tuple(f.trace(f.mul(z, a)) for z in db.zeta)
            assert db.reconstruct(proj) == a
        for coords in [(0,) * f.degree]:
            assert db.reconstruct(coords) == 0


def test_project_reconstruct_sampled_roundtrip():
    f = ExtField(PrimeField(13), 4)
    db = dual_basis(f)
    random.seed(2)
    for _ in range(100):
        a = random.randrange(f.order)
        assert db.reconstruct(db.project(a)) == a


def test_project_is_linear():
    f = gf9()
    db = dual_basis(f)
    for a in f.elements():
        for b in f.elements():
            pa, pb, ps = db.project(a), db.project(b), db.project(f.add(a, b))
            assert ps == tuple((x + y) % 3 for x, y in zip(pa, pb))


def test_reconstruct_validation():
    db = dual_basis(gf4())
    with pytest.raises(ValueError):
        db.reconstruct((1,))
    with pytest.raises(ValueError):
        db.reconstruct((1, 2))


def test_polynomial_basis():
    f = ExtField(PrimeField(3), 2)
    assert polynomial_basis(f) == (1, 3)
    assert dual_basis(f).zeta == (1, 3)


def test_degree_one_extension_degenerates():
    f = ExtField(PrimeField(5), 1)
    assert f.order == 5
    for a in f.elements():
        assert f.trace(a) == a
    db = dual_basis(f)
    for a in f.elements():
        assert db.reconstruct(db.project(a)) == a
