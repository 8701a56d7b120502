import fractions
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dynalg import ExactnessError, FloatScalar, RadicalAdditionMismatch, RadScalar, ResourceBound
from dynalg.scalars import FLOAT_TOL, _square_split


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10])


def scalars(allow_zero=True):
    base = st.builds(RadScalar, rationals, rationals, radicands)
    if allow_zero:
        return base
    return base.filter(lambda s: not s.is_zero)


def test_like_radical_addition():
    assert RadScalar(2, 0, 3) + RadScalar(5, 0, 3) == RadScalar(7, 0, 3)


def test_additive_identity():
    half_rt2 = RadScalar(Fraction(1, 2), 0, 2)
    assert half_rt2 + RadScalar.zero() == half_rt2
    assert RadScalar.zero() + half_rt2 == half_rt2


def test_unlike_radicals_raise():
    with pytest.raises(RadicalAdditionMismatch):
        RadScalar(1, 0, 2) + RadScalar(1, 0, 3)


def test_canonical_form_extracts_squares():
    s = RadScalar(1, 0, 12)  # sqrt(12) = 2 sqrt(3)
    assert (s.re, s.rad) == (Fraction(2), 3)
    t = RadScalar(1, 0, Fraction(1, 2))  # sqrt(1/2) = (1/2) sqrt(2)
    assert (t.re, t.rad) == (Fraction(1, 2), 2)


def _trial_split(n):
    """n = outer**2 * core by trial division up to sqrt(n), unbounded."""
    outer, core, d = 1, 1, 2
    while d * d <= n:
        cnt = 0
        while n % d == 0:
            n //= d
            cnt += 1
        outer *= d ** (cnt // 2)
        core *= d ** (cnt & 1)
        d += 1 if d == 2 else 2
    return outer, core * n


def test_square_split_matches_unbounded_trial_division():
    rng = random.Random(12)
    for n in list(range(1, 50_000)) + [rng.randrange(1, 10**12) for _ in range(60)]:
        assert _square_split(n) == _trial_split(n), n


P, Q = 1_048_583, 1_048_589  # the two least primes above 2**20 + 1


@pytest.mark.parametrize(
    "n, split",
    [
        (P, (1, P)),
        (P * Q, (1, P * Q)),
        (P * P, (P, 1)),
        (12 * P * P, (2 * P, 3)),
        (7 * P * Q, (1, 7 * P * Q)),
        (10**16 + 61, (1, 10**16 + 61)),
        (10**18 + 3, (1, 10**18 + 3)),
    ],
)
def test_square_split_past_the_trial_divisors(n, split):
    # the cofactor left by bounded trial division is below the cube of
    # the next divisor, so it has at most two prime factors
    assert _square_split(n) == split


def test_square_split_refuses_a_cofactor_it_cannot_split():
    n = 10**400 - 1
    with pytest.raises(ResourceBound, match="radicand %d:" % n):
        _square_split(n)
    with pytest.raises(ResourceBound):
        RadScalar(1, 0, Fraction(n, 10**400))


def test_zero_has_radicand_one():
    assert RadScalar(0, 0, 7).rad == 1


@pytest.mark.parametrize(
    "value, text",
    [
        (RadScalar(1, 1), "(1+1i)"),
        (RadScalar(Fraction(1, 2), Fraction(1, 3)), "(1/2+1/3i)"),
        (RadScalar(1, -1), "(1-1i)"),
        (RadScalar(1, 1, 2), "(1+1i)*sqrt(2)"),
    ],
)
def test_str_signs_the_imaginary_part(value, text):
    assert str(value) == text


@given(scalars(), scalars())
def test_multiplication_matches_floats(a, b):
    prod = a * b
    assert complex(prod) == pytest.approx(complex(a) * complex(b), abs=1e-9)


@given(scalars())
def test_canonicalization_idempotent(a):
    again = RadScalar(a.re, a.im, a.rad)
    assert again == a


@given(scalars(allow_zero=False))
def test_inverse(a):
    assert a * a.inverse() == RadScalar.one()


@given(scalars())
def test_modulus_squares_to_abs_sq(a):
    m = a.modulus()
    assert m.is_nonneg_real
    assert (m * m).as_fraction() == a.abs_sq()


@given(scalars(), scalars())
def test_conjugation_antimultiplicative_on_products(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_sqrt_of_rational():
    s = RadScalar(Fraction(1, 2)).sqrt()
    assert s == RadScalar(Fraction(1, 2), 0, 2)
    assert s * s == RadScalar(Fraction(1, 2))


def test_sqrt_of_radical_rejected():
    with pytest.raises(ExactnessError):
        RadScalar(1, 0, 2).sqrt()


def test_real_cmp():
    a = RadScalar(1, 0, 2)   # sqrt 2
    b = RadScalar(Fraction(3, 2))
    assert a.real_cmp(b) < 0
    assert b.real_cmp(a) > 0
    assert a.real_cmp(RadScalar(1, 0, 2)) == 0
    assert RadScalar(-1, 0, 2).real_cmp(RadScalar(-1)) < 0


def test_unit_modulus_examples():
    assert RadScalar(0, 1).is_unit_modulus()
    assert RadScalar(Fraction(3, 5), Fraction(4, 5)).is_unit_modulus()
    assert RadScalar(Fraction(1, 2), Fraction(1, 2), 2).is_unit_modulus()
    assert not RadScalar(2).is_unit_modulus()


def test_float_scalar_tolerance():
    assert FloatScalar(1e-12).is_zero
    assert FloatScalar(1.0) == RadScalar(1)
    assert not FloatScalar(1e-3).is_zero


def parts(s):
    return (s.re, s.im, s.rad)


like_pairs = st.builds(
    lambda x, y, u, v, r: (RadScalar(x, y, r), RadScalar(u, v, r)),
    rationals, rationals, rationals, rationals, radicands,
)


@given(like_pairs)
def test_trusted_results_match_public_constructor(pair):
    """Negation, conjugation, inverses, like-radicand sums and products
    skip the square split; they must land on the canonical form that
    the public constructor gives."""
    a, b = pair
    assert parts(-a) == parts(RadScalar(-a.re, -a.im, a.rad))
    assert parts(a.conjugate()) == parts(RadScalar(a.re, -a.im, a.rad))
    rad = b.rad if a.is_zero else a.rad  # a zero carries radicand 1
    assert parts(a + b) == parts(RadScalar(a.re + b.re, a.im + b.im, rad))
    assert parts(a - b) == parts(RadScalar(a.re - b.re, a.im - b.im, rad))
    re = a.re * b.re - a.im * b.im
    im = a.re * b.im + a.im * b.re
    assert parts(a * b) == parts(RadScalar(re, im, a.rad * b.rad))
    if not a.is_zero:
        n = (a.re * a.re + a.im * a.im) * a.rad
        assert parts(a.inverse()) == parts(RadScalar(a.re / n, -a.im / n, a.rad))


@given(scalars(), scalars())
def test_trusted_products_of_unlike_radicands(a, b):
    re = a.re * b.re - a.im * b.im
    im = a.re * b.im + a.im * b.re
    assert parts(a * b) == parts(RadScalar(re, im, a.rad * b.rad))


@given(scalars())
def test_trusted_zero_results_carry_radicand_one(a):
    for zero in (a + (-a), a - a, -(a - a), (a - a).conjugate(), a * RadScalar(0)):
        assert parts(zero) == (0, 0, 1)


def test_real_cmp_with_float_scalar_delegates():
    """A FloatScalar argument is compared as FloatScalar.real_cmp does,
    with the sign turned, as __eq__ already delegates."""
    one = RadScalar(1)
    assert one.real_cmp(FloatScalar(0.5)) == 1
    assert RadScalar(1, 0, 2).real_cmp(FloatScalar(1.5)) == -1
    assert one.real_cmp(FloatScalar(1.0 + 1e-12)) == 0
    for v in (FloatScalar(0.5), FloatScalar(2.0), FloatScalar(1.0)):
        assert one.real_cmp(v) == -v.real_cmp(one)


@pytest.mark.parametrize("other", [0.5, 1j, "1", None, [1]])
def test_real_cmp_with_other_types_raises_type_error(other):
    """RadScalar compares only scalars, ints and Fractions; FloatScalar also
    takes Python floats and complex numbers, and nothing else."""
    with pytest.raises(TypeError, match="cannot compare"):
        RadScalar(1).real_cmp(other)
    if not isinstance(other, (float, complex)):
        with pytest.raises(TypeError, match="cannot compare"):
            FloatScalar(1.0).real_cmp(other)


@pytest.mark.parametrize(
    "a, b",
    [
        (FloatScalar(1.0), 1j),
        (FloatScalar(1.0), FloatScalar(1 + 2e-9j)),
        (FloatScalar(1j), FloatScalar(1.0)),
        (FloatScalar(1.0), RadScalar(0, 1)),
        (FloatScalar(1j), RadScalar(1)),
    ],
    ids=["complex", "float-just-off-axis", "imaginary-self", "exact-i", "imaginary-self-exact"],
)
def test_real_cmp_of_a_non_real_float_raises_in_both_orders(a, b):
    """A value more than FLOAT_TOL off the real axis on either side is not
    compared, whichever side the FloatScalar is on."""
    with pytest.raises(ExactnessError):
        a.real_cmp(b)
    if isinstance(b, (RadScalar, FloatScalar)):
        with pytest.raises(ExactnessError):
            b.real_cmp(a)


def test_int_form_invariant():
    """(p, q, d, rad): re = p/d, im = q/d, d > 0, gcd(p, q, d) = 1."""
    s = RadScalar(Fraction(3, 4), Fraction(-1, 6), 8)  # (3/4 - i/6) 2 sqrt(2)
    assert (s.p, s.q, s.d, s.rad) == (9, -2, 6, 2)
    assert (s.re, s.im) == (Fraction(3, 2), Fraction(-1, 3))
    assert (RadScalar(0).p, RadScalar(0).q, RadScalar(0).d, RadScalar(0).rad) == (0, 0, 1, 1)
    half = RadScalar(Fraction(1, 2))
    assert (half + half).d == 1 and hash(half) == hash(Fraction(1, 2))


def _fraction_constructions(fn):
    """Run fn and count the Fractions made meanwhile: every way in goes
    through ``Fraction.__new__`` or, on newer Pythons, ``_from_coprime_ints``."""
    made = []

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == fractions.__file__ and code.co_name in (
            "__new__",
            "_from_coprime_ints",
        ):
            made.append(code.co_name)

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(old)
    return len(made)


def test_hot_operations_make_no_fraction():
    a = RadScalar(Fraction(3, 5), Fraction(-4, 7), 2)
    b = RadScalar(Fraction(5, 6), Fraction(1, 9), 2)
    c = RadScalar(Fraction(1, 3), 0, 3)
    r = RadScalar(Fraction(7, 4))
    half = Fraction(1, 2)

    def hot():
        for x, y in ((a, b), (a, c), (c, r), (r, r), (b, RadScalar(0))):
            x * y, y * x, x + y if x.rad == y.rad or not x or not y else None
            -x, x.conjugate(), x == y, x == 2, x == half, x.is_zero, complex(x)
            x.is_unit_modulus(), x.modulus_cmp_one(), x.is_real, bool(x)
        a.inverse(), c.inverse(), r.inverse()
        a - b, a / b, r * 3, 3 * r, r + half, r.real_cmp(c), float(r), r.sqrt(), a.modulus()

    hot()  # the operations themselves work
    assert _fraction_constructions(hot) == 0
    assert _fraction_constructions(lambda: a.re) == 1  # the check sees a construction


_MIXED_RADS = [
    RadScalar(0),
    RadScalar(1),
    RadScalar(-1, 0, 2),
    RadScalar(Fraction(1, 3), Fraction(-2, 5), 3),
    RadScalar(0, Fraction(7, 2), 6),
    RadScalar(Fraction(-5, 7), 1, 10),
]
_MIXED_FLOATS = [
    FloatScalar(complex(0.0, 0.0)),
    FloatScalar(complex(-0.0, 0.0)),
    FloatScalar(complex(0.0, -0.0)),
    FloatScalar(complex(-0.0, -0.0)),
    FloatScalar(1.5),
    FloatScalar(complex(-0.25, 3.75)),
    FloatScalar(2 ** 0.5),
    FloatScalar(complex(1e-12, -1e300)),
] + [FloatScalar(complex(r)) for r in _MIXED_RADS] + [
    FloatScalar(complex(r) + 5e-10) for r in _MIXED_RADS
]


def _outcome(fn):
    """``repr`` of the complex value computed, or the name of the
    ZeroDivisionError raised; a scalar result must be a FloatScalar."""
    try:
        out = fn()
    except ZeroDivisionError as exc:
        return type(exc).__name__
    if not isinstance(out, complex):
        assert type(out) is FloatScalar
        out = out.value
    return repr(out)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_mixed_exact_float_arithmetic_is_the_complex_operation(op):
    """A RadScalar and a FloatScalar combine, in either order, to the
    FloatScalar of the same complex operation on ``complex(r)`` and
    ``f.value``, bit for bit (signed zeros included, compared by repr)."""
    for r in _MIXED_RADS:
        for f in _MIXED_FLOATS:
            assert _outcome(lambda: op(r, f)) == _outcome(lambda: op(complex(r), f.value))
            assert _outcome(lambda: op(f, r)) == _outcome(lambda: op(f.value, complex(r)))


def test_mixed_exact_float_equality_is_symmetric():
    for r in _MIXED_RADS:
        for f in _MIXED_FLOATS:
            close = abs(f.value - complex(r)) <= FLOAT_TOL
            assert (r == f) is (f == r) is close
            assert (r != f) is (f != r) is (not close)
