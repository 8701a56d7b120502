from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dynalg import ExactnessError, FloatScalar, RadicalAdditionMismatch, RadScalar, rad_add


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


def test_rad_add_float_fallback():
    out = rad_add(RadScalar(1, 0, 2), RadScalar(1, 0, 3), mode="float")
    assert isinstance(out, FloatScalar)
    assert abs(out.value - (2 ** 0.5 + 3 ** 0.5)) < 1e-12


def test_canonical_form_extracts_squares():
    s = RadScalar(1, 0, 12)  # sqrt(12) = 2 sqrt(3)
    assert (s.re, s.rad) == (Fraction(2), 3)
    t = RadScalar(1, 0, Fraction(1, 2))  # sqrt(1/2) = (1/2) sqrt(2)
    assert (t.re, t.rad) == (Fraction(1, 2), 2)


def test_zero_has_radicand_one():
    assert RadScalar(0, 0, 7).rad == 1


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
