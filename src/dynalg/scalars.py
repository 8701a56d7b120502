"""Exact scalar arithmetic: Gaussian rationals times one square root.

A value is ``(re + im*i) * sqrt(rad)`` with ``re``, ``im`` rational and
``rad`` a square-free positive integer (canonical form; squares are
extracted into the coefficient, and the value 0 carries radicand 1).
:class:`RadScalar` stores it as four ints ``(p, q, d, rad)`` with
``re = p/d`` and ``im = q/d``, ``d > 0`` and ``gcd(p, q, d) == 1``; zero
is ``(0, 0, 1, 1)``.  The form is unique, so equality compares the four
ints, and arithmetic runs on ints alone: products, sums, negation,
conjugation, inverses, comparisons and float conversion make no
:class:`~fractions.Fraction`.  ``re``, ``im``, ``abs_sq()`` and
``as_fraction()`` hand out the rational parts as Fractions.
The carrier is closed under multiplication, division, conjugation and
modulus.  Addition is exact only between like radicands or with zero;
anything else raises :class:`RadicalAdditionMismatch`; a caller that
needs such sums works with :class:`FloatScalar` values throughout.
Mixed exact/float arithmetic and equality are defined in
:class:`FloatScalar` alone: a ``RadScalar`` operator returns
``NotImplemented`` for a float operand, and Python calls the reflected
``FloatScalar`` method, which computes on ``complex(r)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import ExactnessError, RadicalAdditionMismatch, ResourceBound

__all__ = ["RadScalar", "FloatScalar", "as_scalar"]

FLOAT_TOL = 1e-9  # the absolute tolerance of every float decision in dynalg


_TRIAL_BOUND = 1 << 20  # the largest trial divisor of _square_split


def _square_split(n: int) -> tuple[int, int]:
    """Write n = outer**2 * core with core square-free (n >= 1).

    Trial division stops past ``_TRIAL_BOUND``.  A cofactor m left with no
    prime factor below the next divisor d, and m < d**3, has at most two
    prime factors: it is a square exactly when ``isqrt(m)**2 == m``, and
    square-free otherwise.  A larger cofactor raises ResourceBound."""
    radicand = n
    outer, core = 1, 1
    d = 2
    while d * d <= n and d <= _TRIAL_BOUND:
        if n % d == 0:
            cnt = 0
            while n % d == 0:
                n //= d
                cnt += 1
            outer *= d ** (cnt // 2)
            if cnt & 1:
                core *= d
        d += 1 if d == 2 else 2
    if d * d > n:
        return outer, core * n
    if n >= d * d * d:
        raise ResourceBound(
            "cannot split the radicand %d: a cofactor of it has no prime factor "
            "up to %d and may have more than two" % (radicand, _TRIAL_BOUND)
        )
    root = isqrt(n)
    if root * root == n:
        return outer * root, core
    return outer, core * n


class RadScalar:
    """An exact scalar ``(p + q*i) / d * sqrt(rad)`` in canonical form.

    The invariant: ``d > 0``, ``gcd(p, q, d) == 1``, ``rad`` square-free
    and positive, and zero is ``(0, 0, 1, 1)``.  The constructor takes
    the rational parts ``re``, ``im`` and any positive rational radicand.
    """

    __slots__ = ("p", "q", "d", "rad")

    def __init__(self, re=0, im=0, rad=1):
        if type(re) is int and type(im) is int and type(rad) is int:
            rn, rd, jn, jd, an, ad = re, 1, im, 1, rad, 1
        else:
            re, im, rad = Fraction(re), Fraction(im), Fraction(rad)
            rn, rd = re.numerator, re.denominator
            jn, jd = im.numerator, im.denominator
            an, ad = rad.numerator, rad.denominator
        if an <= 0:
            raise ValueError("radicand must be positive, got %s" % rad)
        if not rn and not jn:
            p, q, d, core = 0, 0, 1, 1
        else:
            # sqrt(an/ad) = outer * sqrt(core) / ad, as an * ad = outer**2 * core
            outer, core = _square_split(an * ad)
            d = rd * jd // gcd(rd, jd)
            p = rn * (d // rd) * outer
            q = jn * (d // jd) * outer
            d *= ad
            g = gcd(p, q, d)
            if g != 1:
                p, q, d = p // g, q // g, d // g
        self.p = p
        self.q = q
        self.d = d
        self.rad = core

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "RadScalar":
        return ZERO

    @classmethod
    def one(cls) -> "RadScalar":
        return ONE

    @classmethod
    def sqrt_of(cls, value) -> "RadScalar":
        """Exact square root of a nonnegative rational."""
        if type(value) is not int:
            value = Fraction(value)
        if value < 0:
            raise ExactnessError("square root of negative rational %s" % value)
        if value == 0:
            return ZERO
        return _root(value.numerator, value.denominator)

    # -- rational parts -----------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.q, self.d)

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.p and not self.q

    @property
    def is_real(self) -> bool:
        return not self.q

    @property
    def is_rational(self) -> bool:
        return not self.q and self.rad == 1

    @property
    def is_nonneg_real(self) -> bool:
        return not self.q and self.p >= 0

    def is_unit_modulus(self) -> bool:
        return not self.modulus_cmp_one()

    def modulus_cmp_one(self) -> int:
        """Exact three-way comparison of ``|value|`` with 1."""
        p, q, d = self.p, self.q, self.d
        n, m = (p * p + q * q) * self.rad, d * d
        return (n > m) - (n < m)

    # -- conversions --------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.q or self.rad != 1:
            raise ExactnessError("%r is not rational" % self)
        return Fraction(self.p, self.d)

    # int true division is correctly rounded: p / d is the float nearest p/d;
    # it and ``rad ** 0.5`` raise OverflowError past the float range
    def __complex__(self) -> complex:
        try:
            d, root = self.d, self.rad ** 0.5
            return complex(self.p / d * root, self.q / d * root)
        except OverflowError:
            raise ExactnessError("exact value outside float range")

    def __float__(self) -> float:
        if self.q:
            raise ExactnessError("%r is not real" % self)
        try:
            return self.p / self.d * self.rad ** 0.5
        except OverflowError:
            raise ExactnessError("exact value outside float range")

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RadScalar):
            return other
        if isinstance(other, int):
            return _trusted(int(other), 0, 1, 1)
        if isinstance(other, Fraction):
            return _trusted(other.numerator, 0, other.denominator, 1)
        return None

    def __add__(self, other):
        if type(other) is not RadScalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        p, q = self.p, self.q
        if not p and not q:
            return other
        p2, q2 = other.p, other.q
        if not p2 and not q2:
            return self
        rad = self.rad
        if rad != other.rad:
            raise RadicalAdditionMismatch(
                "cannot add sqrt(%d) and sqrt(%d) terms exactly" % (rad, other.rad)
            )
        d, d2 = self.d, other.d
        if d == d2:
            p += p2
            q += q2
        else:
            p, q, d = p * d2 + p2 * d, q * d2 + q2 * d, d * d2
        if not p and not q:
            return ZERO
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
        return _trusted(p, q, d, rad)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(-self.p, -self.q, self.d, self.rad)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not RadScalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.p, self.q, other.p, other.q
        if not a and not b or not c and not e:
            return ZERO
        if b or e:
            p, q = a * c - b * e, a * e + b * c
        else:
            p, q = a * c, 0
        r, s = self.rad, other.rad
        if r == s:
            rad = 1
            if r != 1:
                p, q = p * r, q * r
        else:
            g = gcd(r, s)
            rad = (r // g) * (s // g)
            if g != 1:
                p, q = p * g, q * g
        d = self.d * other.d
        # nonzero factors have a nonzero product, so rad needs no reset
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
        return _trusted(p, q, d, rad)

    __rmul__ = __mul__

    def conjugate(self) -> "RadScalar":
        return _trusted(self.p, -self.q, self.d, self.rad)

    def abs_sq(self) -> Fraction:
        """Exact |value|^2 as a rational."""
        p, q, d = self.p, self.q, self.d
        return Fraction((p * p + q * q) * self.rad, d * d)

    def modulus(self) -> "RadScalar":
        """Exact |value| (always representable in the carrier)."""
        p, q, d = self.p, self.q, self.d
        if not p and not q:
            return ZERO
        return _root((p * p + q * q) * self.rad, d * d)

    def inverse(self) -> "RadScalar":
        p, q = self.p, self.q
        if not p and not q:
            raise ZeroDivisionError("inverse of zero scalar")
        d, rad = self.d, self.rad
        # 1 / ((p + qi)/d sqrt(rad)) = d (p - qi) sqrt(rad) / ((p^2 + q^2) rad)
        p, q, n = p * d, -q * d, (p * p + q * q) * rad
        g = gcd(p, q, n)
        if g != 1:
            p, q, n = p // g, q // g, n // g
        return _trusted(p, q, n, rad)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def sqrt(self) -> "RadScalar":
        """Exact square root; only defined for nonnegative rational values."""
        p = self.p
        if not p and not self.q:
            return ZERO
        if self.q or self.rad != 1 or p < 0:
            raise ExactnessError("no exact square root for %r" % self)
        return _root(p, self.d)

    # -- ordering of real values --------------------------------------

    def real_sign(self) -> int:
        if self.q:
            raise ExactnessError("sign of non-real scalar %r" % self)
        return (self.p > 0) - (self.p < 0)

    def real_cmp(self, other) -> int:
        """Exact three-way comparison of two real values.

        A :class:`FloatScalar` argument is compared in floats, as its own
        ``real_cmp`` does; a value that is not a scalar, an int or a
        Fraction raises ``TypeError``.
        """
        if isinstance(other, FloatScalar):
            return -other.real_cmp(self)
        coerced = self._coerce(other)
        if coerced is None:
            raise TypeError("cannot compare %r with %r" % (self, other))
        other = coerced
        sa, sb = self.real_sign(), other.real_sign()
        if sa != sb:
            return (sa > sb) - (sa < sb)
        if sa == 0:
            return 0
        # same sign: larger square means larger absolute value
        qa = self.p * self.p * self.rad * other.d * other.d
        qb = other.p * other.p * other.rad * self.d * self.d
        if qa == qb:
            return 0
        return sa if qa > qb else -sa

    # -- value semantics ----------------------------------------------

    def __eq__(self, other):
        if type(other) is RadScalar:
            return (
                self.p == other.p
                and self.q == other.q
                and self.d == other.d
                and self.rad == other.rad
            )
        if isinstance(other, (int, Fraction)):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        if not self.q and self.rad == 1:
            # equal to hash(Fraction(p, d)), as RadScalar(2) == 2
            return hash(self.p) if self.d == 1 else hash(Fraction(self.p, self.d))
        return hash((self.re, self.im, self.rad))

    def __bool__(self):
        return bool(self.p or self.q)

    def __repr__(self):
        return "RadScalar(%s, %s, %s)" % (self.re, self.im, self.rad)

    def __str__(self):
        if not self.p and not self.q:
            return "0"
        re, im = self.re, self.im
        if im == 0:
            coeff = str(re)
        elif re == 0:
            coeff = "%si" % im
        else:
            coeff = "(%s%s%si)" % (re, "+" if im > 0 else "", im)
        if self.rad == 1:
            return coeff
        if coeff == "1":
            return "sqrt(%d)" % self.rad
        return "%s*sqrt(%d)" % (coeff, self.rad)


def _trusted(p: int, q: int, d: int, rad: int) -> RadScalar:
    """A RadScalar from ints already in canonical form: ``d > 0``,
    ``gcd(p, q, d) == 1``, ``rad`` square-free, and 1 when the value is
    zero."""
    out = object.__new__(RadScalar)
    out.p = p
    out.q = q
    out.d = d
    out.rad = rad
    return out


def _root(n: int, m: int) -> RadScalar:
    """The exact square root of ``n/m`` for ints ``n, m > 0``."""
    g = gcd(n, m)
    if g != 1:
        n, m = n // g, m // g
    outer, core = _square_split(n * m)  # sqrt(n/m) = outer * sqrt(core) / m
    g = gcd(outer, m)
    return _trusted(outer // g, 0, m // g, core)


ZERO = RadScalar(0)
ONE = RadScalar(1)


class FloatScalar:
    """Floating-point stand-in with the same operation surface.

    Used by the exploratory float mode; zero tests and equality carry the
    absolute tolerance ``FLOAT_TOL``.  Its operators, reflected ones
    included, are the only definition of arithmetic and equality between
    a ``RadScalar`` r and a ``FloatScalar`` f: each gives the FloatScalar
    of the complex operation on ``complex(r)`` and ``f.value``.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    @property
    def is_zero(self) -> bool:
        return abs(self.value) <= FLOAT_TOL

    @property
    def is_real(self) -> bool:
        return abs(self.value.imag) <= FLOAT_TOL

    @property
    def is_rational(self) -> bool:
        return False

    @property
    def is_nonneg_real(self) -> bool:
        return self.is_real and self.value.real >= -FLOAT_TOL

    def is_unit_modulus(self) -> bool:
        return abs(abs(self.value) - 1.0) <= FLOAT_TOL

    def _val(self, other):
        if isinstance(other, FloatScalar):
            return other.value
        if isinstance(other, RadScalar):
            return complex(other)
        if isinstance(other, (int, float, Fraction, complex)):
            return complex(other)
        return None

    def __add__(self, other):
        v = self._val(other)
        return NotImplemented if v is None else FloatScalar(self.value + v)

    __radd__ = __add__

    def __neg__(self):
        return FloatScalar(-self.value)

    def __sub__(self, other):
        v = self._val(other)
        return NotImplemented if v is None else FloatScalar(self.value - v)

    def __rsub__(self, other):
        v = self._val(other)
        return NotImplemented if v is None else FloatScalar(v - self.value)

    def __mul__(self, other):
        v = self._val(other)
        return NotImplemented if v is None else FloatScalar(self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._val(other)
        return NotImplemented if v is None else FloatScalar(self.value / v)

    def __rtruediv__(self, other):
        v = self._val(other)
        return NotImplemented if v is None else FloatScalar(v / self.value)

    def conjugate(self):
        return FloatScalar(self.value.conjugate())

    def modulus(self):
        return FloatScalar(abs(self.value))

    def inverse(self):
        return FloatScalar(1.0 / self.value)

    def sqrt(self):
        return FloatScalar(self.value ** 0.5)

    def real_sign(self) -> int:
        if self.is_zero:
            return 0
        return 1 if self.value.real > 0 else -1

    def real_cmp(self, other) -> int:
        """Three-way comparison of two real values within ``FLOAT_TOL``.

        A value whose imaginary part exceeds FLOAT_TOL raises
        ``ExactnessError``; a value that is not a scalar or a number raises
        ``TypeError``, as in ``RadScalar.real_cmp``.
        """
        v = self._val(other)
        if v is None:
            raise TypeError("cannot compare %r with %r" % (self, other))
        if abs(self.value.imag) > FLOAT_TOL or abs(v.imag) > FLOAT_TOL:
            raise ExactnessError("comparison of non-real values %r and %r" % (self, other))
        d = self.value.real - v.real
        if abs(d) <= FLOAT_TOL:
            return 0
        return 1 if d > 0 else -1

    def __complex__(self):
        return self.value

    def __eq__(self, other):
        v = self._val(other)
        if v is None:
            return NotImplemented
        return abs(self.value - v) <= FLOAT_TOL

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return "FloatScalar(%r)" % self.value

    __hash__ = None


def as_scalar(value):
    """Coerce ints, rationals, and scalars to a scalar value."""
    if isinstance(value, (RadScalar, FloatScalar)):
        return value
    if isinstance(value, (int, Fraction)):
        return RadScalar(value)
    if isinstance(value, (float, complex)):
        return FloatScalar(value)
    raise TypeError("cannot interpret %r as a scalar" % (value,))
