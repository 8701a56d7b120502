"""Exact scalar arithmetic: Gaussian rationals times one square root.

A value is ``(re + im*i) * sqrt(rad)`` with ``re``, ``im`` rational and
``rad`` a square-free positive integer (canonical form; squares are
extracted into the coefficient, and the value 0 carries radicand 1).
The carrier is closed under multiplication, division, conjugation and
modulus.  Addition is exact only between like radicands or with zero;
anything else raises :class:`RadicalAdditionMismatch`, which callers may
turn into a float computation via :func:`rad_add` with ``mode="float"``
or by working with :class:`FloatScalar` values throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ExactnessError, RadicalAdditionMismatch

__all__ = ["RadScalar", "FloatScalar", "rad_add", "as_scalar"]

FLOAT_TOL = 1e-9


def _square_split(n: int) -> tuple[int, int]:
    """Write n = outer**2 * core with core square-free (n >= 1)."""
    outer, core = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            cnt = 0
            while n % d == 0:
                n //= d
                cnt += 1
            outer *= d ** (cnt // 2)
            if cnt & 1:
                core *= d
        d += 1 if d == 2 else 2
    return outer, core * n


class RadScalar:
    """An exact scalar ``(re + im*i) * sqrt(rad)`` in canonical form."""

    __slots__ = ("re", "im", "rad")

    def __init__(self, re=0, im=0, rad=1):
        re = Fraction(re)
        im = Fraction(im)
        if re == 0 and im == 0:
            core = 1
        else:
            rad = Fraction(rad)
            if rad <= 0:
                raise ValueError("radicand must be positive, got %s" % rad)
            p, q = rad.numerator, rad.denominator
            outer, core = _square_split(p * q)
            scale = Fraction(outer, q)
            re *= scale
            im *= scale
        self.re = re
        self.im = im
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
        value = Fraction(value)
        if value < 0:
            raise ExactnessError("square root of negative rational %s" % value)
        if value == 0:
            return cls.zero()
        return cls(1, 0, value)

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return self.im == 0

    @property
    def is_rational(self) -> bool:
        return self.im == 0 and self.rad == 1

    @property
    def is_nonneg_real(self) -> bool:
        return self.im == 0 and self.re >= 0

    def is_unit_modulus(self) -> bool:
        return self.abs_sq() == 1

    # -- conversions --------------------------------------------------

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ExactnessError("%r is not rational" % self)
        return self.re

    def __complex__(self) -> complex:
        root = self.rad ** 0.5
        return complex(float(self.re) * root, float(self.im) * root)

    def __float__(self) -> float:
        if self.im != 0:
            raise ExactnessError("%r is not real" % self)
        return float(self.re) * self.rad ** 0.5

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RadScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return RadScalar(other)
        return None

    def __add__(self, other):
        if type(other) is not RadScalar:
            if isinstance(other, FloatScalar):
                return FloatScalar(complex(self) + other.value)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not self.re and not self.im:
            return other
        if not other.re and not other.im:
            return self
        if self.rad != other.rad:
            raise RadicalAdditionMismatch(
                "cannot add sqrt(%d) and sqrt(%d) terms exactly" % (self.rad, other.rad)
            )
        re = self.re + other.re
        im = self.im + other.im
        return _trusted(re, im, self.rad if re or im else 1)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(-self.re, -self.im, self.rad)

    def __sub__(self, other):
        if isinstance(other, FloatScalar):
            return FloatScalar(complex(self) - other.value)
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
            if isinstance(other, FloatScalar):
                return FloatScalar(complex(self) * other.value)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not a and not b or not c and not d:
            return ZERO
        if b or d:
            re, im = a * c - b * d, a * d + b * c
        else:
            re, im = a * c, b  # both real: b is the zero imaginary part
        r, s = self.rad, other.rad
        if r == s:
            rad = 1
            if r != 1:
                re, im = re * r, im * r
        else:
            g = gcd(r, s)
            re, im, rad = re * g, im * g, (r // g) * (s // g)
        # nonzero factors have a nonzero product, so rad needs no reset
        return _trusted(re, im, rad)

    __rmul__ = __mul__

    def conjugate(self) -> "RadScalar":
        return _trusted(self.re, -self.im, self.rad)

    def abs_sq(self) -> Fraction:
        """Exact |value|^2 as a rational."""
        return (self.re * self.re + self.im * self.im) * self.rad

    def modulus(self) -> "RadScalar":
        """Exact |value| (always representable in the carrier)."""
        return RadScalar.sqrt_of(self.abs_sq())

    def inverse(self) -> "RadScalar":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        d = (self.re * self.re + self.im * self.im) * self.rad
        return _trusted(self.re / d, -self.im / d, self.rad)

    def __truediv__(self, other):
        if isinstance(other, FloatScalar):
            return FloatScalar(complex(self) / other.value)
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
        if self.is_zero:
            return RadScalar.zero()
        if not self.is_rational or self.re < 0:
            raise ExactnessError("no exact square root for %r" % self)
        return RadScalar.sqrt_of(self.re)

    # -- ordering of real values --------------------------------------

    def real_sign(self) -> int:
        if self.im != 0:
            raise ExactnessError("sign of non-real scalar %r" % self)
        return (self.re > 0) - (self.re < 0)

    def real_cmp(self, other) -> int:
        """Exact three-way comparison of two real values."""
        other = self._coerce(other)
        sa, sb = self.real_sign(), other.real_sign()
        if sa != sb:
            return (sa > sb) - (sa < sb)
        if sa == 0:
            return 0
        qa = self.re * self.re * self.rad
        qb = other.re * other.re * other.rad
        if qa == qb:
            return 0
        # same sign: larger square means larger absolute value
        return sa if qa > qb else -sa

    # -- value semantics ----------------------------------------------

    def __eq__(self, other):
        if type(other) is RadScalar:
            return self.rad == other.rad and self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self == RadScalar(other)
        if isinstance(other, FloatScalar):
            return other == self
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.re)
        return hash((self.re, self.im, self.rad))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return "RadScalar(%s, %s, %s)" % (self.re, self.im, self.rad)

    def __str__(self):
        if self.is_zero:
            return "0"
        if self.im == 0:
            coeff = str(self.re)
        elif self.re == 0:
            coeff = "%si" % self.im
        else:
            coeff = "(%s%+si)" % (self.re, self.im)
        if self.rad == 1:
            return coeff
        if coeff == "1":
            return "sqrt(%d)" % self.rad
        return "%s*sqrt(%d)" % (coeff, self.rad)


def _trusted(re: Fraction, im: Fraction, rad: int) -> RadScalar:
    """A RadScalar from parts already in canonical form, skipping the
    square split: ``rad`` square-free, and 1 when the value is zero."""
    out = object.__new__(RadScalar)
    out.re = re
    out.im = im
    out.rad = rad
    return out


ZERO = RadScalar(0)
ONE = RadScalar(1)


class FloatScalar:
    """Floating-point stand-in with the same operation surface.

    Used by the exploratory float mode; zero tests and equality carry an
    absolute tolerance of ``1e-9``.
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
        v = self._val(other)
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


def rad_add(a: RadScalar, b: RadScalar, mode: str = "exact"):
    """Add two scalars; ``mode="float"`` degrades to a float on mismatch."""
    try:
        return a + b
    except RadicalAdditionMismatch:
        if mode == "float":
            return FloatScalar(complex(a) + complex(b))
        raise


def as_scalar(value):
    """Coerce ints, rationals, and scalars to a scalar value."""
    if isinstance(value, (RadScalar, FloatScalar)):
        return value
    if isinstance(value, (int, Fraction)):
        return RadScalar(value)
    if isinstance(value, (float, complex)):
        return FloatScalar(value)
    raise TypeError("cannot interpret %r as a scalar" % (value,))
