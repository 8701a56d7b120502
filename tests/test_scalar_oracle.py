"""RadScalar against its Fraction-backed oracle, operation by operation.

``FractionRadScalar`` (``tests/_support.py``) is the exact scalar as it
was while ``re`` and ``im`` were Fractions.  Every operation runs on both
from the same arguments, and the results must agree: rational parts,
radicand, the int form ``(p, q, d, rad)``, repr, str, hash, equality,
``complex`` (by repr), the predicates, and for an error its type and
message, ``RadicalAdditionMismatch`` and ``ZeroDivisionError`` included.

One input is left out on purpose: a zero value with a radicand that is
not positive.  The oracle returns zero for it; the library raises the
"radicand must be positive" ValueError, which
``test_zero_with_bad_radicand_raises`` checks instead.
"""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dynalg import RadScalar

from _support import FractionRadScalar

EXAMPLES = settings(derandomize=True, max_examples=300, deadline=None)

# st.builds, not st.fractions: the same values at a fraction of the drawing cost
rationals = st.builds(Fraction, st.integers(-120, 120), st.integers(1, 12))
small_ints = st.integers(min_value=-6, max_value=6)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10])
# radicands the constructor must bring to canonical form
raw_radicands = st.one_of(
    radicands,
    st.sampled_from([4, 8, 12, 18, 50, 72, Fraction(1, 2), Fraction(9, 4), Fraction(8, 3)]),
    st.builds(Fraction, st.integers(1, 120), st.integers(1, 9)),
)

# (re, im, rad) argument triples
radical_args = st.tuples(rationals, rationals, radicands)
rational_args = st.tuples(st.one_of(rationals, small_ints), st.just(0), st.just(1))
mixed_args = st.one_of(
    radical_args,
    rational_args,
    st.tuples(rationals, rationals, st.just(1)),
    st.tuples(st.just(0), rationals, radicands),
    st.just((0, 0, 1)),
)
like_pairs = st.builds(
    lambda a, b, r: ((a[0], a[1], r), (b[0], b[1], r)),
    st.tuples(rationals, rationals), st.tuples(rationals, rationals), radicands,
)
plain_operands = st.one_of(
    small_ints, rationals, st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-3, 4)])
)


def pair(args):
    return RadScalar(*args), FractionRadScalar(*args)


def int_form(old):
    """The canonical ``(p, q, d, rad)`` that the oracle's parts imply:
    ``d`` the lcm of the two denominators, so ``d > 0`` and
    ``gcd(p, q, d) == 1``."""
    a, b = old.re.denominator, old.im.denominator
    d = a * b // gcd(a, b)
    return (int(old.re * d), int(old.im * d), d, old.rad)


def assert_same(new, old):
    if not isinstance(old, FractionRadScalar):
        assert type(new) is type(old), (new, old)
        if isinstance(old, float):
            assert repr(new) == repr(old)
        else:
            assert new == old
        return
    assert type(new) is RadScalar
    assert (new.p, new.q, new.d, new.rad) == int_form(old), (new.p, new.q, new.d, new.rad, old)
    assert (new.re, new.im, new.rad) == (old.re, old.im, old.rad)
    assert repr(new) == repr(old)
    assert str(new) == str(old)
    assert hash(new) == hash(old)
    assert repr(complex(new)) == repr(complex(old))
    assert bool(new) == bool(old)
    for name in ("is_zero", "is_real", "is_rational", "is_nonneg_real"):
        assert getattr(new, name) == getattr(old, name), name
    assert new.is_unit_modulus() == old.is_unit_modulus()
    assert new.abs_sq() == old.abs_sq()
    assert new.modulus_cmp_one() == (old.abs_sq() > 1) - (old.abs_sq() < 1)
    assert new == RadScalar(old.re, old.im, old.rad)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the type and message are what is compared
        return ("raise", type(exc), str(exc))


def agree(fn, new_args, old_args, old_fn=None):
    """``fn`` on the library's scalars and on the oracle's (or ``old_fn``
    on the oracle's, where the callable itself differs) agree.  Returns
    the two results, or None when both raised."""
    got, want = outcome(fn, *new_args), outcome(old_fn or fn, *old_args)
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got[1:] == want[1:]
        return None
    assert_same(got[1], want[1])
    return got[1], want[1]


UNARY = {
    "neg": operator.neg,
    "conjugate": lambda x: x.conjugate(),
    "inverse": lambda x: x.inverse(),
    "abs_sq": lambda x: x.abs_sq(),
    "modulus": lambda x: x.modulus(),
    "sqrt": lambda x: x.sqrt(),
    "as_fraction": lambda x: x.as_fraction(),
    "real_sign": lambda x: x.real_sign(),
    "float": float,
    "complex": lambda x: repr(complex(x)),
    "hash": hash,
    "str": str,
    "repr": repr,
    "square": lambda x: x * x,
    "double": lambda x: x + x,
    "cancel": lambda x: x - x,
    "self_quotient": lambda x: x / x,
}

BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "truediv": operator.truediv,
    "eq": operator.eq,
    "ne": operator.ne,
    "real_cmp": lambda x, y: x.real_cmp(y),
}


def check_unary(new, old):
    assert_same(new, old)
    for fn in UNARY.values():
        agree(fn, (new,), (old,))


def check_binary(a_args, b_args):
    a, a_old = pair(a_args)
    b, b_old = pair(b_args)
    for fn in BINARY.values():
        agree(fn, (a, b), (a_old, b_old))
        agree(fn, (b, a), (b_old, a_old))


def check_plain(args, k):
    """Operations with an int or a Fraction on either side."""
    x, x_old = pair(args)
    for name, fn in BINARY.items():
        agree(fn, (x, k), (x_old, k))
        if name != "real_cmp":
            agree(fn, (k, x), (k, x_old))


@EXAMPLES
@given(rational_args)
def test_rationals_unary(args):
    check_unary(*pair(args))


@EXAMPLES
@given(mixed_args)
def test_mixed_unary(args):
    check_unary(*pair(args))


@EXAMPLES
@given(rational_args, rational_args)
def test_rationals_binary(a, b):
    check_binary(a, b)


@EXAMPLES
@given(like_pairs)
def test_like_radicands_binary(pair_args):
    check_binary(*pair_args)


@EXAMPLES
@given(mixed_args, mixed_args)
def test_mixed_binary(a, b):
    check_binary(a, b)


@EXAMPLES
@given(mixed_args, plain_operands)
def test_mixed_with_ints_and_fractions(args, k):
    check_plain(args, k)


@EXAMPLES
@given(
    st.one_of(rationals, small_ints, st.sampled_from(["1/2", "-3", 0.5])),
    st.one_of(rationals, small_ints),
    st.one_of(raw_radicands, st.sampled_from([-1, 0, Fraction(-1, 2), "-2", "abc"])),
)
def test_constructor(re, im, rad):
    if Fraction(re) == 0 and Fraction(im) == 0:
        try:
            positive = Fraction(rad) > 0
        except ValueError:
            positive = False
        if not positive:
            return  # left out on purpose; see the module docstring
    agree(RadScalar, (re, im, rad), (re, im, rad), FractionRadScalar)


@EXAMPLES
@given(st.one_of(rationals, small_ints))
def test_sqrt_of(value):
    agree(RadScalar.sqrt_of, (value,), (value,), FractionRadScalar.sqrt_of)


STEPS = ["add", "sub", "mul", "truediv"]


@EXAMPLES
@given(
    st.lists(mixed_args, min_size=2, max_size=4),
    st.lists(st.tuples(st.sampled_from(STEPS), st.integers(0, 3)), min_size=1, max_size=4),
)
def test_chains(pool, steps):
    """Results fed back in: canonical forms of results are inputs too."""
    values = [pair(args) for args in pool]
    acc, acc_old = values[0]
    for name, idx in steps:
        x, x_old = values[idx % len(values)]
        results = agree(BINARY[name], (acc, x), (acc_old, x_old))
        if results is not None:
            acc, acc_old = results
    check_unary(acc, acc_old)


def test_zero_with_bad_radicand_raises():
    """The one input the oracle tests leave out: the library now checks
    the radicand before it takes the zero shortcut."""
    for rad in (-1, 0, Fraction(-1, 2), "-2"):
        with pytest.raises(ValueError, match="radicand must be positive, got"):
            RadScalar(0, 0, rad)
        assert FractionRadScalar(0, 0, rad).is_zero
