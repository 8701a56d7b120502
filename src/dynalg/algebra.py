"""Crossed-product element algebra over a finite dynamical system.

An element is a finitely supported sum ``a = sum_g a_g u_g`` with
coefficients ``a_g`` in C(X) and unitaries ``u_g`` implementing the
action.  The covariance convention is

    u_g f u_g^* = f . alpha_{g^{-1}},   i.e.  (u_g f u_g^*)(x) = f(g^{-1} x),

where ``(f . alpha_h)(x) = f(h x)``.  This fixes the product and adjoint:

    (a b)_k  = sum_g a_g * (b_{g^{-1} k} . alpha_{g^{-1}})
    (a^*)_g  = conj(a_{g^{-1}}) . alpha_{g^{-1}}

All algebraic identities (products, adjoints, expectations) are computed
exactly over :class:`RadScalar` coefficients.  Norms, positivity, and
eigenvalue questions go through a faithful finite-dimensional
representation in floating point with absolute tolerance ``1e-9``:

    pi(f u_g) delta_{(h, x)} = f((g h).x) delta_{(g h, x)}

on the basis indexed by pairs (h in G, x in X).  pi never moves a point,
so it is the direct sum of one block per point.  ``_block_entries``
evaluates this rule for an n x n matrix of elements; the exact orbit
blocks read it, and the one float builder ``_point_blocks`` writes it
into a stack of blocks (``point_block`` reads a stack of one).  Blocks
over one orbit are unitarily equivalent, so the stack at the orbits'
least points decides every unitarily invariant question with one LAPACK
call: the positivity test of ``castles.verify_cpc`` and
``comparison.cuntz_oracle`` (one hermitian test, one ``eigvalsh``) and
the largest norm of ``operator_norm`` and of phi(1) in ``verify_cpc``.
The library never builds the dense (n |G| |X|)-square matrix.

These float routines are the only users of numpy in the library, and
each imports it when it runs: the float blocks, the positivity test,
the largest norm and the float rank of an :class:`OrbitBlock`.
Importing dynalg or deciding anything exactly therefore never loads
numpy.  They look up ``np.linalg.<routine>`` at each call, so a wrapper
installed on ``numpy.linalg`` sees every solve.

Storage is sparse.  A :class:`Func` keeps a dict from point to value that
omits exactly the points whose value is an exact zero, so sums, products,
translates, comparisons and supports cost the number of nonzero points,
and a crossed-product coefficient that vanishes stores nothing.  Only
exact zeros are dropped: a :class:`FloatScalar` is stored even when it is
within tolerance of zero, because ``v + 0`` can differ from ``v`` in the
sign of a float zero, and float-mode results must stay bit-identical to a
pass over every point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .dynsys import DynSystem
from .errors import IndexOutOfRange, NotFree, NotPositive, RadicalAdditionMismatch, SystemMismatch
from .scalars import FLOAT_TOL, ONE, ZERO, FloatScalar, RadScalar, as_scalar

__all__ = [
    "Func",
    "CrossedElement",
    "MatrixElement",
    "DiagTuple",
    "OrbitBlock",
    "open_support",
    "cond_expectation",
    "point_block",
    "orbit_block_decomposition",
    "operator_norm",
]

Scalar = Union[RadScalar, FloatScalar]


def _exact_zero(v) -> bool:
    return type(v) is RadScalar and not v.p and not v.q


def _check_points(system: DynSystem, points) -> None:
    """IndexOutOfRange for the least point outside range(n_points)."""
    bad = [x for x in points if not 0 <= x < system.n_points]
    if bad:
        raise IndexOutOfRange("point index %d out of range" % min(bad))


class Func:
    """An element of C(X), stored by its nonzero points.

    ``sparse`` maps a point to its value and omits exactly the points
    whose value is an exact RadScalar zero, so exact arithmetic neither
    stores nor tests zeros.  A FloatScalar is always stored, even within
    the float tolerance of zero: an absent point reads as the exact zero,
    and ``v + 0`` can differ from ``v`` in the sign of a float zero, so
    float results stay bit-identical to a pass over every point.
    ``values`` is the dense tuple, one value per point, built on first use.
    A point outside range(n_points) raises IndexOutOfRange (the least one).
    """

    def __init__(self, system: DynSystem, values: Sequence[Scalar]):
        if len(values) != system.n_points:
            raise ValueError("expected %d values, got %d" % (system.n_points, len(values)))
        self.system = system
        self.sparse = {x: v for x, v in enumerate(values) if not _exact_zero(v)}

    @classmethod
    def _of(cls, system: DynSystem, sparse: dict) -> "Func":
        """A Func from a point -> value dict that holds no exact zero."""
        f = cls.__new__(cls)
        f.system = system
        f.sparse = sparse
        return f

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, system: DynSystem) -> "Func":
        return cls._of(system, {})

    @classmethod
    def one(cls, system: DynSystem) -> "Func":
        return cls._of(system, dict.fromkeys(range(system.n_points), ONE))

    @classmethod
    def indicator(cls, system: DynSystem, points: Iterable[int]) -> "Func":
        pts = set(points)
        _check_points(system, pts)
        return cls._of(system, {x: ONE for x in range(system.n_points) if x in pts})

    @classmethod
    def from_dict(cls, system: DynSystem, entries: dict) -> "Func":
        _check_points(system, entries)
        values = {operator.index(x): as_scalar(v) for x, v in entries.items()}
        return cls._of(system, {x: v for x, v in values.items() if not _exact_zero(v)})

    # -- structure -----------------------------------------------------

    @cached_property
    def values(self) -> tuple:
        get = self.sparse.get
        return tuple(get(x, ZERO) for x in range(self.system.n_points))

    @cached_property
    def support(self) -> frozenset:
        # Inserted in point order: where entries collide, a set iterates in
        # insertion order, and cutdown and sqrt raise at the first point
        # they meet, which must not depend on how the dict was built.
        return frozenset(x for x in sorted(self.sparse) if not self.sparse[x].is_zero)

    @property
    def is_zero(self) -> bool:
        for v in self.sparse.values():
            if not v.is_zero:
                return False
        return True

    @cached_property
    def is_positive(self) -> bool:
        """True when every value is real and >= 0."""
        return all(v.is_nonneg_real for v in self.sparse.values())

    def __call__(self, x: int) -> Scalar:
        if not 0 <= x < self.system.n_points:
            raise IndexOutOfRange("point index %d out of range" % x)
        return self.sparse.get(x, ZERO)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Func"):
        if self.system is not other.system:
            raise SystemMismatch("functions over different systems")

    def _pointwise(self, other: "Func", op) -> "Func":
        """op at every point stored on either side (an absent side reads as
        the exact zero); a mismatch is raised at the least point, where a
        pass in point order meets it first."""
        a, b = self.sparse, other.sparse
        out = {}
        try:
            for x in a.keys() | b.keys():
                v = op(a.get(x, ZERO), b.get(x, ZERO))
                if not _exact_zero(v):
                    out[x] = v
        except RadicalAdditionMismatch:
            for x in sorted(a.keys() & b.keys()):
                op(a[x], b[x])
            raise
        return Func._of(self.system, out)

    def __add__(self, other: "Func") -> "Func":
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return self._pointwise(other, operator.add)

    def __sub__(self, other: "Func") -> "Func":
        self._check(other)
        return self._pointwise(other, operator.sub)

    def __neg__(self) -> "Func":
        return Func._of(self.system, {x: -v for x, v in self.sparse.items()})

    def __mul__(self, other):
        if isinstance(other, Func):
            self._check(other)
            b = other.sparse
            return Func._of(
                self.system,
                {
                    x: v * b[x]
                    for x, v in self.sparse.items()
                    if x in b and not v.is_zero and not b[x].is_zero
                },
            )
        return self.scaled(other)

    def scaled(self, scalar) -> "Func":
        s = as_scalar(scalar)
        if s.is_zero:
            return Func.zero(self.system)
        return Func._of(
            self.system, {x: v * s for x, v in self.sparse.items() if not v.is_zero}
        )

    def conj(self) -> "Func":
        return Func._of(self.system, {x: v.conjugate() for x, v in self.sparse.items()})

    def compose_action(self, g: int) -> "Func":
        """The function x -> f(g.x), re-keyed through the inverse permutation."""
        back = self.system.act[self.system.group.inv(g)]
        return Func._of(self.system, {back[y]: v for y, v in self.sparse.items()})

    def restrict(self, points: Iterable[int]) -> "Func":
        pts = set(points)
        return Func._of(self.system, {x: v for x, v in self.sparse.items() if x in pts})

    def cutdown(self, eps) -> "Func":
        """Pointwise max(f(x) - eps, 0); requires f positive, eps >= 0 rational."""
        eps = Fraction(eps)
        if eps < 0:
            raise NotPositive("cutdown parameter must be nonnegative")
        if not self.is_positive:
            raise NotPositive("cutdown of a non-positive function")
        if eps == 0:
            return self
        cut = RadScalar(eps)
        out = {}
        for x in self.support:
            v = self.sparse[x]
            if v.real_cmp(cut) > 0:
                out[x] = v - cut
        return Func._of(self.system, out)

    def sqrt(self) -> "Func":
        if not self.is_positive:
            raise NotPositive("square root of a non-positive function")
        return Func._of(self.system, {x: self.sparse[x].sqrt() for x in self.support})

    def sup_le_one(self) -> bool:
        """Exact check that every value has modulus at most one."""
        return all(
            v.modulus_cmp_one() <= 0 if isinstance(v, RadScalar) else abs(complex(v)) <= 1 + FLOAT_TOL
            for v in self.sparse.values()
        )

    def __eq__(self, other):
        if not isinstance(other, Func):
            return NotImplemented
        if self.system is not other.system:
            return False
        a, b = self.sparse, other.sparse
        if a.keys() == b.keys():
            return all(v == b[x] for x, v in a.items())
        # An absent point still equals a stored float within tolerance of zero.
        return all(a.get(x, ZERO) == b.get(x, ZERO) for x in a.keys() | b.keys())

    __hash__ = None

    def __repr__(self):
        parts = ", ".join(
            "%s: %s" % (self.system.points[x], self.sparse[x]) for x in sorted(self.support)
        )
        return "Func{%s}" % parts


def open_support(f: Func) -> frozenset:
    """The set of points where f is nonzero (exact comparison)."""
    return f.support


class CrossedElement:
    """A crossed-product element sum_g a_g u_g with exact coefficients."""

    def __init__(self, system: DynSystem, coeffs: Sequence[Func]):
        if len(coeffs) != system.group.order:
            raise ValueError("expected %d coefficients" % system.group.order)
        for c in coeffs:
            if c.system is not system:
                raise SystemMismatch("coefficient over a different system")
        self.system = system
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, system: DynSystem) -> "CrossedElement":
        z = Func.zero(system)
        return cls(system, (z,) * system.group.order)

    @classmethod
    def unit(cls, system: DynSystem) -> "CrossedElement":
        return cls.monomial(Func.one(system), system.group.identity)

    @classmethod
    def unitary(cls, system: DynSystem, g: int) -> "CrossedElement":
        return cls.monomial(Func.one(system), g)

    @classmethod
    def from_func(cls, f: Func) -> "CrossedElement":
        return cls.monomial(f, f.system.group.identity)

    @classmethod
    def monomial(cls, f: Func, g: int) -> "CrossedElement":
        coeffs = [Func.zero(f.system)] * f.system.group.order
        coeffs[g] = f
        return cls(f.system, coeffs)

    @cached_property
    def nonzero_groups(self) -> tuple[int, ...]:
        return tuple(g for g, c in enumerate(self.coeffs) if not c.is_zero)

    @property
    def is_zero(self) -> bool:
        return not self.nonzero_groups

    def _check(self, other: "CrossedElement"):
        if self.system is not other.system:
            raise SystemMismatch("elements over different systems")

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        self._check(other)
        return CrossedElement(
            self.system, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        self._check(other)
        return CrossedElement(
            self.system, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CrossedElement":
        return CrossedElement(self.system, tuple(-c for c in self.coeffs))

    def scaled(self, scalar) -> "CrossedElement":
        return CrossedElement(self.system, tuple(c.scaled(scalar) for c in self.coeffs))

    def __mul__(self, other: "CrossedElement") -> "CrossedElement":
        self._check(other)
        sys = self.system
        grp = sys.group
        acc: list[Optional[Func]] = [None] * grp.order
        right = [(h, other.coeffs[h].sparse) for h in other.nonzero_groups]
        for g in self.nonzero_groups:
            # a_g u_g b_h u_h = a_g (b_h . alpha_{g^{-1}}) u_{gh}, read off pointwise
            left = [(x, v) for x, v in self.coeffs[g].sparse.items() if not v.is_zero]
            back = sys.act[grp.inv(g)]
            for h, b in right:
                term = {}
                for x, v in left:
                    w = b.get(back[x])
                    if w is not None and not w.is_zero:
                        term[x] = v * w
                term = Func._of(sys, term)
                if term.is_zero:
                    continue
                k = grp.mul(g, h)
                acc[k] = term if acc[k] is None else acc[k] + term
        z = Func.zero(sys)
        return CrossedElement(sys, tuple(c if c is not None else z for c in acc))

    def adjoint(self) -> "CrossedElement":
        grp = self.system.group
        coeffs = [Func.zero(self.system)] * grp.order
        for h in self.nonzero_groups:
            g = grp.inv(h)
            coeffs[g] = self.coeffs[h].conj().compose_action(h)
        return CrossedElement(self.system, coeffs)

    def cond_expectation(self) -> Func:
        """Read off the identity-group coefficient (the projection onto C(X))."""
        return self.coeffs[self.system.group.identity]

    @property
    def in_diagonal(self) -> bool:
        """True when the element lies in C(X): all other coefficients vanish."""
        e = self.system.group.identity
        return all(g == e for g in self.nonzero_groups)

    def as_func(self) -> Func:
        if not self.in_diagonal:
            raise ValueError("element is not in C(X)")
        return self.coeffs[self.system.group.identity]

    def __eq__(self, other):
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return self.system is other.system and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            return "CrossedElement(0)"
        parts = " + ".join(
            "(%r)u[%s]" % (self.coeffs[g], self.system.group.elements[g])
            for g in self.nonzero_groups
        )
        return "CrossedElement(%s)" % parts


def _stored_points(a: CrossedElement) -> set:
    """The points where some coefficient of a stores a value: a superset of
    the points where a coefficient is nonzero, in either scalar mode."""
    return set().union(*(c.sparse.keys() for c in a.coeffs))


def cond_expectation(a: CrossedElement) -> Func:
    """E(a) = a_e, the faithful conditional expectation onto C(X)."""
    return a.cond_expectation()


class MatrixElement:
    """An n x n matrix of crossed-product elements over one system."""

    def __init__(self, system: DynSystem, entries: Sequence[Sequence[CrossedElement]]):
        self.system = system
        self.n = len(entries)
        rows = []
        for row in entries:
            if len(row) != self.n:
                raise ValueError("matrix must be square")
            for a in row:
                if a.system is not system:
                    raise SystemMismatch("entry over a different system")
            rows.append(tuple(row))
        self.entries = tuple(rows)

    @classmethod
    def zero(cls, system: DynSystem, n: int) -> "MatrixElement":
        z = CrossedElement.zero(system)
        return cls(system, tuple((z,) * n for _ in range(n)))

    @classmethod
    def diag(cls, system: DynSystem, funcs: Sequence[Func]) -> "MatrixElement":
        n = len(funcs)
        z = CrossedElement.zero(system)
        rows = []
        for i, f in enumerate(funcs):
            row = [z] * n
            row[i] = CrossedElement.from_func(f)
            rows.append(tuple(row))
        return cls(system, rows)

    def __add__(self, other: "MatrixElement") -> "MatrixElement":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return MatrixElement(
            self.system,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "MatrixElement") -> "MatrixElement":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return MatrixElement(
            self.system,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __mul__(self, other: "MatrixElement") -> "MatrixElement":
        if self.system is not other.system:
            raise SystemMismatch("matrices over different systems")
        if self.n != other.n:
            raise ValueError("size mismatch")
        n = self.n
        z = CrossedElement.zero(self.system)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for k in range(n):
                    a, b = self.entries[i][k], other.entries[k][j]
                    if a.is_zero or b.is_zero:
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                row.append(acc if acc is not None else z)
            rows.append(tuple(row))
        return MatrixElement(self.system, rows)

    def adjoint(self) -> "MatrixElement":
        n = self.n
        return MatrixElement(
            self.system,
            tuple(tuple(self.entries[j][i].adjoint() for j in range(n)) for i in range(n)),
        )

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for row in self.entries for a in row)

    def __eq__(self, other):
        if not isinstance(other, MatrixElement):
            return NotImplemented
        return (
            self.system is other.system
            and self.n == other.n
            and all(
                a == b
                for ra, rb in zip(self.entries, other.entries)
                for a, b in zip(ra, rb)
            )
        )

    __hash__ = None

    def __repr__(self):
        return "MatrixElement(n=%d over %r)" % (self.n, self.system)


class DiagTuple:
    """A tuple of positive functions, read as diag(a_1, ..., a_n)."""

    def __init__(self, system: DynSystem, entries: Sequence[Func]):
        for f in entries:
            if f.system is not system:
                raise SystemMismatch("entry over a different system")
            if not f.is_positive:
                raise NotPositive("diagonal tuples require positive entries")
        self.system = system
        self.entries = tuple(entries)

    @classmethod
    def indicators(cls, system: DynSystem, subsets: Sequence[Iterable[int]]) -> "DiagTuple":
        return cls(system, tuple(Func.indicator(system, s) for s in subsets))

    def __len__(self):
        return len(self.entries)

    def supports(self) -> tuple[frozenset, ...]:
        return tuple(f.support for f in self.entries)

    def cutdown(self, eps) -> "DiagTuple":
        return DiagTuple(self.system, tuple(f.cutdown(eps) for f in self.entries))

    def padded(self, n: int) -> "DiagTuple":
        if len(self.entries) > n:
            raise ValueError("cannot pad to a smaller size")
        z = Func.zero(self.system)
        return DiagTuple(self.system, self.entries + (z,) * (n - len(self.entries)))

    def to_matrix(self) -> MatrixElement:
        return MatrixElement.diag(self.system, self.entries)

    @property
    def is_zero(self) -> bool:
        return all(f.is_zero for f in self.entries)

    def __eq__(self, other):
        if not isinstance(other, DiagTuple):
            return NotImplemented
        return (
            self.system is other.system
            and len(self.entries) == len(other.entries)
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    __hash__ = None

    def __repr__(self):
        return "DiagTuple(%s)" % (", ".join(repr(f) for f in self.entries))


# -- faithful representation, norms, blocks -----------------------------


def _block_entries(sys: DynSystem, rows, x: int):
    """Yield (row, column, stored value) of the block over x of an n x n
    matrix of crossed elements: entry (i, j) puts a_g((g h).x) at
    (i |G| + g h, j |G| + h), once per slot; other slots are exact zeros."""
    ng, mul, act = sys.group.order, sys.group.mul, sys.act
    for i, row in enumerate(rows):
        for j, a in enumerate(row):
            for g in a.nonzero_groups:
                f = a.coeffs[g].sparse
                for h in range(ng):
                    gh = mul(g, h)
                    v = f.get(act[gh][x])
                    if v is not None:
                        yield i * ng + gh, j * ng + h, v


def _point_blocks(sys: DynSystem, rows, points) -> np.ndarray:
    """The complex blocks over these points, stacked along axis 0, filled
    straight from ``_block_entries``; a value that counts as zero stays 0."""
    import numpy as np

    size = len(rows) * sys.group.order
    out = np.zeros((len(points), size, size), dtype=complex)
    for k, x in enumerate(points):
        for r, c, v in _block_entries(sys, rows, x):
            if not v.is_zero:
                out[k, r, c] = complex(v)
    return out


def _orbit_point_blocks(sys: DynSystem, rows) -> np.ndarray:
    """The float blocks at each orbit's least point, stacked along axis 0.

    The blocks over one orbit are unitarily equivalent (see
    ``point_block``), so these decide every unitarily invariant question
    about the representation: positivity and norms.
    """
    return _point_blocks(sys, rows, [orbit[0] for orbit in sys.orbit_partition])


def _positivity_failure(blocks: np.ndarray) -> Optional[str]:
    """Why the representation with these orbit blocks (from
    ``_orbit_point_blocks``) is not positive, or None when it is.

    A stack with an infinite or NaN entry is refused first: LAPACK can
    return NaN eigenvalues for it, and NaN compares false with -FLOAT_TOL.
    Then one test over the stack asks every block to be hermitian within
    the absolute FLOAT_TOL (``rtol=0``), and one ``eigvalsh`` over it asks
    that no block's least eigenvalue lie below -FLOAT_TOL.  An empty stack
    is positive.
    """
    import numpy as np

    if not np.isfinite(blocks).all():
        return "element has a non-finite value"
    if not np.allclose(blocks, blocks.conj().swapaxes(1, 2), rtol=0, atol=FLOAT_TOL):
        return "element is not self-adjoint within tolerance"
    if blocks.size and (np.linalg.eigvalsh(blocks).min(axis=1) < -FLOAT_TOL).any():
        return "element has an eigenvalue below -%g" % FLOAT_TOL
    return None


def _largest_norm(blocks: np.ndarray) -> float:
    """The largest 2-norm over a stack of matrices; 0.0 for an empty stack."""
    if not blocks.size:
        return 0.0
    import numpy as np

    return float(np.linalg.norm(blocks, 2, axis=(1, 2)).max())


def point_block(a: CrossedElement, x: int) -> np.ndarray:
    """The representation on the fibre over the point x, a |G| x |G| matrix.

    pi never moves the point; the entry at (g h, h) is a_g((g h).x), read
    from ``_block_entries`` like every block of the representation.  For
    x' = s.x the unitary V delta_h = delta_{h s} carries the block at x'
    onto the block at x, so blocks over one orbit are unitarily equivalent.
    """
    return _point_blocks(a.system, ((a,),), [x])[0]


def operator_norm(a) -> float:
    """The norm of a crossed or matrix element in the representation.

    The representation is the direct sum of the point blocks, and the
    blocks over one orbit are unitarily equivalent for every action (see
    ``point_block``), so the norm is the largest singular value of the
    blocks at the orbits' least points: |G|-square for an element,
    n|G|-square for an n x n matrix.  Reports print it (``unit_image_norm``,
    the tzs margins, the witness residuals).  An exact zero element is 0.0
    without a float computation.
    """
    if a.is_zero:
        return 0.0
    rows = a.entries if isinstance(a, MatrixElement) else ((a,),)
    return _largest_norm(_orbit_point_blocks(a.system, rows))


@dataclass(frozen=True)
class OrbitBlock:
    """Restriction of the representation to one free orbit.

    For a free action the crossed product restricted to an orbit O is the
    full matrix algebra on O, acting by (f u_g) delta_x = f(g.x) delta_{g.x};
    the entry at (row y, col x) is a_{g}(y) for the unique g with g.x = y.
    """

    orbit: tuple[int, ...]
    entries: tuple[tuple[Scalar, ...], ...]

    def to_complex(self) -> np.ndarray:
        import numpy as np

        return np.array([[complex(v) for v in row] for row in self.entries], dtype=complex)

    @property
    def all_rational(self) -> bool:
        return all(
            isinstance(v, RadScalar) and v.rad == 1 for row in self.entries for v in row
        )

    def rank(self) -> int:
        if self.all_rational:
            return _exact_rank(self.entries)
        import numpy as np

        sv = np.linalg.svd(self.to_complex(), compute_uv=False)
        return int(np.sum(sv > FLOAT_TOL))


def _exact_rank(entries) -> int:
    """Rank over the Gaussian rationals by fraction-free elimination.

    Each row is scaled by the lcm of its denominators to Gaussian integers
    ``(re, im)``.  A step replaces a row r below the pivot row t by
    ``t[col] * r - r[col] * t``, a row operation over the field since the
    pivot is nonzero, and divides out the row's integer content, so every
    entry stays a small pair of ints."""
    from math import gcd, lcm

    rows = []
    for row in entries:
        m = lcm(*(v.d for v in row))
        rows.append([(v.p * (m // v.d), v.q * (m // v.d)) for v in row])
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if rows[r][col] != (0, 0)), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        a, b = top[col]
        for r in range(rank + 1, nrows):
            row = rows[r]
            c, e = row[col]
            if not c and not e:
                continue
            # columns before col are zero in both rows, and col becomes zero
            tail = [
                (a * x - b * y - c * u + e * v, a * y + b * x - c * v - e * u)
                for (x, y), (u, v) in zip(row[col + 1:], top[col + 1:])
            ]
            g = gcd(*(n for pair in tail for n in pair))
            if g > 1:
                tail = [(x // g, y // g) for x, y in tail]
            rows[r] = row[:col] + [(0, 0)] + tail
        rank += 1
        col += 1
    return rank


def _orbit_blocks(sys: DynSystem, rows) -> list[OrbitBlock]:
    """Exact orbit blocks: the block over the orbit's least point x, slot
    i |G| + h moved to i |O| + (position of h.x), a bijection when free."""
    if not sys.is_free:
        raise NotFree("orbit blocks need a free action")
    ng = sys.group.order
    size = len(rows) * ng
    blocks = []
    for orbit in sys.orbit_partition:
        x = orbit[0]
        pos = {y: p for p, y in enumerate(orbit)}
        slot = [i * ng + pos[sys.act[h][x]] for i in range(len(rows)) for h in range(ng)]
        entries = [[ZERO] * size for _ in range(size)]
        for r, c, v in _block_entries(sys, rows, x):
            entries[slot[r]][slot[c]] = v
        blocks.append(OrbitBlock(orbit, tuple(map(tuple, entries))))
    return blocks


def orbit_block_decomposition(a: CrossedElement) -> list[OrbitBlock]:
    """One matrix block per orbit; requires a free action.

    The direct sum of the blocks is unitarily equivalent to the faithful
    representation up to multiplicity, and two elements are equal iff all
    their blocks are equal.
    """
    return _orbit_blocks(a.system, ((a,),))


def matrix_orbit_blocks(m: MatrixElement) -> list[OrbitBlock]:
    """Orbit blocks of a matrix element: n x n of entry blocks, stacked."""
    return _orbit_blocks(m.system, m.entries)
