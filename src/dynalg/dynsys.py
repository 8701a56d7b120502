"""Finite groups, finite spaces, and group actions.

Groups are given by explicit multiplication tables and actions by full
lookup tables, so every predicate here is decided by enumeration.
Minimality of a finite system means transitivity (the closed invariant
subsets of a finite space are exactly the unions of orbits).  All values
are immutable after construction; orderings are by element and point
index throughout so downstream searches are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import StructureError

__all__ = [
    "FiniteGroup",
    "DynSystem",
    "InvariantMeasure",
    "SystemReport",
    "validate_system",
    "orbits",
    "extreme_invariant_measures",
    "product_with_cyclic",
]


class FiniteGroup:
    """A finite group: ordered element labels plus a multiplication table."""

    def __init__(self, elements: Sequence[str], table: Sequence[Sequence[int]]):
        self.elements = tuple(str(e) for e in elements)
        self.table = tuple(tuple(row) for row in table)
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise StructureError("duplicate element labels")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise StructureError("multiplication table is not %d x %d" % (n, n))
        for i, row in enumerate(self.table):
            for j, v in enumerate(row):
                if not (0 <= v < n):
                    raise StructureError(
                        "table entry out of range at (%d, %d): %r" % (i, j, v)
                    )
        self.identity = self._find_identity()
        self._inverse = self._find_inverses()
        self._index = {lbl: i for i, lbl in enumerate(self.elements)}

    def _find_identity(self) -> int:
        n = len(self.elements)
        for e in range(n):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(n)):
                return e
        raise StructureError("no two-sided identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        n = len(self.elements)
        e = self.identity
        inv = []
        for i in range(n):
            found = [j for j in range(n) if self.table[i][j] == e and self.table[j][i] == e]
            if not found:
                raise StructureError("element %d has no inverse" % i)
            inv.append(found[0])
        return tuple(inv)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self._inverse[i]

    def index(self, label: str) -> int:
        return self._index[label]

    def validate(self) -> None:
        """Full axiom check by enumeration; raises StructureError."""
        n = self.order
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise StructureError(
                            "associativity fails at indices (%d, %d, %d)" % (a, b, c)
                        )
        # identity and inverses were located in the constructor

    # -- stock constructions -------------------------------------------

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(("e",), ((0,),))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        labels = tuple(str(k) for k in range(n))
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(labels, table)

    @classmethod
    def direct_product(cls, g: "FiniteGroup", h: "FiniteGroup") -> "FiniteGroup":
        labels = tuple(
            "(%s,%s)" % (g.elements[a], h.elements[b])
            for a in range(g.order)
            for b in range(h.order)
        )
        m = h.order

        def idx(a, b):
            return a * m + b

        table = tuple(
            tuple(
                idx(g.table[a1][a2], h.table[b1][b2])
                for a2 in range(g.order)
                for b2 in range(h.order)
            )
            for a1 in range(g.order)
            for b1 in range(h.order)
        )
        return cls(labels, table)

    @classmethod
    def klein(cls) -> "FiniteGroup":
        return cls.direct_product(cls.cyclic(2), cls.cyclic(2))

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order


class DynSystem:
    """A finite group acting on a finite point set via a lookup table.

    ``act[g][x]`` gives the image point index of point x under group
    element g.  Instances compare by identity; elements of the crossed
    product only combine when built over the same system object.
    """

    def __init__(
        self,
        group: FiniteGroup,
        points: Sequence[str],
        act: Sequence[Sequence[int]],
        declared_free: Optional[bool] = None,
        declared_minimal: Optional[bool] = None,
    ):
        self.group = group
        self.points = tuple(str(p) for p in points)
        self.act = tuple(tuple(row) for row in act)
        self.declared_free = declared_free
        self.declared_minimal = declared_minimal
        nx = len(self.points)
        if len(set(self.points)) != nx:
            raise StructureError("duplicate point labels")
        if len(self.act) != group.order or any(len(row) != nx for row in self.act):
            raise StructureError("action table is not %d x %d" % (group.order, nx))
        for g, row in enumerate(self.act):
            for x, v in enumerate(row):
                if not (0 <= v < nx):
                    raise StructureError(
                        "action entry out of range at (%d, %d): %r" % (g, x, v)
                    )
        self._point_index = {lbl: i for i, lbl in enumerate(self.points)}

    @property
    def n_points(self) -> int:
        return len(self.points)

    def point_index(self, label: str) -> int:
        return self._point_index[label]

    @cached_property
    def orbit_partition(self) -> tuple[tuple[int, ...], ...]:
        """Orbits as sorted tuples, ordered by least point index."""
        seen = [False] * self.n_points
        parts = []
        for x in range(self.n_points):
            if seen[x]:
                continue
            orbit = sorted({self.act[g][x] for g in range(self.group.order)})
            for y in orbit:
                seen[y] = True
            parts.append(tuple(orbit))
        return tuple(parts)

    @cached_property
    def orbit_id(self) -> tuple[int, ...]:
        """orbit_id[x] = index of x's orbit in orbit_partition."""
        ids = [0] * self.n_points
        for i, orbit in enumerate(self.orbit_partition):
            for x in orbit:
                ids[x] = i
        return tuple(ids)

    @cached_property
    def is_free(self) -> bool:
        e = self.group.identity
        return all(
            self.act[g][x] != x
            for g in range(self.group.order)
            if g != e
            for x in range(self.n_points)
        )

    @cached_property
    def is_minimal(self) -> bool:
        return len(self.orbit_partition) == 1

    # -- stock constructions -------------------------------------------

    @classmethod
    def translation(cls, group: FiniteGroup) -> "DynSystem":
        """The group acting on itself by left translation."""
        act = tuple(
            tuple(group.table[g][x] for x in range(group.order))
            for g in range(group.order)
        )
        return cls(group, group.elements, act)

    @classmethod
    def disjoint_union(cls, a: "DynSystem", b: "DynSystem") -> "DynSystem":
        """Same group acting blockwise on the disjoint union of point sets."""
        if a.group is not b.group:
            raise StructureError("disjoint union needs a shared group object")
        labels = list(a.points)
        for lbl in b.points:
            new = lbl
            while new in labels:
                new += "'"
            labels.append(new)
        off = a.n_points
        act = tuple(
            tuple(a.act[g]) + tuple(off + b.act[g][x] for x in range(b.n_points))
            for g in range(a.group.order)
        )
        return cls(a.group, labels, act)

    def __repr__(self):
        return "DynSystem(|G|=%d, |X|=%d)" % (self.group.order, self.n_points)


@dataclass(frozen=True)
class SystemReport:
    group_order: int
    n_points: int
    free: bool
    minimal: bool
    orbits: tuple[tuple[int, ...], ...]

    @property
    def n_orbits(self) -> int:
        return len(self.orbits)


def validate_system(sys: DynSystem) -> SystemReport:
    """Check group and action axioms by full enumeration.

    Raises StructureError naming the violated axiom and offending
    indices; on success reports freeness, minimality, and orbits.
    """
    sys.group.validate()
    e = sys.group.identity
    for x in range(sys.n_points):
        if sys.act[e][x] != x:
            raise StructureError("identity moves point %d" % x)
    for g in range(sys.group.order):
        for h in range(sys.group.order):
            gh = sys.group.mul(g, h)
            for x in range(sys.n_points):
                if sys.act[g][sys.act[h][x]] != sys.act[gh][x]:
                    raise StructureError(
                        "action not compatible with multiplication at (g=%d, h=%d, x=%d)"
                        % (g, h, x)
                    )
    if sys.declared_free is not None and sys.declared_free != sys.is_free:
        raise StructureError(
            "declared free=%s but computed free=%s" % (sys.declared_free, sys.is_free)
        )
    if sys.declared_minimal is not None and sys.declared_minimal != sys.is_minimal:
        raise StructureError(
            "declared minimal=%s but computed minimal=%s"
            % (sys.declared_minimal, sys.is_minimal)
        )
    return SystemReport(
        group_order=sys.group.order,
        n_points=sys.n_points,
        free=sys.is_free,
        minimal=sys.is_minimal,
        orbits=sys.orbit_partition,
    )


def orbits(sys: DynSystem) -> tuple[tuple[int, ...], ...]:
    """Partition of the points into orbits, ordered by least point index."""
    return sys.orbit_partition


@dataclass(frozen=True)
class InvariantMeasure:
    """A probability measure with weight(g.x) = weight(x) for all g, x."""

    system: DynSystem
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != self.system.n_points:
            raise StructureError("measure has %d weights for %d points"
                                 % (len(self.weights), self.system.n_points))
        if any(w < 0 for w in self.weights):
            raise StructureError("negative weight")
        if sum(self.weights, Fraction(0)) != 1:
            raise StructureError("weights do not sum to 1")
        for g in range(self.system.group.order):
            for x in range(self.system.n_points):
                if self.weights[self.system.act[g][x]] != self.weights[x]:
                    raise StructureError(
                        "weight not invariant at (g=%d, x=%d)" % (g, x)
                    )

    def measure(self, subset) -> Fraction:
        return sum((self.weights[x] for x in subset), Fraction(0))


def extreme_invariant_measures(sys: DynSystem) -> list[InvariantMeasure]:
    """One uniform measure per orbit.

    Every invariant measure is a convex combination of these: invariance
    forces constancy on each orbit, so the per-orbit masses are the only
    degrees of freedom.
    """
    out = []
    for orbit in sys.orbit_partition:
        w = [Fraction(0)] * sys.n_points
        share = Fraction(1, len(orbit))
        for x in orbit:
            w[x] = share
        out.append(InvariantMeasure(sys, tuple(w)))
    return out


def product_with_cyclic(sys: DynSystem, n: int) -> DynSystem:
    """(Z/n x G) acting on {0..n-1} x X by cyclic shift times the action.

    Point (i, x) has index i*|X| + x and group element (k, g) has index
    k*|G| + g, with (k, g).(i, x) = ((i + k) mod n, g.x).  The product is
    free iff the input is free, and has the same number of orbits.
    """
    if n < 1:
        raise StructureError("cyclic factor must have positive order")
    cyc = FiniteGroup.cyclic(n)
    grp = FiniteGroup.direct_product(cyc, sys.group)
    points = tuple(
        "(%s,%s)" % (i, lbl) for i in range(n) for lbl in sys.points
    )
    nx = sys.n_points

    def pidx(i, x):
        return i * nx + x

    act = []
    for k in range(n):
        for g in range(sys.group.order):
            row = [0] * (n * nx)
            for i in range(n):
                for x in range(nx):
                    row[pidx(i, x)] = pidx((i + k) % n, sys.act[g][x])
            act.append(tuple(row))
    return DynSystem(
        grp,
        points,
        act,
        declared_free=sys.is_free,
        declared_minimal=sys.is_minimal,
    )
