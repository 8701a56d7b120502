"""Dynamical subequivalence, witnesses, and the type semigroup.

A tuple of sets (F_1, ..., F_n) is subequivalent to (V_1, ..., V_m) when
each F_i is covered by pieces U_{i,j} whose translates s_{i,j}U_{i,j},
tagged with target indices k_{i,j}, fit disjointly inside the tagged
targets V_{k_{i,j}}.  On a finite space every subset is clopen, so for
diagonal tuples the single maximal choice F_i = supp(a_i) decides the
preorder.

A witness is the same thing as an injective per-point assignment of
(group element, target) pairs: grouping the points by their pairs gives
the pieces.  The group acts transitively on each orbit, so a point can
reach every tagged target point of its own orbit, and the preorder is
decided by counting: F is subequivalent to V exactly when, orbit by
orbit, F puts no more points in it than V does.  The per-orbit count
vector is therefore a complete invariant of a type semigroup class: the
semigroup's order compares these vectors componentwise and its addition
sums them.
``search_subequivalence`` still returns an explicit witness, the
lexicographically least one in (point, group, target) order, built by
one greedy pass once the counts fit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .algebra import (
    CrossedElement,
    DiagTuple,
    Func,
    MatrixElement,
    NORM_TOL,
    matrix_orbit_blocks,
)
from .dynsys import DynSystem, InvariantMeasure, extreme_invariant_measures
from .errors import IndexOutOfRange, NotFree, NotPositive, ResourceBound

import numpy as np

__all__ = [
    "Witness",
    "check_witness",
    "search_subequivalence",
    "diag_subequivalent",
    "d_tau",
    "d_tau_tuple",
    "ComparisonResult",
    "dynamical_comparison_check",
    "TypeSemigroup",
    "type_semigroup",
    "almost_unperforation_check",
    "cuntz_oracle",
]


@dataclass(frozen=True)
class Witness:
    """Rows of triples (U, s, k): piece, group element, target index."""

    rows: tuple[tuple[tuple[frozenset, int, int], ...], ...]

    def __post_init__(self):
        for row in self.rows:
            for U, s, k in row:
                if not U:
                    raise ValueError("witness pieces must be nonempty")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def translated_tagged_sets(self, sys: DynSystem):
        for i, row in enumerate(self.rows):
            for U, s, k in row:
                yield i, frozenset(sys.act[s][x] for x in U), s, k


def check_witness(
    sys: DynSystem,
    F: Sequence[Iterable[int]],
    V: Sequence[Iterable[int]],
    w: Witness,
) -> bool:
    """Verify the cover and tagged-disjointness conditions exactly."""
    F = [frozenset(s) for s in F]
    V = [frozenset(s) for s in V]
    if len(w.rows) != len(F):
        raise IndexOutOfRange("witness has %d rows for %d source sets" % (len(w.rows), len(F)))
    for row in w.rows:
        for U, s, k in row:
            if not (0 <= s < sys.group.order):
                raise IndexOutOfRange("group index %d out of range" % s)
            if not (0 <= k < len(V)):
                raise IndexOutOfRange("target index %d out of range" % k)
            for x in U:
                if not (0 <= x < sys.n_points):
                    raise IndexOutOfRange("point index %d out of range" % x)
    for i, row in enumerate(w.rows):
        covered = frozenset().union(*(U for U, _, _ in row)) if row else frozenset()
        if not F[i] <= covered:
            return False
    seen: set[tuple[int, int]] = set()
    for _, translated, _, k in w.translated_tagged_sets(sys):
        if not translated <= V[k]:
            return False
        tagged = {(x, k) for x in translated}
        if seen & tagged:
            return False
        seen |= tagged
    return True


def _assignment_to_witness(
    points: Sequence[tuple[int, int]], choice: Sequence[tuple[int, int]], n_rows: int
) -> Witness:
    grouped: list[dict[tuple[int, int], set]] = [dict() for _ in range(n_rows)]
    for (i, p), (s, k) in zip(points, choice):
        grouped[i].setdefault((s, k), set()).add(p)
    rows = tuple(
        tuple(
            (frozenset(pts), s, k)
            for (s, k), pts in sorted(g.items())
        )
        for g in grouped
    )
    return Witness(rows)


def _orbit_counts(sys: DynSystem, sets: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """Points per orbit, summed over the sets (with multiplicity)."""
    counts = [0] * len(sys.orbit_partition)
    orbit_of = sys.orbit_id
    for s in sets:
        for x in s:
            counts[orbit_of[x]] += 1
    return tuple(counts)


def search_subequivalence(
    sys: DynSystem,
    F: Sequence[Iterable[int]],
    V: Sequence[Iterable[int]],
) -> Optional[Witness]:
    """The lexicographically least witness, or None when none exists.

    A witness exists exactly when, for every orbit, F puts no more points
    in it than V does: the group acts transitively on each orbit, so a
    point may be sent to any tagged target point of its own orbit.  When
    the counts fit, one greedy pass builds the witness: points are
    visited in (row, point) order and each takes the least (group,
    target) pair whose tagged image is still unused.  Each pick spends
    one point and one tagged target of the same orbit, so the counts keep
    fitting and a pick always exists; no choice is ever revised, so the
    result is the least witness in that order.  A point outside
    range(n_points) in F or V raises IndexOutOfRange.
    """
    F = [frozenset(s) for s in F]
    V = [frozenset(s) for s in V]
    for s in F + V:
        for x in s:
            if not 0 <= x < sys.n_points:
                raise IndexOutOfRange("point index %d out of range" % x)
    need, supply = _orbit_counts(sys, F), _orbit_counts(sys, V)
    if any(n > s for n, s in zip(need, supply)):
        return None
    points = [(i, p) for i, Fi in enumerate(F) for p in sorted(Fi)]
    used: set[tuple[int, int]] = set()
    choice: list[tuple[int, int]] = []
    for _, p in points:
        s, k = next(
            (s, k)
            for s in range(sys.group.order)
            for k in range(len(V))
            if sys.act[s][p] in V[k] and (sys.act[s][p], k) not in used
        )
        used.add((sys.act[s][p], k))
        choice.append((s, k))
    return _assignment_to_witness(points, choice, len(F))


def diag_subequivalent(a: DiagTuple, b: DiagTuple) -> tuple[bool, Optional[Witness]]:
    """Decide a <= b in the dynamical preorder, with a witness when true.

    On a finite space the compact subsets of supp(a_i) are all its
    subsets, and the maximal choice F_i = supp(a_i) dominates.
    """
    w = search_subequivalence(a.system, a.supports(), b.supports())
    return (w is not None), w


def d_tau(f, mu: InvariantMeasure) -> Fraction:
    """Measure of the open support of a positive function (exact)."""
    if not f.is_positive:
        raise NotPositive("d_tau needs a positive function")
    return mu.measure(f.support)


def d_tau_tuple(a: DiagTuple, mu: InvariantMeasure) -> Fraction:
    return sum((d_tau(f, mu) for f in a.entries), Fraction(0))


@dataclass(frozen=True)
class ComparisonResult:
    holds: bool
    counterexample: Optional[tuple[frozenset, frozenset]]
    pairs_checked: int
    exhausted: bool


def dynamical_comparison_check(
    sys: DynSystem, max_pairs: Optional[int] = None
) -> ComparisonResult:
    """Check O < V in measure implies O subequivalent to V, over all pairs.

    Iterates subset pairs (O, V) in bitmask order.  A pair qualifies when
    every extreme invariant measure gives mu(O) < mu(V); strictness for
    the extreme measures forces strictness for all convex combinations,
    so the extreme ones suffice.  Returns the first failing pair if any.
    ``max_pairs`` truncates the enumeration (the result then reports
    exhausted=False).
    """
    measures = extreme_invariant_measures(sys)
    nx = sys.n_points
    subsets = [frozenset(x for x in range(nx) if m >> x & 1) for m in range(1 << nx)]
    mvals = [[mu.measure(s) for mu in measures] for s in subsets]
    checked = 0
    for io, O in enumerate(subsets):
        for iv, V in enumerate(subsets):
            if max_pairs is not None and checked >= max_pairs:
                return ComparisonResult(True, None, checked, exhausted=False)
            checked += 1
            if not all(mo < mv for mo, mv in zip(mvals[io], mvals[iv])):
                continue
            if search_subequivalence(sys, [O], [V]) is None:
                return ComparisonResult(False, (O, V), checked, exhausted=True)
    return ComparisonResult(True, None, checked, exhausted=True)


# -- the type semigroup --------------------------------------------------


class TypeSemigroup:
    """Equivalence classes of diagonal indicator tuples, truncated at max_n.

    ``classes`` holds lexicographically least representatives.  A class
    is determined by its per-orbit count vector (points per orbit, summed
    over the entries), so the order is componentwise comparison of those
    vectors and addition sums them.  A constructed instance may also
    carry explicit tables (used by table-level checks and fixtures),
    which then answer every query.
    """

    def __init__(
        self,
        system: DynSystem,
        max_n: int,
        classes: Sequence[DiagTuple],
        support_reps: Optional[Sequence[tuple]] = None,
        order: Optional[Sequence[Sequence[bool]]] = None,
        add: Optional[dict] = None,
    ):
        self.system = system
        self.max_n = max_n
        self.classes = tuple(classes)
        if support_reps is None:
            support_reps = [rep.supports() for rep in self.classes]
        self._support_reps = tuple(
            tuple(s for s in rep if s) for rep in support_reps
        )
        self._vectors = tuple(_orbit_counts(system, rep) for rep in self._support_reps)
        self._index: dict[tuple[int, ...], int] = {}
        for idx, vec in enumerate(self._vectors):
            self._index.setdefault(vec, idx)
        self._explicit_order = (
            tuple(tuple(bool(v) for v in row) for row in order)
            if order is not None
            else None
        )
        self._explicit_add = dict(add) if add is not None else None

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def zero_class(self) -> int:
        return 0

    def le(self, i: int, j: int) -> bool:
        """Class i below class j in the induced order."""
        if self._explicit_order is not None:
            return self._explicit_order[i][j]
        return all(a <= b for a, b in zip(self._vectors[i], self._vectors[j]))

    def _lookup(self, length: int, vector: tuple[int, ...]) -> Optional[int]:
        if not length:
            return self.zero_class
        if length > self.max_n:
            return None
        return self._index.get(vector)

    def add_classes(self, i: int, j: int) -> Optional[int]:
        """Class of the direct sum, or None when it leaves the table."""
        if self._explicit_add is not None:
            return self._explicit_add[(i, j)]
        return self._lookup(
            len(self._support_reps[i]) + len(self._support_reps[j]),
            tuple(a + b for a, b in zip(self._vectors[i], self._vectors[j])),
        )

    def multiple(self, i: int, m: int) -> Optional[int]:
        """Class of m copies of class i, or None when it leaves the table."""
        if m == 0:
            return self.zero_class
        acc = i
        for _ in range(m - 1):
            acc = self.add_classes(acc, i)
            if acc is None:
                return None
        return acc

    def class_of_supports(self, supports) -> Optional[int]:
        """Locate the class of a tuple of supports; None if out of table."""
        stripped = [s for s in supports if s]
        return self._lookup(len(stripped), _orbit_counts(self.system, stripped))

    def class_of(self, a: DiagTuple) -> Optional[int]:
        return self.class_of_supports(a.supports())

    @property
    def order(self) -> tuple:
        """The full order table (materializes on first access)."""
        if self._explicit_order is None:
            self._explicit_order = tuple(
                tuple(self.le(i, j) for j in range(self.n_classes))
                for i in range(self.n_classes)
            )
        return self._explicit_order

    @property
    def add(self) -> dict:
        """The full addition table (materializes on first access)."""
        if self._explicit_add is None:
            table = {}
            for i in range(self.n_classes):
                for j in range(i, self.n_classes):
                    table[(i, j)] = table[(j, i)] = self.add_classes(i, j)
            self._explicit_add = table
        return self._explicit_add


def type_semigroup(sys: DynSystem, max_n: int, budget: int = 500_000) -> TypeSemigroup:
    """Enumerate indicator tuples up to size max_n and group them by class.

    Two tuples are mutually subequivalent exactly when they have the same
    per-orbit count vector (see ``search_subequivalence``), so the vector
    keys the class.  Candidates are enumerated in lexicographic order
    (length, then entry bitmasks ascending), so the first member seen of
    each class is its canonical representative.  Tuples with a zero entry
    other than the single zero tuple are skipped: dropping zero entries
    never changes a class, and the shorter stripped tuple is enumerated
    earlier.  Raises ResourceBound when more than ``budget`` candidates
    would be enumerated.
    """
    nx = sys.n_points
    nonzero_masks = list(range(1, 1 << nx))
    total = 1 + sum(
        _count_multisets(len(nonzero_masks), k) for k in range(1, max_n + 1)
    )
    if total > budget:
        raise ResourceBound(
            "semigroup enumeration needs %d candidates, budget is %d" % (total, budget)
        )

    mask_sets = {m: frozenset(x for x in range(nx) if m >> x & 1) for m in nonzero_masks}
    mask_vectors = {m: _orbit_counts(sys, [mask_sets[m]]) for m in nonzero_masks}
    seen = {_orbit_counts(sys, [])}
    reps: list[tuple[frozenset, ...]] = [()]  # the zero class
    for k in range(1, max_n + 1):
        for combo in itertools.combinations_with_replacement(nonzero_masks, k):
            vector = tuple(map(sum, zip(*(mask_vectors[m] for m in combo))))
            if vector not in seen:
                seen.add(vector)
                reps.append(tuple(mask_sets[m] for m in combo))

    class_reps = []
    for rep in reps:
        entries = tuple(Func.indicator(sys, s) for s in rep) or (Func.zero(sys),)
        class_reps.append(DiagTuple(sys, entries))
    return TypeSemigroup(
        system=sys,
        max_n=max_n,
        classes=tuple(class_reps),
        support_reps=tuple(reps),
    )


def _count_multisets(n: int, k: int) -> int:
    from math import comb

    return comb(n + k - 1, k)


def almost_unperforation_check(W: TypeSemigroup):
    """Verify (n+1)x <= ny implies x <= y within the computed table.

    Returns (True, None) or (False, (x, y, n)) with the first violation.
    Only multiples representable inside the table are examined; for each
    n the candidate classes are filtered by representability first.
    """
    for n in range(1, W.max_n + 1):
        xs = [
            (x, W.multiple(x, n + 1))
            for x in range(W.n_classes)
            if W.multiple(x, n + 1) is not None
        ]
        ys = [
            (y, W.multiple(y, n))
            for y in range(W.n_classes)
            if W.multiple(y, n) is not None
        ]
        for x, xx in xs:
            for y, yy in ys:
                if W.le(xx, yy) and not W.le(x, y):
                    return False, (x, y, n)
    return True, None


# -- finite-dimensional Cuntz oracle --------------------------------------


def _as_matrix(a: Union[DiagTuple, CrossedElement]) -> MatrixElement:
    if isinstance(a, DiagTuple):
        return a.to_matrix()
    if isinstance(a, CrossedElement):
        return MatrixElement(a.system, ((a,),))
    raise TypeError("expected a DiagTuple or CrossedElement")


def _check_positive(a: Union[DiagTuple, CrossedElement], tol: float) -> None:
    if isinstance(a, DiagTuple):
        return  # positivity is a construction invariant of DiagTuple
    mat = a.rep_matrix()
    if not np.allclose(mat, mat.conj().T, atol=tol):
        raise NotPositive("element is not self-adjoint within tolerance")
    eigs = np.linalg.eigvalsh(mat)
    if eigs.size and eigs.min() < -tol:
        raise NotPositive("element has an eigenvalue below -%g" % tol)


def cuntz_oracle(
    a: Union[DiagTuple, CrossedElement],
    b: Union[DiagTuple, CrossedElement],
    tol: float = NORM_TOL,
) -> bool:
    """Blockwise rank comparison: rank_O(a) <= rank_O(b) for every orbit.

    For a free action the crossed product is a direct sum of matrix
    algebras, one per orbit, where Cuntz subequivalence of positive
    elements is exactly rank domination block by block.  Ranks are exact
    for rational entries and float-with-tolerance otherwise.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.system is not mb.system:
        raise ValueError("inputs over different systems")
    if not ma.system.is_free:
        raise NotFree("the rank oracle requires a free action")
    _check_positive(a, tol)
    _check_positive(b, tol)
    blocks_a = matrix_orbit_blocks(ma)
    blocks_b = matrix_orbit_blocks(mb)
    return all(
        ba.rank(tol) <= bb.rank(tol) for ba, bb in zip(blocks_a, blocks_b)
    )
