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

The table-level computations work on integers, never on Fractions or
witnesses.  ``dynamical_comparison_check`` scales each extreme measure to
integer weights by the lcm of its denominators and decides each subset
pair on integer (measure vector, count vector) keys, by the same
count-fit rule as ``search_subequivalence``.  ``type_semigroup`` encodes
a count vector as one mixed-radix integer, so a candidate tuple's class
key is the plain sum of its entries' codes.  ``TypeSemigroup.le``
compares two count vectors and ``add_classes`` sums them; no table of
all classes is stored.  ``almost_unperforation_check`` reads no table:
it returns the closed form its docstring proves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import add, le, lt
from typing import Iterable, Optional, Sequence, Union

from .algebra import (
    CrossedElement,
    DiagTuple,
    Func,
    MatrixElement,
    _orbit_point_blocks,
    _positivity_failure,
    matrix_orbit_blocks,
)
from .dynsys import DynSystem, InvariantMeasure, extreme_invariant_measures
from .errors import (
    IndexOutOfRange,
    NotFree,
    NotPositive,
    PreconditionFailed,
    ResourceBound,
    SystemMismatch,
)

__all__ = [
    "Witness",
    "check_witness",
    "search_subequivalence",
    "diag_subequivalent",
    "d_tau",
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
    """Points per orbit, summed over the sets (with multiplicity).

    A point outside range(n_points) raises IndexOutOfRange.
    """
    counts = [0] * len(sys.orbit_partition)
    orbit_of = sys.orbit_id
    n_points = sys.n_points
    for s in sets:
        for x in s:
            if not 0 <= x < n_points:
                raise IndexOutOfRange("point index %d out of range" % x)
            counts[orbit_of[x]] += 1
    return tuple(counts)


def _counts_fit(need: Sequence[int], supply: Sequence[int]) -> bool:
    """The count-fit rule: no orbit needs more points than it supplies."""
    return all(map(le, need, supply))


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
    if not _counts_fit(_orbit_counts(sys, F), _orbit_counts(sys, V)):
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


@dataclass(frozen=True)
class ComparisonResult:
    holds: bool
    counterexample: Optional[tuple[frozenset, frozenset]]
    pairs_checked: int
    exhausted: bool


def _integer_weights(mu: InvariantMeasure) -> list[int]:
    """The weights of mu times the lcm of their denominators (exact)."""
    scale = math.lcm(*(w.denominator for w in mu.weights))
    return [w.numerator * (scale // w.denominator) for w in mu.weights]


def dynamical_comparison_check(
    sys: DynSystem, max_pairs: Optional[int] = None
) -> ComparisonResult:
    """Check O < V in measure implies O subequivalent to V, over all pairs.

    Iterates subset pairs (O, V) in bitmask order.  A pair qualifies when
    every extreme invariant measure gives mu(O) < mu(V); strictness for
    the extreme measures forces strictness for all convex combinations,
    so the extreme ones suffice.  Returns the first failing pair if any.
    ``max_pairs`` truncates the enumeration (the result then reports
    exhausted=False); a negative ``max_pairs`` raises PreconditionFailed.

    The decision is made in integer count space.  Each measure is scaled
    by the lcm of its denominators, so its values on subsets are exact
    integers compared in the same order.  Every subset gets a key: its
    scaled measure under each extreme measure, then its per-orbit count
    vector, built once per mask from the mask without its highest bit.
    A pair qualifies by comparing the measure parts of the two keys, and
    O fits into V by the count-fit rule of ``search_subequivalence``
    applied to the count parts; no witness is built.
    """
    if max_pairs is not None and max_pairs < 0:
        raise PreconditionFailed("max_pairs must be nonnegative, got %d" % max_pairs)
    nx = sys.n_points
    measures = [_integer_weights(mu) for mu in extreme_invariant_measures(sys)]
    n_measures = len(measures)
    n_orbits = len(sys.orbit_partition)
    keys = [(0,) * (n_measures + n_orbits)]
    for x in range(nx):
        point = tuple(w[x] for w in measures) + tuple(
            int(o == sys.orbit_id[x]) for o in range(n_orbits)
        )
        keys += [tuple(map(add, key, point)) for key in keys]
    checked = 0
    for mo, key_o in enumerate(keys):
        measure_o, count_o = key_o[:n_measures], key_o[n_measures:]
        for mv, key_v in enumerate(keys):
            if max_pairs is not None and checked >= max_pairs:
                return ComparisonResult(True, None, checked, exhausted=False)
            checked += 1
            if not all(map(lt, measure_o, key_v[:n_measures])):
                continue
            if not _counts_fit(count_o, key_v[n_measures:]):
                O, V = (frozenset(x for x in range(nx) if m >> x & 1) for m in (mo, mv))
                return ComparisonResult(False, (O, V), checked, exhausted=True)
    return ComparisonResult(True, None, checked, exhausted=True)


# -- the type semigroup --------------------------------------------------


class TypeSemigroup:
    """Equivalence classes of diagonal indicator tuples, truncated at max_n.

    A class is determined by its per-orbit count vector (points per orbit,
    summed over the entries), so the order is componentwise comparison of
    those vectors and addition sums them.  An instance stores, per class,
    its lexicographically least representative as a tuple of nonempty
    supports and its count vector, which keys the class index.  ``le``
    and ``add_classes`` answer from two vectors, in O(orbits);
    ``classes`` (the representatives as ``DiagTuple``s) is built on
    first read.
    """

    def __init__(self, system: DynSystem, max_n: int, support_reps: Sequence[tuple]):
        self.system = system
        self.max_n = max_n
        self._support_reps = tuple(support_reps)
        self._vectors = tuple(_orbit_counts(system, rep) for rep in self._support_reps)
        self._index = {vec: idx for idx, vec in enumerate(self._vectors)}

    @property
    def n_classes(self) -> int:
        return len(self._support_reps)

    @property
    def zero_class(self) -> int:
        return 0

    @cached_property
    def classes(self) -> tuple[DiagTuple, ...]:
        """The representatives as indicator tuples, one ``Func`` per distinct
        support; the zero class is (0,)."""
        reps = [rep or (frozenset(),) for rep in self._support_reps]
        indicator = {s: Func.indicator(self.system, s) for s in set().union(*reps)}
        return tuple(DiagTuple(self.system, [indicator[s] for s in rep]) for rep in reps)

    def le(self, i: int, j: int) -> bool:
        """Class i below class j in the induced order."""
        return _counts_fit(self._vectors[i], self._vectors[j])

    def _lookup(self, length: int, vector: tuple[int, ...]) -> Optional[int]:
        if not length:
            return self.zero_class
        if length > self.max_n:
            return None
        return self._index.get(vector)

    def add_classes(self, i: int, j: int) -> Optional[int]:
        """Class of the direct sum, or None when it leaves the table."""
        return self._lookup(
            len(self._support_reps[i]) + len(self._support_reps[j]),
            tuple(map(add, self._vectors[i], self._vectors[j])),
        )

    def class_of_supports(self, supports) -> Optional[int]:
        """Locate the class of a tuple of supports; None if out of table.

        A point outside range(n_points) raises IndexOutOfRange.
        """
        stripped = [s for s in supports if s]
        return self._lookup(len(stripped), _orbit_counts(self.system, stripped))

    def class_of(self, a: DiagTuple) -> Optional[int]:
        """The class of a tuple over the table's system; None if out of
        table.  A tuple over another system raises SystemMismatch."""
        if a.system is not self.system:
            raise SystemMismatch("tuple over a different system than the table")
        return self.class_of_supports(a.supports())


_COUNT_BITS = 14_000  # a count this long still prints (4,300 digits at most)


def _candidate_count(m: int, max_n: int) -> Optional[int]:
    """The number of mask multisets of size 0..max_n over m masks, or None
    when it exceeds 2^_COUNT_BITS.

    By the hockey-stick identity, sum_{k <= max_n} C(m + k - 1, k) is
    C(m + max_n, max_n).  With k = min(m, max_n), C(m + max_n, k) is at
    least 2^k, since each factor (m + max_n - k + i) / i of its product is
    at least 2, so a large k is known to be too large without computing.
    """
    k = min(m, max_n)
    if k > _COUNT_BITS:
        return None
    total = math.comb(m + max_n, k)
    return None if total.bit_length() > _COUNT_BITS else total


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
    (or more than 2^14000, whatever the budget) would be enumerated, and
    PreconditionFailed for a negative max_n.

    A count vector is encoded as one mixed-radix integer whose digit o is
    the count in orbit o, in base max_n * (largest orbit) + 1.  A tuple
    of at most max_n entries puts at most max_n |O| points in orbit O, so
    no digit carries and the code of a tuple is the sum of its entries'
    codes, which ``sum`` computes per candidate without building vectors.
    """
    if max_n < 0:
        raise PreconditionFailed("max_n must be nonnegative, got %d" % max_n)
    nx = sys.n_points
    nonzero_masks = range(1, 1 << nx)
    total = _candidate_count(len(nonzero_masks), max_n)
    if total is None or total > budget:
        raise ResourceBound(
            "semigroup enumeration needs %s candidates, budget is %d"
            % ("more than 2^%d" % _COUNT_BITS if total is None else total, budget)
        )

    base = max_n * max(map(len, sys.orbit_partition), default=0) + 1
    codes = [0]
    for x in range(nx):
        place = base ** sys.orbit_id[x]
        codes += [c + place for c in codes]
    del codes[0]
    seen = {0}
    reps: list[tuple[int, ...]] = [()]  # the zero class, as masks
    for k in range(1, max_n + 1):
        combos = itertools.combinations_with_replacement(nonzero_masks, k)
        sums = map(sum, itertools.combinations_with_replacement(codes, k))
        for combo, code in zip(combos, sums):
            if code not in seen:
                seen.add(code)
                reps.append(combo)

    mask_sets = {m: frozenset(x for x in range(nx) if m >> x & 1) for m in nonzero_masks}
    return TypeSemigroup(sys, max_n, [tuple(mask_sets[m] for m in rep) for rep in reps])


def almost_unperforation_check(W: TypeSemigroup):
    """Verify (n+1)x <= ny implies x <= y within the computed table.

    Always (True, None), never a violation (x, y, n): ``add_classes``
    gives the class of the sum of its arguments' count vectors, or None
    when ``_lookup`` finds the sum outside the table, so the multiples of
    x and y inside the table have vectors (n+1) v_x and n v_y.  The order
    is componentwise, and (n+1) a <= n b with a, b >= 0 gives a <= b in
    each orbit, so (n+1)x <= ny forces x <= y.  The proof rests on how
    ``TypeSemigroup`` adds and orders, so any other argument raises
    TypeError: a hand-made table never reads as unperforated.
    """
    if not isinstance(W, TypeSemigroup):
        raise TypeError("expected a TypeSemigroup, got %s" % type(W).__name__)
    return True, None


# -- finite-dimensional Cuntz oracle --------------------------------------


def _as_matrix(a: Union[DiagTuple, CrossedElement]) -> MatrixElement:
    if isinstance(a, DiagTuple):
        return a.to_matrix()
    if isinstance(a, CrossedElement):
        return MatrixElement(a.system, ((a,),))
    raise TypeError("expected a DiagTuple or CrossedElement")


def _check_positive(a: Union[DiagTuple, CrossedElement]) -> None:
    if isinstance(a, DiagTuple):
        return  # positivity is a construction invariant of DiagTuple
    failure = _positivity_failure(_orbit_point_blocks(a.system, ((a,),)))
    if failure is not None:
        raise NotPositive(failure)


def cuntz_oracle(
    a: Union[DiagTuple, CrossedElement],
    b: Union[DiagTuple, CrossedElement],
) -> bool:
    """Blockwise rank comparison: rank_O(a) <= rank_O(b) for every orbit.

    For a free action the crossed product is a direct sum of matrix
    algebras, one per orbit, where Cuntz subequivalence of positive
    elements is exactly rank domination block by block.  A crossed
    element must be positive: hermitian within the absolute
    ``scalars.FLOAT_TOL`` (1e-9) and with no eigenvalue below -FLOAT_TOL,
    tested on one representation block per orbit; otherwise NotPositive
    is raised.  Ranks are exact for rational entries and count singular
    values above FLOAT_TOL otherwise.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.system is not mb.system:
        raise SystemMismatch("inputs over different systems")
    if not ma.system.is_free:
        raise NotFree("the rank oracle requires a free action")
    _check_positive(a)
    _check_positive(b)
    blocks_a = matrix_orbit_blocks(ma)
    blocks_b = matrix_orbit_blocks(mb)
    return all(ba.rank() <= bb.rank() for ba, bb in zip(blocks_a, blocks_b))
