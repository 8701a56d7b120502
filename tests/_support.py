"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd

import numpy as np

from dynalg import (
    ComparisonResult,
    CrossedElement,
    DiagTuple,
    DynSystem,
    ExactnessError,
    FiniteGroup,
    FloatScalar,
    Func,
    MatrixElement,
    NotFree,
    NotPositive,
    OrbitBlock,
    RadicalAdditionMismatch,
    RadScalar,
    Witness,
    as_scalar,
    coefficient_supports_disjoint,
    extreme_invariant_measures,
    is_r_normalizer,
    product_with_cyclic,
    validate_system,
)
from dynalg.scalars import ZERO, _square_split

VALUE_POOL = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2),
    Fraction(3, 2),
]

COEFF_POOL = [
    RadScalar(1),
    RadScalar(-1),
    RadScalar(0, 1),
    RadScalar(Fraction(1, 2)),
    RadScalar(Fraction(1, 2), Fraction(1, 2)),
    RadScalar(2),
]


def permute_points(sys: DynSystem, perm) -> DynSystem:
    """Conjugate the action by a permutation of the point indices."""
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    act = tuple(
        tuple(perm[sys.act[g][inv[x]]] for x in range(sys.n_points))
        for g in range(sys.group.order)
    )
    return DynSystem(sys.group, sys.points, act)


GROUP_BUILDERS = [
    FiniteGroup.trivial,
    lambda: FiniteGroup.cyclic(2),
    lambda: FiniteGroup.cyclic(3),
    lambda: FiniteGroup.cyclic(4),
    FiniteGroup.klein,
]


def quotient_system() -> DynSystem:
    """Z/4 acting through Z/2: odd elements swap 0<->1, point 2 is fixed."""
    sys = DynSystem(
        FiniteGroup.cyclic(4),
        ("0", "1", "2"),
        tuple((1, 0, 2) if g % 2 else (0, 1, 2) for g in range(4)),
    )
    validate_system(sys)
    return sys


def random_free_system(rng, max_group: int = 4, max_points: int = 8) -> DynSystem:
    """A random free system: disjoint translation orbits, points shuffled."""
    builders = [b for b in GROUP_BUILDERS if b().order <= max_group]
    group = rng.choice(builders)()
    max_orbits = max(1, max_points // group.order)
    n_orbits = rng.randint(1, max_orbits)
    sys = DynSystem.translation(group)
    for _ in range(n_orbits - 1):
        sys = DynSystem.disjoint_union(sys, DynSystem.translation(group))
    perm = list(range(sys.n_points))
    rng.shuffle(perm)
    return permute_points(sys, perm)


def random_func(rng, sys: DynSystem, density: float = 0.5, pool=None) -> Func:
    pool = pool if pool is not None else COEFF_POOL
    values = {}
    for x in range(sys.n_points):
        if rng.random() < density:
            values[x] = rng.choice(pool)
    return Func.from_dict(sys, values)


def random_positive_func(rng, sys: DynSystem, density: float = 0.6) -> Func:
    values = {}
    for x in range(sys.n_points):
        if rng.random() < density:
            values[x] = RadScalar(rng.choice(VALUE_POOL))
    return Func.from_dict(sys, values)


def random_element(rng, sys: DynSystem, max_terms: int = 3, density: float = 0.5) -> CrossedElement:
    acc = CrossedElement.zero(sys)
    for _ in range(rng.randint(0, max_terms)):
        g = rng.randrange(sys.group.order)
        acc = acc + CrossedElement.monomial(random_func(rng, sys, density), g)
    return acc


def random_disjoint_support_element(rng, sys: DynSystem, max_terms: int = 3) -> CrossedElement:
    """An element whose coefficient supports are pairwise disjoint."""
    points = list(range(sys.n_points))
    rng.shuffle(points)
    acc = CrossedElement.zero(sys)
    groups = rng.sample(range(sys.group.order), min(max_terms, sys.group.order))
    cut = sorted(rng.randrange(len(points) + 1) for _ in range(len(groups) - 1))
    chunks = []
    prev = 0
    for c in cut + [len(points)]:
        chunks.append(points[prev:c])
        prev = c
    for g, chunk in zip(groups, chunks):
        if not chunk:
            continue
        values = {x: rng.choice(COEFF_POOL) for x in chunk if rng.random() < 0.7}
        acc = acc + CrossedElement.monomial(Func.from_dict(sys, values), g)
    return acc


def random_matrix(rng, sys: DynSystem, n: int, density: float = 0.4) -> MatrixElement:
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < density:
                row.append(random_element(rng, sys, max_terms=2, density=0.4))
            else:
                row.append(CrossedElement.zero(sys))
        rows.append(tuple(row))
    return MatrixElement(sys, rows)


def random_diag_tuple(rng, sys: DynSystem, size: int) -> DiagTuple:
    return DiagTuple(
        sys, tuple(random_positive_func(rng, sys) for _ in range(size))
    )


def random_subsets(rng, sys: DynSystem, size: int, density: float = 0.4):
    return [
        frozenset(x for x in range(sys.n_points) if rng.random() < density)
        for _ in range(size)
    ]


def brute_force_subequivalence(sys: DynSystem, F, V) -> bool:
    """Existence of a witness by enumerating every tagged point-assignment."""
    F = [frozenset(s) for s in F]
    V = [frozenset(s) for s in V]
    points = [(i, p) for i, Fi in enumerate(F) for p in sorted(Fi)]
    if not points:
        return True
    choices = []
    for _, p in points:
        opts = [
            (s, k)
            for s in range(sys.group.order)
            for k in range(len(V))
            if sys.act[s][p] in V[k]
        ]
        if not opts:
            return False
        choices.append(opts)
    for combo in itertools.product(*choices):
        tags = [(sys.act[s][p], k) for (_, p), (s, k) in zip(points, combo)]
        if len(set(tags)) == len(tags):
            return True
    return False


def backtracking_subequivalence(sys: DynSystem, F, V):
    """The lexicographically least witness by exhaustive backtracking.

    Each point of each F_i gets a pair (s, k) with s.point in V_k, all
    tagged images distinct; points are visited in (row, point) order and
    pairs tried in (group, target) order.  Subtrees whose remaining points
    outnumber the unused tagged targets of some orbit are pruned.  Returns
    None when no witness exists.
    """
    F = [frozenset(s) for s in F]
    V = [frozenset(s) for s in V]
    points = [(i, p) for i, Fi in enumerate(F) for p in sorted(Fi)]
    choices = []
    for _, p in points:
        opts = [
            (s, k)
            for s in range(sys.group.order)
            for k in range(len(V))
            if sys.act[s][p] in V[k]
        ]
        if not opts:
            return None
        choices.append(opts)

    orbit_of = sys.orbit_id
    n_orbits = len(sys.orbit_partition)
    capacity = [0] * n_orbits
    for Vk in V:
        for q in Vk:
            capacity[orbit_of[q]] += 1
    remaining_after = [[0] * n_orbits for _ in range(len(points) + 1)]
    for d in range(len(points) - 1, -1, -1):
        counts = list(remaining_after[d + 1])
        counts[orbit_of[points[d][1]]] += 1
        remaining_after[d] = counts

    used: set = set()
    used_per_orbit = [0] * n_orbits
    choice: list = []

    def dfs(depth: int) -> bool:
        if depth == len(points):
            return True
        rem = remaining_after[depth]
        if any(rem[o] > capacity[o] - used_per_orbit[o] for o in range(n_orbits)):
            return False
        _, p = points[depth]
        for s, k in choices[depth]:
            q = sys.act[s][p]
            if (q, k) in used:
                continue
            used.add((q, k))
            used_per_orbit[orbit_of[q]] += 1
            choice.append((s, k))
            if dfs(depth + 1):
                return True
            choice.pop()
            used_per_orbit[orbit_of[q]] -= 1
            used.remove((q, k))
        return False

    if not dfs(0):
        return None
    grouped: list = [dict() for _ in F]
    for (i, p), (s, k) in zip(points, choice):
        grouped[i].setdefault((s, k), set()).add(p)
    return Witness(
        tuple(
            tuple((frozenset(pts), s, k) for (s, k), pts in sorted(g.items()))
            for g in grouped
        )
    )


# -- comparison-layer oracles --------------------------------------------------


def fraction_comparison_check(sys: DynSystem, max_pairs=None, measures=None) -> ComparisonResult:
    """Dynamical comparison over exact Fraction measures and witness searches.

    Subset pairs (O, V) are visited in bitmask order; a pair qualifies
    when every measure (the extreme invariant ones unless ``measures`` is
    given) gives mu(O) < mu(V), and fails when the backtracking search
    finds no witness.  ``max_pairs`` truncates as the library does.
    """
    if measures is None:
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
            if backtracking_subequivalence(sys, [O], [V]) is None:
                return ComparisonResult(False, (O, V), checked, exhausted=True)
    return ComparisonResult(True, None, checked, exhausted=True)


def enumerated_semigroup_reps(sys: DynSystem, max_n: int) -> list:
    """Type semigroup class representatives as tuples of supports.

    Every tuple of nonzero masks is enumerated in (length, masks) order
    and its per-orbit count vector is summed entry by entry; the first
    tuple seen with a vector represents its class.
    """
    masks = [
        frozenset(x for x in range(sys.n_points) if m >> x & 1)
        for m in range(1, 1 << sys.n_points)
    ]

    def vector(supports):
        counts = [0] * len(sys.orbit_partition)
        for s in supports:
            for x in s:
                counts[sys.orbit_id[x]] += 1
        return tuple(counts)

    seen = {vector(())}
    reps = [()]
    for k in range(1, max_n + 1):
        for combo in itertools.combinations_with_replacement(masks, k):
            v = vector(combo)
            if v not in seen:
                seen.add(v)
                reps.append(combo)
    return reps


def semigroup_tables(W):
    """The order and addition tables of a type semigroup, read cell by cell
    through ``W.le`` and ``W.add_classes``, as ``table_unperforation_check``
    takes them."""
    classes = range(W.n_classes)
    order = tuple(tuple(W.le(i, j) for j in classes) for i in classes)
    add = {(i, j): W.add_classes(i, j) for i in classes for j in classes}
    return order, add


def table_unperforation_check(order, add, max_n: int):
    """Almost unperforation by walking an order table and an addition table.

    Multiples are formed by repeated addition; for each n the pairs
    (x, y) are visited in order and the first with (n+1)x <= ny but not
    x <= y is returned as (False, (x, y, n)).
    """

    def multiple(i, m):
        acc = i
        for _ in range(m - 1):
            acc = add[(acc, i)]
            if acc is None:
                return None
        return acc

    n_classes = len(order)
    for n in range(1, max_n + 1):
        for x in range(n_classes):
            xx = multiple(x, n + 1)
            if xx is None:
                continue
            for y in range(n_classes):
                yy = multiple(y, n)
                if yy is not None and order[xx][yy] and not order[x][y]:
                    return False, (x, y, n)
    return True, None


def standard_free_systems(max_points: int = 8, max_group: int = 4):
    """The named free systems used across the suite."""
    out = []
    z2 = FiniteGroup.cyclic(2)
    z3 = FiniteGroup.cyclic(3)
    z4 = FiniteGroup.cyclic(4)
    kl = FiniteGroup.klein()
    for grp in (FiniteGroup.trivial(), z2, z3, z4, kl):
        if grp.order <= max_group:
            out.append(DynSystem.translation(grp))
    if max_points >= 4 and max_group >= 2:
        d = DynSystem.translation(z2)
        out.append(DynSystem.disjoint_union(d, DynSystem.translation(z2)))
    if max_points >= 6 and max_group >= 2:
        d = DynSystem.translation(z2)
        d = DynSystem.disjoint_union(d, DynSystem.translation(z2))
        out.append(DynSystem.disjoint_union(d, DynSystem.translation(z2)))
    if max_points >= 6 and max_group >= 3:
        t = DynSystem.translation(z3)
        out.append(DynSystem.disjoint_union(t, DynSystem.translation(z3)))
    if max_points >= 8 and max_group >= 4:
        q = DynSystem.translation(z4)
        out.append(DynSystem.disjoint_union(q, DynSystem.translation(z4)))
        k = DynSystem.translation(kl)
        out.append(DynSystem.disjoint_union(k, DynSystem.translation(kl)))
    return out


# -- verifier oracles ----------------------------------------------------------


def point_product(b: CrossedElement, c: CrossedElement, x: int) -> CrossedElement:
    """b* chi_x c by crossed products."""
    chi = CrossedElement.from_func(Func.indicator(b.system, (x,)))
    return (b.adjoint() * chi) * c


def indicator_r_normalizer(a: CrossedElement) -> bool:
    """a*Da inside D, by crossed products against every point indicator."""
    return all(point_product(a, a, x).in_diagonal for x in range(a.system.n_points))


def indicator_matrix_entrywise(m: MatrixElement) -> bool:
    """Each entry an r-normalizer and, within each row, x_ki* chi x_kj = 0
    for i < j and every point indicator chi, by crossed products."""
    n = m.n
    if not all(indicator_r_normalizer(a) for row in m.entries for a in row):
        return False
    for row in m.entries:
        for i in range(n):
            for j in range(i + 1, n):
                if row[i].is_zero or row[j].is_zero:
                    continue
                for x in range(m.system.n_points):
                    if not point_product(row[i], row[j], x).is_zero:
                        return False
    return True


def check_square_in_subalgebra(a: CrossedElement) -> bool:
    """Whether a*a and aa* both lie in C(X), by crossed products; every
    normalizer passes, since the pair is unital."""
    astar = a.adjoint()
    return (astar * a).in_diagonal and (a * astar).in_diagonal


def is_r_normalizer_by_support(a: CrossedElement) -> bool:
    """Support characterization of r-normalizers; valid for free actions only."""
    if not a.system.is_free:
        raise NotFree("the support criterion requires a free action")
    return coefficient_supports_disjoint(a)


def matrix_row_supports(m: MatrixElement) -> bool:
    """Matrix r-normalizer test for free actions: within each row, the
    coefficient supports of all entries are pairwise disjoint."""
    if not m.system.is_free:
        raise NotFree("the support criterion requires a free action")
    for row in m.entries:
        seen: set[int] = set()
        for entry in row:
            for g in entry.nonzero_groups:
                supp = entry.coeffs[g].support
                if seen & supp:
                    return False
                seen |= supp
    return True


def to_product_element(m: MatrixElement, product=None) -> tuple:
    """Identify M_n (x) (C(X) x G) with the crossed product of the product action.

    The matrix m with entries m_ij = sum_g m_{i,j,g} u_g maps to

        y = sum_g sum_{i,j} (chi_{i} (x) m_{i,j,g}) u_{(i-j, g)}

    over (Z/n x G) acting on {0..n-1} x X.  The identification is a
    *-isomorphism carrying the diagonal subalgebra onto C of the product
    space.  Returns (product system, y).
    """
    n = m.n
    sys = m.system
    if product is None:
        product = product_with_cyclic(sys, n)
    ng, nx = sys.group.order, sys.n_points
    coeff_values: dict[int, dict] = {}
    for i in range(n):
        for j in range(n):
            entry = m.entries[i][j]
            d = (i - j) % n
            for g in entry.nonzero_groups:
                vals = coeff_values.setdefault(d * ng + g, {})
                f = entry.coeffs[g]
                for p in f.support:
                    vals[i * nx + p] = f(p)
    coeffs = [Func.zero(product)] * product.group.order
    for pg, vals in coeff_values.items():
        coeffs[pg] = Func.from_dict(product, vals)
    return product, CrossedElement(product, coeffs)


def matrix_product_reduction(m: MatrixElement, product=None) -> bool:
    """Matrix r-normalizer test by transport to the product-with-cyclic
    system, where m becomes a single element."""
    return is_r_normalizer(to_product_element(m, product)[1])


def dense_regular_rep(a: CrossedElement) -> np.ndarray:
    """The representation entry by entry on the basis delta_(h, x), index
    h |X| + x: pi(f u_g) delta_(h, x) = f(gh.x) delta_(gh, x)."""
    sys = a.system
    ng, nx = sys.group.order, sys.n_points
    out = np.zeros((ng * nx, ng * nx), dtype=complex)
    for g in a.nonzero_groups:
        f = a.coeffs[g]
        for h in range(ng):
            gh = sys.group.mul(g, h)
            for x in range(nx):
                v = f.values[sys.act[gh][x]]
                if not v.is_zero:
                    out[gh * nx + x, h * nx + x] += complex(v)
    return out


def dense_matrix_rep(m: MatrixElement) -> np.ndarray:
    """The (n |G| |X|)-square representation of a matrix element: block
    (i, j) is ``dense_regular_rep`` of entry (i, j)."""
    dim = m.system.group.order * m.system.n_points
    out = np.zeros((m.n * dim, m.n * dim), dtype=complex)
    for i in range(m.n):
        for j in range(m.n):
            out[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim] = dense_regular_rep(
                m.entries[i][j]
            )
    return out


def dense_verify_cpc(phi, tol: float = 1e-9) -> bool:
    """Complete positivity from the full (n |G| |X|)-square Choi matrix,
    contractivity from the largest singular value of the unit image's
    (|G| |X|)-square representation, both built by ``dense_regular_rep``."""
    n = phi.n
    for i in range(n):
        for j in range(i, n):
            if phi.images[(i, j)].adjoint() != phi.images[(j, i)]:
                return False
    images = [[phi.images[(i, j)] for j in range(n)] for i in range(n)]
    choi = dense_matrix_rep(MatrixElement(phi.system, images))
    if not np.allclose(choi, choi.conj().T, rtol=0, atol=tol):
        return False
    eigs = np.linalg.eigvalsh(choi)
    if eigs.size and eigs.min() < -tol:
        return False
    return np.linalg.norm(dense_regular_rep(phi.unit_image()), 2) <= 1 + tol


def linalg_size_guard(monkeypatch, limit: int) -> list:
    """Make ``numpy.linalg.norm``, ``svd`` and ``eigvalsh`` raise on a
    matrix wider than ``limit``; the returned list collects the width of
    every matrix they see, so a test can check that they ran at all."""
    widths = []
    for name in ("norm", "svd", "eigvalsh"):
        original = getattr(np.linalg, name)

        def guarded(x, *args, _original=original, _name=name, **kwargs):
            width = np.shape(x)[-1] if np.ndim(x) >= 2 else 0
            if width > limit:
                raise AssertionError(
                    "numpy.linalg.%s on a matrix of width %d > %d" % (_name, width, limit)
                )
            widths.append(width)
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, guarded)
    return widths


def product_order_zero(phi) -> bool:
    """The order-zero relations by forming every product: phi(e_ij)
    phi(e_kl) = 0 for j != k, phi(e_ij) phi(e_jl) independent of j, and
    p_S p_T = 0 for each diagonal projection p_S against its complement."""
    n = phi.n
    img = phi.images
    for i in range(n):
        for j in range(n):
            a = img[(i, j)]
            if a.is_zero:
                continue
            for k in range(n):
                if k == j:
                    continue
                for l in range(n):
                    if not (a * img[(k, l)]).is_zero:
                        return False
    for i in range(n):
        for l in range(n):
            ref = None
            for j in range(n):
                prod = img[(i, j)] * img[(j, l)]
                if ref is None:
                    ref = prod
                elif prod != ref:
                    return False
    for bits in range(1, 1 << n):
        S = [i for i in range(n) if bits >> i & 1]
        T = [i for i in range(n) if not bits >> i & 1]
        if not T:
            continue
        pS = CrossedElement.zero(phi.system)
        for i in S:
            pS = pS + img[(i, i)]
        pT = CrossedElement.zero(phi.system)
        for i in T:
            pT = pT + img[(i, i)]
        if not (pS * pT).is_zero:
            return False
    return True


# -- representation builders, one loop per concept -----------------------------


def loop_fibre_block(a: CrossedElement, x: int) -> np.ndarray:
    """The |G| x |G| block over x by its own loop: entry (gh, h) is
    a_g(gh.x), values that are zero left at 0."""
    sys = a.system
    grp = sys.group
    out = np.zeros((grp.order, grp.order), dtype=complex)
    for g in a.nonzero_groups:
        f = a.coeffs[g].sparse
        for h in range(grp.order):
            gh = grp.mul(g, h)
            v = f.get(sys.act[gh][x])
            if v is not None and not v.is_zero:
                out[gh, h] = complex(v)
    return out


def slice_choi_block(m: MatrixElement, x: int) -> np.ndarray:
    """The n|G| block over x of a matrix element, one point block per slot."""
    ng = m.system.group.order
    out = np.zeros((m.n * ng, m.n * ng), dtype=complex)
    for i in range(m.n):
        for j in range(m.n):
            out[i * ng : (i + 1) * ng, j * ng : (j + 1) * ng] = loop_fibre_block(
                m.entries[i][j], x
            )
    return out


def orbit_transporters(sys: DynSystem, orbit) -> dict:
    """(x, y) -> the least g with g.x = y, for x, y in one orbit."""
    table = {}
    for x in orbit:
        for g in range(sys.group.order):
            y = sys.act[g][x]
            if (x, y) not in table:
                table[(x, y)] = g
    return table


def transporter_orbit_blocks(a: CrossedElement) -> list:
    """Orbit blocks read through the transporter table: the entry at
    (row y, column x) is a_g(y) for the g with g.x = y."""
    sys = a.system
    if not sys.is_free:
        raise NotFree("orbit blocks need a free action")
    blocks = []
    for orbit in sys.orbit_partition:
        trans = orbit_transporters(sys, orbit)
        rows = []
        for y in orbit:
            row = []
            for x in orbit:
                g = trans[(x, y)]
                row.append(a.coeffs[g](y) if g in a.nonzero_groups else ZERO)
            rows.append(tuple(row))
        blocks.append(OrbitBlock(orbit, tuple(rows)))
    return blocks


def transporter_matrix_orbit_blocks(m: MatrixElement) -> list:
    """Orbit blocks of a matrix element: the n x n entry blocks, stacked."""
    sys = m.system
    if not sys.is_free:
        raise NotFree("orbit blocks need a free action")
    entry_blocks = [
        [transporter_orbit_blocks(m.entries[i][j]) for j in range(m.n)] for i in range(m.n)
    ]
    out = []
    for o, orbit in enumerate(sys.orbit_partition):
        rows = []
        for i in range(m.n):
            for r in range(len(orbit)):
                row = []
                for j in range(m.n):
                    row.extend(entry_blocks[i][j][o].entries[r])
                rows.append(tuple(row))
        out.append(OrbitBlock(orbit, tuple(rows)))
    return out


# -- dense function oracle -----------------------------------------------------


class DenseFunc:
    """The reference for Func: one stored value per point, every operation
    a pass over all points, zeros included (the storage Func had before
    it became sparse)."""

    def __init__(self, system: DynSystem, values):
        self.system = system
        self.values = tuple(values)

    def _new(self, values) -> "DenseFunc":
        return DenseFunc(self.system, values)

    def _zero(self) -> "DenseFunc":
        return self._new([RadScalar(0)] * self.system.n_points)

    @property
    def support(self) -> frozenset:
        return frozenset(x for x, v in enumerate(self.values) if not v.is_zero)

    @property
    def is_zero(self) -> bool:
        return not self.support

    @property
    def is_positive(self) -> bool:
        return all(v.is_nonneg_real for v in self.values)

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return self._new([a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        return self._new([a - b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return self._new([-v for v in self.values])

    def __mul__(self, other):
        common = self.support & other.support
        if not common:
            return self._zero()
        vals = list(self._zero().values)
        for x in common:
            vals[x] = self.values[x] * other.values[x]
        return self._new(vals)

    def scaled(self, scalar):
        s = as_scalar(scalar)
        if s.is_zero:
            return self._zero()
        vals = list(self._zero().values)
        for x in self.support:
            vals[x] = self.values[x] * s
        return self._new(vals)

    def conj(self):
        return self._new([v.conjugate() for v in self.values])

    def compose_action(self, g: int):
        act = self.system.act[g]
        return self._new([self.values[act[x]] for x in range(self.system.n_points)])

    def restrict(self, points):
        pts = set(points)
        return self._new(
            [v if x in pts else RadScalar(0) for x, v in enumerate(self.values)]
        )

    def cutdown(self, eps):
        eps = Fraction(eps)
        if eps < 0:
            raise NotPositive("cutdown parameter must be nonnegative")
        if not self.is_positive:
            raise NotPositive("cutdown of a non-positive function")
        if eps == 0:
            return self
        vals = list(self._zero().values)
        for x in self.support:
            v = self.values[x]
            if v.real_cmp(RadScalar(eps)) > 0:
                vals[x] = v - RadScalar(eps)
        return self._new(vals)

    def sqrt(self):
        if not self.is_positive:
            raise NotPositive("square root of a non-positive function")
        vals = list(self._zero().values)
        for x in self.support:
            vals[x] = self.values[x].sqrt()
        return self._new(vals)

    def __eq__(self, other):
        return all(a == b for a, b in zip(self.values, other.values))


def dense_crossed_product(a: CrossedElement, b: CrossedElement) -> tuple:
    """The coefficient values of a b, one tuple per group element, by the
    dense oracle: (a b)_k = sum_{gh = k} a_g (b_h . alpha_{g^{-1}})."""
    sys = a.system
    grp = sys.group
    left = [DenseFunc(sys, f.values) for f in a.coeffs]
    right = [DenseFunc(sys, f.values) for f in b.coeffs]
    acc = [None] * grp.order
    for g in range(grp.order):
        if left[g].is_zero:
            continue
        for h in range(grp.order):
            if right[h].is_zero:
                continue
            term = left[g] * right[h].compose_action(grp.inv(g))
            if term.is_zero:
                continue
            k = grp.mul(g, h)
            acc[k] = term if acc[k] is None else acc[k] + term
    zero = (RadScalar(0),) * sys.n_points
    return tuple(c.values if c is not None else zero for c in acc)


def fraction_exact_rank(entries) -> int:
    """Rank over the Gaussian rationals by elimination on Fraction pairs
    ``(re, im)``: the library's ``_exact_rank`` before it moved to ints."""
    rows = [[(v.re, v.im) for v in row] for row in entries]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        piv = next(
            (r for r in range(rank, nrows) if rows[r][col] != (Fraction(0), Fraction(0))),
            None,
        )
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pre, pim = rows[rank][col]
        norm = pre * pre + pim * pim
        inv = (pre / norm, -pim / norm)
        for r in range(rank + 1, nrows):
            cre, cim = rows[r][col]
            if cre == 0 and cim == 0:
                continue
            fre = cre * inv[0] - cim * inv[1]
            fim = cre * inv[1] + cim * inv[0]
            for c in range(col, ncols):
                are, aim = rows[rank][c]
                bre, bim = rows[r][c]
                rows[r][c] = (
                    bre - (fre * are - fim * aim),
                    bim - (fre * aim + fim * are),
                )
        rank += 1
        col += 1
    return rank


# -- Fraction-backed scalars ---------------------------------------------------


class FractionRadScalar:
    """The Fraction-backed exact scalar: ``re`` and ``im`` are Fractions.

    The library's RadScalar before it moved to ints, kept unchanged as an
    oracle; it prints as ``RadScalar(...)``, so reprs and error messages
    compare equal.
    """

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
    def zero(cls) -> "FractionRadScalar":
        return FRACTION_ZERO

    @classmethod
    def one(cls) -> "FractionRadScalar":
        return FRACTION_ONE

    @classmethod
    def sqrt_of(cls, value) -> "FractionRadScalar":
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
        if isinstance(other, FractionRadScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionRadScalar(other)
        return None

    def __add__(self, other):
        if type(other) is not FractionRadScalar:
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
        return _fraction_trusted(re, im, self.rad if re or im else 1)

    __radd__ = __add__

    def __neg__(self):
        return _fraction_trusted(-self.re, -self.im, self.rad)

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
        if type(other) is not FractionRadScalar:
            if isinstance(other, FloatScalar):
                return FloatScalar(complex(self) * other.value)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not a and not b or not c and not d:
            return FRACTION_ZERO
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
        return _fraction_trusted(re, im, rad)

    __rmul__ = __mul__

    def conjugate(self) -> "FractionRadScalar":
        return _fraction_trusted(self.re, -self.im, self.rad)

    def abs_sq(self) -> Fraction:
        """Exact |value|^2 as a rational."""
        return (self.re * self.re + self.im * self.im) * self.rad

    def modulus(self) -> "FractionRadScalar":
        """Exact |value| (always representable in the carrier)."""
        return FractionRadScalar.sqrt_of(self.abs_sq())

    def inverse(self) -> "FractionRadScalar":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        d = (self.re * self.re + self.im * self.im) * self.rad
        return _fraction_trusted(self.re / d, -self.im / d, self.rad)

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

    def sqrt(self) -> "FractionRadScalar":
        """Exact square root; only defined for nonnegative rational values."""
        if self.is_zero:
            return FractionRadScalar.zero()
        if not self.is_rational or self.re < 0:
            raise ExactnessError("no exact square root for %r" % self)
        return FractionRadScalar.sqrt_of(self.re)

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
        if type(other) is FractionRadScalar:
            return self.rad == other.rad and self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self == FractionRadScalar(other)
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
            coeff = "(%s%s%si)" % (self.re, "+" if self.im > 0 else "", self.im)
        if self.rad == 1:
            return coeff
        if coeff == "1":
            return "sqrt(%d)" % self.rad
        return "%s*sqrt(%d)" % (coeff, self.rad)


def _fraction_trusted(re: Fraction, im: Fraction, rad: int) -> FractionRadScalar:
    """A FractionRadScalar from parts already in canonical form, skipping the
    square split: ``rad`` square-free, and 1 when the value is zero."""
    out = object.__new__(FractionRadScalar)
    out.re = re
    out.im = im
    out.rad = rad
    return out


FRACTION_ZERO = FractionRadScalar(0)
FRACTION_ONE = FractionRadScalar(1)


# -- CLI reports ----------------------------------------------------------------


def strip_runtime(text):
    """A report's text with ``runtime_s``, its one timing field, zeroed."""
    return re.sub(r'"runtime_s": [0-9.e-]+', '"runtime_s": 0', text)
