"""Castles, castle order zero maps, and tracial-Z-stability instances.

A castle is a family of towers (V_t, S_t), V_t a subset of the space and
S_t a tuple of distinct group elements, whose levels {s.V_t} are pairwise
disjoint.  Equipping each tower with a positive contraction f_t supported
in V_t and unit-modulus phases theta_{t,i} on that support yields a map

    phi(e_ij) = sum_t u_{s_{t,i}} theta_{t,i} conj(theta_{t,j}) f_t u_{s_{t,j}}^*

which is completely positive, contractive, order zero, and sends matrix
units to normalizers.  Conversely every normalizer-preserving cpc order
zero map over a free system decomposes into such data; both directions
are implemented here with exact round-trip verification.

Exact castle data is proved at its boundary: ``CastleOzmData.validate``
checks the data, and ``build_castle_ozm`` then assembles the map without
running the verifiers, since valid exact data has the four properties by
the argument in its docstring.  Float data (any ``FloatScalar`` weight or
phase value) is not covered by that argument, because ``validate``
accepts unit moduli and norm bounds within a tolerance that can add up
past the verifiers' own; its maps are verified after assembly.
``decompose_ozm`` accepts arbitrary maps.  It extracts castle data first
and returns it when the data's map equals the input exactly, which
proves the input by the same argument; the verifiers run only on a map
that extraction rejects, so that it gets the error of the first check
it fails.

A finite space carries only finitely many disjoint levels, so castles
here always have finitely many towers and the norm-decay condition a
castle with infinitely many towers would need is vacuous.

Order-zero verification is exact and finite: beyond the documented
family of orthogonal positive pairs (diagonal projections p_S against
their complements), the verifier checks the matrix-unit product
relations

    phi(e_ij) phi(e_kl) = 0 for j != k,
    phi(e_ij) phi(e_jl) independent of j,

which make products of images factor through matrix products by
bilinearity, so vanishing on the finite family extends to every
orthogonal pair.  Products that cannot have a term are not formed: the
term a_g alpha_g(b_h) u_{gh} of a b is nonzero at x only where a_g(x)
and b_h(g^{-1} x) are, so a b = 0 exactly, with no scalar operation,
when the points g^{-1}.x (x stored by a_g) miss every point stored by a
coefficient of b.  On castle maps this leaves only the n^3 products of
the second relation.  Complete positivity is certified by positivity of the
Choi matrix in the faithful representation (absolute tolerance 1e-9).
The representation never moves the point of the space, so the Choi
matrix is a direct sum of one n|G| block per point, and the blocks of
points in one orbit are unitarily equivalent; one block per orbit, at
its least point, therefore decides positivity.  The diagonal sub-blocks
of the same Choi blocks sum to the blocks of phi(1), which decide
contractivity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

from .algebra import (
    CrossedElement,
    DiagTuple,
    Func,
    _largest_norm,
    _orbit_point_blocks,
    _positivity_failure,
    _source_points,
    _stored_points,
    operator_norm,
)
from .comparison import Witness, diag_subequivalent, search_subequivalence
from .dynsys import DynSystem
from .errors import (
    DynalgError,
    EmptyShape,
    ExactnessError,
    InvalidCastle,
    InvalidCastleData,
    InvariantViolation,
    NotFree,
    NotNormalizerPreserving,
    NotOrderZero,
    PreconditionFailed,
    ResourceBound,
    SystemMismatch,
)
from .normalizers import check_normalizer_preserving
from .scalars import FLOAT_TOL, ZERO, FloatScalar, RadScalar

__all__ = [
    "Castle",
    "CastleOzmData",
    "OrderZeroMap",
    "TzsInstance",
    "TzsReport",
    "AfCertificate",
    "validate_castle",
    "shape_invariance",
    "almost_finiteness_certificate",
    "orbit_castle",
    "build_castle_ozm",
    "identity_embedding",
    "verify_order_zero",
    "verify_cpc",
    "verify_normalizer_preserving",
    "decompose_ozm",
    "check_tzs_instance",
    "search_tzs_map",
]


@dataclass(frozen=True)
class Castle:
    """Towers (base set, shape tuple); levels must be pairwise disjoint."""

    system: DynSystem
    towers: tuple[tuple[frozenset, tuple[int, ...]], ...]

    def levels(self):
        for t, (base, shape) in enumerate(self.towers):
            for s in shape:
                yield t, s, frozenset(self.system.act[s][x] for x in base)

    def footprint(self) -> frozenset:
        out: set[int] = set()
        for _, _, level in self.levels():
            out |= level
        return frozenset(out)


def validate_castle(c: Castle) -> bool:
    """Exact pairwise disjointness of all levels; shapes must not repeat
    group elements."""
    for _, (base, shape) in enumerate(c.towers):
        if len(set(shape)) != len(shape):
            return False
        if not all(0 <= s < c.system.group.order for s in shape):
            return False
        if not all(0 <= x < c.system.n_points for x in base):
            return False
    seen: set[int] = set()
    for _, _, level in c.levels():
        if seen & level:
            return False
        seen |= level
    return True


def shape_invariance(shape: Iterable[int], K: Iterable[int], sys: DynSystem) -> Fraction:
    """max over g in K of |gS symmetric-difference S| / |S|, exact."""
    S = set(shape)
    if not S:
        raise EmptyShape("shape invariance of an empty set")
    grp = sys.group
    worst = Fraction(0)
    for g in K:
        gS = {grp.mul(g, s) for s in S}
        value = Fraction(len(gS ^ S), len(S))
        if value > worst:
            worst = value
    return worst


@dataclass(frozen=True)
class AfCertificate:
    ok: bool
    invariance_ok: bool
    invariance_values: tuple[Fraction, ...]
    prime_size_ok: bool
    remainder_ok: bool
    remainder: frozenset
    target: frozenset
    witness: Optional[Witness]
    diameter_ok: Optional[bool]


def almost_finiteness_certificate(
    sys: DynSystem,
    K: Iterable[int],
    delta,
    castle: Castle,
    primes: Sequence[Iterable[int]],
    strict_diameter: bool = False,
) -> AfCertificate:
    """Check a castle as an approximation certificate at scale (K, delta).

    Conditions: (a) every shape is (K, delta)-invariant; (b) every prime
    subset satisfies |S'| < delta |S|; (c) the uncovered remainder is
    subequivalent to the union of the prime levels.  A level-diameter
    condition has no content on a discrete finite space; with
    ``strict_diameter`` the surrogate |V_t| = 1 is enforced instead.
    """
    delta = Fraction(delta)
    if not validate_castle(castle):
        raise InvalidCastle("castle levels are not pairwise disjoint")
    K = list(K)
    primes = [set(p) for p in primes]
    if len(primes) != len(castle.towers):
        raise InvalidCastle("need one prime subset per tower")
    for (base, shape), prime in zip(castle.towers, primes):
        if not prime <= set(shape):
            raise InvalidCastle("prime subset not contained in its shape")

    values = tuple(
        shape_invariance(shape, K, sys) if K else Fraction(0)
        for _, shape in castle.towers
    )
    invariance_ok = all(v < delta for v in values)
    prime_size_ok = all(
        Fraction(len(prime)) < delta * len(shape)
        for (_, shape), prime in zip(castle.towers, primes)
    )
    remainder = frozenset(range(sys.n_points)) - castle.footprint()
    target = frozenset().union(
        *(level for t, s, level in castle.levels() if s in primes[t])
    )
    witness = search_subequivalence(sys, [remainder], [target])
    remainder_ok = witness is not None
    diameter_ok = None
    if strict_diameter:
        diameter_ok = all(len(base) <= 1 for base, _ in castle.towers)
    ok = (
        invariance_ok
        and prime_size_ok
        and remainder_ok
        and (diameter_ok is not False)
    )
    return AfCertificate(
        ok=ok,
        invariance_ok=invariance_ok,
        invariance_values=values,
        prime_size_ok=prime_size_ok,
        remainder_ok=remainder_ok,
        remainder=remainder,
        target=target,
        witness=witness,
        diameter_ok=diameter_ok,
    )


@dataclass(frozen=True)
class CastleOzmData:
    """A castle with equal-size shapes, weights, and phases.

    weights[t] is a positive contraction supported in the tower base;
    phases[t][i] is unit-modulus on that support and zero outside.
    """

    castle: Castle
    weights: tuple[Func, ...]
    phases: tuple[tuple[Func, ...], ...]
    n: int

    def validate(self) -> None:
        c = self.castle
        if not validate_castle(c):
            raise InvalidCastleData("underlying castle is invalid")
        if len(self.weights) != len(c.towers) or len(self.phases) != len(c.towers):
            raise InvalidCastleData("need one weight and one phase row per tower")
        for (base, shape), f, th_row in zip(c.towers, self.weights, self.phases):
            if len(shape) != self.n:
                raise InvalidCastleData("tower shape size differs from n")
            if not f.is_positive:
                raise InvalidCastleData("weight is not positive")
            if not f.support <= base:
                raise InvalidCastleData("weight supported outside its tower base")
            if not f.sup_le_one():
                raise InvalidCastleData("weight exceeds norm one")
            if len(th_row) != self.n:
                raise InvalidCastleData("phase row size differs from n")
            for theta in th_row:
                if theta.support != f.support:
                    raise InvalidCastleData("phase not carried by the weight support")
                for x in f.support:
                    if not theta(x).is_unit_modulus():
                        raise InvalidCastleData("phase value is not unit modulus")

    @classmethod
    def with_trivial_phases(
        cls, castle: Castle, weights: Sequence[Func], n: int
    ) -> "CastleOzmData":
        # one phase per shape element: a tower whose shape size is not n
        # fails validate before its row is read, so n need not be counted out
        phases = tuple(
            (Func.indicator(castle.system, f.support),) * len(shape)
            for f, (_, shape) in zip(weights, castle.towers)
        )
        return cls(castle=castle, weights=tuple(weights), phases=phases, n=n)


class OrderZeroMap:
    """A linear map given by its matrix-unit images.

    Every image of e_ij, 0 <= i, j < n, must be given, over ``system``
    itself; a missing image or a negative n raises PreconditionFailed,
    and an image over another system raises SystemMismatch.  ``images``
    is read-only, so no image can be swapped after these checks.
    """

    def __init__(self, system: DynSystem, n: int, images: dict):
        if n < 0:
            raise PreconditionFailed("map size must be >= 0, got %d" % n)
        self.system = system
        self.n = n
        checked = {}
        for key in itertools.product(range(n), repeat=2):
            if key not in images:
                raise PreconditionFailed("no image for e_(%d, %d)" % key)
            if images[key].system is not system:
                raise SystemMismatch("image of e_(%d, %d) over a different system" % key)
            checked[key] = images[key]
        self.images = MappingProxyType(checked)

    @classmethod
    def zero(cls, system: DynSystem, n: int) -> "OrderZeroMap":
        z = CrossedElement.zero(system)
        return cls(system, n, {(i, j): z for i in range(n) for j in range(n)})

    def unit_image(self) -> CrossedElement:
        acc = CrossedElement.zero(self.system)
        for i in range(self.n):
            acc = acc + self.images[(i, i)]
        return acc

    def __eq__(self, other):
        if not isinstance(other, OrderZeroMap):
            return NotImplemented
        return (
            self.system is other.system
            and self.n == other.n
            and all(
                self.images[(i, j)] == other.images[(i, j)]
                for i in range(self.n)
                for j in range(self.n)
            )
        )

    __hash__ = None

    def __repr__(self):
        return "OrderZeroMap(n=%d over %r)" % (self.n, self.system)


def _nonzero_values(f: Func) -> dict:
    """The stored values of f that do not read as zero, in stored order."""
    return {x: v for x, v in f.sparse.items() if not v.is_zero}


def _assemble(data: CastleOzmData) -> OrderZeroMap:
    """The map of already validated castle data, without verification.

    The coefficient dicts are written straight from the levels: for
    tower t, base point x and weight w = f_t(x), image (i, j) stores
    theta_i(x) conj(theta_j(x)) w, multiplied left to right, at the point
    s_i.x on u_{s_i s_j^{-1}}.  As in a pointwise product of Funcs, a
    point where an operand reads as zero is skipped, and a tower whose
    values for (i, j) all read as zero writes nothing.  A written point
    x carries a weight that does not read as zero, so it lies in V_t, and
    s_i.x lies in the level s_i.V_t.  The levels are pairwise disjoint,
    so no two towers write one (image, group element, point), and no sum
    is formed.

    The image is the sum over the towers of their terms, and adding the
    exact zero to a float clears the sign of a zero part: a float
    coefficient that two or more towers write stores each value plus the
    exact zero, and one written by a single tower keeps its signed zeros.
    """
    sys = data.castle.system
    grp = sys.group
    n = data.n
    keys = itertools.product(range(n), repeat=2)
    images = {key: [{} for _ in range(grp.order)] for key in keys}
    shared = set()
    for (_, shape), f, th_row in zip(data.castle.towers, data.weights, data.phases):
        w = _nonzero_values(f)
        rows = [_nonzero_values(th) for th in th_row]
        conj_rows = [{x: v.conjugate() for x, v in row.items()} for row in rows]
        for i, si in enumerate(shape):
            move = sys.act[si]
            for j, sj in enumerate(shape):
                conj_j = conj_rows[j]
                written = []
                for x, a in rows[i].items():
                    if x in conj_j and x in w:
                        ab = a * conj_j[x]
                        if not ab.is_zero:
                            written.append((move[x], ab * w[x]))
                if all(v.is_zero for _, v in written):
                    continue
                g = grp.mul(si, grp.inv(sj))
                coeff = images[(i, j)][g]
                if coeff:
                    shared.add((i, j, g))
                coeff.update(written)
    for i, j, g in shared:
        coeff = images[(i, j)][g]
        for y, v in coeff.items():
            if type(v) is FloatScalar:
                coeff[y] = v + ZERO
    zero = Func.zero(sys)
    return OrderZeroMap(
        sys,
        n,
        {
            key: CrossedElement(sys, [Func._of(sys, c) if c else zero for c in coeffs])
            for key, coeffs in images.items()
        },
    )


def _is_exact(data: CastleOzmData) -> bool:
    """Every weight and phase value is an exact RadScalar."""
    funcs = itertools.chain(data.weights, itertools.chain.from_iterable(data.phases))
    return all(isinstance(v, RadScalar) for f in funcs for v in f.sparse.values())


def build_castle_ozm(data: CastleOzmData) -> OrderZeroMap:
    """Assemble the map from validated castle data.

    Exact data (every weight and phase value a RadScalar) is not verified
    after assembly: ``validate`` has checked that the levels s.V_t are
    pairwise disjoint, that each f_t is positive with sup at most one and
    supported in V_t, and that each theta_{t,i} has modulus exactly one on
    supp f_t and vanishes off it.  Then phi(e_ij) = sum_t u_{s_i} theta_i
    conj(theta_j) f_t u_{s_j}^* has

    * complete positivity: the Choi matrix [phi(e_ij)]_ij is
      sum_t w_t w_t^* with (w_t)_i = u_{s_i} theta_{t,i} f_t^{1/2}, so each
      point's Choi block is a sum of terms f_t(x) theta theta^* with
      f_t(x) >= 0, and phi(e_ij)^* = phi(e_ji) exactly;
    * contractivity: phi(1) = sum_t sum_i |theta_i|^2 f_t . alpha_{s_i^{-1}}
      lies in C(X), with value |theta_i|^2 f_t = f_t <= 1 on the level
      s_i.V_t, and the levels are disjoint;
    * order zero: phi(e_ij) phi(e_kl) carries the factor chi of
      s_j.V_t times chi of s'_k.V_t', so for j != k it vanishes (the
      levels of distinct (tower, index) pairs are disjoint), and for
      j = k only t = t' survives, with theta_i conj(theta_j) theta_j
      conj(theta_l) f_t^2 = theta_i conj(theta_l) f_t^2 independent of j;
    * normalizers: each point carries at most one nonzero coefficient of
      phi(e_ij) (the unique level s_i.V_t through it), so a* chi_x a and
      a chi_x a* lie in C(X), and phi(e_ii) lies in C(X).

    Each of these is an identity between exact values, so the verifiers
    hold on the result.  The sum over t is never formed: the terms of
    distinct towers sit on disjoint levels, so ``_assemble`` writes each
    value at its point directly.  Float data is verified after assembly,
    since its unit moduli and norm bound hold only within a tolerance
    that the products can exceed: a phase of modulus 1 + 9e-10 passes
    ``validate`` and fails complete positivity.
    """
    data.validate()
    phi = _assemble(data)
    if _is_exact(data):
        return phi
    if not verify_order_zero(phi):
        raise InvalidCastleData("assembled map fails the order-zero relations")
    if not verify_cpc(phi):
        raise InvalidCastleData("assembled map fails complete positivity")
    if not verify_normalizer_preserving(phi):
        raise InvalidCastleData("assembled map fails normalizer preservation")
    return phi


def orbit_castle(sys: DynSystem, orbit_index: int = 0) -> Castle:
    """The one-tower castle over a free orbit: base its least point, shape
    the whole group."""
    if not sys.is_free:
        raise NotFree("orbit castles need a free action")
    orbit = sys.orbit_partition[orbit_index]
    base = frozenset({orbit[0]})
    shape = tuple(range(sys.group.order))
    return Castle(sys, ((base, shape),))


def identity_embedding(sys: DynSystem) -> OrderZeroMap:
    """The isomorphism of the full matrix algebra with the crossed product
    of a free transitive system, as a castle map over the orbit castle."""
    if not (sys.is_free and sys.is_minimal):
        raise NotFree("identity embedding needs a free transitive system")
    castle = orbit_castle(sys)
    base = castle.towers[0][0]
    weights = (Func.indicator(sys, base),)
    data = CastleOzmData.with_trivial_phases(castle, weights, sys.group.order)
    return build_castle_ozm(data)


# -- verifiers -------------------------------------------------------------


def verify_order_zero(phi: OrderZeroMap) -> bool:
    """Exact order-zero check via matrix-unit relations plus the diagonal
    positive-pair family.

    The relations certify that products of images vanish on every
    orthogonal pair, positive or not.  For completely positive maps that
    is equivalent to annihilating orthogonal positives, which is the
    defining property; the toolkit's maps are checked for complete
    positivity alongside.

    Products are screened by supports.  Let src(a) be the points g^{-1}.x
    over the points x that a_g stores, and rng(b) the points that any
    coefficient of b stores.  The product a b = sum_{g,h} a_g
    (b_h . alpha_{g^{-1}}) u_{gh} multiplies a_g(x) by b_h(g^{-1}.x), and
    ``CrossedElement.__mul__`` reads only stored values, so when src(a)
    and rng(b) are disjoint it adds no term and returns the exact zero
    (a = a chi_src and b = chi_rng b).  Stored points include float values
    within tolerance of zero, so the screen is conservative in both
    scalar modes, and a skipped product raises nothing.

    The first relation multiplies only the pairs whose sets meet.  The
    diagonal family screens p_S p_T by the unions of the sets over S and
    over T, since p_S stores only points that some phi(e_ii), i in S,
    stores on the same u_g.  For exact maps that family follows from the
    first relation by bilinearity; for float maps it does not, since a
    sum of products within tolerance of zero can exceed it.  Its sums are
    skipped only when no two diagonal images store a value at the same
    point on the same u_g, because elsewhere a sum can raise
    RadicalAdditionMismatch.  The second relation forms all its n^3
    products.
    """
    n = phi.n
    img = phi.images
    src = {key: _source_points(a) for key, a in img.items()}
    rng = {key: _stored_points(a) for key, a in img.items()}
    for i in range(n):
        for j in range(n):
            a = img[(i, j)]
            if a.is_zero:
                continue
            for k in range(n):
                if k == j:
                    continue
                for l in range(n):
                    if src[(i, j)].isdisjoint(rng[(k, l)]):
                        continue
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
    # documented positive family: diagonal projections against complements
    stored = [
        (g, x) for i in range(n) for g, c in enumerate(img[(i, i)].coeffs) for x in c.sparse
    ]
    screened = len(set(stored)) == len(stored)
    for bits in range(1, 1 << n):
        S = [i for i in range(n) if bits >> i & 1]
        T = [i for i in range(n) if not bits >> i & 1]
        if not T:
            continue
        if screened and set().union(*(src[(i, i)] for i in S)).isdisjoint(
            set().union(*(rng[(i, i)] for i in T))
        ):
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


def verify_cpc(phi: OrderZeroMap) -> bool:
    """Complete positivity and contractivity from one Choi block per orbit.

    Adjoint symmetry phi(e_ij)* = phi(e_ji) is checked exactly first; it
    is necessary for positivity and keeps the Choi matrix hermitian up to
    float error only.  The representation never moves the point x, so the
    Choi matrix [pi(phi(e_ij))]_ij is the direct sum over x of the point
    blocks of the matrix [phi(e_ij)], of size n|G|; for x' = s.x the
    unitary V delta_h = delta_{h s}, applied in each of the n slots, makes
    the blocks at x and x' equivalent.  One builder fills a stack of one
    n|G| block per orbit, at its least point; ``cuntz_oracle``'s test
    decides it: one hermitian test and one ``eigvalsh`` over the stack.

    The same blocks decide contractivity.  Entry (i, j) of the block at x
    fills rows i|G| + gh and columns j|G| + h, so its i-th diagonal
    |G|-square sub-block is the point block of phi(e_ii) at x.  Point
    blocks are linear in the element, so the sum of the n diagonal
    sub-blocks is the point block of phi(1) at x, and ||phi(1)|| is the
    largest 2-norm of these sums over the orbits.  No dense representation
    is built.  The float tests use the absolute ``scalars.FLOAT_TOL``
    (1e-9); the norm bound is 1 + FLOAT_TOL.
    """
    if not _adjoint_symmetric(phi):
        return False
    n = phi.n
    images = [[phi.images[(i, j)] for j in range(n)] for i in range(n)]
    blocks = _orbit_point_blocks(phi.system, images)
    if _positivity_failure(blocks) is not None:
        return False
    ng = phi.system.group.order
    units = blocks.reshape(len(blocks), n, ng, n, ng).diagonal(axis1=1, axis2=3).sum(axis=-1)
    return _largest_norm(units) <= 1 + FLOAT_TOL


def _adjoint_symmetric(phi: OrderZeroMap) -> bool:
    """Exact phi(e_ij)* = phi(e_ji) for all i, j."""
    n = phi.n
    return all(
        phi.images[(i, j)].adjoint() == phi.images[(j, i)]
        for i in range(n)
        for j in range(i, n)
    )


def verify_normalizer_preserving(phi: OrderZeroMap) -> bool:
    """Every matrix-unit image is a normalizer of C(X)."""
    return check_normalizer_preserving(phi.images, phi.n)


# -- decomposition ---------------------------------------------------------


def decompose_ozm(phi: OrderZeroMap) -> CastleOzmData:
    """Recover castle data from a normalizer-preserving cpc order zero map.

    Requires a free system.  The coefficients of phi(e_1i) against u_g^*
    have pairwise disjoint supports; partitioning the support of
    phi(e_11) by the induced (group-vector, value) profile produces the
    tower bases, weights, and phases.  The rebuilt map is compared to phi
    exactly before returning.

    Extraction runs first, without the verifiers: when it succeeds, phi
    is the map of valid exact castle data, which is cpc, order zero and
    normalizer-preserving by the argument in ``build_castle_ozm``.  When
    it fails, the checks run in order (adjoint symmetry, order zero, cpc,
    normalizers) and the first failure is raised; if all pass, the
    extraction error is.  A rejected map therefore gets the error of the
    first check it fails, as if every check ran up front.  As in
    ``build_castle_ozm``, an exact map whose float Choi test would fail by
    rounding alone decomposes.
    """
    sys = phi.system
    if not sys.is_free:
        raise NotFree("decomposition needs a free action")
    n = phi.n
    if n < 1:
        raise PreconditionFailed("decomposition needs n >= 1, got %d" % n)
    try:
        return _extract(phi)
    except DynalgError as exc:
        failure = exc
    if not _adjoint_symmetric(phi):
        raise NotOrderZero("images are not adjoint-symmetric")
    if not verify_order_zero(phi):
        raise NotOrderZero("map fails the exact order-zero relations")
    if not verify_cpc(phi):
        raise NotOrderZero("map is not completely positive contractive")
    if not verify_normalizer_preserving(phi):
        raise NotNormalizerPreserving("some matrix-unit image is not a normalizer")
    raise failure


def _extract(phi: OrderZeroMap) -> CastleOzmData:
    """The castle data whose map is exactly phi; raises only typed errors."""
    sys = phi.system
    n = phi.n
    grp = sys.group
    if not phi.images[(0, 0)].in_diagonal:
        raise NotOrderZero("phi(e_11) is not in C(X)")
    f0 = phi.images[(0, 0)].as_func()
    if not f0.is_positive:
        raise NotOrderZero("phi(e_11) is not positive")
    for i in range(n):
        for j in range(n):
            for f in phi.images[(i, j)].coeffs:
                for _, v in sorted(f.sparse.items()):
                    if not isinstance(v, RadScalar):
                        raise ExactnessError(
                            "decomposition needs exact scalars, found %r" % (v,)
                        )

    # h[i][g] is the coefficient of phi(e_1i) against u_g^*.
    h = []
    for i in range(n):
        coeffs = phi.images[(0, i)].coeffs
        h.append([coeffs[grp.inv(g)] for g in range(grp.order)])

    # Per point of supp(phi(e_11)): the unique acting element for each i,
    # with |h_{i,g}(x)| equal to the weight value there.
    profile: dict[int, tuple] = {}
    for x in sorted(f0.support):
        svec = []
        for i in range(n):
            hits = [g for g in range(grp.order) if not h[i][g](x).is_zero]
            if len(hits) != 1:
                raise NotOrderZero(
                    "point %d sees %d coefficients in row %d" % (x, len(hits), i)
                )
            g = hits[0]
            if h[i][g](x).modulus() != f0(x):
                raise NotOrderZero("coefficient modulus differs from the weight")
            svec.append(g)
        if svec[0] != grp.identity:
            raise NotOrderZero("phi(e_11) carries a nontrivial group element")
        profile[x] = (tuple(svec), f0(x))

    # Towers: group points by profile, ordered by least member point.
    groups: dict[tuple, set] = {}
    for x, key in profile.items():
        groups.setdefault(key, set()).add(x)
    ordered = sorted(groups.items(), key=lambda kv: min(kv[1]))

    towers = []
    weights = []
    phases = []
    for (svec, _value), pts in ordered:
        base = frozenset(pts)
        towers.append((base, svec))
        weights.append(f0.restrict(pts))
        row = []
        for i in range(n):
            vals = {}
            for x in pts:
                vals[x] = f0(x) / h[i][svec[i]](x)
            row.append(Func.from_dict(sys, vals))
        phases.append(tuple(row))

    castle = Castle(sys, tuple(towers))
    if not validate_castle(castle):
        raise NotOrderZero("extracted levels are not pairwise disjoint")
    data = CastleOzmData(
        castle=castle, weights=tuple(weights), phases=tuple(phases), n=n
    )
    data.validate()
    if _assemble(data) != phi:
        raise InvariantViolation("rebuilt map differs from the input")
    return data


# -- tracial Z-stability instances ----------------------------------------


@dataclass(frozen=True)
class TzsInstance:
    """One instance of the stability test: size, tolerance, finite set,
    and a nonzero positive function."""

    n: int
    epsilon: Fraction
    F: tuple[CrossedElement, ...]
    h: Func

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("size must be positive")
        if Fraction(self.epsilon) <= 0:
            raise ValueError("tolerance must be positive")
        try:
            eps = float(Fraction(self.epsilon))  # condition (iii) compares in floats
        except OverflowError:
            eps = math.inf
        if eps in (0.0, math.inf):
            raise ValueError("tolerance is outside float range")
        if self.h.is_zero:
            raise ValueError("h must be nonzero")


@dataclass(frozen=True)
class TzsReport:
    normalizer_condition: bool
    remainder_condition: bool
    remainder_witness: Optional[Witness]
    commutator_condition: bool
    commutator_margins: tuple  # ((a_index, i, j, norm), ...)
    commutator_bound_factor: int
    max_commutator: float
    epsilon: Fraction
    notes: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return (
            self.normalizer_condition
            and self.remainder_condition
            and self.commutator_condition
        )

def check_tzs_instance(inst: TzsInstance, phi: OrderZeroMap) -> TzsReport:
    """Evaluate the three instance conditions for a candidate map.

    (i) matrix units land in the normalizers; (ii) the unit remainder
    1 - phi(1) is subequivalent to h, decided by witness search ((i) is
    required first so the remainder lies in C(X)); (iii) commutator norms
    against every member of F over all matrix units, with the stated n^2
    linearity factor deciding pass/fail for arbitrary contractions.

    Condition (iii) is the float comparison ``n*n*worst < float(epsilon)``
    with no tolerance, unlike the other float decisions: an exact tie
    ||[a, phi(e_ij)]|| = epsilon/n^2 can read as a pass when the computed
    norm rounds below it.  A norm that is not finite (an exact value whose
    float conversion reaches inf gives inf or NaN) fails the condition.
    """
    sys = phi.system
    cond_i = verify_normalizer_preserving(phi)

    cond_ii = False
    witness = None
    if cond_i:
        rem = CrossedElement.unit(sys) - phi.unit_image()
        if rem.in_diagonal:
            rem_f = rem.as_func()
            if rem_f.is_positive:
                cond_ii, witness = diag_subequivalent(
                    DiagTuple(sys, (rem_f,)), DiagTuple(sys, (inst.h,))
                )

    margins = []
    worst = 0.0
    for ai, a in enumerate(inst.F):
        for i in range(phi.n):
            for j in range(phi.n):
                img = phi.images[(i, j)]
                comm = a * img - img * a
                value = operator_norm(comm)
                margins.append((ai, i, j, value))
                if value > worst:
                    worst = value
    factor = phi.n * phi.n
    finite = all(math.isfinite(value) for *_, value in margins)
    cond_iii = finite and factor * worst < float(inst.epsilon)
    notes = (
        "commutator check runs over matrix units; linearity bounds a general "
        "contraction by the stated n^2 factor",
    )
    return TzsReport(
        normalizer_condition=cond_i,
        remainder_condition=cond_ii,
        remainder_witness=witness,
        commutator_condition=cond_iii,
        commutator_margins=tuple(margins),
        commutator_bound_factor=factor,
        max_commutator=worst,
        epsilon=Fraction(inst.epsilon),
        notes=notes,
    )


def search_tzs_map(inst: TzsInstance, budget: int = 256) -> Optional[OrderZeroMap]:
    """Bounded search for a map passing the instance test.

    Candidates are castle maps with singleton tower bases (the orbit
    representatives), indicator weights, and trivial phases: for every
    shape S (an n-subset of the group, ascending) and every nonempty set
    of orbits (ascending), one tower ({rep_o}, S) per chosen orbit.  The
    first passing candidate in this order is returned; None means the
    family is exhausted without success.  Raises ResourceBound if the
    budget is hit first.
    """
    sys = inst.F[0].system if inst.F else inst.h.system
    if not sys.is_free:
        raise NotFree("the search assumes a free action")
    n = inst.n
    if n > sys.group.order:
        return None
    reps = [orbit[0] for orbit in sys.orbit_partition]
    tried = 0
    for shape in itertools.combinations(range(sys.group.order), n):
        for bits in range(1, 1 << len(reps)):
            chosen = [reps[o] for o in range(len(reps)) if bits >> o & 1]
            tried += 1
            if tried > budget:
                raise ResourceBound("candidate budget %d exhausted" % budget)
            towers = tuple((frozenset({x}), shape) for x in chosen)
            castle = Castle(sys, towers)
            if not validate_castle(castle):
                continue
            weights = tuple(Func.indicator(sys, {x}) for x in chosen)
            data = CastleOzmData.with_trivial_phases(castle, weights, n)
            phi = build_castle_ozm(data)
            report = check_tzs_instance(inst, phi)
            if report.all_pass:
                return phi
    return None
