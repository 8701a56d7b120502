import itertools
import random
from fractions import Fraction

import pytest

from dynalg import (
    CrossedElement,
    DynalgError,
    DynSystem,
    FiniteGroup,
    FloatScalar,
    Func,
    HypothesisViolated,
    MatrixElement,
    NotFree,
    NotNormalizerPreserving,
    RadicalAdditionMismatch,
    RadScalar,
    as_scalar,
    check_normalizer_preserving,
    coefficient_supports_disjoint,
    identity_embedding,
    is_normalizer,
    is_r_normalizer,
    is_s_normalizer,
    matrix_is_r_normalizer,
    orthogonal_sum,
)

from _support import (
    COEFF_POOL,
    check_square_in_subalgebra,
    indicator_matrix_entrywise,
    indicator_r_normalizer,
    is_r_normalizer_by_support,
    matrix_product_reduction,
    matrix_row_supports,
    point_product,
    quotient_system,
    random_disjoint_support_element,
    random_element,
    random_free_system,
    random_func,
    random_matrix,
)

# sqrt(2), sqrt(3) and sqrt(6) terms: sums of unlike radicands are not exact
RADICAL_POOL = COEFF_POOL + [
    RadScalar(1, 0, 2),
    RadScalar(0, 1, 3),
    RadScalar(Fraction(1, 2), 0, 2),
    RadScalar(1, 1, 3),
    RadScalar(-1, 0, 6),
]
# float values around the 1e-9 zero tolerance, alone and in products,
# and one exact value mixed in
FLOAT_POOL = [
    FloatScalar(1),
    FloatScalar(-1),
    FloatScalar(0.5j),
    FloatScalar(4e-5),
    FloatScalar(3e-5),
    FloatScalar(6e-10),
    RadScalar(1),
]


def chi(sys, pts):
    return Func.indicator(sys, pts)


def mono(sys, pts, g):
    return CrossedElement.monomial(chi(sys, pts), g)


def outcome(fn, *args):
    """The verdict, or the type of the toolkit error raised."""
    try:
        return fn(*args)
    except DynalgError as exc:
        return type(exc)


def pooled_element(rng, sys, pool, density=0.5):
    """An element with coefficients drawn from ``pool`` (no sums needed)."""
    coeffs = [
        random_func(rng, sys, density, pool) if rng.random() < 0.6 else Func.zero(sys)
        for _ in range(sys.group.order)
    ]
    return CrossedElement(sys, coeffs)


REAL_RADICALS = [RadScalar(1), RadScalar(-1), RadScalar(Fraction(1, 2)), RadScalar(1, 0, 2), RadScalar(1, 0, 3)]


def matrix_entry(rng, sys, pool):
    """Zero, a monomial, a random element or, on a non-free system, p u_e +
    i q u_g at a point fixed by an involution g: an r-normalizer with two
    coefficients there, whose cross terms with other entries can collide."""
    r = rng.random()
    if r < 0.2:
        return CrossedElement.zero(sys)
    if r < 0.5:
        return CrossedElement.monomial(random_func(rng, sys, 0.5, pool), rng.randrange(sys.group.order))
    grp = sys.group
    fixed = [
        (x, g)
        for g in range(grp.order)
        if g != grp.identity and grp.mul(g, g) == grp.identity
        for x in range(sys.n_points)
        if sys.act[g][x] == x
    ]
    if r < 0.7 or not fixed:
        return pooled_element(rng, sys, pool, 0.4)
    x, g = rng.choice(fixed)
    p, q = rng.choice(REAL_RADICALS), rng.choice(REAL_RADICALS)
    return CrossedElement.monomial(Func.from_dict(sys, {x: p}), grp.identity) + \
        CrossedElement.monomial(Func.from_dict(sys, {x: RadScalar(0, 1) * q}), g)


def one_point_system():
    """Z/4 acting trivially on one point: every term of a coefficient of
    b* chi c lands on the same point."""
    return DynSystem(FiniteGroup.cyclic(4), ("p",), ((0,),) * 4)


def oracle_systems(rng, fixed_point_system, count):
    systems = [random_free_system(rng, max_points=6) for _ in range(count)]
    return systems + [fixed_point_system, quotient_system()] * (count // 4)


# -- two-sided predicate -----------------------------------------------------


def test_unitaries_and_unit_are_normalizers(z3):
    assert is_normalizer(CrossedElement.unitary(z3, 1))
    assert is_normalizer(CrossedElement.unit(z3))


def test_overlapping_supports_not_normalizer(z3):
    a = mono(z3, {0}, 0) + mono(z3, {0}, 1)
    assert not is_normalizer(a)
    assert not is_r_normalizer(a)


def test_cx_elements_are_both_one_sided(z3):
    f = CrossedElement.from_func(Func.from_dict(z3, {0: RadScalar(1, 1), 2: RadScalar(3)}))
    assert is_r_normalizer(f) and is_s_normalizer(f)


def test_disjoint_supports_r_normalizer(z2):
    a = mono(z2, {0}, 0) + mono(z2, {1}, 1)
    assert is_r_normalizer(a)
    assert is_r_normalizer_by_support(a)


def test_nondegenerate_square_example(z3, double_swap):
    assert check_square_in_subalgebra(CrossedElement.unitary(z3, 1))
    # an element with a*a outside C(X) on a two-orbit system
    a = mono(double_swap, {0}, 0) + mono(double_swap, {0}, 1)
    assert not check_square_in_subalgebra(a)
    assert not is_r_normalizer(a)


def test_r_normalizer_matches_indicator_oracle(fixed_point_system):
    """Closed form against crossed products: same verdicts, same errors."""
    rng = random.Random(25)
    seen = set()
    for sys in oracle_systems(rng, fixed_point_system, 24):
        for pool in (COEFF_POOL, RADICAL_POOL, FLOAT_POOL):
            for _ in range(8):
                a = pooled_element(rng, sys, pool)
                expected = outcome(indicator_r_normalizer, a)
                assert outcome(is_r_normalizer, a) == expected
                assert outcome(is_s_normalizer, a) == outcome(
                    indicator_r_normalizer, a.adjoint()
                )
                seen.add(expected)
    assert seen == {True, False, RadicalAdditionMismatch}


def test_r_normalizer_one_point_sums_match_oracle():
    """All four terms of a coefficient share one key, so exact sums cancel
    or meet unlike radicands there.  In floats, a partial sum that cancels
    to below the tolerance is dropped by the product (Func addition
    returns the next term), so u_0 + u_1 - u_2 + (1 - 6e-10) u_3 is an
    r-normalizer."""
    sys = one_point_system()
    exact = [RadScalar(1), RadScalar(-1), RadScalar(1, 0, 2), RadScalar(-1, 0, 2), RadScalar(1, 0, 3)]
    floats = [FloatScalar(v) for v in (1.0, -1.0, 1 - 6e-10, -1 + 6e-10)]
    seen = set()
    for values in (exact, floats):
        for cs in itertools.product(values, repeat=4):
            a = CrossedElement(sys, [Func(sys, (c,)) for c in cs])
            expected = outcome(indicator_r_normalizer, a)
            assert outcome(is_r_normalizer, a) == expected
            seen.add(expected)
    assert seen == {True, False, RadicalAdditionMismatch}


def test_point_product_matches_crossed_products(fixed_point_system):
    """The shared helper against b* chi_x c by crossed products, b != c.

    With three or more terms on one key the summation order decides
    whether unlike radicands meet.  Random pairs rarely show it, so two
    one-point cases pin it: in the product's order the first gives False
    and the second raises, and in the reverse order it is the other way
    round."""
    from dynalg.normalizers import _point_product_vanishes

    one_point = one_point_system()

    def element(*values):
        return CrossedElement(one_point, [Func(one_point, (as_scalar(v),)) for v in values])

    def by_products(b, c, x, diagonal_allowed):
        product = point_product(b, c, x)
        return product.in_diagonal if diagonal_allowed else product.is_zero

    r2, r3, i = RadScalar(1, 0, 2), RadScalar(1, 0, 3), RadScalar(0, 1)
    pinned = [
        (element(r3, -1, i * r2, 0), element(r3, 0, i * r2, 1), False),
        (element(0, 1, -1, r2), element(i, i, i, i), RadicalAdditionMismatch),
    ]
    for b, c, expected in pinned:
        for diagonal_allowed in (False, True):
            assert outcome(by_products, b, c, 0, diagonal_allowed) == expected
            assert outcome(_point_product_vanishes, b, c, 0, diagonal_allowed) == expected
    rng = random.Random(27)
    pool = RADICAL_POOL + [RadScalar(0, 1, 2)]
    for sys in (one_point, fixed_point_system, quotient_system()):
        for _ in range(800):
            b = pooled_element(rng, sys, pool, 0.8)
            c = pooled_element(rng, sys, pool, 0.8)
            x = rng.randrange(sys.n_points)
            for diagonal_allowed in (False, True):
                assert outcome(_point_product_vanishes, b, c, x, diagonal_allowed) == \
                    outcome(by_products, b, c, x, diagonal_allowed)


def test_predicates_visit_only_points_that_carry_a_coefficient(monkeypatch, z4):
    """On float or non-free input is_r_normalizer evaluates the sums at
    each point where a coefficient stores a value, once, in ascending
    order, and a row pair of a matrix at the points where both entries
    store one.  On free exact input the support route visits no point."""
    import dynalg.normalizers as normalizers

    visited = []
    test = normalizers._point_product_vanishes

    def recorded(b, c, x, diagonal_allowed):
        visited.append((x, diagonal_allowed))
        return test(b, c, x, diagonal_allowed)

    def as_float(a):
        return CrossedElement(a.system, [
            Func.from_dict(a.system, {x: FloatScalar(complex(v)) for x, v in c.sparse.items()})
            for c in a.coeffs
        ])

    monkeypatch.setattr(normalizers, "_point_product_vanishes", recorded)
    rng = random.Random(28)
    for _ in range(40):
        a = random_disjoint_support_element(rng, random_free_system(rng, max_points=8))
        visited.clear()
        assert is_r_normalizer(a)
        assert visited == []
        for b in (as_float(a), random_disjoint_support_element(rng, quotient_system())):
            stored = sorted({x for c in b.coeffs for x in c.sparse})
            visited.clear()
            assert is_r_normalizer(b)
            assert visited == [(x, True) for x in stored]

    left = CrossedElement.monomial(chi(z4, {0, 2}), 1)
    right = CrossedElement.monomial(chi(z4, {2, 3}), 3)
    visited.clear()
    assert not matrix_is_r_normalizer(MatrixElement(z4, [[left, right], [left, right]]))
    assert visited == []
    left, right = as_float(left), as_float(right)
    assert not matrix_is_r_normalizer(MatrixElement(z4, [[left, right], [left, right]]))
    assert [x for x, diagonal_allowed in visited if not diagonal_allowed] == [2]


def test_support_route_matches_the_sum_route(monkeypatch):
    """On free exact input the support route gives the verdicts of the
    sums, for elements, their adjoints and the row pairs of matrices."""
    import dynalg.normalizers as normalizers

    rng = random.Random(29)
    elements, matrices = [], []
    for _ in range(120):
        sys = random_free_system(rng)
        pool = rng.choice((COEFF_POOL, RADICAL_POOL))
        a = rng.choice((
            pooled_element(rng, sys, pool),
            random_element(rng, sys),
            random_disjoint_support_element(rng, sys),
        ))
        elements += [a, a.adjoint()]
        n = rng.randint(1, 3)
        matrices.append(MatrixElement(sys, [
            [
                random_disjoint_support_element(rng, sys, max_terms=1)
                if rng.random() < 0.6 else CrossedElement.zero(sys)
                for _ in range(n)
            ]
            for _ in range(n)
        ]))

    def verdicts():
        return (
            [(outcome(is_r_normalizer, a), outcome(is_s_normalizer, a)) for a in elements],
            [outcome(matrix_is_r_normalizer, m) for m in matrices],
        )

    by_supports = verdicts()
    monkeypatch.setattr(normalizers, "_exact_on_free", lambda *elements: False)
    assert verdicts() == by_supports
    pairs, rows = by_supports
    assert {r for r, _ in pairs} == {s for _, s in pairs} == set(rows) == {True, False}


def test_matrix_entrywise_matches_indicator_oracle(fixed_point_system):
    rng = random.Random(26)
    seen = set()
    for sys in oracle_systems(rng, fixed_point_system, 12):
        for pool in (COEFF_POOL, RADICAL_POOL, FLOAT_POOL):
            for _ in range(4):
                n = rng.randint(1, 3)
                m = MatrixElement(sys, [
                    [matrix_entry(rng, sys, pool) for _ in range(n)] for _ in range(n)
                ])
                expected = outcome(indicator_matrix_entrywise, m)
                assert outcome(matrix_is_r_normalizer, m) == expected
                seen.add(expected)
    assert seen == {True, False, RadicalAdditionMismatch}


# -- support characterization -------------------------------------------------


def test_single_coefficient_always_r(z4):
    a = mono(z4, {0, 2}, 3)
    assert is_r_normalizer_by_support(a) and is_r_normalizer(a)


def test_support_criterion_requires_free(fixed_point_system):
    with pytest.raises(NotFree):
        is_r_normalizer_by_support(CrossedElement.unit(fixed_point_system))


def test_support_equivalence_randomized():
    rng = random.Random(20)
    for _ in range(150):
        sys = random_free_system(rng)
        a = random_element(rng, sys) if rng.random() < 0.5 else random_disjoint_support_element(rng, sys)
        assert is_r_normalizer(a) == is_r_normalizer_by_support(a)


def test_nonfree_sensitivity_fixed_point():
    """On a system with a fixed point the two criteria can disagree.

    With the trivial Z/2 action on one point, 1 + i u has overlapping
    coefficient supports, yet a*a = 2 lies in C(X) and the algebraic
    predicate accepts it (the cross terms cancel).
    """
    from dynalg import DynSystem, FiniteGroup

    grp = FiniteGroup.cyclic(2)
    sys = DynSystem(grp, ("0",), ((0,), (0,)))
    a = CrossedElement.monomial(Func.from_dict(sys, {0: RadScalar(1)}), 0) + \
        CrossedElement.monomial(Func.from_dict(sys, {0: RadScalar(0, 1)}), 1)
    assert not coefficient_supports_disjoint(a)
    assert is_r_normalizer(a)


def test_adjoint_swaps_r_and_s():
    rng = random.Random(21)
    for _ in range(60):
        sys = random_free_system(rng)
        a = random_element(rng, sys)
        assert is_r_normalizer(a) == is_s_normalizer(a.adjoint())
        assert is_normalizer(a) == (is_r_normalizer(a) and is_s_normalizer(a))


def test_products_of_r_normalizers():
    rng = random.Random(22)
    count = 0
    while count < 40:
        sys = random_free_system(rng)
        a = random_disjoint_support_element(rng, sys)
        b = random_disjoint_support_element(rng, sys)
        if not (is_r_normalizer(a) and is_r_normalizer(b)):
            continue
        count += 1
        assert is_r_normalizer(a * b)


def test_normalizer_squares_in_cx():
    rng = random.Random(23)
    count = 0
    while count < 40:
        sys = random_free_system(rng)
        a = random_disjoint_support_element(rng, sys)
        if not is_normalizer(a):
            continue
        count += 1
        assert check_square_in_subalgebra(a)


# -- matrix criteria -----------------------------------------------------------


def test_diagonal_cx_matrix_is_r(z2):
    m = MatrixElement.diag(z2, (chi(z2, {0}), chi(z2, {0, 1})))
    assert matrix_is_r_normalizer(m)
    assert matrix_row_supports(m)
    assert matrix_product_reduction(m)


def test_row_overlap_fails(z2):
    a = mono(z2, {0}, 0)
    z = CrossedElement.zero(z2)
    m = MatrixElement(z2, ((a, a), (z, z)))
    assert not matrix_is_r_normalizer(m)
    assert not matrix_row_supports(m)
    assert not matrix_product_reduction(m)


def test_row_disjoint_passes(z2):
    z = CrossedElement.zero(z2)
    m = MatrixElement(z2, ((mono(z2, {0}, 0), mono(z2, {1}, 0)), (z, z)))
    assert matrix_is_r_normalizer(m)
    assert matrix_row_supports(m)
    assert matrix_product_reduction(m)


def test_matrix_criteria_agree_randomized():
    rng = random.Random(24)
    from dynalg import product_with_cyclic

    for _ in range(60):
        sys = random_free_system(rng, max_points=6, max_group=3)
        n = rng.randint(1, 3)
        prod = product_with_cyclic(sys, n)
        m = random_matrix(rng, sys, n)
        e = matrix_is_r_normalizer(m)
        s = matrix_row_supports(m)
        p = matrix_product_reduction(m, prod)
        assert e == s == p


# -- orthogonal sums -------------------------------------------------------------


def test_orthogonal_sum_singleton(z2):
    a = mono(z2, {0}, 1)
    out = orthogonal_sum([a])
    assert out.element == a and out.r_certified and out.s_certified


def test_orthogonal_sum_example(z2, z4):
    # on Z/2, chi_0 u_e and chi_1 u_s satisfy only the first hypothesis:
    # the sum conjugates D into D from the right but is not a normalizer
    xs = [mono(z2, {0}, 0), mono(z2, {1}, 1)]
    out = orthogonal_sum(xs, require_r=True, require_s=False)
    assert is_r_normalizer(out.element)
    assert not is_normalizer(out.element)
    with pytest.raises(HypothesisViolated):
        orthogonal_sum(xs)
    # on Z/4, chi_0 u_e and chi_2 u_1 satisfy both, and the sum normalizes
    ys = [mono(z4, {0}, 0), mono(z4, {2}, 1)]
    out = orthogonal_sum(ys)
    assert is_normalizer(out.element)


def test_orthogonal_sum_violation(z2):
    xs = [mono(z2, {0}, 0), mono(z2, {0}, 1)]
    with pytest.raises(HypothesisViolated, match="x_0"):
        orthogonal_sum(xs)


def test_orthogonal_sum_one_sided(z4):
    # u_g chi_0 and u_h chi_0 with g != h: x_i* x_j = 0 but x_i x_j* != 0
    x1 = CrossedElement.unitary(z4, 1) * CrossedElement.from_func(chi(z4, {0}))
    x2 = CrossedElement.unitary(z4, 2) * CrossedElement.from_func(chi(z4, {0}))
    out = orthogonal_sum([x1, x2], require_r=True, require_s=False)
    assert is_r_normalizer(out.element)
    with pytest.raises(HypothesisViolated):
        orthogonal_sum([x1, x2], require_r=True, require_s=True)


# -- normalizer-preserving maps ---------------------------------------------------


def test_zero_map_preserves(z2):
    z = CrossedElement.zero(z2)
    images = {(i, j): z for i in range(2) for j in range(2)}
    assert check_normalizer_preserving(images, 2)


def test_identity_embedding_preserves(z3):
    phi = identity_embedding(z3)
    assert check_normalizer_preserving(phi.images, phi.n)


def test_diagonal_image_outside_cx_raises(z3):
    # a unitary is a normalizer, but an exactly positive map cannot send e_00
    # to it; the typed input error survives python -O, unlike an assert
    with pytest.raises(NotNormalizerPreserving) as exc:
        check_normalizer_preserving({(0, 0): CrossedElement.unitary(z3, 1)}, 1)
    assert str(exc.value) == "the image of (0, 0) is a normalizer outside C(X)"


def test_flat_map_fails(z3):
    f = CrossedElement.from_func(chi(z3, {0})).scaled(RadScalar(1)) + \
        CrossedElement.monomial(chi(z3, {0}), 1)
    images = {(i, j): f.scaled(RadScalar(1, 0, 1) * RadScalar(1) / 3) for i in range(3) for j in range(3)}
    assert not check_normalizer_preserving(images, 3)
