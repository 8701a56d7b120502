import random
from fractions import Fraction

import numpy as np
import pytest

from dynalg import (
    CrossedElement,
    DiagTuple,
    DynSystem,
    FiniteGroup,
    FloatScalar,
    Func,
    IndexOutOfRange,
    MatrixElement,
    NotFree,
    NotPositive,
    RadScalar,
    SystemMismatch,
    cond_expectation,
    open_support,
    operator_norm,
    orbit_block_decomposition,
    point_block,
)

from _support import (
    DenseFunc,
    dense_crossed_product,
    dense_regular_rep,
    fraction_exact_rank,
    quotient_system,
    random_element,
    random_free_system,
    random_matrix,
    to_product_element,
)


def chi(sys, pts):
    return Func.indicator(sys, pts)


# -- multiplication and adjoint ------------------------------------------


def test_unitary_times_inverse_is_unit(z3):
    g, ginv = 1, z3.group.inv(1)
    prod = CrossedElement.unitary(z3, g) * CrossedElement.unitary(z3, ginv)
    assert prod == CrossedElement.unit(z3)


def test_indicator_idempotent(z3):
    p = CrossedElement.from_func(chi(z3, {0}))
    assert p * p == p


def test_covariance_convention(z3):
    # u_g chi_{0} u_g^* = chi_{1} for the +1 translation
    ug = CrossedElement.unitary(z3, 1)
    conj = ug * CrossedElement.from_func(chi(z3, {0})) * ug.adjoint()
    assert conj == CrossedElement.from_func(chi(z3, {1}))


def test_adjoint_examples(z3):
    assert CrossedElement.unitary(z3, 1).adjoint() == CrossedElement.unitary(z3, 2)
    f = Func.from_dict(z3, {0: RadScalar(0, 1)})
    assert CrossedElement.from_func(f).adjoint() == CrossedElement.from_func(f.conj())


def test_adjoint_fixed_by_positivity(z3):
    # a = chi_{0} u_{+1}: a*a must be a positive element of C(X)
    a = CrossedElement.monomial(chi(z3, {0}), 1)
    aa = a.adjoint() * a
    assert aa.in_diagonal
    f = aa.as_func()
    assert f.is_positive and not f.is_zero
    assert f == chi(z3, {2})


def test_points_out_of_range_raise(z3):
    """Func names the least point outside range(n_points), as
    search_subequivalence and check_witness do: a negative index does not
    count from the end, and no point is dropped."""
    f = Func.from_dict(z3, {0: RadScalar(1)})
    cases = [
        (lambda: Func.indicator(z3, [5]), 5),
        (lambda: Func.indicator(z3, [4, 0, -2, 7]), -2),
        (lambda: DiagTuple.indicators(z3, [{1}, {5}]), 5),
        (lambda: Func.from_dict(z3, {-1: 1}), -1),
        (lambda: Func.from_dict(z3, {3: 1, 0: 1}), 3),
        (lambda: f(-1), -1),
        (lambda: f(3), 3),
    ]
    for call, x in cases:
        with pytest.raises(IndexOutOfRange, match=r"^point index %d out of range$" % x):
            call()
    assert f(0) == RadScalar(1) and f(2) == RadScalar(0)


def test_system_mismatch_raises(z2, z3):
    with pytest.raises(SystemMismatch):
        CrossedElement.unit(z2) * CrossedElement.unit(z3)


def test_ring_axioms_randomized():
    rng = random.Random(0)
    for _ in range(40):
        sys = random_free_system(rng, max_points=6)
        a = random_element(rng, sys)
        b = random_element(rng, sys)
        c = random_element(rng, sys)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()
        assert a.adjoint().adjoint() == a


# -- sparse functions against the dense oracle ------------------------------

EXACT_VALUES = [
    RadScalar(1),
    RadScalar(-1),
    RadScalar(0, 1),
    RadScalar(Fraction(1, 2)),
    RadScalar(Fraction(1, 2), Fraction(1, 2)),
    RadScalar(2),
]
VALUE_POOLS = {
    "exact": EXACT_VALUES,
    "radical": EXACT_VALUES + [
        RadScalar(1, 0, 2),
        RadScalar(Fraction(1, 2), 0, 2),
        RadScalar(0, 1, 3),
        RadScalar(1, 0, 3),
    ],
    # mixes exact values into the float lane; the tiny values and the
    # signed zeros are where skipping a point would show
    "float": [
        FloatScalar(0.5),
        FloatScalar(complex(-1.25, 0.75)),
        FloatScalar(1e-10),
        FloatScalar(-1e-9),
        FloatScalar(0.0),
        FloatScalar(-0.0),
        FloatScalar(complex(-0.0, -0.0)),
        FloatScalar(complex(0.25, -0.0)),
        RadScalar(1),
        RadScalar(Fraction(1, 2), 0, 2),
    ],
    # real and nonnegative, for sqrt and cutdown
    "positive": [
        RadScalar(Fraction(1, 4)),
        RadScalar(1),
        RadScalar(2),
        RadScalar(1, 0, 2),
        FloatScalar(0.25),
        FloatScalar(2.0),
        FloatScalar(1e-10),
        FloatScalar(-0.0),
    ],
}

FUNC_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "eq": lambda a, b: a == b,
}

FUNC_UNARY = {
    "neg": lambda a, p: -a,
    "conj": lambda a, p: a.conj(),
    "compose_action": lambda a, p: a.compose_action(p["g"]),
    "restrict": lambda a, p: a.restrict(p["points"]),
    "scaled": lambda a, p: a.scaled(p["scalar"]),
    "cutdown": lambda a, p: a.cutdown(p["eps"]),
    "sqrt": lambda a, p: a.sqrt(),
    "support": lambda a, p: a.support,
    "is_positive": lambda a, p: a.is_positive,
    "is_zero": lambda a, p: a.is_zero,
    # moved copies that equal the original, or differ by float zeros only
    "eq_moved_back": lambda a, p: a.compose_action(p["g"]).compose_action(p["g_inv"]) == a,
    "eq_support_only": lambda a, p: a.restrict(a.support) == a,
    "eq_difference_zero": lambda a, p: (a - a) == a.restrict(()),
    "add_after_move": lambda a, p: a.compose_action(p["g"]) + a,
    "sub_after_move": lambda a, p: a - a.compose_action(p["g"]),
}


def _described(value):
    if isinstance(value, (Func, DenseFunc)):
        if isinstance(value, Func):
            # the sparse invariant: exact zeros are never stored
            assert not any(
                type(v) is RadScalar and v.is_zero for v in value.sparse.values()
            )
        return tuple(repr(v) for v in value.values)
    return value


def _outcome(op, *args):
    try:
        return ("ok", _described(op(*args)))
    except Exception as exc:  # the oracle must raise the same exception
        return ("raised", type(exc).__name__, str(exc))


@pytest.mark.parametrize("pool", sorted(VALUE_POOLS))
def test_func_matches_dense_oracle(fixed_point_system, pool):
    """Every Func operation gives the dense oracle's values, bit for bit in
    the float lane (compared by repr), and raises its exceptions."""
    rng = random.Random("func-oracle-" + pool)
    values = VALUE_POOLS[pool]
    zero = RadScalar(0)
    systems = [fixed_point_system, quotient_system()]
    systems += [random_free_system(rng) for _ in range(4)]
    seen = set()
    for sys in systems:
        for _ in range(40):
            pair = []
            for _ in range(2):
                density = rng.choice([0.0, 0.3, 0.7, 1.0])
                vals = [
                    rng.choice(values) if rng.random() < density else zero
                    for _ in range(sys.n_points)
                ]
                pair.append((Func(sys, vals), DenseFunc(sys, vals)))
            (f, fd), (g, gd) = pair
            assert Func.from_dict(sys, dict(enumerate(fd.values))) == f
            h = rng.randrange(sys.group.order)
            params = {
                "g": h,
                "g_inv": sys.group.inv(h),
                "points": {x for x in range(sys.n_points) if rng.random() < 0.5},
                "scalar": rng.choice(values + [zero]),
                "eps": rng.choice([0, Fraction(1, 2), 1, 3]),
            }
            for name, op in FUNC_BINARY.items():
                got, want = _outcome(op, f, g), _outcome(op, fd, gd)
                assert got == want, (name, sys, fd.values, gd.values)
                seen.add(got[:2])
            for name, op in FUNC_UNARY.items():
                got, want = _outcome(op, f, params), _outcome(op, fd, params)
                assert got == want, (name, sys, fd.values, params)
                seen.add(got[:2])
            assert f.values == fd.values
    assert ("ok", True) in seen and ("ok", False) in seen
    if pool in ("radical", "positive"):
        assert ("raised", "RadicalAdditionMismatch") in seen
    if pool == "positive":
        assert ("raised", "ExactnessError") in seen


def test_func_errors_come_from_the_least_point():
    """Past eight points, dict and small-set orders part from point order;
    a mismatch or a missing square root is still reported for the least
    point, as a pass in point order meets it."""
    sys = DynSystem.translation(FiniteGroup.cyclic(9))
    r2, r3, r5, r7 = (RadScalar(1, 0, k) for k in (2, 3, 5, 7))
    f = Func.from_dict(sys, {8: r3, 0: r2, 1: r5})
    g = Func.from_dict(sys, {8: r7, 1: r2, 0: r5})
    fd, gd = DenseFunc(sys, f.values), DenseFunc(sys, g.values)
    for name, op in FUNC_BINARY.items():
        assert _outcome(op, f, g) == _outcome(op, fd, gd), name
        assert _outcome(op, g, f) == _outcome(op, gd, fd), name
    for op in (lambda a: a.sqrt(), lambda a: a.cutdown(Fraction(1, 2))):
        assert _outcome(op, f)[0] == "raised"
        assert _outcome(op, f) == _outcome(op, fd)
        assert _outcome(op, g) == _outcome(op, gd)


def _pool_element(rng, sys, values):
    coeffs = []
    for _ in range(sys.group.order):
        density = rng.choice([0.0, 0.0, 0.3, 0.7])
        coeffs.append(Func(sys, [
            rng.choice(values) if rng.random() < density else RadScalar(0)
            for _ in range(sys.n_points)
        ]))
    return CrossedElement(sys, coeffs)


def _reprs(coeff_values):
    return tuple(tuple(repr(v) for v in c) for c in coeff_values)


@pytest.mark.parametrize("pool", ["radical", "float"])
def test_crossed_product_matches_dense_oracle(fixed_point_system, pool):
    """The product reads coefficients pointwise; its values must be the
    dense oracle's, bit for bit in the float lane, with the same errors."""
    rng = random.Random("product-oracle-" + pool)
    values = VALUE_POOLS[pool]
    systems = [fixed_point_system, quotient_system()]
    systems += [random_free_system(rng) for _ in range(3)]
    seen = set()
    for sys in systems:
        for _ in range(30):
            a, b = _pool_element(rng, sys, values), _pool_element(rng, sys, values)
            got = _outcome(lambda: _reprs(c.values for c in (a * b).coeffs))
            want = _outcome(lambda: _reprs(dense_crossed_product(a, b)))
            assert got == want
            seen.add(got[0])
    assert "ok" in seen
    if pool == "radical":
        assert "raised" in seen


# -- conditional expectation ----------------------------------------------


def test_expectation_examples(z3):
    assert cond_expectation(CrossedElement.unitary(z3, 1)).is_zero
    f = chi(z3, {0, 1})
    assert cond_expectation(CrossedElement.from_func(f)) == f
    a = CrossedElement.monomial(chi(z3, {0}), 1)
    e = cond_expectation(a.adjoint() * a)
    assert e.is_positive and not e.is_zero


def test_expectation_bimodule_property():
    rng = random.Random(1)
    for _ in range(25):
        sys = random_free_system(rng, max_points=6)
        a = random_element(rng, sys)
        f = CrossedElement.from_func(
            Func.from_dict(sys, {x: RadScalar(1, 1) for x in range(0, sys.n_points, 2)})
        )
        lhs = cond_expectation(f * a * f)
        rhs = f.as_func() * cond_expectation(a) * f.as_func()
        assert lhs == rhs


def test_expectation_faithful():
    rng = random.Random(2)
    for _ in range(40):
        sys = random_free_system(rng, max_points=6)
        a = random_element(rng, sys)
        e = cond_expectation(a.adjoint() * a)
        assert e.is_zero == a.is_zero


# -- supports and cutdowns --------------------------------------------------


def test_open_support_examples(z3):
    assert open_support(chi(z3, {0, 1})) == frozenset({0, 1})
    assert open_support(Func.zero(z3)) == frozenset()
    assert open_support(chi(z3, {0}).cutdown(1)) == frozenset()


def test_cutdown_examples(z3):
    f = chi(z3, {0})
    assert f.cutdown(Fraction(1, 2)) == Func.from_dict(z3, {0: RadScalar(Fraction(1, 2))})
    assert f.cutdown(0) == f
    g = Func.from_dict(z3, {0: RadScalar(1), 1: RadScalar(Fraction(1, 3))})
    assert g.cutdown(Fraction(1, 2)) == Func.from_dict(z3, {0: RadScalar(Fraction(1, 2))})


def test_cutdown_requires_positive(z3):
    f = Func.from_dict(z3, {0: RadScalar(-1)})
    with pytest.raises(NotPositive):
        f.cutdown(Fraction(1, 2))


def test_cutdown_on_diag_tuple(z3):
    a = DiagTuple.indicators(z3, [{0}, {1, 2}])
    cut = a.cutdown(Fraction(1, 2))
    assert all(f.values[x] == RadScalar(Fraction(1, 2)) for f in cut.entries for x in f.support)


def test_support_product_containment():
    rng = random.Random(3)
    for _ in range(30):
        sys = random_free_system(rng, max_points=6)
        f = random_element(rng, sys, max_terms=1).cond_expectation()
        g = random_element(rng, sys, max_terms=1).cond_expectation()
        assert open_support(f * g) <= (open_support(f) & open_support(g))


# -- representation ----------------------------------------------------------


def test_rep_of_unit_is_identity(z3):
    assert np.allclose(dense_regular_rep(CrossedElement.unit(z3)), np.eye(9))


def test_rep_of_unitary_is_permutation(z4):
    mat = dense_regular_rep(CrossedElement.unitary(z4, 1))
    assert np.allclose(mat @ mat.conj().T, np.eye(16))
    assert set(np.abs(mat).ravel()) <= {0.0, 1.0}


def test_rep_is_homomorphism():
    rng = random.Random(4)
    for _ in range(25):
        sys = random_free_system(rng, max_points=6)
        a = random_element(rng, sys)
        b = random_element(rng, sys)
        rep_a, rep_b = dense_regular_rep(a), dense_regular_rep(b)
        assert np.allclose(dense_regular_rep(a * b), rep_a @ rep_b, atol=1e-9)
        assert np.allclose(dense_regular_rep(a.adjoint()), rep_a.conj().T, atol=1e-9)


def test_rep_injective():
    rng = random.Random(5)
    for _ in range(25):
        sys = random_free_system(rng, max_points=6)
        a = random_element(rng, sys)
        if not a.is_zero:
            assert np.abs(dense_regular_rep(a)).max() > 1e-12


def test_rep_is_sum_of_equivalent_point_blocks(fixed_point_system):
    """The entry-by-entry oracle is the direct sum of the point blocks, and
    for x' = s.x the block at x' is the block at x conjugated by
    delta_h -> delta_{hs}."""
    rng = random.Random(6)
    systems = [random_free_system(rng, max_points=6) for _ in range(15)]
    systems += [fixed_point_system, quotient_system()] * 3
    for sys in systems:
        grp = sys.group
        a = random_element(rng, sys)
        dense = dense_regular_rep(a)
        nx = sys.n_points
        for x in range(nx):
            assert np.array_equal(dense[x::nx, x::nx], point_block(a, x))
        x = rng.randrange(sys.n_points)
        s = rng.randrange(grp.order)
        perm = [grp.mul(h, s) for h in range(grp.order)]
        block = point_block(a, x)
        assert np.array_equal(point_block(a, sys.act[s][x]), block[np.ix_(perm, perm)])


# -- operator norm -----------------------------------------------------------


def test_norm_examples(z2, z3):
    assert operator_norm(CrossedElement.unit(z3)) == pytest.approx(1, abs=1e-9)
    assert operator_norm(CrossedElement.unitary(z3, 1)) == pytest.approx(1, abs=1e-9)
    a = CrossedElement.monomial(chi(z2, {0}), 0) + CrossedElement.monomial(chi(z2, {0}), 1)
    assert operator_norm(a) == pytest.approx(2 ** 0.5, abs=1e-9)


def test_norm_zero_exact(z3, monkeypatch):
    # an exact zero is 0.0 without a float computation
    monkeypatch.setattr(np.linalg, "norm", None)
    assert operator_norm(CrossedElement.zero(z3)) == 0.0


def test_norm_contractivity_of_expectation():
    rng = random.Random(6)
    for _ in range(20):
        sys = random_free_system(rng, max_points=6)
        a = random_element(rng, sys)
        e = CrossedElement.from_func(cond_expectation(a))
        assert operator_norm(e) <= operator_norm(a) + 1e-9


# -- orbit blocks -------------------------------------------------------------


def test_blocks_z3(z3):
    blocks = orbit_block_decomposition(CrossedElement.unitary(z3, 1))
    assert len(blocks) == 1
    mat = blocks[0].to_complex()
    assert mat.shape == (3, 3)
    # cyclic permutation matrix
    assert np.allclose(mat @ mat @ mat, np.eye(3))
    assert np.allclose(mat.sum(axis=0), np.ones(3))


def test_blocks_double_swap(double_swap):
    blocks = orbit_block_decomposition(CrossedElement.unit(double_swap))
    assert len(blocks) == 2
    for b in blocks:
        assert np.allclose(b.to_complex(), np.eye(2))


def test_blocks_require_free(fixed_point_system):
    with pytest.raises(NotFree):
        orbit_block_decomposition(CrossedElement.unit(fixed_point_system))


def test_blocks_multiplicative_and_faithful():
    rng = random.Random(7)
    for _ in range(25):
        sys = random_free_system(rng, max_points=8)
        a = random_element(rng, sys)
        b = random_element(rng, sys)
        ab_blocks = orbit_block_decomposition(a * b)
        for ba, bb, bab in zip(
            orbit_block_decomposition(a), orbit_block_decomposition(b), ab_blocks
        ):
            assert np.allclose(ba.to_complex() @ bb.to_complex(), bab.to_complex(), atol=1e-9)
        if a != b:
            assert any(
                not np.allclose(x.to_complex(), y.to_complex(), atol=1e-12)
                for x, y in zip(orbit_block_decomposition(a), orbit_block_decomposition(b))
            )


def test_block_rank_example(z3):
    a = CrossedElement.monomial(chi(z3, {0}), 1)
    blocks = orbit_block_decomposition(a.adjoint() * a)
    # a*a = chi_{2}; the block has |G| = 3 basis vectors scaled... rank by enumeration
    expected = sum(
        1 for x in range(3) if (a.adjoint() * a).cond_expectation().values[x] != RadScalar(0)
    )
    assert blocks[0].rank() == expected == 1


def test_block_rank_with_radical_entries(z2):
    """Entries with sqrt 2 take the singular-value branch: on Z/2,
    sqrt 2 (1 + u_1) has the block [[sqrt 2, sqrt 2], [sqrt 2, sqrt 2]]
    of rank 1, and sqrt 2 + u_1 has [[sqrt 2, 1], [1, sqrt 2]] of rank 2."""
    rt2 = Func.from_dict(z2, {0: RadScalar(1, 0, 2), 1: RadScalar(1, 0, 2)})
    rank_one = CrossedElement.from_func(rt2) + CrossedElement.monomial(rt2, 1)
    rank_two = CrossedElement.from_func(rt2) + CrossedElement.monomial(Func.one(z2), 1)
    for a, rank in ((rank_one, 1), (rank_two, 2)):
        (block,) = orbit_block_decomposition(a)
        assert not block.all_rational
        assert block.rank() == rank


def test_exact_rank_matches_fraction_oracle():
    """Rank on int triples equals the Fraction-pair elimination on random
    Gaussian-rational matrices, singular ones included: products of an
    n x k and a k x m factor have rank at most k, and zero rows and
    columns, repeated rows and the empty matrix occur too."""
    from dynalg.algebra import _exact_rank

    rng = random.Random(31)
    pool = [
        RadScalar(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        )
        for _ in range(12)
    ] + [RadScalar(0)] * 6 + [RadScalar(1), RadScalar(0, 1), RadScalar(Fraction(1, 2))]

    def random_matrix(n, m):
        return [[rng.choice(pool) for _ in range(m)] for _ in range(n)]

    def product(b, c):
        return [
            [sum((b[i][t] * c[t][j] for t in range(len(c))), RadScalar(0)) for j in range(len(c[0]))]
            for i in range(len(b))
        ]

    ranks = []
    for trial in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 3 == 0:
            k = rng.randint(1, 3)
            entries = product(random_matrix(n, k), random_matrix(k, m))
        else:
            entries = random_matrix(n, m)
        if trial % 5 == 0:
            entries.append(list(entries[0]))
        assert _exact_rank(entries) == fraction_exact_rank(entries)
        ranks.append((_exact_rank(entries), min(len(entries), m)))
    assert _exact_rank([]) == fraction_exact_rank([]) == 0
    assert any(r < full for r, full in ranks) and any(r == full for r, full in ranks)


def test_block_singular_values_match_rep():
    rng = random.Random(8)
    for _ in range(15):
        sys = random_free_system(rng, max_points=6)
        a = random_element(rng, sys)
        rep_sv = np.linalg.svd(dense_regular_rep(a), compute_uv=False)
        block_sv = []
        for block, orbit in zip(
            orbit_block_decomposition(a), sys.orbit_partition
        ):
            sv = np.linalg.svd(block.to_complex(), compute_uv=False)
            block_sv.extend(list(sv) * len(orbit))
        assert np.allclose(sorted(rep_sv), sorted(block_sv), atol=1e-8)


# -- matrix elements and the product identification ---------------------------


def test_matrix_ring_operations(z2):
    rng = random.Random(9)
    m = random_matrix(rng, z2, 2)
    n = random_matrix(rng, z2, 2)
    assert (m * n).adjoint() == n.adjoint() * m.adjoint()


def test_to_product_element_is_homomorphism():
    rng = random.Random(10)
    for _ in range(15):
        sys = random_free_system(rng, max_points=4, max_group=3)
        n = rng.randint(1, 3)
        prod = None
        x = random_matrix(rng, sys, n)
        y = random_matrix(rng, sys, n)
        prod, xe = to_product_element(x)
        _, ye = to_product_element(y, prod)
        _, xye = to_product_element(x * y, prod)
        _, xse = to_product_element(x.adjoint(), prod)
        assert xe * ye == xye
        assert xe.adjoint() == xse


def test_to_product_element_diagonal_lands_in_diagonal(z2):
    m = MatrixElement.diag(z2, (chi(z2, {0}), chi(z2, {1})))
    _, y = to_product_element(m)
    assert y.in_diagonal


def test_float_scalar_lane(z3):
    from dynalg import FloatScalar

    f = Func.from_dict(z3, {0: FloatScalar(2 ** 0.5), 1: RadScalar(1)})
    assert f.is_positive
    assert f.support == frozenset({0, 1})
    a = CrossedElement.monomial(f, 1)
    aa = a.adjoint() * a
    assert aa.in_diagonal
    assert operator_norm(a) == pytest.approx(2 ** 0.5, abs=1e-9)


def test_rep_rank_by_enumeration(z3):
    a = CrossedElement.monomial(chi(z3, {0}), 1)
    mat = dense_regular_rep(a.adjoint() * a)
    f = (a.adjoint() * a).cond_expectation()
    expected = sum(
        1
        for h in range(3)
        for x in range(3)
        if not f.values[z3.act[h][x]].is_zero
    )
    assert int(np.linalg.matrix_rank(mat, tol=1e-9)) == expected == 3


def test_cutdown_support_containment():
    rng = random.Random(12)
    for _ in range(30):
        sys = random_free_system(rng, max_points=6)
        vals = {
            x: RadScalar(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            for x in range(sys.n_points)
            if rng.random() < 0.6
        }
        f = Func.from_dict(sys, vals)
        eps = Fraction(rng.randint(1, 4), 4)
        assert open_support(f.cutdown(eps)) <= open_support(f)


def test_expectation_idempotent(z3):
    a = CrossedElement.monomial(chi(z3, {0}), 1) + CrossedElement.from_func(chi(z3, {1}))
    e = CrossedElement.from_func(cond_expectation(a))
    assert cond_expectation(e) == cond_expectation(a)


def test_radical_product_canonical_form():
    from dynalg import RadScalar as R

    # (q sqrt r)(q' sqrt r') = qq' sqrt(rr'), both sides canonicalized
    assert R(Fraction(2, 3), 0, 6) * R(Fraction(1, 2), 0, 10) == R(Fraction(1, 3), 0, 60)
    assert R(Fraction(1, 3), 0, 60) == R(Fraction(2, 3), 0, 15)
    assert R(1, 0, 2) * R(1, 0, 2) == R(2)
