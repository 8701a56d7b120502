"""The representation layer against the loop-per-concept oracles.

``point_block``, the Choi blocks of a matrix element (the float blocks
that ``operator_norm`` and ``verify_cpc`` read, one per orbit) and the
exact orbit blocks all read one block builder.  Each must agree with its
own independent loop in ``_support``: float matrices bit for bit
(compared as bytes, so the sign of a zero counts), exact orbit-block
entries in type and ``repr``.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from dynalg import (
    CrossedElement,
    FloatScalar,
    Func,
    MatrixElement,
    NotFree,
    RadScalar,
    orbit_block_decomposition,
    point_block,
)
from dynalg.algebra import (
    _orbit_point_blocks,
    _point_blocks,
    _positivity_failure,
    matrix_orbit_blocks,
)
from dynalg.castles import OrderZeroMap, verify_cpc

from _support import (
    COEFF_POOL,
    dense_regular_rep,
    dense_verify_cpc,
    loop_fibre_block,
    quotient_system,
    random_free_system,
    slice_choi_block,
    transporter_matrix_orbit_blocks,
    transporter_orbit_blocks,
)

POOLS = {
    "exact": COEFF_POOL,
    "radical": COEFF_POOL
    + [RadScalar(1, 0, 2), RadScalar(0, 1, 3), RadScalar(Fraction(1, 2), 0, 2)],
    # tiny values and signed zeros are stored, but count as zero in the
    # float matrices and as themselves in the exact blocks
    "float": [
        FloatScalar(0.5),
        FloatScalar(complex(-1.25, 0.75)),
        FloatScalar(complex(0.25, -0.0)),
        FloatScalar(1e-10),
        FloatScalar(-1e-9),
        FloatScalar(0.0),
        FloatScalar(-0.0),
        FloatScalar(complex(-0.0, -0.0)),
        RadScalar(1),
        RadScalar(Fraction(1, 2), 0, 2),
    ],
}


def random_element(rng, sys, pool):
    """Coefficients drawn directly from the pool, some of them zero."""
    coeffs = []
    for _ in range(sys.group.order):
        if rng.random() < 0.4:
            coeffs.append(Func.zero(sys))
        else:
            values = {x: rng.choice(pool) for x in range(sys.n_points) if rng.random() < 0.6}
            coeffs.append(Func.from_dict(sys, values))
    return CrossedElement(sys, coeffs)


def random_matrix(rng, sys, n, pool):
    """An n x n matrix whose entries are zero with probability 1/3."""
    zero = CrossedElement.zero(sys)
    return MatrixElement(
        sys,
        [
            [zero if rng.random() < 1 / 3 else random_element(rng, sys, pool) for _ in range(n)]
            for _ in range(n)
        ],
    )


def systems(rng, fixed_point_system, free_only=False):
    out = [random_free_system(rng, max_points=6) for _ in range(6)]
    if not free_only:
        out += [fixed_point_system, quotient_system()]
    return out


def assert_bit_identical(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


def assert_same_blocks(got, expected):
    assert len(got) == len(expected)
    for b, e in zip(got, expected):
        assert b.orbit == e.orbit
        assert len(b.entries) == len(e.entries)
        for row, erow in zip(b.entries, e.entries):
            assert [type(v) for v in row] == [type(v) for v in erow]
            assert [repr(v) for v in row] == [repr(v) for v in erow]


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_float_matrices_match_the_slice_oracles(pool, fixed_point_system):
    rng = random.Random(11)
    for sys in systems(rng, fixed_point_system):
        for _ in range(5):
            a = random_element(rng, sys, POOLS[pool])
            for x in range(sys.n_points):
                assert_bit_identical(point_block(a, x), loop_fibre_block(a, x))
        for n in (0, 1, 2, 3):
            m = random_matrix(rng, sys, n, POOLS[pool])
            stack = _point_blocks(sys, m.entries, range(sys.n_points))
            assert len(stack) == sys.n_points
            for x, block in enumerate(stack):
                assert_bit_identical(block, slice_choi_block(m, x))
            stack = _orbit_point_blocks(sys, m.entries)
            assert len(stack) == len(sys.orbit_partition)
            for block, orbit in zip(stack, sys.orbit_partition):
                assert_bit_identical(block, slice_choi_block(m, orbit[0]))


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_orbit_blocks_match_the_transporter_oracle(pool, fixed_point_system):
    rng = random.Random(12)
    for sys in systems(rng, fixed_point_system, free_only=True):
        for _ in range(5):
            a = random_element(rng, sys, POOLS[pool])
            assert_same_blocks(orbit_block_decomposition(a), transporter_orbit_blocks(a))
        for n in (0, 1, 2, 3):
            m = random_matrix(rng, sys, n, POOLS[pool])
            assert_same_blocks(matrix_orbit_blocks(m), transporter_matrix_orbit_blocks(m))


def test_float_values_that_count_as_zero(z3):
    """A coefficient whose stored values are all within tolerance of zero is
    a zero coefficient: it reads as the exact zero in every block.  A tiny
    value next to a real one stays in the exact blocks as itself."""
    tiny = Func.from_dict(z3, {0: FloatScalar(1e-10), 2: FloatScalar(-0.0)})
    mixed = Func.from_dict(z3, {0: FloatScalar(1e-10), 1: FloatScalar(0.5)})
    a = CrossedElement(z3, (mixed, tiny, Func.zero(z3)))
    assert a.nonzero_groups == (0,)
    assert_same_blocks(orbit_block_decomposition(a), transporter_orbit_blocks(a))
    for x in range(z3.n_points):
        assert_bit_identical(point_block(a, x), loop_fibre_block(a, x))
    (block,) = orbit_block_decomposition(a)
    assert repr(block.entries[0][0]) == repr(FloatScalar(1e-10))
    assert repr(block.entries[2][0]) == repr(RadScalar(0))


def test_matrix_orbit_blocks_need_a_free_action(fixed_point_system):
    with pytest.raises(NotFree):
        matrix_orbit_blocks(MatrixElement.zero(fixed_point_system, 2))


def test_choi_blocks_decide_like_the_dense_choi_matrix(fixed_point_system):
    """verify_cpc reads its Choi blocks from the builder; on adjoint-symmetric
    matrices of random elements its verdict is the dense oracle's."""
    rng = random.Random(13)
    seen = set()
    for sys in systems(rng, fixed_point_system):
        for n in (1, 2, 3):
            m = random_matrix(rng, sys, n, POOLS["exact"])
            gram = m.adjoint() * m
            unit_11 = MatrixElement.diag(sys, [Func.one(sys)] + [Func.zero(sys)] * (n - 1))
            for phi_m in (gram, gram - unit_11):
                images = {(i, j): phi_m.entries[i][j] for i in range(n) for j in range(n)}
                phi = OrderZeroMap(sys, n, images)
                verdict = verify_cpc(phi)
                assert verdict == dense_verify_cpc(phi)
                seen.add(verdict)
    assert seen == {True, False}



def dense_positivity_failure(a):
    """The positivity test on the full |G||X|-square representation."""
    mat = dense_regular_rep(a)
    if not np.allclose(mat, mat.conj().T, rtol=0, atol=1e-9):
        return "element is not self-adjoint within tolerance"
    eigs = np.linalg.eigvalsh(mat)
    if eigs.size and eigs.min() < -1e-9:
        return "element has an eigenvalue below -1e-09"
    return None


def test_orbit_positivity_decides_like_the_dense_representation(fixed_point_system):
    """One block per orbit gives the dense verdict on a* a - c 1 for random
    exact a, and on a itself, which is seldom self-adjoint.  A shift or a
    non-self-adjoint term supported only on the last orbit leaves the first
    block positive, so there the verdict comes from a later block."""
    rng = random.Random(14)
    seen, raw, later = set(), set(), set()
    for sys in systems(rng, fixed_point_system):
        last = CrossedElement.from_func(Func.indicator(sys, sys.orbit_partition[-1]))
        i_last = CrossedElement.from_func(
            Func.from_dict(sys, {x: RadScalar(0, 1) for x in sys.orbit_partition[-1]})
        )
        for _ in range(8):
            a = random_element(rng, sys, POOLS["exact"])
            gram = a.adjoint() * a
            for c in (0, Fraction(1, 2), 1, 3):
                shift = CrossedElement.from_func(Func(sys, [RadScalar(c)] * sys.n_points))
                e = gram - shift
                failure = _positivity_failure(_orbit_point_blocks(sys, ((e,),)))
                assert failure == dense_positivity_failure(e)
                seen.add(failure)
            failure = _positivity_failure(_orbit_point_blocks(sys, ((a,),)))
            assert failure == dense_positivity_failure(a)
            raw.add(failure)
            if len(sys.orbit_partition) < 2:
                continue
            for e in (gram - last, gram + i_last):
                blocks = _orbit_point_blocks(sys, ((e,),))
                assert _positivity_failure(blocks[:1]) is None
                failure = _positivity_failure(blocks)
                assert failure == dense_positivity_failure(e)
                later.add(failure)
    assert seen == {None, "element has an eigenvalue below -1e-09"}
    assert "element is not self-adjoint within tolerance" in raw
    assert later >= {
        "element has an eigenvalue below -1e-09",
        "element is not self-adjoint within tolerance",
    }


def test_a_non_finite_block_is_not_positive(fixed_point_system):
    """The block at point 0 is diag(-1, inf), whose eigvalsh is NaN, and
    NaN never compares below -FLOAT_TOL; the stack is refused first."""
    values = [FloatScalar(-1.0), FloatScalar(float("inf")), FloatScalar(1.0)]
    a = CrossedElement.from_func(Func(fixed_point_system, values))
    blocks = _orbit_point_blocks(fixed_point_system, ((a,),))
    assert _positivity_failure(blocks) == "element has a non-finite value"
    nan = CrossedElement.from_func(Func.from_dict(fixed_point_system, {2: FloatScalar(float("nan"))}))
    assert _positivity_failure(_orbit_point_blocks(fixed_point_system, ((nan,),))) == (
        "element has a non-finite value"
    )
