import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynalg import (
    Castle,
    CastleOzmData,
    CrossedElement,
    DiagTuple,
    DynalgError,
    DynSystem,
    EmptyShape,
    ExactnessError,
    FiniteGroup,
    FloatScalar,
    Func,
    InvalidCastleData,
    MatrixElement,
    NotFree,
    NotNormalizerPreserving,
    NotOrderZero,
    OrderZeroMap,
    PreconditionFailed,
    RadicalAdditionMismatch,
    RadScalar,
    ResourceBound,
    SystemMismatch,
    TzsInstance,
    almost_finiteness_certificate,
    build_castle_ozm,
    check_tzs_instance,
    cuntz_oracle,
    decompose_ozm,
    identity_embedding,
    operator_norm,
    orbit_castle,
    product_with_cyclic,
    prop_equivalence_suite,
    search_tzs_map,
    shape_invariance,
    validate_castle,
    verify_cpc,
    verify_normalizer_preserving,
    verify_order_zero,
)

from _support import (
    dense_matrix_rep,
    dense_regular_rep,
    dense_verify_cpc,
    func_assemble,
    linalg_size_guard,
    product_order_zero,
    quotient_system,
    random_element,
    random_free_system,
    random_matrix,
    standard_free_systems,
)
import dynalg.castles as castles
from dynalg.algebra import _largest_norm, _orbit_point_blocks
from dynalg.cli import main, parse_ozm_data, parse_system
from dynalg.scalars import FLOAT_TOL

PHASE_POOL = [RadScalar(1), RadScalar(-1), RadScalar(0, 1), RadScalar(0, -1)]
WEIGHT_POOL = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]

DEMO_DATA_DIR = Path(__file__).resolve().parent.parent / "demos" / "data"
DEMO_Z2 = str(DEMO_DATA_DIR / "z2.json")
DEMO_DATA = str(DEMO_DATA_DIR / "data.json")
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def random_castle_data(rng, sys, n, max_towers=3, phase_pool=PHASE_POOL):
    """Random castle data: disjoint singleton-or-pair bases, random shapes."""
    available = list(range(sys.n_points))
    rng.shuffle(available)
    towers = []
    weights = []
    phases = []
    for _ in range(rng.randint(1, max_towers)):
        if len(available) < n or sys.group.order < n:
            break
        # base: one or two points whose group translates stay disjoint
        base_size = 1 if rng.random() < 0.7 else 2
        base = set()
        shape = tuple(sorted(rng.sample(range(sys.group.order), n)))
        for x in list(available):
            if len(base) == base_size:
                break
            trial = base | {x}
            levels = [
                frozenset(sys.act[s][p] for p in trial) for s in shape
            ]
            flat = set().union(*levels)
            if len(flat) != len(trial) * n:
                continue
            occupied = set()
            for _, _, level in Castle(sys, tuple(towers)).levels():
                occupied |= level
            if flat & occupied:
                continue
            base = trial
        if not base:
            continue
        for x in base:
            available.remove(x)
        towers.append((frozenset(base), shape))
        wvals = {x: RadScalar(rng.choice(WEIGHT_POOL)) for x in base}
        weights.append(Func.from_dict(sys, wvals))
        row = []
        for i in range(n):
            pvals = {x: rng.choice(phase_pool) for x in base}
            row.append(Func.from_dict(sys, pvals))
        phases.append(tuple(row))
    if not towers:
        return None
    castle = Castle(sys, tuple(towers))
    if not validate_castle(castle):
        return None
    return CastleOzmData(castle=castle, weights=tuple(weights), phases=tuple(phases), n=n)


# -- castles -----------------------------------------------------------------


def test_single_tower_valid(z2):
    c = Castle(z2, ((frozenset({0}), (0,)),))
    assert validate_castle(c)


def test_two_level_tower_z2(z2):
    c = Castle(z2, ((frozenset({0}), (0, 1)),))
    assert validate_castle(c)


def test_overlapping_levels_invalid(z2):
    c = Castle(z2, ((frozenset({0, 1}), (0, 1)),))
    assert not validate_castle(c)


def test_repeated_shape_element_invalid(z2):
    c = Castle(z2, ((frozenset({0}), (0, 0)),))
    assert not validate_castle(c)


# -- shape invariance -----------------------------------------------------------


def test_shape_invariance_whole_group(z4):
    assert shape_invariance(range(4), range(4), z4) == 0


def test_shape_invariance_z4_example(z4):
    assert shape_invariance({0, 1}, {1}, z4) == 1


def test_shape_invariance_identity_only(z4):
    assert shape_invariance({0, 1}, {0}, z4) == 0


def test_shape_invariance_empty(z4):
    with pytest.raises(EmptyShape):
        shape_invariance(set(), {0}, z4)


# -- almost finiteness ------------------------------------------------------------


def test_orbit_castle_certificate(z3):
    c = orbit_castle(z3)
    cert = almost_finiteness_certificate(
        z3, K=range(3), delta=Fraction(1, 2), castle=c, primes=[set()]
    )
    assert cert.ok and cert.remainder == frozenset()
    assert cert.invariance_values == (Fraction(0),)


def test_prime_size_zero_always_passes(z3):
    c = orbit_castle(z3)
    for delta in (Fraction(1, 2), Fraction(1, 100)):
        cert = almost_finiteness_certificate(
            z3, K=[0], delta=delta, castle=c, primes=[set()]
        )
        assert cert.prime_size_ok


def test_undersized_castle_fails_remainder(double_swap):
    # castle covering one orbit only, empty primes, nonempty remainder
    c = Castle(double_swap, ((frozenset({0}), (0, 1)),))
    cert = almost_finiteness_certificate(
        double_swap, K=[1], delta=Fraction(1, 2), castle=c, primes=[set()]
    )
    assert not cert.remainder_ok and not cert.ok
    assert cert.remainder == frozenset({2, 3})


def test_strict_diameter_flag(z2):
    c = Castle(z2, ((frozenset({0}), (0, 1)),))
    cert = almost_finiteness_certificate(
        z2, K=[1], delta=Fraction(2), castle=c, primes=[{0}], strict_diameter=True
    )
    assert cert.diameter_ok


# -- building castle maps -----------------------------------------------------------


def test_build_one_tower_z2(z2):
    c = Castle(z2, ((frozenset({0}), (0, 1)),))
    data = CastleOzmData.with_trivial_phases(c, (Func.indicator(z2, {0}),), 2)
    phi = build_castle_ozm(data)
    assert phi.images[(0, 0)] == CrossedElement.from_func(Func.indicator(z2, {0}))
    assert phi.images[(1, 1)] == CrossedElement.from_func(Func.indicator(z2, {1}))
    assert phi.unit_image() == CrossedElement.unit(z2)
    assert verify_order_zero(phi) and verify_cpc(phi) and verify_normalizer_preserving(phi)


def test_trivial_phases_follow_the_shapes(z2):
    # one phase per shape element, so a huge n costs nothing before
    # validate rejects the shape size
    c = Castle(z2, ((frozenset({0}), (0, 1)),))
    weights = (Func.indicator(z2, {0}),)
    assert [len(row) for row in CastleOzmData.with_trivial_phases(c, weights, 2).phases] == [2]
    data = CastleOzmData.with_trivial_phases(c, weights, 10**9)
    assert [len(row) for row in data.phases] == [2]
    with pytest.raises(InvalidCastleData, match="tower shape size differs from n"):
        data.validate()


def test_build_empty_castle(z2):
    data = CastleOzmData(castle=Castle(z2, ()), weights=(), phases=(), n=2)
    phi = build_castle_ozm(data)
    assert phi == OrderZeroMap.zero(z2, 2)


def test_build_scaled_weights(z2):
    c = Castle(z2, ((frozenset({0}), (0, 1)),))
    f = Func.from_dict(z2, {0: RadScalar(Fraction(1, 2))})
    data = CastleOzmData.with_trivial_phases(c, (f,), 2)
    phi = build_castle_ozm(data)
    expected = Func.from_dict(z2, {0: RadScalar(Fraction(1, 2)), 1: RadScalar(Fraction(1, 2))})
    assert phi.unit_image() == CrossedElement.from_func(expected)
    assert verify_cpc(phi)


def test_build_rejects_heavy_weight(z2):
    c = Castle(z2, ((frozenset({0}), (0, 1)),))
    f = Func.from_dict(z2, {0: RadScalar(2)})
    data = CastleOzmData.with_trivial_phases(c, (f,), 2)
    with pytest.raises(InvalidCastleData):
        build_castle_ozm(data)


def test_build_rejects_bad_phase(z2):
    c = Castle(z2, ((frozenset({0}), (0, 1)),))
    f = Func.indicator(z2, {0})
    bad = Func.from_dict(z2, {0: RadScalar(2)})
    data = CastleOzmData(castle=c, weights=(f,), phases=((bad, bad),), n=2)
    with pytest.raises(InvalidCastleData):
        build_castle_ozm(data)


# -- verifiers ----------------------------------------------------------------------


def test_identity_embedding_all_verifiers(z3):
    phi = identity_embedding(z3)
    assert verify_order_zero(phi)
    assert verify_cpc(phi)
    assert verify_normalizer_preserving(phi)


def test_zero_map_all_verifiers(z3):
    phi = OrderZeroMap.zero(z3, 2)
    assert verify_order_zero(phi) and verify_cpc(phi) and verify_normalizer_preserving(phi)


def test_flat_map_fails_order_zero(z3):
    unit = CrossedElement.unit(z3)
    images = {(i, j): unit.scaled(Fraction(1, 3)) for i in range(3) for j in range(3)}
    phi = OrderZeroMap(z3, 3, images)
    assert not verify_order_zero(phi)


def test_diagonal_compression_fails_order_zero(z2):
    # e_ij -> delta_ij chi_{i}: passes every diagonal-pair product test but
    # breaks the unit relations, so the exact verifier must reject it
    z = CrossedElement.zero(z2)
    images = {
        (0, 0): CrossedElement.from_func(Func.indicator(z2, {0})),
        (1, 1): CrossedElement.from_func(Func.indicator(z2, {1})),
        (0, 1): z,
        (1, 0): z,
    }
    phi = OrderZeroMap(z2, 2, images)
    assert verify_cpc(phi)
    assert not verify_order_zero(phi)


def test_noncontractive_fails_cpc(z2):
    phi = OrderZeroMap(
        z2,
        1,
        {(0, 0): CrossedElement.unit(z2).scaled(2)},
    )
    assert not verify_cpc(phi)


def with_pair_negated(phi, rng):
    """phi with the images of e_ij and e_ji negated for one random i <= j."""
    i = rng.randrange(phi.n)
    j = rng.randrange(i, phi.n)
    images = dict(phi.images)
    for key in {(i, j), (j, i)}:
        images[key] = -images[key]
    return OrderZeroMap(phi.system, phi.n, images)


def test_verify_cpc_matches_dense_choi(fixed_point_system):
    """One Choi block per orbit against the full Choi matrix: castle maps
    on free systems, Gram maps b_i* b_j on non-free ones, and both with a
    pair of images negated."""
    rng = random.Random(52)
    maps = []
    while len(maps) < 30:
        sys = random_free_system(rng, max_points=8)
        data = random_castle_data(rng, sys, rng.randint(1, min(3, sys.group.order)))
        if data is not None:
            maps.append(build_castle_ozm(data))
    for sys in (fixed_point_system, quotient_system()) * 8:
        n = rng.randint(1, 3)
        bs = [random_element(rng, sys, max_terms=2).scaled(Fraction(1, 4)) for _ in range(n)]
        images = {(i, j): bs[i].adjoint() * bs[j] for i in range(n) for j in range(n)}
        maps.append(OrderZeroMap(sys, n, images))
    verdicts = set()
    for phi in maps:
        for psi in (phi, with_pair_negated(phi, rng)):
            expected = dense_verify_cpc(psi)
            assert verify_cpc(psi) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


CONTRACTIVITY_SCALES = (
    Fraction(1, 2),
    Fraction(1),
    1 + Fraction(FLOAT_TOL) / 2,
    1 + 2 * Fraction(FLOAT_TOL),
    Fraction(3, 2),
)


def _scaled_to_norm(phi, c, mode):
    """phi with every image scaled so that ||phi(1)|| is c, up to the
    rounding of the dense norm; float mode scales by a FloatScalar, so
    every coefficient becomes a float."""
    norm = np.linalg.norm(dense_regular_rep(phi.unit_image()), 2)
    scale = c / Fraction(norm)
    if mode == "float":
        scale = FloatScalar(float(scale))
    return OrderZeroMap(phi.system, phi.n, {k: v.scaled(scale) for k, v in phi.images.items()})


def test_verify_cpc_contractivity_matches_dense_norm(fixed_point_system):
    """Completely positive maps scaled to ||phi(1)|| = c: castle maps on
    free systems, Gram maps b_i* b_j on free and non-free ones, exact and
    float.  The Choi test passes on each, so the verdict is c <= 1 +
    FLOAT_TOL alone, and the per-orbit blocks give the dense verdict."""
    rng = random.Random(53)
    maps = []
    while len(maps) < 8:
        sys = random_free_system(rng, max_points=8)
        data = random_castle_data(rng, sys, rng.randint(1, min(3, sys.group.order)))
        if data is not None:
            maps.append(build_castle_ozm(data))
    free = random_free_system(rng, max_points=6)
    for sys in (fixed_point_system, quotient_system(), free) * 3:
        n = rng.randint(1, 3)
        bs = [random_element(rng, sys, max_terms=2) for _ in range(n)]
        images = {(i, j): bs[i].adjoint() * bs[j] for i in range(n) for j in range(n)}
        phi = OrderZeroMap(sys, n, images)
        if not phi.unit_image().is_zero:
            maps.append(phi)
    verdicts = set()
    for phi in maps:
        for c in CONTRACTIVITY_SCALES:
            for mode in ("exact", "float"):
                psi = _scaled_to_norm(phi, c, mode)
                expected = c <= 1 + Fraction(FLOAT_TOL)
                assert dense_verify_cpc(psi) == expected
                assert verify_cpc(psi) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


def _assert_norm_matches_dense(x, dense):
    expected = float(np.linalg.norm(dense, 2)) if dense.size else 0.0
    got = operator_norm(x)
    assert abs(got - expected) <= 1e-12 * expected, (got, expected)


def test_operator_norm_matches_the_dense_norm(fixed_point_system):
    """operator_norm reads one block per orbit; it equals the 2-norm of the
    dense (n|G||X|)-square oracle within 1e-12 relative on castle unit
    images and Choi matrices, Gram elements b* b, and n x n matrices with
    n = 0..3, over free and non-free systems."""
    rng = random.Random(54)
    maps = []
    while len(maps) < 8:
        sys = random_free_system(rng, max_points=8)
        data = random_castle_data(rng, sys, rng.randint(1, min(3, sys.group.order)))
        if data is not None:
            maps.append(build_castle_ozm(data))
    for phi in maps:
        unit = phi.unit_image()
        _assert_norm_matches_dense(unit, dense_regular_rep(unit))
        n = phi.n
        choi = MatrixElement(
            phi.system, [[phi.images[(i, j)] for j in range(n)] for i in range(n)]
        )
        _assert_norm_matches_dense(choi, dense_matrix_rep(choi))
    systems = [random_free_system(rng, max_points=6) for _ in range(4)]
    systems += [fixed_point_system, quotient_system()]
    for sys in systems:
        for _ in range(4):
            b = random_element(rng, sys)
            gram = b.adjoint() * b
            _assert_norm_matches_dense(b, dense_regular_rep(b))
            _assert_norm_matches_dense(gram, dense_regular_rep(gram))
        for n in (0, 1, 2, 3):
            m = random_matrix(rng, sys, n)
            _assert_norm_matches_dense(m, dense_matrix_rep(m))
            _assert_norm_matches_dense(m.adjoint() * m, dense_matrix_rep(m.adjoint() * m))


def test_norms_over_a_system_with_no_points():
    """No points, no orbits: every element is zero, and an empty stack of
    Choi blocks reads as contractive."""
    sys = DynSystem(FiniteGroup.cyclic(2), (), ((), ()))
    unit = CrossedElement.unit(sys)
    assert operator_norm(unit) == 0.0
    assert operator_norm(MatrixElement.zero(sys, 2)) == 0.0
    assert _largest_norm(_orbit_point_blocks(sys, ((unit,),))) == 0.0
    assert verify_cpc(OrderZeroMap(sys, 1, {(0, 0): unit}))


def _large_castle_map(copies):
    """A castle map with n = 3 over product_with_cyclic(z4 + z4, copies):
    one tower per orbit, base the orbit's least point, shape (0, 1, 5)."""
    z4 = DynSystem.translation(FiniteGroup.cyclic(4))
    sys = product_with_cyclic(DynSystem.disjoint_union(z4, z4), copies)
    castle = Castle(sys, tuple((frozenset({orbit[0]}), (0, 1, 5)) for orbit in sys.orbit_partition))
    weights = [Func.from_dict(sys, {orbit[0]: Fraction(1, k + 1)})
               for k, orbit in enumerate(sys.orbit_partition)]
    return build_castle_ozm(CastleOzmData.with_trivial_phases(castle, weights, 3))


def test_verify_cpc_builds_no_dense_representation(monkeypatch):
    """A castle map over product_with_cyclic(z4 + z4, 6), |G||X| = 1152,
    with ||phi(1)|| = 1, and the same map times 3/2: verify_cpc decides
    both from its n|G| Choi blocks, one per orbit."""
    phi = _large_castle_map(6)
    sys = phi.system
    assert sys.group.order * sys.n_points == 1152
    widths = linalg_size_guard(monkeypatch, 3 * sys.group.order)
    assert verify_cpc(phi)
    scaled = {k: v.scaled(Fraction(3, 2)) for k, v in phi.images.items()}
    assert not verify_cpc(OrderZeroMap(sys, 3, scaled))
    assert widths


def test_float_decompose_runs_the_verifiers_without_dense_representation(monkeypatch, capsys):
    """Float data is verified after assembly, fails extraction and then
    runs every verifier before its ExactnessError; none builds a matrix
    wider than n|G| = 4."""
    widths = linalg_size_guard(monkeypatch, 4)
    code = main(["castle", "decompose", "--float", "--system", DEMO_Z2, "--data", DEMO_DATA])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == "ExactnessError"
    assert widths


def test_norm_routes_build_no_dense_representation_at_2048(monkeypatch):
    """Over product_with_cyclic(z4 + z4, 8), |G||X| = 2048, with castle data
    of size n = 3: the unit image's norm, the stability instance, the cpc
    verifier, the rank oracle and the equivalence suite see no matrix
    wider than n|G| = 96, where the dense representation is 2048 wide."""
    phi = _large_castle_map(8)
    sys = phi.system
    assert sys.group.order * sys.n_points == 2048
    f = Func.from_dict(sys, {x: Fraction(x % 5, 4) for x in range(sys.n_points)})
    a = CrossedElement.monomial(f, 1)
    h = Func.indicator(sys, {sys.orbit_partition[0][1]})
    widths = linalg_size_guard(monkeypatch, 3 * sys.group.order)

    assert operator_norm(phi.unit_image()) == pytest.approx(1, abs=1e-9)
    report = check_tzs_instance(TzsInstance(3, Fraction(1, 10), (a,), h), phi)
    assert len(report.commutator_margins) == 9 and report.max_commutator > 0
    assert verify_cpc(phi)
    half = Func(sys, [FloatScalar(0.5)] * sys.n_points)
    assert cuntz_oracle(CrossedElement.from_func(half), CrossedElement.unit(sys))
    small = DiagTuple.indicators(sys, [{0}])
    large = DiagTuple.indicators(sys, [set(sys.orbit_partition[0])])
    suite = prop_equivalence_suite(small, large)
    assert suite.consistent
    assert max(widths) == 3 * sys.group.order


# -- decomposition -------------------------------------------------------------------


def test_decompose_identity_embedding(z2):
    phi = identity_embedding(z2)
    data = decompose_ozm(phi)
    assert data.castle.towers == ((frozenset({0}), (0, 1)),)
    assert data.weights[0] == Func.indicator(z2, {0})
    for theta in data.phases[0]:
        assert all(theta.values[x] == RadScalar(1) for x in theta.support)


def test_decompose_zero_map(z2):
    data = decompose_ozm(OrderZeroMap.zero(z2, 2))
    assert data.castle.towers == ()


def test_decompose_requires_free(fixed_point_system):
    with pytest.raises(NotFree):
        decompose_ozm(OrderZeroMap.zero(fixed_point_system, 1))


def test_decompose_rejects_non_order_zero(z3):
    unit = CrossedElement.unit(z3)
    images = {(i, j): unit.scaled(Fraction(1, 3)) for i in range(3) for j in range(3)}
    with pytest.raises(NotOrderZero):
        decompose_ozm(OrderZeroMap(z3, 3, images))


def test_decompose_rejects_non_normalizer_preserving(z3):
    # (bad* bad)/2 is a positive contraction outside the normalizers, so the
    # one-image map is cpc order zero but not normalizer-preserving
    f0 = Func.indicator(z3, {0})
    bad = CrossedElement.from_func(f0) + CrossedElement.monomial(f0, 1)
    q = (bad.adjoint() * bad).scaled(Fraction(1, 2))
    phi = OrderZeroMap(z3, 1, {(0, 0): q})
    assert verify_order_zero(phi) and verify_cpc(phi)
    with pytest.raises(NotNormalizerPreserving):
        decompose_ozm(phi)


def test_decompose_rejects_noncontractive(z3):
    f0 = Func.indicator(z3, {0})
    phi = OrderZeroMap(z3, 1, {(0, 0): CrossedElement.from_func(f0).scaled(2)})
    with pytest.raises(NotOrderZero):
        decompose_ozm(phi)


def test_roundtrip_randomized():
    rng = random.Random(50)
    done = 0
    while done < 60:
        sys = random_free_system(rng, max_points=8)
        n = rng.randint(1, min(3, sys.group.order))
        data = random_castle_data(rng, sys, n)
        if data is None:
            continue
        done += 1
        phi = build_castle_ozm(data)
        assert verify_order_zero(phi)
        assert verify_cpc(phi)
        assert verify_normalizer_preserving(phi)
        recovered = decompose_ozm(phi)  # asserts rebuild == phi internally
        rebuilt = build_castle_ozm(recovered)
        assert rebuilt == phi
        # extracted levels pairwise disjoint is part of castle validity
        assert validate_castle(recovered.castle)


def test_roundtrip_with_radical_phases(z4):
    # phases like (1+i)/sqrt(2) exercise the radical carrier
    c = Castle(z4, ((frozenset({0}), (0, 2)),))
    f = Func.indicator(z4, {0})
    theta = Func.from_dict(z4, {0: RadScalar(Fraction(1, 2), Fraction(1, 2), 2)})
    one = Func.indicator(z4, {0})
    data = CastleOzmData(castle=c, weights=(f,), phases=((one, theta),), n=2)
    phi = build_castle_ozm(data)
    recovered = decompose_ozm(phi)
    assert build_castle_ozm(recovered) == phi


# -- tracial stability instances --------------------------------------------------


def test_tzs_identity_embedding_trivial_f(z3):
    phi = identity_embedding(z3)
    inst = TzsInstance(
        n=3,
        epsilon=Fraction(1, 10),
        F=(CrossedElement.unit(z3),),
        h=Func.indicator(z3, {0}),
    )
    report = check_tzs_instance(inst, phi)
    assert report.normalizer_condition
    assert report.remainder_condition  # 1 - phi(1) = 0
    assert report.commutator_condition  # commutators with the unit vanish
    assert report.all_pass


def test_tzs_remainder_identity_witness(z3):
    # phi covering two of three points; remainder chi_{2} against h = chi_{2}
    c = Castle(z3, ((frozenset({0}), (0, 1)),))
    data = CastleOzmData.with_trivial_phases(c, (Func.indicator(z3, {0}),), 2)
    phi = build_castle_ozm(data)
    inst = TzsInstance(
        n=2,
        epsilon=Fraction(1, 10),
        F=(CrossedElement.unit(z3),),
        h=Func.indicator(z3, {2}),
    )
    report = check_tzs_instance(inst, phi)
    assert report.remainder_condition
    assert report.remainder_witness is not None


def test_tzs_commutator_margins_reported(z3):
    phi = identity_embedding(z3)
    inst = TzsInstance(
        n=3,
        epsilon=Fraction(1, 10),
        F=(CrossedElement.unit(z3), CrossedElement.unitary(z3, 1)),
        h=Func.indicator(z3, {0}),
    )
    report = check_tzs_instance(inst, phi)
    assert report.normalizer_condition and report.remainder_condition
    assert not report.commutator_condition
    assert report.max_commutator == pytest.approx(1.0, abs=1e-9)
    assert report.commutator_bound_factor == 9


def test_tzs_report_reproducible(z3):
    phi = identity_embedding(z3)
    inst = TzsInstance(
        n=3,
        epsilon=Fraction(1, 10),
        F=(CrossedElement.unit(z3), CrossedElement.unitary(z3, 1)),
        h=Func.indicator(z3, {0}),
    )
    r1 = check_tzs_instance(inst, phi)
    r2 = check_tzs_instance(inst, phi)
    assert r1 == r2


# -- map search -----------------------------------------------------------------


def test_search_finds_orbit_castle(z3):
    inst = TzsInstance(
        n=3,
        epsilon=Fraction(1, 10),
        F=(CrossedElement.unit(z3),),
        h=Func.indicator(z3, {0}),
    )
    phi = search_tzs_map(inst)
    assert phi is not None
    assert phi.unit_image() == CrossedElement.unit(z3)


def test_search_full_support_h(double_swap):
    inst = TzsInstance(
        n=2,
        epsilon=Fraction(1, 10),
        F=(CrossedElement.unit(double_swap),),
        h=Func.one(double_swap),
    )
    phi = search_tzs_map(inst)
    assert phi is not None


def test_search_reports_none_on_hopeless_instance(z2):
    inst = TzsInstance(
        n=2,
        epsilon=Fraction(1, 1000),
        F=(CrossedElement.unitary(z2, 1),),
        h=Func.indicator(z2, {0}),
    )
    assert search_tzs_map(inst) is None


def test_search_budget(z2):
    inst = TzsInstance(
        n=1,
        epsilon=Fraction(1, 1000),
        F=(CrossedElement.unitary(z2, 1),),
        h=Func.indicator(z2, {0}),
    )
    with pytest.raises(ResourceBound):
        search_tzs_map(inst, budget=1)


def test_decompose_rejects_float_scalars(z2):
    from dynalg import ExactnessError, FloatScalar

    f = Func.from_dict(z2, {0: FloatScalar(0.5)})
    c = Castle(z2, ((frozenset({0}), (0, 1)),))
    data = CastleOzmData.with_trivial_phases(c, (f,), 2)
    phi = build_castle_ozm(data)
    with pytest.raises(ExactnessError):
        decompose_ozm(phi)


def test_orbit_castle_random_scales():
    rng = random.Random(60)
    for _ in range(25):
        sys = random_free_system(rng, max_points=8)
        castle = orbit_castle(sys, rng.randrange(len(sys.orbit_partition)))
        delta = Fraction(rng.randint(1, 9), rng.randint(10, 40))
        K = rng.sample(range(sys.group.order), rng.randint(1, sys.group.order))
        cert = almost_finiteness_certificate(
            sys, K=K, delta=delta, castle=castle,
            primes=[set()],
        )
        if sys.is_minimal:
            assert cert.ok
        else:
            # uncovered orbits leave a remainder that empty primes cannot take
            assert cert.invariance_ok and cert.prime_size_ok
            assert not cert.remainder_ok


def test_transpose_map_caught_by_unit_relations(z2):
    # composing the matrix-unit embedding with the transpose annihilates
    # every orthogonal pair of diagonal positives, yet it is not completely
    # positive, and only the matrix-unit relations detect the defect
    phi = identity_embedding(z2)
    flipped = OrderZeroMap(
        z2, phi.n, {(i, j): phi.images[(j, i)] for i in range(phi.n) for j in range(phi.n)}
    )
    p0, p1 = flipped.images[(0, 0)], flipped.images[(1, 1)]
    assert (p0 * p1).is_zero
    assert not verify_order_zero(flipped)
    assert not verify_cpc(flipped)


# -- exact data is proved at validation --------------------------------------------

# unit-modulus phases with radicands 1, 2 and 5, and weights with radicands
# 1, 2 and 3; a weight of exactly 1 is listed twice so it is drawn often
RADICAL_PHASES = PHASE_POOL + [
    RadScalar(Fraction(1, 2), Fraction(1, 2), 2),
    RadScalar(Fraction(1, 2), Fraction(-1, 2), 2),
    RadScalar(Fraction(3, 5), Fraction(4, 5)),
    RadScalar(Fraction(1, 5), Fraction(2, 5), 5),
]
RADICAL_WEIGHTS = [
    RadScalar(1),
    RadScalar(1),
    RadScalar(Fraction(1, 2)),
    RadScalar(Fraction(3, 4)),
    RadScalar(Fraction(1, 2), 0, 2),
    RadScalar(Fraction(1, 2), 0, 3),
]
ORACLE_SYSTEMS = standard_free_systems() + [quotient_system()]


@st.composite
def exact_castle_data(draw):
    """Valid exact castle data: towers placed greedily on a drawn point
    order, each base point with a drawn weight and drawn phases."""
    sys = draw(st.sampled_from(ORACLE_SYSTEMS))
    order = sys.group.order
    n = draw(st.integers(1, min(3, order)))
    points = draw(st.permutations(range(sys.n_points)))
    occupied = set()
    towers, weights, phases = [], [], []
    for _ in range(draw(st.integers(0, 3))):
        shape = tuple(sorted(draw(
            st.lists(st.integers(0, order - 1), min_size=n, max_size=n, unique=True)
        )))
        size = draw(st.integers(1, 2))
        base = []
        for x in points:
            if len(base) == size:
                break
            levels = [sys.act[s][p] for s in shape for p in base + [x]]
            if len(set(levels)) == len(levels) and not occupied & set(levels):
                base.append(x)
        if not base:
            continue
        occupied |= {sys.act[s][p] for s in shape for p in base}
        points = [p for p in points if p not in base]
        towers.append((frozenset(base), shape))
        weights.append(Func.from_dict(
            sys, {x: draw(st.sampled_from(RADICAL_WEIGHTS)) for x in base}
        ))
        phases.append(tuple(
            Func.from_dict(sys, {x: draw(st.sampled_from(RADICAL_PHASES)) for x in base})
            for _ in range(n)
        ))
    data = CastleOzmData(
        castle=Castle(sys, tuple(towers)),
        weights=tuple(weights),
        phases=tuple(phases),
        n=n,
    )
    data.validate()
    return data


@settings(max_examples=150, deadline=None)
@given(exact_castle_data())
def test_exact_castle_maps_pass_every_verifier(data):
    phi = build_castle_ozm(data)
    assert verify_order_zero(phi)
    assert verify_cpc(phi)
    assert verify_normalizer_preserving(phi)
    if data.castle.system.is_free:
        recovered = decompose_ozm(phi)
        assert build_castle_ozm(recovered) == phi


VERIFIERS = ("verify_order_zero", "verify_cpc", "verify_normalizer_preserving")


def _patch_verifiers(monkeypatch, replacement):
    for name in VERIFIERS:
        monkeypatch.setattr(castles, name, replacement(name))


def _refuse(name):
    def call(phi):
        raise AssertionError("%s called on exact data" % name)
    return call


def test_exact_build_calls_no_verifier(monkeypatch, z4):
    _patch_verifiers(monkeypatch, _refuse)
    c = Castle(z4, ((frozenset({0}), (0, 1)), (frozenset({2}), (0, 1))))
    weights = (
        Func.from_dict(z4, {0: RadScalar(1)}),
        Func.from_dict(z4, {2: RadScalar(Fraction(1, 2), 0, 2)}),
    )
    data = CastleOzmData.with_trivial_phases(c, weights, 2)
    build_castle_ozm(data)
    identity_embedding(z4)


def test_float_build_calls_every_verifier(monkeypatch, z2):
    calls = []

    def record(name):
        def call(phi):
            calls.append(name)
            return True
        return call

    _patch_verifiers(monkeypatch, record)
    c = Castle(z2, ((frozenset({0}), (0, 1)),))
    # exact weight, float phase: one float value puts the data in the float lane
    f = Func.indicator(z2, {0})
    theta = Func.from_dict(z2, {0: FloatScalar(1.0)})
    build_castle_ozm(CastleOzmData(castle=c, weights=(f,), phases=((f, theta),), n=2))
    assert calls == ["verify_order_zero", "verify_cpc", "verify_normalizer_preserving"]


# -- decomposition extracts first ---------------------------------------------------


def _not_adjoint_symmetric(sys):
    phi = identity_embedding(sys)
    images = dict(phi.images)
    images[(1, 0)] = CrossedElement.zero(sys)
    return OrderZeroMap(sys, 2, images)


def _flat(sys):
    third = CrossedElement.unit(sys).scaled(Fraction(1, 3))
    return OrderZeroMap(sys, 2, {(i, j): third for i in range(2) for j in range(2)})


def _noncontractive(sys):
    f0 = Func.indicator(sys, {0})
    return OrderZeroMap(sys, 1, {(0, 0): CrossedElement.from_func(f0).scaled(2)})


def _not_normalizer(sys):
    # (bad* bad)/2 is a positive contraction outside the normalizers
    f0 = Func.indicator(sys, {0})
    bad = CrossedElement.from_func(f0) + CrossedElement.monomial(f0, 1)
    return OrderZeroMap(sys, 1, {(0, 0): (bad.adjoint() * bad).scaled(Fraction(1, 2))})


def _float_weight(sys):
    f = Func.from_dict(sys, {0: FloatScalar(0.5)})
    c = Castle(sys, ((frozenset({0}), (0, 1)),))
    return build_castle_ozm(CastleOzmData.with_trivial_phases(c, (f,), 2))


def _off_diagonal_corner(sys):
    # the projection (1 + u_1)/2 is positive and contractive, and phi(e_11)
    # lies outside C(X)
    one = Func.indicator(sys, range(sys.n_points))
    p = (CrossedElement.from_func(one) + CrossedElement.monomial(one, 1)).scaled(Fraction(1, 2))
    return OrderZeroMap(sys, 1, {(0, 0): p})


def _negative_within_tolerance(sys):
    # phi(e_11)(0) = -1e-12 passes the float Choi test, so every verifier
    # passes and only extraction finds phi(e_11) not positive
    f = Func.from_dict(sys, {0: RadScalar(Fraction(-1, 10**12))})
    return OrderZeroMap(sys, 1, {(0, 0): CrossedElement.from_func(f)})


def _normalizer_outside_cx_within_tolerance(sys):
    # phi(e_11) = chi_0 + 1e-12 chi_{2,3} u_1 is a normalizer, and it passes
    # the float Choi test, but it lies outside C(X)
    small = Func.from_dict(sys, {2: RadScalar(Fraction(1, 10**12)), 3: RadScalar(Fraction(1, 10**12))})
    p = CrossedElement.from_func(Func.indicator(sys, {0})) + CrossedElement.monomial(small, 1)
    return OrderZeroMap(sys, 1, {(0, 0): p})


# name -> (map builder, system fixture, error, message, number of verifiers
# run, in the order of VERIFIERS)
REJECTED_MAPS = {
    "not_adjoint_symmetric": (
        _not_adjoint_symmetric, "z2", NotOrderZero, "images are not adjoint-symmetric", 0,
    ),
    "not_order_zero": (
        _flat, "z3", NotOrderZero, "map fails the exact order-zero relations", 1,
    ),
    "not_cpc": (
        _noncontractive, "z3", NotOrderZero, "map is not completely positive contractive", 2,
    ),
    "not_normalizer_preserving": (
        _not_normalizer, "z3", NotNormalizerPreserving,
        "some matrix-unit image is not a normalizer", 3,
    ),
    "float_scalars": (
        _float_weight, "z2", ExactnessError,
        "decomposition needs exact scalars, found FloatScalar((0.5+0j))", 3,
    ),
    "off_diagonal_corner": (
        _off_diagonal_corner, "z2", NotNormalizerPreserving,
        "some matrix-unit image is not a normalizer", 3,
    ),
    "negative_within_tolerance": (
        _negative_within_tolerance, "z2", NotOrderZero, "phi(e_11) is not positive", 3,
    ),
    "normalizer_outside_cx_within_tolerance": (
        _normalizer_outside_cx_within_tolerance, "double_swap", NotNormalizerPreserving,
        "the image of (0, 0) is a normalizer outside C(X)", 3,
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED_MAPS))
def test_decompose_rejection_parity(request, monkeypatch, case):
    """Each rejected map raises the error of the first check it fails, in
    the order adjoint symmetry, order zero, cpc, normalizers, extraction;
    the verifiers that run are exactly that order's prefix."""
    make, fixture, error, message, n_verifiers = REJECTED_MAPS[case]
    phi = make(request.getfixturevalue(fixture))
    calls = []

    def record(name):
        verifier = getattr(castles, name)

        def call(psi):
            calls.append(name)
            return verifier(psi)
        return call

    _patch_verifiers(monkeypatch, record)
    with pytest.raises(error) as info:
        decompose_ozm(phi)
    assert type(info.value) is error and str(info.value) == message
    assert calls == list(VERIFIERS[:n_verifiers])


def test_decompose_of_exact_castle_maps_calls_no_verifier(monkeypatch, z2):
    rng = random.Random(53)
    maps = [identity_embedding(z2), OrderZeroMap.zero(z2, 2)]
    while len(maps) < 20:
        sys = random_free_system(rng, max_points=8)
        data = random_castle_data(rng, sys, rng.randint(1, min(3, sys.group.order)))
        if data is not None:
            maps.append(build_castle_ozm(data))
    _patch_verifiers(monkeypatch, _refuse)
    for phi in maps:
        assert build_castle_ozm(decompose_ozm(phi)) == phi


# -- malformed maps ----------------------------------------------------------------


def test_order_zero_map_rejects_an_image_over_another_system(z2, z3):
    images = {(i, j): CrossedElement.zero(z2) for i in range(2) for j in range(2)}
    images[(1, 1)] = CrossedElement.unit(z3)
    with pytest.raises(SystemMismatch):
        OrderZeroMap(z2, 2, images)


def test_order_zero_map_rejects_a_missing_image(z2):
    images = {(i, j): CrossedElement.zero(z2) for i in range(2) for j in range(2)}
    del images[(0, 1)]
    with pytest.raises(PreconditionFailed):
        OrderZeroMap(z2, 2, images)


def test_order_zero_map_rejects_a_negative_size(z2):
    with pytest.raises(PreconditionFailed):
        OrderZeroMap(z2, -1, {})
    assert OrderZeroMap(z2, 0, {}).images == {}


def test_order_zero_map_images_are_read_only(z2, z3):
    # the checks of __init__ cannot be bypassed by swapping an image later
    phi = identity_embedding(z2)
    with pytest.raises(TypeError):
        phi.images[(1, 1)] = CrossedElement.unit(z3)
    assert phi.images[(1, 1)].system is z2


# -- order zero decided by supports ----------------------------------------------


def _outcome(check, phi):
    """The verdict of check(phi), or the type of the error it raises."""
    try:
        return check(phi)
    except DynalgError as exc:
        return type(exc)


def _as_float(f):
    return Func.from_dict(f.system, {x: FloatScalar(complex(v)) for x, v in f.sparse.items()})


def _float_data(data):
    return CastleOzmData(
        castle=data.castle,
        weights=tuple(_as_float(f) for f in data.weights),
        phases=tuple(tuple(_as_float(th) for th in row) for row in data.phases),
        n=data.n,
    )


def _with_image_added(phi, rng):
    """phi with a random element added to one random image."""
    key = (rng.randrange(phi.n), rng.randrange(phi.n))
    images = dict(phi.images)
    images[key] = images[key] + random_element(rng, phi.system, max_terms=1, density=0.2)
    return OrderZeroMap(phi.system, phi.n, images)


def _diagonal(sys, values):
    z = CrossedElement.zero(sys)
    images = {(i, j): z for i in range(len(values)) for j in range(len(values))}
    for i, f in enumerate(values):
        images[(i, i)] = f
    return OrderZeroMap(sys, len(values), images)


def _radical_diagonal_sum(sys):
    # phi(e_11) and phi(e_22) store sqrt(2) and sqrt(3) at one point on
    # one u_g, and every product of images vanishes, so only the sum
    # p_{1,2} raises, though phi(e_33) = 0 leaves nothing to multiply
    x, g = 0, 1
    return _diagonal(sys, [
        CrossedElement.monomial(Func.from_dict(sys, {x: RadScalar(1, 0, r)}), g) for r in (2, 3)
    ] + [CrossedElement.zero(sys)])


def _float_sum_exceeds_tolerance(sys):
    # each product c^2 = 7e-10 of two diagonal images lies within the
    # tolerance, so both relations hold, but p_{1,2} p_3 = 1.4e-9 does not
    c = FloatScalar(7e-10 ** 0.5)
    return _diagonal(sys, [CrossedElement.from_func(Func.from_dict(sys, {0: c}))] * 3)


def _diagonal_compression(sys):
    return _diagonal(sys, [CrossedElement.from_func(Func.indicator(sys, {x})) for x in (0, 1)])


def _transposed(sys):
    phi = identity_embedding(sys)
    return OrderZeroMap(sys, phi.n, {(i, j): phi.images[(j, i)] for (i, j) in phi.images})


def _golden_float_map(name, system):
    sys = parse_system(json.loads((DEMO_DATA_DIR / system).read_text()))
    payload = json.loads((GOLDEN_INPUTS / name).read_text())
    return castles._assemble(parse_ozm_data(sys, payload, float_mode=True))


def test_verify_order_zero_matches_the_product_oracle(z2, z3):
    """The screened verifier and the verifier that forms every product
    agree, verdict and error type, on exact castle maps, the same maps
    with a pair of images negated or an element added to one image, Gram
    maps, the failing maps of this module, and float castle maps
    assembled without verification, the golden float inputs among them."""
    rng = random.Random(54)
    maps = []
    while len(maps) < 150:
        sys = random_free_system(rng, max_points=8)
        data = random_castle_data(rng, sys, rng.randint(1, min(3, sys.group.order)))
        if data is None:
            continue
        phi = build_castle_ozm(data)
        maps += [phi, with_pair_negated(phi, rng), _with_image_added(phi, rng)]
        flt = castles._assemble(_float_data(data))
        maps += [flt, OrderZeroMap(sys, flt.n, {
            k: v.scaled(FloatScalar(1 + 3 * FLOAT_TOL)) for k, v in flt.images.items()
        })]
    for sys in (quotient_system(), random_free_system(rng, max_points=6)) * 5:
        n = rng.randint(1, 3)
        bs = [random_element(rng, sys, max_terms=2, density=0.3) for _ in range(n)]
        maps.append(OrderZeroMap(sys, n, {(i, j): bs[i].adjoint() * bs[j]
                                          for i in range(n) for j in range(n)}))
    for make in (_flat, _not_adjoint_symmetric, _noncontractive, _not_normalizer,
                 _float_weight, _off_diagonal_corner, _negative_within_tolerance,
                 _diagonal_compression, _transposed):
        maps += [make(z2), make(z3)]
    trivial = DynSystem.translation(FiniteGroup.trivial())
    maps += [_radical_diagonal_sum(z3), _float_sum_exceeds_tolerance(trivial)]
    maps += [_golden_float_map("float_modulus_above_one.json", "z2.json"),
             _golden_float_map("float_uneven_moduli.json", "z3.json")]
    outcomes = set()
    for phi in maps:
        expected = _outcome(product_order_zero, phi)
        assert _outcome(verify_order_zero, phi) == expected
        outcomes.add(expected)
    assert outcomes == {True, False, RadicalAdditionMismatch}


def test_the_diagonal_family_decides_float_sums(z3):
    """Both relations hold within tolerance, and only the diagonal family
    sees that a sum of products exceeds it; a sum of unlike radicands
    raises as it does when every product is formed."""
    trivial = DynSystem.translation(FiniteGroup.trivial())
    assert not verify_order_zero(_float_sum_exceeds_tolerance(trivial))
    with pytest.raises(RadicalAdditionMismatch):
        verify_order_zero(_radical_diagonal_sum(z3))


@pytest.fixture
def crossed_products(monkeypatch):
    """The number of crossed products formed, as a one-item list."""
    count = [0]
    product = CrossedElement.__mul__

    def counted(a, b):
        count[0] += 1
        return product(a, b)

    monkeypatch.setattr(CrossedElement, "__mul__", counted)
    return count


def test_exact_castle_maps_cost_n_cubed_products(crossed_products):
    """On an exact castle map only the n^3 products phi(e_ij) phi(e_jl)
    are formed; building and decomposing the map form none."""
    rng = random.Random(55)
    done = 0
    while done < 25:
        sys = random_free_system(rng, max_points=8)
        n = rng.randint(1, min(3, sys.group.order))
        data = random_castle_data(rng, sys, n)
        if data is None:
            continue
        done += 1
        phi = build_castle_ozm(data)
        recovered = decompose_ozm(phi)
        assert crossed_products[0] == 0
        assert verify_order_zero(phi)
        assert crossed_products[0] == n ** 3
        assert build_castle_ozm(recovered) == phi
        assert crossed_products[0] == n ** 3
        crossed_products[0] = 0


# -- assembly written from the levels ---------------------------------------------

ASSEMBLY_PHASES = PHASE_POOL + [RadScalar(Fraction(3, 5), Fraction(4, 5))]
# below, at and just above the zero tolerance; with a float phase of
# modulus 1 - 9e-10, which validation accepts as unit, a product of a
# weight just above the tolerance reads as zero
NEAR_ZERO_WEIGHTS = [FloatScalar(k * FLOAT_TOL) for k in (0.5, 1.0, 1.0000000000000009, 1.5, 3.0)]
SHORT_PHASE = FloatScalar(1 - 9e-10)


@st.composite
def assembly_data(draw):
    """Valid castle data in one of three modes: exact, float, or exact
    weights with float phases.  Towers often share the first shape.  Float
    weights can lie within a few FLOAT_TOL of zero, where a weight that
    reads as zero has a phase that stores nothing or a value that reads
    as zero too; float phases include one of modulus 1 - 9e-10."""
    sys = draw(st.sampled_from(ORACLE_SYSTEMS))
    order = sys.group.order
    n = draw(st.integers(1, min(3, order)))
    mode = draw(st.sampled_from(("exact", "float", "mixed")))
    float_weights, float_phases = mode == "float", mode != "exact"

    def scalar(v, as_float):
        return FloatScalar(complex(v)) if as_float else v

    first = tuple(draw(st.permutations(range(order)))[:n])
    points = draw(st.permutations(range(sys.n_points)))
    occupied = set()
    towers, weights, phases = [], [], []
    for _ in range(draw(st.integers(2, 4))):
        shape = first if draw(st.booleans()) else tuple(draw(st.permutations(range(order)))[:n])
        size = draw(st.integers(1, 2))
        base = []
        for x in points:
            if len(base) == size:
                break
            levels = [sys.act[s][p] for s in shape for p in base + [x]]
            if len(set(levels)) == len(levels) and not occupied & set(levels):
                base.append(x)
        if not base:
            continue
        occupied |= {sys.act[s][p] for s in shape for p in base}
        points = [p for p in points if p not in base]
        towers.append((frozenset(base), shape))
        pool = [scalar(v, float_weights) for v in RADICAL_WEIGHTS]
        if float_weights:
            pool = NEAR_ZERO_WEIGHTS + pool
        f = Func.from_dict(sys, {x: draw(st.sampled_from(pool)) for x in base})
        weights.append(f)
        row = []
        for _ in range(n):
            values = {}
            for x in base:
                if x in f.support:
                    pool = [scalar(v, float_phases) for v in ASSEMBLY_PHASES]
                    if float_phases:
                        pool.insert(0, SHORT_PHASE)
                    values[x] = draw(st.sampled_from(pool))
                elif draw(st.booleans()):
                    values[x] = FloatScalar(3e-10)
            row.append(Func.from_dict(sys, values))
        phases.append(tuple(row))
    data = CastleOzmData(
        castle=Castle(sys, tuple(towers)),
        weights=tuple(weights),
        phases=tuple(phases),
        n=n,
    )
    data.validate()
    return data


def _stored_values(phi):
    """Every stored value by (image, group element, point): exact values
    as their four ints, float values as the repr of the complex."""
    return {
        (key, g, x): (v.p, v.q, v.d, v.rad) if type(v) is RadScalar else repr(v.value)
        for key, a in phi.images.items()
        for g, c in enumerate(a.coeffs)
        for x, v in c.sparse.items()
    }


@settings(max_examples=300, deadline=None, derandomize=True)
@given(assembly_data())
def test_assembly_matches_the_func_oracle(data):
    assert _stored_values(castles._assemble(data)) == _stored_values(func_assemble(data))


def test_float_signed_zeros_follow_the_sum_over_towers(z2, double_swap):
    """conj(-1) is -1 - 0i, so 1 * conj(-1) * 1 has the imaginary part
    -0.0.  Written by one tower, the coefficient keeps it; a coefficient
    that a second tower also writes is the sum of both towers' terms, and
    adding the exact zero clears the sign."""
    def image_01(sys, bases):
        towers = tuple((frozenset({x}), (0, 1)) for x in bases)
        one, minus = FloatScalar(1), FloatScalar(-1)
        data = CastleOzmData(
            castle=Castle(sys, towers),
            weights=tuple(Func.from_dict(sys, {x: one}) for x in bases),
            phases=tuple(
                (Func.from_dict(sys, {x: one}), Func.from_dict(sys, {x: minus})) for x in bases
            ),
            n=2,
        )
        return castles._assemble(data).images[(0, 1)].coeffs[1].sparse

    alone = image_01(z2, [0])
    assert repr(alone[0].value) == "(-1-0j)"
    shared = image_01(double_swap, [0, 2])
    assert [repr(shared[x].value) for x in (0, 2)] == ["(-1+0j)", "(-1+0j)"]


def test_exact_castle_round_trip_forms_no_func_product_and_no_sum(monkeypatch):
    """Exact build, decompose and normalizer check on free input write
    coefficients from the levels and decide normalizers by supports: no
    Func product, no translate and no per-point sum."""
    import dynalg.normalizers as normalizers

    rng = random.Random(56)
    maps = [identity_embedding(DynSystem.translation(FiniteGroup.klein()))]
    cases = []
    while len(cases) < 20:
        sys = random_free_system(rng, max_points=8)
        data = random_castle_data(
            rng, sys, rng.randint(1, min(3, sys.group.order)), phase_pool=RADICAL_PHASES
        )
        if data is not None:
            cases.append(data)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError("%s called on free exact input" % name)
        return call

    monkeypatch.setattr(Func, "__mul__", refuse("Func.__mul__"))
    monkeypatch.setattr(Func, "compose_action", refuse("Func.compose_action"))
    monkeypatch.setattr(normalizers, "_point_product_vanishes", refuse("_point_product_vanishes"))
    for data in cases:
        phi = build_castle_ozm(data)
        assert verify_normalizer_preserving(phi)
        assert decompose_ozm(phi).castle.system is data.castle.system
        maps.append(phi)
    for phi in maps:
        assert verify_normalizer_preserving(phi)
