import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from dynalg import (
    ComparisonResult,
    CrossedElement,
    DiagTuple,
    DynSystem,
    FiniteGroup,
    FloatScalar,
    Func,
    IndexOutOfRange,
    InvariantMeasure,
    NotFree,
    NotPositive,
    PreconditionFailed,
    RadScalar,
    ResourceBound,
    SystemMismatch,
    Witness,
    almost_unperforation_check,
    check_witness,
    cuntz_oracle,
    d_tau,
    diag_subequivalent,
    dynamical_comparison_check,
    extreme_invariant_measures,
    search_subequivalence,
    type_semigroup,
)

import dynalg.comparison
from _support import (
    backtracking_subequivalence,
    brute_force_subequivalence,
    enumerated_semigroup_reps,
    fraction_comparison_check,
    linalg_size_guard,
    permute_points,
    quotient_system,
    random_diag_tuple,
    random_free_system,
    random_subsets,
    semigroup_tables,
    standard_free_systems,
    table_unperforation_check,
)


# -- witness checking ----------------------------------------------------------


def test_empty_cover_accepts(z3):
    w = Witness((tuple(),))
    assert check_witness(z3, [frozenset()], [frozenset({1})], w)


def test_witness_example_z3(z3):
    w = Witness((((frozenset({0}), 1, 0),),))
    assert check_witness(z3, [{0}], [{1, 2}], w)
    w_id = Witness((((frozenset({0}), 0, 0),),))
    assert not check_witness(z3, [{0}], [{1, 2}], w_id)


def test_witness_index_errors(z3):
    w = Witness((((frozenset({0}), 1, 5),),))
    with pytest.raises(IndexOutOfRange):
        check_witness(z3, [{0}], [{1, 2}], w)
    w2 = Witness((((frozenset({9}), 1, 0),),))
    with pytest.raises(IndexOutOfRange):
        check_witness(z3, [{0}], [{1, 2}], w2)


def test_witness_pieces_nonempty():
    with pytest.raises(ValueError):
        Witness((((frozenset(), 0, 0),),))


def test_witness_tagged_disjointness(z4):
    # two pieces translated onto the same tagged point must be rejected
    w = Witness(
        (
            ((frozenset({0}), 1, 0),),
            ((frozenset({1}), 0, 0),),
        )
    )
    assert not check_witness(z4, [{0}, {1}], [{1, 2, 3}], w)


# -- search ----------------------------------------------------------------------


def test_search_examples(z3, z4):
    assert search_subequivalence(z3, [{0}], [{1, 2}]) is not None
    assert search_subequivalence(z3, [{0, 1}], [{2}]) is None
    assert search_subequivalence(z4, [{0}], [{1, 2}]) is not None


def test_search_returns_valid_witness():
    rng = random.Random(30)
    for _ in range(60):
        sys = random_free_system(rng, max_points=6)
        F = random_subsets(rng, sys, rng.randint(1, 2))
        V = random_subsets(rng, sys, rng.randint(1, 2), density=0.6)
        w = search_subequivalence(sys, F, V)
        if w is not None:
            assert check_witness(sys, F, V, w)


def test_search_complete_against_brute_force():
    rng = random.Random(31)
    for _ in range(120):
        sys = random_free_system(rng, max_points=5, max_group=3)
        F = random_subsets(rng, sys, rng.randint(1, 2), density=0.35)
        V = random_subsets(rng, sys, rng.randint(1, 2), density=0.45)
        found = search_subequivalence(sys, F, V) is not None
        assert found == brute_force_subequivalence(sys, F, V)


def test_search_lexicographically_least(z3):
    w = search_subequivalence(z3, [{0}], [{0, 1, 2}])
    # identity element and first target come first in the choice order
    assert w.rows == (((frozenset({0}), 0, 0),),)


def test_search_nonfree(fixed_point_system):
    # the search itself makes sense for non-free systems too
    assert search_subequivalence(fixed_point_system, [{2}], [{0, 1}]) is None
    assert search_subequivalence(fixed_point_system, [{0}], [{1}]) is not None


def test_search_rejects_points_out_of_range(z3):
    # a negative index would otherwise wrap onto the last point
    for F, V in (([{-1}], [{2}]), ([{5}], [{0}]), ([{0}], [{1}, {3}])):
        with pytest.raises(IndexOutOfRange):
            search_subequivalence(z3, F, V)


def test_search_matches_backtracking_oracle(fixed_point_system):
    rng = random.Random(35)
    systems = [random_free_system(rng, max_points=6) for _ in range(25)]
    systems += [fixed_point_system, quotient_system()]
    for sys in systems:
        for _ in range(40):
            F = random_subsets(rng, sys, rng.randint(0, 3), density=0.4)
            V = random_subsets(rng, sys, rng.randint(0, 3), density=0.5)
            expected = backtracking_subequivalence(sys, F, V)
            got = search_subequivalence(sys, F, V)
            if expected is None:
                assert got is None
                continue
            assert got is not None and got.n_rows == expected.n_rows
            for got_row, expected_row in zip(got.rows, expected.rows):
                assert got_row == expected_row


# -- diagonal tuples ----------------------------------------------------------------


def chi_tuple(sys, *subsets):
    return DiagTuple.indicators(sys, subsets)


def test_diag_reflexive(z3):
    a = chi_tuple(z3, {0}, {1, 2})
    ok, w = diag_subequivalent(a, a)
    assert ok
    assert all(s == 0 for row in w.rows for _, s, _ in row)


def test_diag_examples(z3):
    assert diag_subequivalent(chi_tuple(z3, {0}), chi_tuple(z3, {1, 2}))[0]
    assert not diag_subequivalent(chi_tuple(z3, {0, 1}), chi_tuple(z3, {2}))[0]


def test_diag_transitive():
    rng = random.Random(32)
    found = 0
    while found < 25:
        sys = random_free_system(rng, max_points=6)
        a = random_diag_tuple(rng, sys, rng.randint(1, 2))
        b = random_diag_tuple(rng, sys, rng.randint(1, 2))
        c = random_diag_tuple(rng, sys, rng.randint(1, 2))
        ab, _ = diag_subequivalent(a, b)
        bc, _ = diag_subequivalent(b, c)
        if ab and bc:
            found += 1
            assert diag_subequivalent(a, c)[0]


# -- d_tau ------------------------------------------------------------------------


def test_d_tau_examples(z3, double_swap):
    (mu3,) = extreme_invariant_measures(z3)
    assert d_tau(Func.zero(z3), mu3) == 0
    assert d_tau(Func.indicator(z3, {0, 1}), mu3) == Fraction(2, 3)
    mus = extreme_invariant_measures(double_swap)
    f = Func.indicator(double_swap, {0})
    assert d_tau(f, mus[0]) == Fraction(1, 2)
    assert d_tau(f, mus[1]) == 0


def test_d_tau_measures_support_not_values(z3):
    (mu,) = extreme_invariant_measures(z3)
    f = Func.from_dict(z3, {0: RadScalar(Fraction(1, 7))})
    assert d_tau(f, mu) == Fraction(1, 3)


def test_d_tau_monotone_under_subequivalence():
    rng = random.Random(33)
    found = 0
    while found < 30:
        sys = random_free_system(rng, max_points=6)
        a = random_diag_tuple(rng, sys, rng.randint(1, 2))
        b = random_diag_tuple(rng, sys, rng.randint(1, 2))
        ok, _ = diag_subequivalent(a, b)
        if not ok:
            continue
        found += 1
        for mu in extreme_invariant_measures(sys):
            assert sum(d_tau(f, mu) for f in a.entries) <= sum(d_tau(f, mu) for f in b.entries)


# -- dynamical comparison --------------------------------------------------------


def test_comparison_z2_z3(z2, z3):
    assert dynamical_comparison_check(z2).holds
    assert dynamical_comparison_check(z3).holds
    assert dynamical_comparison_check(z2).pairs_checked == 16


def test_comparison_double_swap_regression(double_swap):
    # recorded outcome: at finite scale the qualifying pairs always embed
    res = dynamical_comparison_check(double_swap)
    assert res.holds and res.exhausted


def test_comparison_bound_truncates(z3):
    res = dynamical_comparison_check(z3, max_pairs=10)
    assert res.pairs_checked == 10 and not res.exhausted


def test_comparison_matches_fraction_oracle(fixed_point_system):
    systems = standard_free_systems(max_points=6) + [fixed_point_system, quotient_system()]
    for sys in systems:
        for max_pairs in (0, 1, 17, 4 ** sys.n_points - 1, None):
            got = dynamical_comparison_check(sys, max_pairs)
            assert got == fraction_comparison_check(sys, max_pairs)


def test_comparison_first_counterexample_matches_oracle(monkeypatch, double_swap):
    # Fewer measures than orbits make qualifying pairs that do not fit, so
    # the counterexample and its position in bitmask order are compared.
    # The mixture weighs the two orbits' points differently (1/6 and 1/3
    # on double_swap), so the integer scaling is not the orbit size.
    systems = [double_swap, quotient_system()]
    rng = random.Random(36)
    systems += [random_free_system(rng, max_points=6) for _ in range(6)]
    failures = 0
    for sys in systems:
        mus = extreme_invariant_measures(sys)
        if len(mus) < 2:
            continue
        mixture = InvariantMeasure(
            sys,
            tuple(Fraction(1, 3) * a + Fraction(2, 3) * b
                  for a, b in zip(mus[0].weights, mus[1].weights)),
        )
        for measures in ([mus[0]], [mixture], [mus[-1], mixture]):
            monkeypatch.setattr(
                dynalg.comparison, "extreme_invariant_measures", lambda _s: measures
            )
            for max_pairs in (0, 1, 17, 4 ** sys.n_points - 1, None):
                got = dynamical_comparison_check(sys, max_pairs)
                assert got == fraction_comparison_check(sys, max_pairs, measures)
                failures += not got.holds
    assert failures > 0
    # pinned: only the first orbit's measure on double_swap; ({2}, {0}) is
    # the first pair where O has fewer first-orbit points but does not fit
    mus = extreme_invariant_measures(double_swap)
    monkeypatch.setattr(dynalg.comparison, "extreme_invariant_measures", lambda _s: mus[:1])
    res = dynamical_comparison_check(double_swap)
    assert res.counterexample == (frozenset({2}), frozenset({0}))
    assert (res.holds, res.pairs_checked, res.exhausted) == (False, 4 * 16 + 2, True)
    # a bound that stops just before the failing pair hides it
    assert dynamical_comparison_check(double_swap, max_pairs=65) == ComparisonResult(
        True, None, 65, exhausted=False
    )
    assert dynamical_comparison_check(double_swap, max_pairs=66) == res


def test_negative_multiplicities_rejected(z3):
    with pytest.raises(PreconditionFailed):
        type_semigroup(z3, -1)
    with pytest.raises(PreconditionFailed):
        dynamical_comparison_check(z3, max_pairs=-1)


# -- type semigroup ----------------------------------------------------------------


def test_semigroup_trivial_one_point():
    sys = DynSystem.translation(FiniteGroup.trivial())
    W = type_semigroup(sys, max_n=2)
    assert W.n_classes == 3  # 0, [chi], [chi + chi]
    order_pairs = {(i, j) for i in range(3) for j in range(3) if W.le(i, j)}
    assert order_pairs == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}
    assert W.add_classes(1, 1) == 2
    assert W.add_classes(1, 2) is None  # size 3 leaves the table


def test_semigroup_z2_translates_identified(z2):
    W = type_semigroup(z2, max_n=1)
    a = DiagTuple.indicators(z2, [{0}])
    b = DiagTuple.indicators(z2, [{1}])
    assert W.class_of(a) == W.class_of(b)


def test_semigroup_addition_matches_union(z3):
    W = type_semigroup(z3, max_n=2)
    a = DiagTuple.indicators(z3, [{0}])
    b = DiagTuple.indicators(z3, [{1}])
    ab = DiagTuple.indicators(z3, [{0, 1}])
    ia, ib, iab = W.class_of(a), W.class_of(b), W.class_of(ab)
    assert W.add_classes(ia, ib) == iab


def oracle_semigroup(sys, max_n):
    """Class supports, order and addition decided by mutual oracle search."""

    def le(A, B):
        return backtracking_subequivalence(sys, A, B) is not None

    def classify(supports):
        return next(
            (i for i, rep in enumerate(reps) if le(supports, rep) and le(rep, supports)),
            None,
        )

    subsets = [
        frozenset(x for x in range(sys.n_points) if m >> x & 1)
        for m in range(1, 1 << sys.n_points)
    ]
    reps = [()]
    for k in range(1, max_n + 1):
        for combo in itertools.combinations_with_replacement(subsets, k):
            if classify(combo) is None:
                reps.append(combo)
    order = tuple(tuple(le(a, b) for b in reps) for a in reps)
    add = {
        (i, j): classify(a + b) if len(a + b) <= max_n else None
        for i, a in enumerate(reps)
        for j, b in enumerate(reps)
    }
    return reps, order, add


def test_semigroup_matches_oracle_tables(z3, double_swap, fixed_point_system):
    for sys in (z3, double_swap, fixed_point_system):
        W = type_semigroup(sys, max_n=2)
        reps, order, add = oracle_semigroup(sys, 2)
        supports = [tuple(s for s in c.supports() if s) for c in W.classes]
        assert supports == reps
        assert semigroup_tables(W) == (order, add)


def test_semigroup_reps_match_enumeration(z2, z3, z4, double_swap, fixed_point_system):
    systems = [z2, z3, z4, double_swap, fixed_point_system, quotient_system()]
    systems += standard_free_systems(max_points=6)[5:]
    for sys in systems:
        for max_n in range(4 if sys.n_points <= 4 else 3):
            W = type_semigroup(sys, max_n)
            supports = [tuple(s for s in c.supports() if s) for c in W.classes]
            assert supports == enumerated_semigroup_reps(sys, max_n)


def test_semigroup_builds_representatives_on_first_read(z3, monkeypatch):
    built = []
    init = DiagTuple.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DiagTuple, "__init__", counting_init)
    W = type_semigroup(z3, max_n=2)
    almost_unperforation_check(W)
    W.class_of_supports([{0}, {1, 2}])
    semigroup_tables(W)
    assert built == []
    assert W.classes is W.classes
    assert len(built) == W.n_classes


def test_semigroup_multiple_adds_one_copy_at_a_time(z2):
    # 2[{0}] is represented by ({0, 1},), so a third copy still fits in
    # max_n = 2 although three copies of ({0},) would not
    W = type_semigroup(z2, max_n=2)
    two = W.add_classes(1, 1)
    three = W.add_classes(two, 1)
    assert (two, three) == (2, 3)
    assert W.add_classes(three, 1) is None


def test_class_lookup_rejects_points_out_of_range(z3):
    W = type_semigroup(z3, max_n=2)
    for supports in ([{-1}], [{5}], [{0}, {3}]):
        with pytest.raises(IndexOutOfRange):
            W.class_of_supports(supports)


def test_class_of_rejects_tuples_over_another_system(z2, z3, z4):
    # a z2 tuple names points that exist in z3, so only the system check
    # catches it; a z4 tuple is caught before its point 3 is looked up
    W = type_semigroup(z3, max_n=2)
    for a in (DiagTuple.indicators(z2, [{0, 1}]), DiagTuple.indicators(z4, [{3}])):
        with pytest.raises(SystemMismatch):
            W.class_of(a)
    assert W.class_of(DiagTuple.indicators(z3, [{0, 1}])) == W.class_of_supports([{0, 1}])


def test_semigroup_budget(z3):
    with pytest.raises(ResourceBound):
        type_semigroup(z3, max_n=3, budget=10)


def test_semigroup_budget_counted_in_closed_form(z2):
    # C(m + max_n, max_n) candidates over m = 2^|X| - 1 nonzero masks, by
    # the hockey-stick identity; no loop runs to max_n
    for m in range(20):
        for max_n in range(8):
            expected = 1 + sum(math.comb(m + k - 1, k) for k in range(1, max_n + 1))
            assert dynalg.comparison._candidate_count(m, max_n) == expected
    with pytest.raises(ResourceBound) as exc:
        type_semigroup(z2, 10**12)
    assert str(exc.value) == (
        "semigroup enumeration needs %d candidates, budget is 500000" % math.comb(3 + 10**12, 3)
    )
    # a count too long to print as a decimal string
    with pytest.raises(ResourceBound) as exc:
        type_semigroup(DynSystem.translation(FiniteGroup.cyclic(16)), 3000)
    assert str(exc.value) == (
        "semigroup enumeration needs more than 2^14000 candidates, budget is 500000"
    )


def test_semigroup_order_compatible_with_addition(z2):
    W = type_semigroup(z2, max_n=2)
    for i in range(W.n_classes):
        for j in range(W.n_classes):
            if not W.le(i, j):
                continue
            for k in range(W.n_classes):
                ik, jk = W.add_classes(i, k), W.add_classes(j, k)
                if ik is not None and jk is not None:
                    assert W.le(ik, jk)


def test_semigroup_addition_commutative_associative(z2):
    W = type_semigroup(z2, max_n=3)
    n = W.n_classes
    for i in range(n):
        for j in range(n):
            assert W.add_classes(i, j) == W.add_classes(j, i)
            for k in range(n):
                ij = W.add_classes(i, j)
                jk = W.add_classes(j, k)
                if ij is not None and jk is not None:
                    left = W.add_classes(ij, k)
                    right = W.add_classes(i, jk)
                    if left is not None and right is not None:
                        assert left == right


def test_unperforation_translation_systems(z2, z3):
    for sys in (z2, z3):
        W = type_semigroup(sys, max_n=3)
        ok, violation = almost_unperforation_check(W)
        assert ok and violation is None


def test_unperforation_synthetic_violation():
    # a two-class table where 2x <= y but x is not below y: count-vector
    # tables never look like this, so only the oracle can be shown one
    order = ((True, False), (False, True))
    add = {(0, 0): 1, (0, 1): None, (1, 0): None, (1, 1): None}
    assert table_unperforation_check(order, add, 2) == (False, (0, 1, 1))


def test_unperforation_matches_table_oracle(z2, z3, double_swap, fixed_point_system):
    rng = random.Random(41)
    systems = standard_free_systems(max_points=6)
    systems += [z2, z3, double_swap, fixed_point_system, quotient_system()]
    for _ in range(3):
        perm = list(range(3))
        rng.shuffle(perm)
        systems.append(permute_points(quotient_system(), perm))
    for sys in systems:
        for max_n in range(4):
            W = type_semigroup(sys, max_n)
            expected = table_unperforation_check(*semigroup_tables(W), W.max_n)
            assert almost_unperforation_check(W) == expected == (True, None)


def test_unperforation_reads_no_table():
    # 4,096 classes: a class-order matrix alone would take 16 MiB, but a
    # comparison reads two count vectors and the check reads none
    six_fixed_points = DynSystem(FiniteGroup.trivial(), tuple("012345"), (tuple(range(6)),))
    W = type_semigroup(six_fixed_points, 3)
    assert W.n_classes == 4096
    for call in (lambda: W.le(1, 2), lambda: almost_unperforation_check(W)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def test_unperforation_rejects_other_tables(z2):
    order, add = semigroup_tables(type_semigroup(z2, max_n=2))
    for table in (None, order, {"order": order, "add": add, "max_n": 2}):
        with pytest.raises(TypeError):
            almost_unperforation_check(table)


# -- Cuntz oracle -------------------------------------------------------------------


def test_oracle_reflexive(z3):
    a = chi_tuple(z3, {0}, {1})
    assert cuntz_oracle(a, a)


def test_oracle_examples(z3):
    assert cuntz_oracle(chi_tuple(z3, {0}), chi_tuple(z3, {1, 2}))
    assert not cuntz_oracle(chi_tuple(z3, {0, 1}), chi_tuple(z3, {2}))


def test_oracle_requires_free(fixed_point_system):
    a = DiagTuple.indicators(fixed_point_system, [{0}])
    with pytest.raises(NotFree):
        cuntz_oracle(a, a)


def test_oracle_rejects_different_systems(z2, z3):
    with pytest.raises(SystemMismatch):
        cuntz_oracle(chi_tuple(z2, {0}), chi_tuple(z3, {0}))


def test_oracle_on_crossed_elements(z3):
    a = CrossedElement.from_func(Func.indicator(z3, {0}))
    b = CrossedElement.unit(z3)
    assert cuntz_oracle(a, b)
    assert not cuntz_oracle(b, a)


def test_oracle_rejects_elements_not_self_adjoint_within_tolerance(z3):
    # the hermitian test is absolute: a relative tolerance would pass both
    unit = CrossedElement.unit(z3)
    for value in (RadScalar(1000, Fraction(1, 1000)), RadScalar(1, Fraction(1, 10**7))):
        a = CrossedElement.from_func(Func.from_dict(z3, {0: value}))
        with pytest.raises(NotPositive) as exc:
            cuntz_oracle(a, unit)
        assert str(exc.value) == "element is not self-adjoint within tolerance"


def test_oracle_rejects_a_negative_eigenvalue(z3):
    a = CrossedElement.from_func(Func.from_dict(z3, {0: RadScalar(-1)}))
    with pytest.raises(NotPositive) as exc:
        cuntz_oracle(CrossedElement.unit(z3), a)
    assert str(exc.value) == "element has an eigenvalue below -1e-09"


def test_oracle_rejects_a_non_finite_element(z2):
    # eigvalsh of diag(-1, inf) is NaN, which no tolerance test catches
    a = CrossedElement.from_func(Func(z2, [FloatScalar(-1.0), FloatScalar(float("inf"))]))
    with pytest.raises(NotPositive) as exc:
        cuntz_oracle(a, CrossedElement.unit(z2))
    assert str(exc.value) == "element has a non-finite value"


def test_oracle_builds_no_dense_representation(z3, monkeypatch):
    """The positivity test sees |G|-square blocks, never the 9-square
    representation."""
    widths = linalg_size_guard(monkeypatch, z3.group.order)
    a = CrossedElement.from_func(Func.indicator(z3, {0}))
    b = CrossedElement.unit(z3)
    assert cuntz_oracle(a, b) and not cuntz_oracle(b, a)
    assert widths


def test_subequivalence_implies_oracle():
    rng = random.Random(34)
    found = 0
    while found < 40:
        sys = random_free_system(rng, max_points=6)
        a = random_diag_tuple(rng, sys, rng.randint(1, 2))
        b = random_diag_tuple(rng, sys, rng.randint(1, 2))
        ok, _ = diag_subequivalent(a, b)
        if not ok:
            continue
        found += 1
        assert cuntz_oracle(a, b)


def test_semigroup_order_is_partial_order(z2, z3):
    for sys in (z2, z3):
        W = type_semigroup(sys, max_n=2)
        n = W.n_classes
        for i in range(n):
            assert W.le(i, i)
            for j in range(n):
                if i != j:
                    assert not (W.le(i, j) and W.le(j, i))
                for k in range(n):
                    if W.le(i, j) and W.le(j, k):
                        assert W.le(i, k)
