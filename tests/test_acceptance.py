"""Acceptance suite: one test per criterion, each printing a PASS line.

Sweep sizes and time limits are part of the contract; random seeds are
fixed so every run exercises the same instances.
"""

import random
import time
from fractions import Fraction

import pytest

from dynalg import (
    Castle,
    CrossedElement,
    DiagTuple,
    DynSystem,
    FiniteGroup,
    Func,
    RadScalar,
    TzsInstance,
    almost_finiteness_certificate,
    almost_unperforation_check,
    build_castle_ozm,
    check_tzs_instance,
    check_witness,
    compile_witness,
    cuntz_oracle,
    decompose_ozm,
    diag_subequivalent,
    dynamical_comparison_check,
    extract_witness,
    identity_embedding,
    is_r_normalizer,
    matrix_is_r_normalizer,
    orbit_castle,
    product_with_cyclic,
    search_subequivalence,
    type_semigroup,
    validate_system,
    verify_cpc,
    verify_normalizer_preserving,
    verify_order_zero,
)

from _support import (
    brute_force_subequivalence,
    is_r_normalizer_by_support,
    matrix_product_reduction,
    matrix_row_supports,
    random_element,
    random_disjoint_support_element,
    random_free_system,
    random_matrix,
    random_subsets,
    standard_free_systems,
)
from test_castles import random_castle_data


def _report(name, detail, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, "%s exceeded %gs (took %.1fs)" % (name, limit, elapsed)
    print("PASS %s: %s (%.1fs < %gs)" % (name, detail, elapsed, limit))


def test_criterion_01_support_characterization():
    started = time.perf_counter()
    rng = random.Random(101)
    systems = standard_free_systems(max_points=8, max_group=4)
    assert any(s.group.order == 4 and len(s.points) == 4 for s in systems)  # Z/4, Klein
    assert any(len(s.orbit_partition) > 1 for s in systems)  # multi-orbit
    checked = 0
    disagreements = 0
    while checked < 1000:
        if rng.random() < 0.5:
            sys = rng.choice(systems)
        else:
            sys = random_free_system(rng, max_group=4, max_points=8)
        a = (
            random_element(rng, sys)
            if rng.random() < 0.5
            else random_disjoint_support_element(rng, sys)
        )
        if is_r_normalizer(a) != is_r_normalizer_by_support(a):
            disagreements += 1
        checked += 1
    assert disagreements == 0
    _report(
        "criterion 1 (support characterization)",
        "%d elements, %d disagreements" % (checked, disagreements),
        started,
        60,
    )


def test_criterion_02_matrix_criterion_equivalence():
    started = time.perf_counter()
    rng = random.Random(102)
    bases = [s for s in standard_free_systems(max_points=6, max_group=4)]
    products = {}
    checked = 0
    disagreements = 0
    while checked < 300:
        sys = rng.choice(bases)
        n = rng.randint(1, 3)
        key = (id(sys), n)
        if key not in products:
            products[key] = product_with_cyclic(sys, n)
        m = random_matrix(rng, sys, n, density=0.35)
        e = matrix_is_r_normalizer(m)
        s = matrix_row_supports(m)
        p = matrix_product_reduction(m, products[key])
        if not (e == s == p):
            disagreements += 1
        checked += 1
    assert disagreements == 0
    _report(
        "criterion 2 (matrix criterion equivalence)",
        "%d matrices, %d disagreements" % (checked, disagreements),
        started,
        120,
    )


VALUES = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(3, 4)]


def _rational_tuple(rng, sys, size, density=0.5):
    entries = []
    for _ in range(size):
        vals = {
            x: RadScalar(rng.choice(VALUES))
            for x in range(sys.n_points)
            if rng.random() < density
        }
        entries.append(Func.from_dict(sys, vals))
    return DiagTuple(sys, tuple(entries))


def _compiler_instances(seed, target):
    """Randomized (a, b, eps, witness) instances with a <= b witnessed."""
    rng = random.Random(seed)
    done = 0
    while done < target:
        sys = random_free_system(rng, max_points=6)
        a = _rational_tuple(rng, sys, rng.randint(1, 2), density=0.4)
        b = _rational_tuple(rng, sys, rng.randint(1, 2), density=0.6)
        ok, w = diag_subequivalent(a, b)
        if not ok:
            continue
        eps = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)])
        done += 1
        yield sys, a, b, eps, w


def test_criterion_03_and_04_compiler_exactness_and_oracle():
    started = time.perf_counter()
    failures = 0
    oracle_violations = 0
    count = 0
    for sys, a, b, eps, w in _compiler_instances(103, 200):
        count += 1
        cert = compile_witness(a, b, eps, w)
        if not matrix_is_r_normalizer(cert.t):
            failures += 1
        n = cert.t.n
        bcut = b.cutdown(cert.delta).padded(n).to_matrix()
        if (cert.t.adjoint() * bcut) * cert.t != a.cutdown(eps).padded(n).to_matrix():
            failures += 1
        w2 = extract_witness(a, b, eps, cert.delta, cert.t)
        if not check_witness(sys, a.cutdown(eps).supports(), b.supports(), w2):
            failures += 1
        if not cuntz_oracle(a, b):
            oracle_violations += 1
    assert count >= 200 and failures == 0
    _report(
        "criterion 3 (witness compiler exactness)",
        "%d instances, %d failures" % (count, failures),
        started,
        120,
    )
    assert oracle_violations == 0
    print(
        "PASS criterion 4 (subequivalence implies rank oracle): %d instances, %d violations"
        % (count, oracle_violations)
    )


def test_criterion_05_castle_ozm_round_trip():
    started = time.perf_counter()
    rng = random.Random(105)
    done = 0
    failures = 0
    while done < 200:
        sys = random_free_system(rng, max_points=8)
        n = rng.randint(1, min(3, sys.group.order))
        data = random_castle_data(rng, sys, n)
        if data is None:
            continue
        done += 1
        phi = build_castle_ozm(data)
        if not verify_cpc(phi):
            failures += 1
        if not verify_order_zero(phi):
            failures += 1
        if not verify_normalizer_preserving(phi):
            failures += 1
        recovered = decompose_ozm(phi)
        if build_castle_ozm(recovered) != phi:
            failures += 1
    assert failures == 0
    _report(
        "criterion 5 (castle map round trip)",
        "%d data sets, %d failures" % (done, failures),
        started,
        180,
    )


def test_criterion_06_decomposition_of_given_maps():
    started = time.perf_counter()
    rng = random.Random(106)
    phases = [RadScalar(1), RadScalar(-1), RadScalar(0, 1), RadScalar(0, -1)]
    done = 0
    failures = 0
    while done < 150:
        sys = random_free_system(rng, max_points=8)
        n = rng.randint(1, min(3, sys.group.order))
        data = random_castle_data(rng, sys, n, max_towers=3, phase_pool=phases)
        if data is None:
            continue
        done += 1
        phi = build_castle_ozm(data)
        # treat phi as the given map: it is normalizer-preserving cpc order
        # zero, so decomposition must succeed and rebuild exactly
        recovered = decompose_ozm(phi)
        if build_castle_ozm(recovered) != phi:
            failures += 1
    assert failures == 0
    _report(
        "criterion 6 (normalizer-preserving maps decompose)",
        "%d maps, %d failures" % (done, failures),
        started,
        180,
    )


def _small_free_systems(max_points, max_group):
    """All free systems with |X| <= max_points, |G| <= max_group, up to
    relabeling: disjoint unions of translation copies."""
    out = []
    for grp_builder in (FiniteGroup.trivial, lambda: FiniteGroup.cyclic(2), lambda: FiniteGroup.cyclic(3)):
        grp = grp_builder()
        if grp.order > max_group:
            continue
        sys = None
        while True:
            nxt = (
                DynSystem.translation(grp)
                if sys is None
                else DynSystem.disjoint_union(sys, DynSystem.translation(grp))
            )
            if nxt.n_points > max_points:
                break
            out.append(nxt)
            sys = nxt
    return out


def test_criterion_07_comparison_unperforation_consistency():
    started = time.perf_counter()
    systems = _small_free_systems(6, 3)
    assert len(systems) >= 10
    for sys in systems:
        validate_system(sys)
        comparison = dynamical_comparison_check(sys)
        W = type_semigroup(sys, max_n=3)
        unperforated, violation = almost_unperforation_check(W)
        if sys.is_minimal:
            assert comparison.holds, "comparison failed on a transitive system"
            assert unperforated, "unperforation failed on a transitive system"
        assert comparison.holds == unperforated, (
            "verdicts disagree on %r" % sys
        )
    _report(
        "criterion 7 (comparison vs unperforation)",
        "%d systems, all consistent" % len(systems),
        started,
        600,
    )


def test_criterion_08_almost_finiteness_sanity():
    started = time.perf_counter()
    transitive = [
        s for s in standard_free_systems(max_points=8, max_group=4) if s.is_minimal
    ]
    for sys in transitive:
        castle = orbit_castle(sys)
        for delta in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
            cert = almost_finiteness_certificate(
                sys, K=range(sys.group.order), delta=delta, castle=castle,
                primes=[set()],
            )
            assert cert.ok, "orbit castle failed on %r at delta=%s" % (sys, delta)
    grp = FiniteGroup.cyclic(2)
    half = DynSystem.translation(grp)
    two_orbit = DynSystem.disjoint_union(half, DynSystem.translation(grp))
    undersized = Castle(two_orbit, ((frozenset({0}), (0, 1)),))
    cert = almost_finiteness_certificate(
        two_orbit, K=[1], delta=Fraction(1, 2), castle=undersized, primes=[set()]
    )
    assert not cert.remainder_ok and not cert.ok
    _report(
        "criterion 8 (almost finiteness sanity)",
        "%d transitive systems pass, undersized castle fails condition (c)"
        % len(transitive),
        started,
        60,
    )


def test_criterion_09_tzs_instance_evaluation():
    started = time.perf_counter()
    z3 = DynSystem.translation(FiniteGroup.cyclic(3))
    phi = identity_embedding(z3)
    inst = TzsInstance(
        n=3,
        epsilon=Fraction(1, 10),
        F=(CrossedElement.unit(z3), CrossedElement.unitary(z3, 1)),
        h=Func.indicator(z3, {0}),
    )
    report = check_tzs_instance(inst, phi)
    assert report.normalizer_condition
    assert report.remainder_condition
    assert report.remainder_witness is not None  # 1 - phi(1) = 0: empty witness
    assert report.remainder_witness.rows == (tuple(),)
    # margins within float tolerance: commutators with the unit vanish, the
    # unitary gives norm-1 commutators on off-diagnoal units
    for ai, i, j, value in report.commutator_margins:
        if ai == 0:
            assert abs(value) <= 1e-9
    assert report.max_commutator == pytest.approx(1.0, abs=1e-9)
    assert check_tzs_instance(inst, phi) == report
    _report(
        "criterion 9 (stability instance evaluation)",
        "conditions (i)+(ii) pass, margins reported, report reproducible",
        started,
        60,
    )


def test_criterion_10_search_completeness():
    started = time.perf_counter()
    # exhaustive sweep on systems with at most 3 points
    exhaustive = 0
    for sys in _small_free_systems(3, 3):
        subsets = [
            frozenset(x for x in range(sys.n_points) if m >> x & 1)
            for m in range(1 << sys.n_points)
        ]
        singles = [(F,) for F in subsets] + [
            (F1, F2) for F1 in subsets for F2 in subsets
        ]
        targets = [(V,) for V in subsets]
        if sys.n_points <= 2:
            targets += [(V1, V2) for V1 in subsets for V2 in subsets]
        for F in singles:
            for V in targets:
                found = search_subequivalence(sys, F, V) is not None
                assert found == brute_force_subequivalence(sys, F, V)
                exhaustive += 1
    # randomized sweep up to the full bound
    rng = random.Random(110)
    randomized = 0
    while randomized < 400:
        sys = random_free_system(rng, max_points=5, max_group=3)
        F = random_subsets(rng, sys, rng.randint(1, 2), density=0.4)
        V = random_subsets(rng, sys, rng.randint(1, 2), density=0.45)
        found = search_subequivalence(sys, F, V) is not None
        assert found == brute_force_subequivalence(sys, F, V)
        randomized += 1
    _report(
        "criterion 10 (search completeness)",
        "%d exhaustive + %d randomized instances agree with brute force"
        % (exhaustive, randomized),
        started,
        300,
    )
