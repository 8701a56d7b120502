import random
from fractions import Fraction

import pytest

from dynalg import (
    DiagTuple,
    Func,
    InvalidWitness,
    MatrixElement,
    NotPositive,
    PreconditionFailed,
    RadScalar,
    Witness,
    check_witness,
    compile_witness,
    cuntz_oracle,
    extract_witness,
    matrix_is_r_normalizer,
    operator_norm,
    prop_equivalence_suite,
    search_subequivalence,
)

from dynalg.scalars import FLOAT_TOL

from _support import matrix_row_supports, random_free_system


def chi_tuple(sys, *subsets):
    return DiagTuple.indicators(sys, subsets)


def rational_tuple(rng, sys, size):
    pool = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(3, 4)]
    entries = []
    for _ in range(size):
        vals = {
            x: RadScalar(rng.choice(pool))
            for x in range(sys.n_points)
            if rng.random() < 0.55
        }
        entries.append(Func.from_dict(sys, vals))
    return DiagTuple(sys, tuple(entries))


# -- compile -------------------------------------------------------------------


def test_compile_standard_z3_instance(z3):
    a = chi_tuple(z3, {0})
    b = chi_tuple(z3, {1, 2})
    w = Witness((((frozenset({0}), 1, 0),),))
    cert = compile_witness(a, b, Fraction(1, 2), w)
    assert cert.delta == Fraction(1, 2)
    assert matrix_is_r_normalizer(cert.t)
    assert matrix_row_supports(cert.t)
    # t = (1/sqrt(1-delta)) sqrt(1/2) (translate term): single entry
    entry = cert.t.entries[0][0]
    assert entry.nonzero_groups == (1,)
    assert entry.coeffs[1].values[1] == RadScalar(1)  # sqrt(1/2)/sqrt(1/2) = 1


def test_compile_zero_target(z3):
    a = chi_tuple(z3, {0})
    b = chi_tuple(z3, {1, 2})
    w = Witness((tuple(),))
    cert = compile_witness(a, b, Fraction(2), w)  # eps above max(a)
    assert all(e.is_zero for row in cert.t.entries for e in row)


def test_compile_two_piece_partition(z4):
    # a two-point support split across two pieces with different moves
    a = chi_tuple(z4, {0, 1})
    b = chi_tuple(z4, {2, 3})
    w = Witness(
        ((
            (frozenset({0}), 2, 0),
            (frozenset({1}), 2, 0),
        ),)
    )
    cert = compile_witness(a, b, Fraction(1, 2), w)
    # sum of squares of the partition roots rebuilds the cutdown exactly
    total = Func.zero(z4)
    for f in cert.partition_roots.values():
        total = total + f * f
    assert total == a.cutdown(Fraction(1, 2)).entries[0]


def test_compile_rejects_bad_witness(z3):
    a = chi_tuple(z3, {0, 1})
    b = chi_tuple(z3, {2})
    w = Witness((((frozenset({0, 1}), 1, 0),),))
    with pytest.raises(InvalidWitness):
        compile_witness(a, b, Fraction(1, 2), w)


def test_compile_rejects_nonpositive_eps(z3):
    a = chi_tuple(z3, {0})
    b = chi_tuple(z3, {1, 2})
    w = Witness((((frozenset({0}), 1, 0),),))
    with pytest.raises(NotPositive):
        compile_witness(a, b, 0, w)


# -- extract -------------------------------------------------------------------


def test_extract_roundtrip_z3(z3):
    a = chi_tuple(z3, {0})
    b = chi_tuple(z3, {1, 2})
    w = Witness((((frozenset({0}), 1, 0),),))
    cert = compile_witness(a, b, Fraction(1, 2), w)
    w2 = extract_witness(a, b, cert.epsilon, cert.delta, cert.t)
    assert check_witness(
        z3, a.cutdown(cert.epsilon).supports(), b.supports(), w2
    )


def test_extract_zero_certificate(z3):
    a = chi_tuple(z3, {0})
    b = chi_tuple(z3, {1, 2})
    t = MatrixElement.zero(z3, 1)
    w = extract_witness(a, b, Fraction(2), Fraction(1, 2), t)
    assert w.rows == (tuple(),)


def test_extract_rejects_corrupted_t(z3):
    a = chi_tuple(z3, {0})
    b = chi_tuple(z3, {1, 2})
    w = Witness((((frozenset({0}), 1, 0),),))
    cert = compile_witness(a, b, Fraction(1, 2), w)
    bad = cert.t + cert.t  # doubles the entry, breaks the identity
    with pytest.raises(PreconditionFailed):
        extract_witness(a, b, cert.epsilon, cert.delta, bad)


def test_extract_handbuilt_two_group_elements(z4):
    # b covers two tagged targets reached with two different moves
    a = chi_tuple(z4, {0, 1})
    b = chi_tuple(z4, {1}, {3})
    w = search_subequivalence(z4, a.cutdown(Fraction(1, 2)).supports(), b.supports())
    cert = compile_witness(a, b, Fraction(1, 2), w)
    w2 = extract_witness(a, b, cert.epsilon, cert.delta, cert.t)
    rows = [trip for row in w2.rows for trip in row]
    assert len({s for _, s, _ in rows}) >= 2
    assert check_witness(z4, a.cutdown(Fraction(1, 2)).supports(), b.supports(), w2)


# -- randomized exactness ---------------------------------------------------------


def test_compile_exactness_randomized():
    rng = random.Random(40)
    done = 0
    while done < 60:
        sys = random_free_system(rng, max_points=6)
        a = rational_tuple(rng, sys, rng.randint(1, 2))
        b = rational_tuple(rng, sys, rng.randint(1, 2))
        eps = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(1)])
        acut = a.cutdown(eps)
        w = search_subequivalence(sys, acut.supports(), b.supports())
        if w is None:
            continue
        done += 1
        cert = compile_witness(a, b, eps, w)  # verifies the identity internally
        assert matrix_is_r_normalizer(cert.t)
        assert matrix_row_supports(cert.t)
        w2 = extract_witness(a, b, eps, cert.delta, cert.t)
        assert check_witness(sys, acut.supports(), b.supports(), w2)
        assert cuntz_oracle(a.cutdown(eps), b)


# -- the three-way equivalence suite -------------------------------------------------


def test_suite_consistent_when_subequivalent(z3):
    a = chi_tuple(z3, {0})
    b = chi_tuple(z3, {1, 2})
    report = prop_equivalence_suite(a, b)
    assert report.subequivalent and report.consistent
    assert all(r.compiled for r in report.eps_results)
    assert all(
        r.residual_norm <= r.residual_bound for r in report.eps_results
    )


def test_suite_residual_bound_adds_the_float_tolerance(z3):
    """The approximate-conjugation bound is eps + delta ||t||^2 plus the
    one float tolerance FLOAT_TOL, with t the compiled certificate."""
    a = chi_tuple(z3, {0})
    b = chi_tuple(z3, {1, 2})
    row = prop_equivalence_suite(a, b).eps_results[0]
    w = search_subequivalence(z3, a.cutdown(row.eps).supports(), b.supports())
    cert = compile_witness(a, b, row.eps, w)
    tnorm = operator_norm(cert.t)
    assert row.delta == cert.delta == Fraction(1, 2)
    assert row.residual_bound == float(row.eps) + float(cert.delta) * tnorm * tnorm + FLOAT_TOL


def test_suite_identity_case(z3):
    a = chi_tuple(z3, {0, 1})
    report = prop_equivalence_suite(a, a)
    assert report.subequivalent and report.consistent


def test_suite_refutation(z3):
    a = chi_tuple(z3, {0, 1})
    b = chi_tuple(z3, {2})
    report = prop_equivalence_suite(a, b)
    assert not report.subequivalent and report.consistent
    assert any(not r.witness_found for r in report.eps_results)
    assert any("no witness" in note for note in report.notes)


def test_suite_randomized_consistency():
    rng = random.Random(42)
    for _ in range(25):
        sys = random_free_system(rng, max_points=5, max_group=3)
        a = rational_tuple(rng, sys, 1)
        b = rational_tuple(rng, sys, 1)
        report = prop_equivalence_suite(a, b)
        assert report.consistent
