import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import dynalg.witness
from dynalg import (
    DiagTuple,
    DynSystem,
    FiniteGroup,
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

from _support import (
    indicator_matrix_entrywise,
    matrix_row_supports,
    quotient_system,
    random_free_system,
    standard_free_systems,
)


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


def identity_holds(a, b, eps, cert) -> bool:
    """t*(b - delta)_+ t = (a - eps)_+ exactly, both sides padded to t's size."""
    n = cert.t.n
    bcut = b.cutdown(cert.delta).padded(n).to_matrix()
    return (cert.t.adjoint() * bcut) * cert.t == a.cutdown(eps).padded(n).to_matrix()


# drawn half the time each: the free systems of at most six points, and
# Z/4 acting through Z/2 with a fixed point or Z/2 swapping two points and
# fixing a third
WITNESS_SYSTEMS = st.sampled_from(standard_free_systems(max_points=6)) | st.sampled_from([
    quotient_system(),
    DynSystem(FiniteGroup.cyclic(2), ("0", "1", "2"), ((0, 1, 2), (1, 0, 2))),
])


def drawn_witness(rng, sys, F, V):
    """A valid witness for F against V drawn target by target, or None when
    a point of F finds no free target.

    Each point of F_i takes one or two free tagged targets (s.p, k), and
    up to two points outside F_i take one, so pieces overlap and cover
    more than F_i.  The points one (s, k) receives may split into two
    pieces, and each row lists its pieces in shuffled order.
    """
    free = {(y, k) for k, Vk in enumerate(V) for y in Vk}

    def take(p):
        options = sorted(
            (s, k)
            for s in range(sys.group.order)
            for k in range(len(V))
            if (sys.act[s][p], k) in free
        )
        if not options:
            return None
        s, k = rng.choice(options)
        free.discard((sys.act[s][p], k))
        return s, k

    rows = []
    for Fi in F:
        sent: dict[tuple[int, int], list] = {}
        outside = [p for p in range(sys.n_points) if p not in Fi]
        extra = rng.sample(outside, rng.randint(0, min(2, len(outside))))
        for p in sorted(Fi):
            targets = [take(p)]
            if targets[0] is None:
                return None
            if rng.random() < 0.5:
                targets.append(take(p))
            for target in targets:
                if target is not None:
                    sent.setdefault(target, []).append(p)
        for p in extra:
            target = take(p)
            if target is not None:
                sent.setdefault(target, []).append(p)
        row = []
        for (s, k), pts in sorted(sent.items()):
            cut = rng.randrange(len(pts))
            row += [(frozenset(piece), s, k) for piece in (pts[:cut], pts[cut:]) if piece]
        rng.shuffle(row)
        rows.append(tuple(row))
    return Witness(tuple(rows))


@st.composite
def compiler_instances(draw, least):
    """(a, b, eps, w) with w the least witness for the cutdown supports of a
    against the supports of b, or one from ``drawn_witness``."""
    sys = draw(WITNESS_SYSTEMS)
    rng = draw(st.randoms(use_true_random=False))
    a = rational_tuple(rng, sys, rng.randint(1, 2))
    b = rational_tuple(rng, sys, rng.randint(1, 3))
    eps = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)])
    F, V = a.cutdown(eps).supports(), b.supports()
    w = search_subequivalence(sys, F, V) if least else drawn_witness(rng, sys, F, V)
    assume(w is not None)
    return a, b, eps, w


@pytest.mark.parametrize("least", [True, False], ids=["least", "drawn"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_compiled_certificates_pass_the_oracles(least, data):
    """compile_witness checks no certificate; each one it builds is an
    r-normalizer by the test-suite oracles, satisfies the exact identity and
    decompiles to a valid witness, on free and non-free systems alike."""
    a, b, eps, w = data.draw(compiler_instances(least))
    sys = a.system
    F, V = a.cutdown(eps).supports(), b.supports()
    assert check_witness(sys, F, V, w)
    cert = compile_witness(a, b, eps, w)
    assert indicator_matrix_entrywise(cert.t)
    if sys.is_free:
        assert matrix_row_supports(cert.t)
    assert identity_holds(a, b, eps, cert)
    assert check_witness(sys, F, V, extract_witness(a, b, eps, cert.delta, cert.t))


def test_compile_checks_no_certificate(monkeypatch, z3):
    """The certificate is proved from the witness, not checked again: compile
    asks no r-normalizer question and forms no matrix product."""
    def refuse(*args):
        raise AssertionError("compile_witness checked its certificate")

    q = quotient_system()
    instances = [
        (chi_tuple(z3, {0}), chi_tuple(z3, {1, 2})),
        (chi_tuple(q, {0, 2}, {1}), chi_tuple(q, {0, 1, 2})),
    ]
    monkeypatch.setattr(dynalg.witness, "matrix_is_r_normalizer", refuse)
    monkeypatch.setattr(MatrixElement, "__mul__", refuse)
    certs = []
    for a, b in instances:
        w = search_subequivalence(a.system, a.cutdown(Fraction(1, 2)).supports(), b.supports())
        certs.append(compile_witness(a, b, Fraction(1, 2), w))
    monkeypatch.undo()
    for (a, b), cert in zip(instances, certs):
        assert identity_holds(a, b, Fraction(1, 2), cert)
        assert matrix_is_r_normalizer(cert.t)


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
        cert = compile_witness(a, b, eps, w)
        assert identity_holds(a, b, eps, cert)
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
