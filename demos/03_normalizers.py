"""One-sided normalizers and their support characterization.

An element a is an r-normalizer when a*Da stays diagonal.  For free
actions this is the same as its coefficient supports being pairwise
disjoint (``coefficient_supports_disjoint``); without freeness the two can
disagree, shown here.  A matrix amplification is an r-normalizer when its
entries are, and the entries of each row are orthogonal against every
point indicator.

Run with:  python3 demos/03_normalizers.py
"""

from dynalg import (
    CrossedElement,
    DynSystem,
    FiniteGroup,
    Func,
    MatrixElement,
    RadScalar,
    coefficient_supports_disjoint,
    is_normalizer,
    is_r_normalizer,
    matrix_is_r_normalizer,
    orthogonal_sum,
)


def mono(sys, pts, g):
    return CrossedElement.monomial(Func.indicator(sys, pts), g)


def main():
    z2 = DynSystem.translation(FiniteGroup.cyclic(2))

    good = mono(z2, {0}, 0) + mono(z2, {1}, 1)   # disjoint supports
    bad = mono(z2, {0}, 0) + mono(z2, {0}, 1)    # overlapping supports
    for name, a in (("disjoint", good), ("overlapping", bad)):
        print("%s: algebraic=%s support=%s" % (
            name, is_r_normalizer(a), coefficient_supports_disjoint(a)))

    # without freeness the support criterion is not equivalent: on the
    # trivial Z/2 action, 1 + i u has overlapping supports but the cross
    # terms cancel in a* chi a
    grp = FiniteGroup.cyclic(2)
    fixed = DynSystem(grp, ("pt",), ((0,), (0,)))
    one = Func.indicator(fixed, {0})
    a = CrossedElement.monomial(one, 0) + CrossedElement.monomial(
        one.scaled(RadScalar(0, 1)), 1
    )
    print("non-free example: supports disjoint =",
          coefficient_supports_disjoint(a),
          ", algebraic r-normalizer =", is_r_normalizer(a))

    # a matrix amplification: the two entries of the first row sit on
    # disjoint points, so they are orthogonal and the matrix passes
    z = CrossedElement.zero(z2)
    m = MatrixElement(z2, ((mono(z2, {0}, 0), mono(z2, {1}, 0)), (z, z)))
    print("matrix entrywise:", matrix_is_r_normalizer(m))

    # sums of normalizers stay normalizers under orthogonality of both
    # one-sided products; on Z/4 the pair below satisfies both
    z4 = DynSystem.translation(FiniteGroup.cyclic(4))
    out = orthogonal_sum([mono(z4, {0}, 0), mono(z4, {2}, 1)])
    print("orthogonal sum is a normalizer:", is_normalizer(out.element))


if __name__ == "__main__":
    main()
