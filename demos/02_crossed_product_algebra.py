"""Exact crossed-product arithmetic and the faithful representation.

Elements are finite sums  a = sum_g a_g u_g  with a_g in C(X).  The
demo multiplies, takes adjoints and expectations, and compares exact
identities against the float representation.

Run with:  python3 demos/02_crossed_product_algebra.py
"""

from fractions import Fraction

from dynalg import (
    CrossedElement,
    DynSystem,
    FiniteGroup,
    Func,
    RadScalar,
    cond_expectation,
    open_support,
    operator_norm,
    orbit_block_decomposition,
)


def main():
    z3 = DynSystem.translation(FiniteGroup.cyclic(3))
    chi0 = Func.indicator(z3, {0})

    # the covariance convention: conjugating an indicator moves its point
    u = CrossedElement.unitary(z3, 1)
    moved = u * CrossedElement.from_func(chi0) * u.adjoint()
    print("u chi_0 u* =", moved)

    # a = chi_0 u_1 is a partial isometry onto its translate: a*a = chi_2
    a = CrossedElement.monomial(chi0, 1)
    print("a* a =", a.adjoint() * a)
    print("E(a* a) =", cond_expectation(a.adjoint() * a))

    # exact radical scalars: (1/2) sqrt 2 squares back to 1/2
    s = RadScalar(Fraction(1, 2), 0, 2)
    print("s =", s, ", s^2 =", s * s)

    # supports and cutdowns are decided exactly
    f = Func.from_dict(z3, {0: RadScalar(1), 1: RadScalar(Fraction(1, 3))})
    print("supp f =", sorted(open_support(f)))
    print("supp (f - 1/2)_+ =", sorted(open_support(f.cutdown(Fraction(1, 2)))))

    # norms go through the representation; chi_0 (1 + u) has norm sqrt 2
    z2 = DynSystem.translation(FiniteGroup.cyclic(2))
    c = Func.indicator(z2, {0})
    b = CrossedElement.from_func(c) + CrossedElement.monomial(c, 1)
    print("norm =", operator_norm(b))

    # one matrix block per free orbit; unitaries become permutation matrices
    for block in orbit_block_decomposition(CrossedElement.unitary(z3, 1)):
        print("block over orbit", block.orbit)
        for row in block.entries:
            print("  ", [str(v) for v in row])


if __name__ == "__main__":
    main()
