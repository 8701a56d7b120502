"""Normalizer predicates for the pair C(X) inside the crossed product.

An element a normalizes the diagonal when a*Da + aDa* stays diagonal; the
one-sided versions keep only one of the two conditions.  All predicates
are decided exactly over the indicator basis of C(X), which suffices by
linearity.  For free actions the one-sided condition is equivalent to the
coefficient supports being pairwise disjoint, and the matrix version has
an entrywise criterion, a per-row support criterion, and a reduction to a
single element over the product-with-cyclic system; the implementations
are kept separate so tests can demand agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import CrossedElement, Func, MatrixElement, to_product_element
from .dynsys import DynSystem
from .errors import HypothesisViolated, InvariantViolation, NotFree

__all__ = [
    "is_normalizer",
    "is_r_normalizer",
    "is_s_normalizer",
    "is_r_normalizer_by_support",
    "coefficient_supports_disjoint",
    "matrix_is_r_normalizer",
    "orthogonal_sum",
    "OrthogonalSum",
    "check_square_in_subalgebra",
    "check_normalizer_preserving",
]


def _indicator_elements(sys: DynSystem):
    for x in range(sys.n_points):
        yield CrossedElement.from_func(Func.indicator(sys, (x,)))


def is_r_normalizer(a: CrossedElement) -> bool:
    """a*Da subset of D, checked over all point indicators."""
    astar = a.adjoint()
    for chi in _indicator_elements(a.system):
        if not ((astar * chi) * a).in_diagonal:
            return False
    return True


def is_s_normalizer(a: CrossedElement) -> bool:
    """aDa* subset of D; the adjoint swaps the two one-sided conditions."""
    return is_r_normalizer(a.adjoint())


def is_normalizer(a: CrossedElement) -> bool:
    return is_r_normalizer(a) and is_s_normalizer(a)


def coefficient_supports_disjoint(a: CrossedElement) -> bool:
    """Pairwise disjointness of the open supports of the coefficients."""
    seen: set[int] = set()
    for g in a.nonzero_groups:
        supp = a.coeffs[g].support
        if seen & supp:
            return False
        seen |= supp
    return True


def is_r_normalizer_by_support(a: CrossedElement) -> bool:
    """Support characterization of r-normalizers; valid for free actions only."""
    if not a.system.is_free:
        raise NotFree("the support criterion requires a free action")
    return coefficient_supports_disjoint(a)


def _matrix_entrywise(x: MatrixElement) -> bool:
    n = x.n
    for i in range(n):
        for j in range(n):
            if not is_r_normalizer(x.entries[i][j]):
                return False
    for k in range(n):
        for i in range(n):
            if x.entries[k][i].is_zero:
                continue
            left = x.entries[k][i].adjoint()
            for j in range(i + 1, n):
                if x.entries[k][j].is_zero:
                    continue
                for chi in _indicator_elements(x.system):
                    if not ((left * chi) * x.entries[k][j]).is_zero:
                        return False
    return True


def _matrix_row_supports(x: MatrixElement) -> bool:
    if not x.system.is_free:
        raise NotFree("the support criterion requires a free action")
    for i in range(x.n):
        seen: set[int] = set()
        for j in range(x.n):
            entry = x.entries[i][j]
            for g in entry.nonzero_groups:
                supp = entry.coeffs[g].support
                if seen & supp:
                    return False
                seen |= supp
    return True


def _matrix_product_reduction(x: MatrixElement, product: Optional[DynSystem]) -> bool:
    _, y = to_product_element(x, product)
    return is_r_normalizer(y)


def matrix_is_r_normalizer(
    x: MatrixElement,
    method: str = "entrywise",
    product: Optional[DynSystem] = None,
) -> bool:
    """r-normalizer test for matrix amplifications.

    ``method`` selects the route: "entrywise" (each entry an r-normalizer
    and row-wise entry orthogonality against every indicator), "support"
    (per-row disjointness of all coefficient supports; free actions
    only), or "product" (transport to the product-with-cyclic system and
    test there).  The three must agree on free systems.
    """
    if method == "entrywise":
        return _matrix_entrywise(x)
    if method == "support":
        return _matrix_row_supports(x)
    if method == "product":
        return _matrix_product_reduction(x, product)
    raise ValueError("unknown method %r" % method)


@dataclass(frozen=True)
class OrthogonalSum:
    element: CrossedElement
    r_certified: bool
    s_certified: bool


def orthogonal_sum(
    xs: Sequence[CrossedElement],
    require_r: bool = True,
    require_s: bool = True,
) -> OrthogonalSum:
    """Sum normalizers with pairwise orthogonality certificates.

    Verifies x_i* x_j = 0 (i != j) when ``require_r`` and x_i x_j* = 0
    when ``require_s``; under the first the sum conjugates D into D from
    the right, under the second from the left, and under both it is a
    normalizer.  The certificate is re-verified by the algebraic
    predicate before returning.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("empty sum")
    for idx, x in enumerate(xs):
        if not is_normalizer(x):
            raise HypothesisViolated("summand %d is not a normalizer" % idx)
    adjoints = [x.adjoint() for x in xs]
    for i in range(len(xs)):
        for j in range(len(xs)):
            if i == j:
                continue
            if require_r and not (adjoints[i] * xs[j]).is_zero:
                raise HypothesisViolated("x_%d* x_%d != 0" % (i, j))
            if require_s and not (xs[i] * adjoints[j]).is_zero:
                raise HypothesisViolated("x_%d x_%d* != 0" % (i, j))
    total = xs[0]
    for x in xs[1:]:
        total = total + x
    result = OrthogonalSum(
        element=total,
        r_certified=require_r,
        s_certified=require_s,
    )
    if require_r and not is_r_normalizer(total):
        raise InvariantViolation("certified r-normalizer failed the predicate")
    if require_s and not is_s_normalizer(total):
        raise InvariantViolation("certified s-normalizer failed the predicate")
    return result


def check_square_in_subalgebra(a: CrossedElement) -> bool:
    """Whether a*a and aa* both lie in C(X).

    For normalizers this must hold (the pair is unital, hence
    nondegenerate), so a failure there is an internal error.
    """
    astar = a.adjoint()
    member = (astar * a).in_diagonal and (a * astar).in_diagonal
    if not member and is_normalizer(a):
        raise InvariantViolation("normalizer with a*a or aa* outside C(X)")
    return member


def check_normalizer_preserving(images, n: int) -> bool:
    """All matrix-unit images are normalizers.

    ``images`` maps (i, j) pairs to crossed-product elements.  When the
    check passes, the diagonal images must additionally lie in C(X), which
    is forced for positive maps; InvariantViolation reports a failure.
    """
    for i in range(n):
        for j in range(n):
            if not is_normalizer(images[(i, j)]):
                return False
    for i in range(n):
        if not images[(i, i)].in_diagonal:
            raise InvariantViolation("diagonal image outside C(X)")
    return True
