"""Normalizer predicates for the pair C(X) inside the crossed product.

An element a normalizes the diagonal when a*Da + aDa* stays diagonal; the
one-sided versions keep only one of the two conditions.  By linearity it
suffices to test the point indicators chi_x, and those products have a
closed form in the coefficients: the u_k coefficient of b* chi_x c is

    sum_h conj(b_h(x)) c_{hk}(x) chi_{h^{-1} x},

so a is an r-normalizer exactly when, for every point x, these sums
vanish for every k != e and every point.  A matrix amplification is
decided entrywise: every entry is an r-normalizer, and two entries of one
row give zero against every point indicator.

On a free action with exact values no sum is ever formed.  The term
for h and l = hk sits at the point h^{-1}.x on u_{h^{-1} l}; the point
fixes h and the group element then fixes l, so each (k, point) gets at
most one term, and a product of two nonzero exact values is nonzero.
There a stores only nonzero values, and the predicates decide by
supports alone, with no scalar operation and no adjoint:

* a is an r-normalizer exactly when no point is stored by two
  coefficients;
* a is an s-normalizer (a* an r-normalizer) exactly when the sets
  h^{-1}.stored(a_h) are pairwise disjoint, since a*_{h^{-1}} stores
  exactly h^{-1}.stored(a_h);
* two entries of one row pass exactly when they store no common point.

The sums cannot raise RadicalAdditionMismatch there either, so verdicts
and exceptions are those of the sums.  On a non-free action several
terms can land on one point and cancel, and a float product can read as
zero within the tolerance, so non-free or float input takes the sum
route: the sums are evaluated directly, with no crossed products.  Every
term of the sum at x carries the factor b_h(x) c_{hk}(x), so the sums
vanish at every point x where b or c stores no coefficient value; the
sum route visits only the points that carry a coefficient (of a, or of
both entries of a row pair), in ascending order, so the first point
whose sums raise RadicalAdditionMismatch is the same as in a pass over
every point.

The test suite keeps the support criterion of
``coefficient_supports_disjoint``, a per-row support criterion for
matrices and the reduction of a matrix to one element over the
product-with-cyclic system as independent oracles, and requires the
predicates here to agree with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import CrossedElement, MatrixElement, Scalar, _source_points, _stored_points
from .errors import HypothesisViolated, InvariantViolation, NotNormalizerPreserving
from .scalars import RadScalar

__all__ = [
    "is_normalizer",
    "is_r_normalizer",
    "is_s_normalizer",
    "coefficient_supports_disjoint",
    "matrix_is_r_normalizer",
    "orthogonal_sum",
    "OrthogonalSum",
    "check_normalizer_preserving",
]


def _point_product_vanishes(
    b: CrossedElement, c: CrossedElement, x: int, diagonal_allowed: bool
) -> bool:
    """Whether b* chi_x c vanishes (or, with ``diagonal_allowed``, lies in C(X)).

    The term for h = g^{-1} and a group l of c is conj(b_h(x)) c_l(x) at
    the point g.x on u_{gl}; only the g whose b_{g^{-1}} is nonzero
    contribute.  Terms are summed per (group, point) in the order the
    product (b* chi_x) c sums them, acting element g ascending and then l
    ascending, with the same zero shortcuts (a running coefficient that
    is zero everywhere is replaced by the next term), so
    RadicalAdditionMismatch is raised in exactly the same cases.  Sums are
    keyed by point as well as group because on a non-free action several
    terms can land on one point and cancel.
    """
    sys = b.system
    grp = sys.group
    acc: dict[int, dict[int, Scalar]] = {}
    for g, h in sorted((grp.inv(h), h) for h in b.nonzero_groups):
        bx = b.coeffs[h].sparse.get(x)
        if bx is None or bx.is_zero:
            continue
        left = bx.conjugate()
        y = sys.act[g][x]
        for l in c.nonzero_groups:
            cx = c.coeffs[l].sparse.get(x)
            if cx is None or cx.is_zero:
                continue
            term = left * cx
            if term.is_zero:
                continue
            k = grp.mul(g, l)
            row = acc.get(k)
            if row is None or all(v.is_zero for v in row.values()):
                acc[k] = {y: term}
            else:
                row[y] = row[y] + term if y in row else term
    e = grp.identity
    return all(
        v.is_zero
        for k, row in acc.items()
        if not (diagonal_allowed and k == e)
        for v in row.values()
    )


def _exact_on_free(*elements: CrossedElement) -> bool:
    """Whether the support route decides: a free action and only exact
    values stored."""
    return elements[0].system.is_free and all(
        type(v) is RadScalar for a in elements for c in a.coeffs for v in c.sparse.values()
    )


def _stored_count(a: CrossedElement) -> int:
    return sum(len(c.sparse) for c in a.coeffs)


def is_r_normalizer(a: CrossedElement) -> bool:
    """a*Da subset of D, decided from the coefficients.

    For each point x the u_k coefficient of a* chi_x a is
    sum_h conj(a_h(x)) a_{hk}(x) chi_{h^{-1} x}; a is an r-normalizer
    exactly when every such sum with k != e vanishes at every point.  On
    a free action with exact values that holds exactly when no point is
    stored by two coefficients.  Otherwise the sums are evaluated; at a
    point where no coefficient stores a value they have no term, so only
    the other points are visited, in ascending order.
    """
    if _exact_on_free(a):
        return len(_stored_points(a)) == _stored_count(a)
    return all(
        _point_product_vanishes(a, a, x, diagonal_allowed=True)
        for x in sorted(_stored_points(a))
    )


def is_s_normalizer(a: CrossedElement) -> bool:
    """aDa* subset of D; the adjoint swaps the two one-sided conditions.

    a*_{h^{-1}} stores exactly the points h^{-1}.stored(a_h), so on a
    free action with exact values a is an s-normalizer exactly when these
    sets are pairwise disjoint, and no adjoint is formed.
    """
    if _exact_on_free(a):
        return len(_source_points(a)) == _stored_count(a)
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


def matrix_is_r_normalizer(x: MatrixElement) -> bool:
    """r-normalizer test for matrix amplifications.

    Each entry must be an r-normalizer, and any two entries x_ki, x_kj
    (i < j) of one row must satisfy x_ki* chi_p x_kj = 0 at every point p;
    that product has no term unless both entries store a value at p, so
    only those points are visited, in ascending order.  On a free action
    with exact values a row pair passes exactly when its entries store no
    common point.
    """
    n = x.n
    for i in range(n):
        for j in range(n):
            if not is_r_normalizer(x.entries[i][j]):
                return False
    for k in range(n):
        for i in range(n):
            left = x.entries[k][i]
            if left.is_zero:
                continue
            for j in range(i + 1, n):
                right = x.entries[k][j]
                if right.is_zero:
                    continue
                common = _stored_points(left) & _stored_points(right)
                if common and _exact_on_free(left, right):
                    return False
                for p in sorted(common):
                    if not _point_product_vanishes(left, right, p, diagonal_allowed=False):
                        return False
    return True


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


def check_normalizer_preserving(images, n: int) -> bool:
    """All matrix-unit images are normalizers.

    ``images`` maps (i, j) pairs to crossed-product elements.  When the
    check passes, the diagonal images must additionally lie in C(X).  An
    exactly positive map forces that, but positivity is decided in floats
    (``verify_cpc``), and a map that passes within FLOAT_TOL can send e_ii
    to a normalizer with a small term off the diagonal.  Such a map is an
    input error: NotNormalizerPreserving names the first such image.
    """
    for i in range(n):
        for j in range(n):
            if not is_normalizer(images[(i, j)]):
                return False
    for i in range(n):
        if not images[(i, i)].in_diagonal:
            raise NotNormalizerPreserving(
                "the image of (%d, %d) is a normalizer outside C(X)" % (i, i)
            )
    return True
