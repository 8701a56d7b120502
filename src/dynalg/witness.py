"""Compilation between combinatorial witnesses and one-sided normalizers.

A witness for (a - eps)_+ against b compiles to a matrix r-normalizer t
with

    t* (b - delta)_+ t = (a - eps)_+        (exact, coefficientwise)

and such a t decompiles back to a witness.  The compiler works through
exact square roots: each source piece carries the square root of its
share of (a_i - eps)_+, and each target carries the inverse square root
of (b_l - delta)_+ on the translated footprint.  Disjointness of the
translated pieces makes both properties of t hold by construction (the
proof is in ``compile_witness``), so the compiler checks its input
witness and not its output.  A certificate is checked once, where it
enters from outside: ``extract_witness`` decides the r-normalizer
predicate and the exact identity before it reads a witness off t.

delta is chosen as half the minimum of b over the translated witness
footprint; on a finite space this always keeps the footprint inside the
support of (b - 2*delta)_+.  The cover is disjointified first-piece-wins
in row order, and closures are identities (finite spaces are discrete),
so pieces are used as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import (
    CrossedElement,
    DiagTuple,
    Func,
    MatrixElement,
    operator_norm,
)
from .comparison import Witness, check_witness, diag_subequivalent, search_subequivalence
from .errors import (
    InvalidWitness,
    InvariantViolation,
    NotPositive,
    NotRational,
    PreconditionFailed,
)
from .normalizers import matrix_is_r_normalizer
from .scalars import FLOAT_TOL, RadScalar

__all__ = [
    "CompiledWitness",
    "compile_witness",
    "extract_witness",
    "prop_equivalence_suite",
    "EquivalenceSuiteReport",
]


@dataclass(frozen=True)
class CompiledWitness:
    """An r-normalizer t with t*(b-delta)_+ t = (a-eps)_+, plus the
    square-root data used to assemble it."""

    t: MatrixElement
    delta: Fraction
    epsilon: Fraction
    partition_roots: dict  # (i, j) -> Func, the h_{i,j}
    target_inverse_roots: dict  # l -> Func, the inverse roots on the footprint


def _require_rational_tuple(a: DiagTuple, name: str) -> None:
    for f in a.entries:
        for v in f.sparse.values():
            if not (isinstance(v, RadScalar) and v.is_rational):
                raise NotRational("%s must be rational-valued" % name)


def compile_witness(
    a: DiagTuple, b: DiagTuple, eps, w: Witness
) -> CompiledWitness:
    """Compile a witness for (a - eps)_+ against b into an exact certificate.

    Preconditions: a, b rational-valued positive tuples, eps > 0, and w a
    valid witness for the supports of (a - eps)_+ against the supports of
    b (checked, InvalidWitness otherwise).  The returned t is not checked
    after assembly, since ``check_witness`` has established what makes it
    a certificate.  The pieces P_ij of row i (each point of supp (a_i -
    eps)_+ joins the first piece of row i that covers it) partition that
    support, and their translates s_ij.P_ij tagged k lie in supp b_k and
    are pairwise disjoint over all rows.  The entry t_ki is the sum, over
    the pieces of row i tagged k, of bhat_k g_ij u_{s_ij}, where g_ij is
    h_ij = (a_i - eps)_+^{1/2} chi_{P_ij} moved onto s_ij.P_ij and bhat_k
    = (b_k - delta)^{-1/2} there.  Then

    * r-normalizer: row k of t stores the disjoint sets s_ij.P_ij, so each
      point is stored in at most one coefficient of the row.  At a point
      x, t_ki* chi_x t_ki has one term, on u_e, and two entries of a row
      store no common point, so t is a matrix r-normalizer whether or not
      the action is free;
    * exact identity: b_k >= 2 delta > 0 on the translates, where bhat_k^2
      (b_k - delta)_+ = 1.  So (t*(b - delta)_+ t)_{ii'} is 0 for i != i',
      and for i = i' it collects u_s^* |g_ij|^2 u_s = |h_ij|^2 from each
      piece of row i, which sums to (a_i - eps)_+: the identity holds
      coefficient for coefficient, with (a - eps)_+ padded to n;
    * no radical mismatch: the sums that build t_ki add monomials whose
      coefficients have disjoint supports, so no scalar sum meets two
      nonzero values and RadicalAdditionMismatch cannot arise.

    ``extract_witness`` checks both properties of a certificate that
    comes from outside.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise NotPositive("eps must be positive")
    if a.system is not b.system:
        raise InvalidWitness("tuples over different systems")
    _require_rational_tuple(a, "a")
    _require_rational_tuple(b, "b")
    sys = a.system
    acut = a.cutdown(eps)
    F = acut.supports()
    V = b.supports()
    if not check_witness(sys, F, V, w):
        raise InvalidWitness("witness does not certify the cutdown supports")

    n = max(len(a), len(b))

    # Disjointify the cover: each source point joins its first covering piece.
    pieces: dict[tuple[int, int], set] = {}
    for i, row in enumerate(w.rows):
        for p in sorted(F[i]):
            for j, (U, s, k) in enumerate(row):
                if p in U:
                    pieces.setdefault((i, j), set()).add(p)
                    break

    # Square-root partition of (a_i - eps)_+ along the disjointified cover.
    roots: dict[tuple[int, int], Func] = {}
    for (i, j), pts in pieces.items():
        roots[(i, j)] = acut.entries[i].restrict(pts).sqrt()

    # The translated witness footprint, by target index.
    footprint: dict[int, set] = {}
    for (i, j), pts in pieces.items():
        _, s, k = w.rows[i][j]
        footprint.setdefault(k, set()).update(sys.act[s][p] for p in pts)

    # delta: half the minimum of b over the footprint.
    values = [b.entries[l](q).as_fraction() for l, pts in footprint.items() for q in pts]
    delta = min(values) / 2 if values else Fraction(1)

    # Inverse square roots of (b_l - delta)_+ on the footprint.
    inv_roots: dict[int, Func] = {}
    for l, pts in sorted(footprint.items()):
        vals = {}
        for q in pts:
            shifted = b.entries[l](q).as_fraction() - delta
            vals[q] = RadScalar.sqrt_of(shifted).inverse()
        inv_roots[l] = Func.from_dict(sys, vals)

    # t_{l i} = sum over pieces tagged l of  bhat_l . u_s . h_{i,j}
    zero = CrossedElement.zero(sys)
    entries = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), pts in sorted(pieces.items()):
        _, s, k = w.rows[i][j]
        h = roots[(i, j)]
        coeff = inv_roots[k] * h.compose_action(sys.group.inv(s))
        entries[k][i] = entries[k][i] + CrossedElement.monomial(coeff, s)
    return CompiledWitness(
        t=MatrixElement(sys, entries),
        delta=delta,
        epsilon=eps,
        partition_roots=roots,
        target_inverse_roots=inv_roots,
    )


def extract_witness(
    a: DiagTuple, b: DiagTuple, eps, delta, t: MatrixElement
) -> Witness:
    """Recover a witness from an exact r-normalizer certificate.

    Preconditions (verified, PreconditionFailed otherwise): t is no smaller
    than either tuple, is a matrix r-normalizer, and t*(b-delta)_+ t =
    (a-eps)_+ exactly.  The returned witness covers the supports of
    (a-eps)_+ by the pulled-back supports of the entries of t against b; it
    need not reproduce the witness that produced t, but it always passes
    check_witness.
    """
    eps = Fraction(eps)
    delta = Fraction(delta)
    sys = a.system
    if t.n < max(len(a), len(b)):
        raise PreconditionFailed("t is %d x %d, smaller than the tuples" % (t.n, t.n))
    if not matrix_is_r_normalizer(t):
        raise PreconditionFailed("t is not a matrix r-normalizer")
    n = t.n
    acut = a.cutdown(eps)
    bcut = b.cutdown(delta)
    lhs = (t.adjoint() * bcut.padded(n).to_matrix()) * t
    if lhs != acut.padded(n).to_matrix():
        raise PreconditionFailed("t*(b-delta)_+t differs from (a-eps)_+")

    V = b.supports()
    rows = []
    for i in range(len(a)):
        triples = []
        for k in range(n):
            if k >= len(b):
                break
            entry = t.entries[k][i]
            for s in entry.nonzero_groups:
                meet = entry.coeffs[s].support & V[k]
                if not meet:
                    continue
                sinv = sys.group.inv(s)
                U = frozenset(sys.act[sinv][q] for q in meet)
                triples.append((U, s, k))
        triples.sort(key=lambda t3: (t3[1], t3[2], sorted(t3[0])))
        rows.append(tuple(triples))
    w = Witness(tuple(rows))
    if not check_witness(sys, acut.supports(), V, w):
        raise InvariantViolation("extracted witness invalid")
    return w


@dataclass(frozen=True)
class EpsResult:
    eps: Fraction
    witness_found: bool
    compiled: bool
    delta: Optional[Fraction]
    residual_norm: Optional[float]
    residual_bound: Optional[float]


@dataclass(frozen=True)
class EquivalenceSuiteReport:
    subequivalent: bool
    eps_results: tuple[EpsResult, ...]
    consistent: bool
    notes: tuple[str, ...]


def _default_eps_grid(a: DiagTuple) -> list[Fraction]:
    values = sorted(
        {
            v.as_fraction()
            for f in a.entries
            for v in f.sparse.values()
            if isinstance(v, RadScalar) and v.is_rational and v.re > 0
        }
    )
    if not values:
        return [Fraction(1, 2)]
    grid = {values[0] / 2}
    grid.update(values)
    grid.add(values[-1] + 1)
    return sorted(grid)


def prop_equivalence_suite(a: DiagTuple, b: DiagTuple) -> EquivalenceSuiteReport:
    """Cross-check the three faces of subequivalence on an eps grid.

    (i) the combinatorial preorder, decided by search; (ii) approximate
    conjugation, measured as the float norm of t* b t - a for the
    compiled t; (iii) exact conjugation after cutdowns, via the compiler.
    The grid always contains an eps below the smallest positive value of
    a, where the cutdown supports equal the full supports, so a failed
    search there refutes (i).  Item (ii) is a finite-grid surrogate for a
    limit statement; the report notes this.
    """
    holds, _ = diag_subequivalent(a, b)
    grid = _default_eps_grid(a)
    n = max(len(a), len(b))
    results = []
    consistent = True
    for eps in grid:
        acut = a.cutdown(eps)
        w = search_subequivalence(a.system, acut.supports(), b.supports())
        if w is None:
            results.append(EpsResult(eps, False, False, None, None, None))
            if holds:
                consistent = False
            continue
        cert = compile_witness(a, b, eps, w)
        tmat = cert.t
        residual = (tmat.adjoint() * b.padded(n).to_matrix()) * tmat - a.padded(n).to_matrix()
        res_norm = operator_norm(residual)
        tnorm = operator_norm(tmat)
        bound = float(eps) + float(cert.delta) * tnorm * tnorm + FLOAT_TOL
        results.append(
            EpsResult(eps, True, True, cert.delta, res_norm, bound)
        )
        if res_norm > bound:
            consistent = False
    if not holds:
        # (i) false must be matched by a refuted search at some grid point
        if all(r.witness_found for r in results):
            consistent = False
    notes = (
        "approximate-conjugation rows are a finite eps-grid surrogate for the "
        "limit statement; residuals are reported with the bound eps + delta*||t||^2",
    )
    if not holds:
        notes = notes + ("no witness within the search bound; no claim beyond the grid",)
    return EquivalenceSuiteReport(
        subequivalent=holds,
        eps_results=tuple(results),
        consistent=consistent,
        notes=notes,
    )
