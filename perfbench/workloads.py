"""Seeded inputs, timed operations and independent answer checks.

Each workload builds a list of ``Op`` objects from its seed.  ``Op.run``
holds only the calls into the library (it is what the benchmark times);
``Op.check`` judges the answer with arithmetic done here, not by asking
the library again.  Library entry points are looked up on their module
at call time, so the traced run sees every call through its wrappers.

The inputs are stratified: a fixed ladder of system shapes is repeated
and only the random parts (point labels, castle data, tuples) depend on
the seed.  Every seed therefore gets the same mix of sizes, which keeps
the latency percentiles of two seeds comparable.  The op list is
``PASSES`` passes over the ladder, and a run ends on a pass boundary, so
every run times whole passes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import random
import re
from fractions import Fraction
from math import prod
from pathlib import Path

import dynalg
import dynalg.cli

# -- systems ----------------------------------------------------------------

_GROUPS = {
    "trivial": dynalg.FiniteGroup.trivial,
    "z2": lambda: dynalg.FiniteGroup.cyclic(2),
    "z3": lambda: dynalg.FiniteGroup.cyclic(3),
    "z4": lambda: dynalg.FiniteGroup.cyclic(4),
    "klein": dynalg.FiniteGroup.klein,
}


def relabel(sys, rng):
    """The same action with its point indices shuffled and fresh labels."""
    nx = sys.n_points
    perm = list(range(nx))
    rng.shuffle(perm)
    inv = [0] * nx
    for old, new in enumerate(perm):
        inv[new] = old
    act = [
        [perm[sys.act[g][inv[x]]] for x in range(nx)]
        for g in range(sys.group.order)
    ]
    return dynalg.DynSystem(sys.group, ["p%d" % x for x in range(nx)], act)


def free_system(rng, group, n_orbits, cyclic=None):
    """``n_orbits`` translation copies of ``group``, optionally crossed with
    Z/``cyclic`` through ``product_with_cyclic``, points shuffled."""
    grp = _GROUPS[group]()
    sys = dynalg.DynSystem.translation(grp)
    for _ in range(n_orbits - 1):
        sys = dynalg.DynSystem.disjoint_union(sys, dynalg.DynSystem.translation(grp))
    if cyclic:
        sys = dynalg.product_with_cyclic(sys, cyclic)
    return relabel(sys, rng)


def quotient_system(rng, order, quotient, n_cycles, n_fixed):
    """Z/``order`` acting through Z/``quotient`` on ``n_cycles`` cycles of
    length ``quotient``, plus ``n_fixed`` fixed points; not free when
    ``quotient < order`` or ``n_fixed > 0``."""
    grp = dynalg.FiniteGroup.cyclic(order)
    nx = n_cycles * quotient + n_fixed
    act = []
    for g in range(order):
        row = []
        for x in range(nx):
            if x < n_cycles * quotient:
                c, r = divmod(x, quotient)
                row.append(c * quotient + (r + g) % quotient)
            else:
                row.append(x)
        act.append(row)
    return relabel(dynalg.DynSystem(grp, [str(x) for x in range(nx)], act), rng)


def orbits(sys):
    """The orbits as sets of point indices, computed from the action
    table without the library."""
    seen = set()
    out = []
    for x in range(sys.n_points):
        if x not in seen:
            out.append(frozenset(row[x] for row in sys.act))
            seen |= out[-1]
    return out


def orbit_sizes(sys):
    return [len(o) for o in orbits(sys)]


def orbit_counts(sys, subsets):
    """Per-orbit point counts of a tuple of subsets (orbit = least point)."""
    counts = {}
    for s in subsets:
        for x in s:
            key = min(row[x] for row in sys.act)
            counts[key] = counts.get(key, 0) + 1
    return counts


def count_dominated(sys, a_sets, b_sets):
    """The subequivalence verdict by counting: a group acts transitively
    on each orbit, so a <= b exactly when every orbit holds no more
    points of a than of b."""
    ca, cb = orbit_counts(sys, a_sets), orbit_counts(sys, b_sets)
    return all(v <= cb.get(k, 0) for k, v in ca.items())


# -- castle data --------------------------------------------------------------

WEIGHTS = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]
PHASES = [(1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(3, 5), Fraction(4, 5))]


def castle_spec(rng, sys, n, bases):
    """Random castle data as [(base points, shape, weights, phases)]:
    one tower per entry of ``bases``, with a base of that many points and
    a random shape of n group elements, drawn again until all levels are
    disjoint.  Weights and phases are drawn per base point."""
    act, order = sys.act, sys.group.order
    for _ in range(1000):
        points = list(range(sys.n_points))
        rng.shuffle(points)
        occupied = set()
        towers = []
        for size in bases:
            shape = tuple(sorted(rng.sample(range(order), n)))
            base = []
            for x in points:
                if len(base) == size:
                    break
                levels = [act[s][p] for s in shape for p in base + [x]]
                if len(set(levels)) == len(levels) and not occupied & set(levels):
                    base.append(x)
            if len(base) < size:
                continue
            occupied |= {act[s][p] for s in shape for p in base}
            points = [p for p in points if p not in base]
            weights = {x: rng.choice(WEIGHTS) for x in base}
            phases = [{x: rng.choice(PHASES) for x in base} for _ in range(n)]
            towers.append((tuple(sorted(base)), shape, weights, phases))
        if len(towers) == len(bases):
            return towers
    raise ValueError("no castle with bases %r fits %r" % (bases, sys))


def castle_data(sys, n, spec):
    """Build and validate the library's castle data from a spec."""
    castle = dynalg.Castle(
        sys, tuple((frozenset(base), shape) for base, shape, _, _ in spec)
    )
    weights = tuple(
        dynalg.Func.from_dict(sys, {x: dynalg.RadScalar(w) for x, w in ws.items()})
        for _, _, ws, _ in spec
    )
    phases = tuple(
        tuple(
            dynalg.Func.from_dict(sys, {x: dynalg.RadScalar(*p) for x, p in row.items()})
            for row in rows
        )
        for _, _, _, rows in spec
    )
    data = dynalg.CastleOzmData(castle=castle, weights=weights, phases=phases, n=n)
    data.validate()
    return data


def canonical_map(phi):
    """Every coefficient of every matrix-unit image in canonical form."""
    return {
        key: tuple(
            tuple((v.re, v.im, v.rad) for v in f.values) for f in img.coeffs
        )
        for key, img in phi.images.items()
    }


def expected_diagonal(sys, n, spec):
    """phi(e_ii) computed from the castle data by hand: the weight of
    base point b sits at s_i.b on the identity coefficient."""
    out = []
    for i in range(n):
        values = [(Fraction(0), Fraction(0), 1)] * sys.n_points
        for _, shape, weights, _ in spec:
            for b, w in weights.items():
                values[sys.act[shape[i]][b]] = (w, Fraction(0), 1)
        out.append(tuple(values))
    return out


# -- ops --------------------------------------------------------------------


class Op:
    """One timed request: ``run`` calls the library, ``check`` judges it."""

    kind = "op"

    def run(self):
        raise NotImplementedError

    def check(self, result) -> bool:
        raise NotImplementedError


class CastleRoundtrip(Op):
    kind = "castle_roundtrip"

    def __init__(self, sys, n, spec):
        self.sys, self.n, self.spec = sys, n, spec
        self.data = castle_data(sys, n, spec)

    def run(self):
        phi = dynalg.build_castle_ozm(self.data)
        verdicts = (
            dynalg.verify_cpc(phi),
            dynalg.verify_order_zero(phi),
            dynalg.verify_normalizer_preserving(phi),
        )
        recovered = dynalg.decompose_ozm(phi)
        rebuilt = dynalg.build_castle_ozm(recovered)
        return phi, verdicts, rebuilt

    def check(self, result) -> bool:
        phi, verdicts, rebuilt = result
        if not all(verdicts):
            return False
        built = canonical_map(phi)
        if built != canonical_map(rebuilt):
            return False
        identity = self.sys.group.identity
        for i, diag in enumerate(expected_diagonal(self.sys, self.n, self.spec)):
            coeffs = built[(i, i)]
            if coeffs[identity] != diag:
                return False
            if any(
                v[0] or v[1] for g, c in enumerate(coeffs) if g != identity for v in c
            ):
                return False
        return True


class SemigroupTable(Op):
    kind = "semigroup_table"

    def __init__(self, sys, max_n):
        self.sys, self.max_n = sys, max_n
        dynalg.validate_system(sys)
        self.expected_classes = prod(max_n * s + 1 for s in orbit_sizes(sys))

    def run(self):
        table = dynalg.type_semigroup(self.sys, self.max_n)
        unperforated, _ = dynalg.almost_unperforation_check(table)
        comparison = dynalg.dynamical_comparison_check(self.sys)
        return table.n_classes, unperforated, comparison.holds

    def check(self, result) -> bool:
        n_classes, unperforated, holds = result
        return n_classes == self.expected_classes and unperforated and holds


class CliRequest(Op):
    kind = "cli"

    def __init__(self, verb, argv, verify):
        """``verify(report)`` judges the request's JSON report."""
        self.verb, self.argv, self.verify = verb, argv, verify

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dynalg.cli.main(list(self.argv))
        return code, out.getvalue()

    def check(self, result) -> bool:
        code, text = result
        return code == 0 and self.verify(json.loads(text))


# -- answers of the CLI requests, computed here ------------------------------

_SCALAR_OUT = re.compile(r"^(?P<coeff>[+-]?\d+(?:/\d+)?)(?P<imag> i)?$")


def _gaussian(value):
    """A printed Gaussian rational scalar as (re, im)."""
    if isinstance(value, dict):
        if value.get("sqrt", 1) not in (1, "1"):
            raise ValueError("unexpected radical in %r" % (value,))
        return Fraction(value.get("re", 0)), Fraction(value.get("im", 0))
    m = _SCALAR_OUT.match(value)
    if not m:
        raise ValueError("unexpected scalar %r" % (value,))
    c = Fraction(m["coeff"])
    return (Fraction(0), c) if m["imag"] else (c, Fraction(0))


def _as_gaussian(value):
    re_, im = value if isinstance(value, tuple) else (value, 0)
    return Fraction(re_), Fraction(im)


def _close(a, b):
    return abs(float(a) - float(b)) <= 1e-9


def check_system(sys, report):
    """Orbits, freeness and the uniform measure on each orbit, which are
    the extreme invariant measures of a free system."""
    r = report["result"]
    expected = orbits(sys)
    got = {frozenset(sys.points.index(x) for x in o) for o in r["orbits"]}
    measures = {
        tuple(Fraction(v) for v in m) for m in r["extreme_measures"]
    }
    uniform = {
        tuple(Fraction(1, len(o)) if x in o else Fraction(0) for x in range(sys.n_points))
        for o in expected
    }
    return (
        got == set(expected)
        and r["free"] is True
        and r["minimal"] == (len(expected) == 1)
        and r["points"] == sys.n_points
        and r["group_order"] == sys.group.order
        and measures == uniform
    )


def check_compare(verdict, report):
    r = report["result"]
    return r["subequivalent"] == verdict and r["cuntz_oracle"] == verdict


def check_witness(sys, a_sets, b_sets, report):
    """The extracted witness moves a partition of each support of a by
    group elements into the supports of b, with disjoint images."""
    r = report["result"]
    if not (r["compiled"] is True and r["roundtrip"] is True):
        return False
    rows = report["certificates"]["witness"]["rows"]
    if len(rows) != len(a_sets):
        return False
    images = [set() for _ in b_sets]
    for support, row in zip(a_sets, rows):
        covered = []
        for labels, g, k in row:
            piece = [sys.points.index(x) for x in labels]
            act = sys.act[sys.group.elements.index(g)]
            moved = {act[x] for x in piece}
            if len(moved) != len(piece) or not moved <= set(b_sets[k]) or moved & images[k]:
                return False
            images[k] |= moved
            covered += piece
        if sorted(covered) != sorted(support):
            return False
    return True


def check_build(spec, report):
    """phi(1) carries the weight of each base point on its levels, so its
    norm is the largest weight."""
    weights = [w for _, _, ws, _ in spec for w in ws.values()]
    return report["result"]["built"] is True and _close(report["result"]["unit_image_norm"], max(weights))


def check_decompose(sys, spec, report):
    """The recovered data, base point by base point, computed by hand: a
    base point b with shape (s_0, ..., s_n-1) comes back as s_0.b with the
    shape h_i that moves s_0.b to s_i.b, its weight, and its phases divided
    by the level-0 phase.  How base points are grouped into towers is the
    library's choice and is not checked."""
    act, elements = sys.act, sys.group.elements
    expected = {}
    for _, shape, weights, phases in spec:
        for b in weights:
            start = act[shape[0]][b]
            moves = tuple(
                next(elements[h] for h in range(len(elements)) if act[h][start] == act[s][b])
                for s in shape
            )
            c, d = _as_gaussian(phases[0][b])
            row = []
            for level in phases:
                a, e = _as_gaussian(level[b])
                row.append((a * c + e * d, e * c - a * d))  # times the conjugate of a unit
            expected[sys.points[start]] = (moves, (Fraction(weights[b]), Fraction(0)), tuple(row))
    data = report["certificates"]["data"]
    got = {}
    for t, tower in enumerate(data["towers"]):
        weights = {x: _gaussian(v) for x, v in data["weights"][t]}
        phases = [dict(level) for level in data["phases"][t]]
        for x in tower["base"]:
            got[x] = (tuple(tower["shape"]), weights[x], tuple(_gaussian(level[x]) for level in phases))
    return got == expected and report["result"]["towers"] == len(data["towers"])


def _unit_commutator_norm(a, y, z):
    """The norm of a E_yz - E_yz a for a real matrix a.  It is u e_z^T -
    e_y v^T with u column y and v row z of a, that is P Q^T for P = [u,
    -e_y] and Q = [e_z, v], so its square is the larger eigenvalue of the
    2x2 matrix (P^T P)(Q^T Q).  Plain arithmetic, no numpy: the traced run
    must not count the benchmark's own norms as the library's."""
    u = [row[y] for row in a]
    v = a[z]
    g = ((sum(x * x for x in u), -u[y]), (-u[y], 1))
    h = ((1, v[z]), (v[z], sum(x * x for x in v)))
    m = [[g[i][0] * h[0][j] + g[i][1] * h[1][j] for j in range(2)] for i in range(2)]
    tr, det = m[0][0] + m[1][1], m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return math.sqrt((tr + math.sqrt(max(tr * tr - 4 * det, 0))) / 2)


def check_tzs(sys, elements, epsilon, report):
    """The conditions for the identity embedding of a free transitive
    system: its matrix units are the rank-one units E_yz of l^2(X), so the
    normalizer and remainder conditions hold, and the commutator margin
    is the largest norm of [a, E_yz] over a in F, computed here."""
    nx = sys.n_points
    worst = 0.0
    for coeffs in elements:
        # (f u_g) maps delta_x to f(g.x) delta_g.x
        a = [[Fraction(0)] * nx for _ in range(nx)]
        for g, values in coeffs:
            for x in range(nx):
                y = sys.act[g][x]
                a[y][x] += values.get(y, 0)
        for y in range(nx):
            for z in range(nx):
                worst = max(worst, _unit_commutator_norm(a, y, z))
    factor = sys.group.order ** 2
    commutator = factor * worst < float(epsilon)
    r, m = report["result"], report["margins"]
    return (
        r["normalizer_condition"] is True
        and r["remainder_condition"] is True
        and r["commutator_condition"] == commutator
        and r["all_pass"] == commutator
        and m["bound_factor"] == factor
        and _close(float(m["max_commutator"]), worst)
    )


def check_semigroup(classes, report):
    r = report["result"]
    return len(r["classes"]) == classes and r["almost_unperforated_within_bound"] is True


# -- workloads ----------------------------------------------------------------

# passes over each ladder; every builder returns PASSES equal-length passes
PASSES = 8

# (group, orbits, cyclic factor, n, tower base sizes); the representation
# dimension |G||X| in the comment
CASTLE_LADDER = [
    ("trivial", 6, None, 1, (1, 2, 1)),  # 6
    ("z2", 4, None, 2, (1, 2)),  # 16
    ("z3", 2, None, 2, (1, 1)),  # 18
    ("z3", 2, None, 3, (1, 1)),  # 18
    ("z4", 2, None, 2, (1, 2)),  # 32
    ("z4", 2, None, 3, (1, 1)),  # 32
    ("klein", 2, None, 3, (2,)),  # 32
    ("klein", 1, None, 2, (1,)),  # 16
    ("z4", 1, None, 3, (1,)),  # 16
    ("z2", 3, None, 2, (1, 1, 1)),  # 12
    ("z2", 2, 2, 2, (1, 2)),  # 64
    ("z3", 1, 3, 3, (1, 1)),  # 81
    ("z2", 2, 3, 2, (1, 1, 1)),  # 144
    ("klein", 1, 3, 2, (1, 1)),  # 144
    ("z3", 2, 3, 3, (1, 2)),  # 162
]


def build_castle_roundtrip(seed, workdir):
    rng = random.Random(seed)
    ops = []
    for _ in range(PASSES):
        for group, orbits, cyclic, n, bases in CASTLE_LADDER:
            sys = free_system(rng, group, orbits, cyclic)
            dynalg.validate_system(sys)
            ops.append(CastleRoundtrip(sys, n, castle_spec(rng, sys, n, bases)))
    return ops


# ("free", group, orbits) or ("quotient", order, quotient, cycles, fixed); max_n.
# An odd number of steps keeps the median of a run's latencies inside one
# step's samples rather than on the edge between two steps.
SEMIGROUP_LADDER = [
    (("free", "trivial", 3), 3),
    (("free", "trivial", 4), 2),
    (("free", "z2", 1), 3),
    (("free", "z2", 2), 3),
    (("free", "z2", 3), 2),
    (("free", "z3", 1), 3),
    (("free", "z3", 2), 2),
    (("quotient", 4, 2, 1, 1), 3),
    (("quotient", 4, 2, 2, 0), 3),
    (("quotient", 6, 3, 1, 2), 2),
    (("quotient", 3, 3, 1, 1), 3),
    (("quotient", 2, 2, 1, 3), 2),
    (("quotient", 2, 2, 1, 1), 2),
]


def _semigroup_system(rng, shape):
    if shape[0] == "free":
        return free_system(rng, shape[1], shape[2])
    return quotient_system(rng, *shape[1:])


def build_semigroup_table(seed, workdir):
    rng = random.Random(seed)
    return [
        SemigroupTable(_semigroup_system(rng, shape), max_n)
        for _ in range(PASSES)
        for shape, max_n in SEMIGROUP_LADDER
    ]


def _system_payload(sys):
    grp = sys.group
    return {
        "group": {
            "elements": list(grp.elements),
            "table": [[grp.elements[v] for v in row] for row in grp.table],
        },
        "points": list(sys.points),
        "action": [[sys.points[v] for v in row] for row in sys.act],
    }


def _scalar_payload(value):
    re, im = (value, 0) if not isinstance(value, tuple) else value
    if im == 0:
        return str(re)
    if re == 0:
        return "%s i" % im
    return {"re": str(re), "im": str(im)}


def _func_payload(sys, values):
    return [[sys.points[x], _scalar_payload(v)] for x, v in sorted(values.items())]


def _castle_payload(sys, n, spec):
    grp = sys.group
    return {
        "towers": [
            {"base": [sys.points[x] for x in base], "shape": [grp.elements[s] for s in shape]}
            for base, shape, _, _ in spec
        ],
        "n": n,
        "weights": [_func_payload(sys, ws) for _, _, ws, _ in spec],
        "phases": [[_func_payload(sys, row) for row in rows] for _, _, _, rows in spec],
    }


def _random_subset(rng, sys, share):
    """A random set of ``share`` of the points, at least one."""
    return sorted(rng.sample(range(sys.n_points), max(1, round(share * sys.n_points))))


def _dominating(rng, sys, subsets):
    """Subsets whose per-orbit counts cover those of ``subsets``: each
    point is moved to a random point of its orbit, spread over as many
    target sets as needed to keep the images distinct."""
    targets = []
    for s in subsets:
        moved = set()
        for x in s:
            options = [row[x] for row in sys.act if row[x] not in moved]
            if not options:
                targets.append(sorted(moved))
                moved = set()
                options = [row[x] for row in sys.act]
            moved.add(rng.choice(options))
        targets.append(sorted(moved))
    return targets


def _chi(sys, subset):
    return "chi:" + ",".join(sys.points[x] for x in subset)


# One ladder step per free system: (group, orbits, castle n, tower base
# sizes), the transitive system of the stability request, and the system
# of the small semigroup request.
CLI_LADDER = [
    (("z2", 3, 2, (1, 1)), "z3", ("quotient", 2, 2, 1, 1)),
    (("z3", 2, 3, (1, 1)), "z4", ("free", "trivial", 2)),
    (("z4", 2, 2, (1, 2)), "klein", ("free", "z2", 2)),
    (("klein", 1, 2, (1,)), "z3", ("quotient", 4, 2, 1, 1)),
    (("trivial", 4, 1, (1, 2)), "z4", ("free", "trivial", 3)),
]


def build_cli_mixed(seed, workdir):
    rng = random.Random(seed)
    workdir = Path(workdir)
    counter = itertools.count()

    def write(payload):
        path = workdir / ("in%d.json" % next(counter))
        path.write_text(json.dumps(payload))
        return str(path)

    ops = []
    for _ in range(PASSES):
        for (group, orbits, n, bases), transitive, small in CLI_LADDER:
            sys = free_system(rng, group, orbits)
            dynalg.validate_system(sys)
            sys_file = write(_system_payload(sys))
            ops.append(CliRequest(
                "system-check", ["system-check", "--system", sys_file],
                functools.partial(check_system, sys),
            ))

            # compare: a file-backed and an indicator entry against two
            # indicators, either verdict; on a free system the rank oracle
            # agrees with the count criterion
            a_sets = [_random_subset(rng, sys, 0.4) for _ in range(2)]
            b_sets = [_random_subset(rng, sys, 0.4) for _ in range(2)]
            vals = {x: rng.choice([Fraction(1), Fraction(1, 2), Fraction(2)]) for x in a_sets[0]}
            argv = ["compare", "--system", sys_file, "--witness", "--oracle",
                    "--a", "@" + write(_func_payload(sys, vals)), "--a", _chi(sys, a_sets[1])]
            for s in b_sets:
                argv += ["--b", _chi(sys, s)]
            verdict = count_dominated(sys, a_sets, b_sets)
            ops.append(CliRequest("compare", argv, functools.partial(check_compare, verdict)))

            # witness roundtrip: b dominates a, entries of a stay above 1/2
            a_sets = [_random_subset(rng, sys, 0.35) for _ in range(2)]
            b_sets = _dominating(rng, sys, a_sets)
            argv = ["witness", "roundtrip", "--system", sys_file, "--epsilon", "1/2"]
            for s in a_sets:
                vals = {x: rng.choice([Fraction(1), Fraction(3, 4), Fraction(2)]) for x in s}
                argv += ["--a", "@" + write(_func_payload(sys, vals))]
            for s in b_sets:
                argv += ["--b", _chi(sys, s)]
            ops.append(CliRequest(
                "witness", argv, functools.partial(check_witness, sys, a_sets, b_sets)
            ))

            # castle build and decompose on the same data file
            spec = castle_spec(rng, sys, n, bases)
            castle_data(sys, n, spec)
            data_file = write(_castle_payload(sys, n, spec))
            ops.append(CliRequest(
                "build-ozm",
                ["castle", "build-ozm", "--system", sys_file, "--data", data_file],
                functools.partial(check_build, spec),
            ))
            ops.append(CliRequest(
                "decompose",
                ["castle", "decompose", "--system", sys_file, "--data", data_file],
                functools.partial(check_decompose, sys, spec),
            ))

            # stability instance against the identity embedding
            tsys = free_system(rng, transitive, 1)
            dynalg.validate_system(tsys)
            tsys_file = write(_system_payload(tsys))
            elements = []
            for _ in range(2):
                g = rng.randrange(tsys.group.order)
                vals = {x: rng.choice(WEIGHTS) for x in _random_subset(rng, tsys, 0.5)}
                elements.append([(g, vals)])
            inst = {
                "n": 2,
                "epsilon": "1/2",
                "F": [
                    {"coeffs": [[tsys.group.elements[g], _func_payload(tsys, vals)] for g, vals in e]}
                    for e in elements
                ],
                "h": _func_payload(tsys, {x: Fraction(1) for x in _random_subset(rng, tsys, 0.5)}),
            }
            ops.append(CliRequest(
                "tzs",
                ["castle", "tzs", "--system", tsys_file, "--instance", write(inst), "--identity"],
                functools.partial(check_tzs, tsys, elements, Fraction(1, 2)),
            ))

            # a small semigroup table
            ssys = _semigroup_system(rng, small)
            dynalg.validate_system(ssys)
            ops.append(CliRequest(
                "semigroup",
                ["semigroup", "--system", write(_system_payload(ssys)), "--max-n", "2"],
                functools.partial(check_semigroup, prod(2 * s + 1 for s in orbit_sizes(ssys))),
            ))
    return ops


BUILDERS = {
    "castle_roundtrip": build_castle_roundtrip,
    "semigroup_table": build_semigroup_table,
    "cli_mixed": build_cli_mixed,
}
