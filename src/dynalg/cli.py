"""Command-line front end.

Commands load a system description plus element data from JSON files,
run the library, and emit a machine-readable report.  Reports are
deterministic: identical inputs produce byte-identical output except for
the ``runtime_s`` field.  Exit code 0 means a result was computed (even
when the mathematical verdict is false); nonzero is reserved for errors.

Every request takes one path, through ``main``:

1. parse the arguments;
2. check the flag values that need no file: ``--budget``, then
   ``--max-n``.  The parser decides which flags a command takes: each
   verb of ``castle`` and ``witness`` has its own, so a flag the verb
   does not read, two flags that exclude each other, or a ``compare``
   flag that only ``--semigroup`` applies given without it, exit 2
   before this step.  Only the commands that parse scalars take
   ``--exact``/``--float``, and only those that can build a type
   semigroup take ``--budget`` and ``--max-n``;
3. start the timer;
4. load, parse and validate the system file;
5. run the command's handler, which reads its other files and computes;
6. build the report and write it, to the ``--json`` file first, then to
   standard output.

The report's fields are ``command``; ``inputs.digest``, the SHA-256 of
the canonical JSON of the inputs: the system file's payload, the JSON of
every other file the command reads (for an ``@file`` tuple entry too, in
place of its path), and flags that give data, such as ``--epsilon``,
``--identity`` and the ``--max-n`` of a semigroup table; ``params``, the
``mode`` and the ``tolerance``, which echoes ``scalars.FLOAT_TOL``
(1e-9), the absolute tolerance of every float decision; ``result``;
``certificates``; ``margins``, the float margins of a stability check;
and ``runtime_s``, the seconds from step 3 to step 6.  An error at any
step prints one ``{"error", "message"}`` object on standard error and
exits 1, with nothing on standard output.  A reader that closes standard
output before the report is written (``dynalg ... | head -c 10``) is
such an error too: a ``ParseError`` on standard error while that is
still open, exit 1 and no traceback; the reader keeps the bytes it took.

File formats
------------

System file::

    {"group": {"elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]]},
     "points": ["a", "b"],
     "action": [["a", "b"], ["b", "a"]]}

``table`` and ``action`` rows are indexed by group element, columns by
element/point, entries are labels.

Scalar literals: ``"p/q"``, ``"p/q i"``, ``"p/q sqrt r/s"``,
``"p/q i sqrt r/s"`` (integers allowed without the ``/q``), or the
object form ``{"re": "p/q", "im": "p/q", "sqrt": "r/s"}`` when both real
and imaginary parts are present.

A function on the space is ``[[point_label, scalar], ...]`` (omitted
points are zero).  A crossed-product element is
``{"coeffs": [[group_label, function], ...]}``.  Diagonal-tuple entries
on the command line are ``chi:lbl1,lbl2`` (an indicator), ``zero``, or
``@file.json`` holding a function; ``chi:`` splits at commas, so a label
that contains one (``product_with_cyclic`` makes them) needs ``@file``.
Castles are ``{"towers": [{"base": [...], "shape": [...]}]}``; castle
map data adds ``n``, ``weights``, and optional ``phases``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys as _sys
import time
from fractions import Fraction
from pathlib import Path

from .algebra import CrossedElement, DiagTuple, Func, MatrixElement, operator_norm
from .castles import (
    Castle,
    CastleOzmData,
    OrderZeroMap,
    TzsInstance,
    build_castle_ozm,
    check_tzs_instance,
    decompose_ozm,
    identity_embedding,
    validate_castle,
)
from .comparison import (
    Witness,
    almost_unperforation_check,
    cuntz_oracle,
    d_tau,
    diag_subequivalent,
    search_subequivalence,
    type_semigroup,
)
from .dynsys import DynSystem, FiniteGroup, extreme_invariant_measures, validate_system
from .errors import DynalgError, ParseError
from .scalars import FLOAT_TOL, FloatScalar, RadScalar
from .witness import compile_witness, extract_witness

__all__ = ["main"]


# -- literal parsing -------------------------------------------------------


def parse_fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad rational literal %r: %s" % (text, exc))


def _parse_int(value, field: str) -> int:
    """An integer payload field.  A JSON float or boolean raises
    ParseError naming the field, where ``int`` would truncate it or read
    it as 0 or 1."""
    if isinstance(value, (bool, float)):
        raise ParseError("%s must be an integer, got %s" % (field, json.dumps(value)))
    return int(value)


_SCALAR_RE = re.compile(
    r"^\s*(?P<coeff>[+-]?\d+(?:/\d+)?)\s*(?P<imag>i)?"
    r"(?:\s*sqrt\s*(?P<rad>\d+(?:/\d+)?))?\s*$"
)


def parse_scalar(value, float_mode: bool = False):
    """Parse a scalar literal (string or object form)."""
    if isinstance(value, dict):
        re_part = parse_fraction(value.get("re", 0))
        im_part = parse_fraction(value.get("im", 0))
        rad = parse_fraction(value.get("sqrt", 1))
        out = RadScalar(re_part, im_part, rad)
    elif isinstance(value, int) and not isinstance(value, bool):
        out = RadScalar(value)
    elif isinstance(value, str):
        m = _SCALAR_RE.match(value)
        if not m:
            raise ParseError("bad scalar literal %r" % value)
        coeff = parse_fraction(m.group("coeff"))
        rad = parse_fraction(m.group("rad")) if m.group("rad") else Fraction(1)
        if m.group("imag"):
            out = RadScalar(0, coeff, rad)
        else:
            out = RadScalar(coeff, 0, rad)
    else:
        raise ParseError("bad scalar literal %r" % (value,))
    if float_mode:
        return FloatScalar(complex(out))
    return out


def format_scalar(v):
    if isinstance(v, FloatScalar):
        return {"float": repr(v.value.real), "float_imag": repr(v.value.imag)}
    if v.im == 0:
        text = str(v.re)
    elif v.re == 0:
        text = "%s i" % v.im
    else:
        return {"re": str(v.re), "im": str(v.im), "sqrt": str(v.rad)}
    if v.rad != 1:
        text += " sqrt %d" % v.rad
    return text


# -- file parsing ----------------------------------------------------------


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ParseError("bad JSON in %s at line %d: %s" % (path, exc.lineno, exc.msg))
    except RecursionError:
        raise ParseError("bad JSON in %s: arrays or objects nested too deeply" % path)


def parse_system(payload) -> DynSystem:
    try:
        elements = [str(e) for e in payload["group"]["elements"]]
        table_lbl = payload["group"]["table"]
        points = [str(p) for p in payload["points"]]
        action_lbl = payload["action"]
    except (KeyError, TypeError) as exc:
        raise ParseError("system file missing field: %s" % exc)
    eidx = {e: i for i, e in enumerate(elements)}
    pidx = {p: i for i, p in enumerate(points)}
    try:
        table = [[eidx[str(v)] for v in row] for row in table_lbl]
        action = [[pidx[str(v)] for v in row] for row in action_lbl]
    except KeyError as exc:
        raise ParseError("unknown label %s in system tables" % exc)
    except TypeError as exc:
        raise ParseError("system tables must be lists of rows: %s" % exc)
    group = FiniteGroup(elements, table)
    return DynSystem(group, points, action)


def parse_func(sys_obj: DynSystem, payload, float_mode: bool = False) -> Func:
    values = {}
    try:
        for label, scalar in payload:
            values[sys_obj.point_index(str(label))] = parse_scalar(scalar, float_mode)
    except (TypeError, ValueError) as exc:
        raise ParseError("bad function payload: %s" % exc)
    except KeyError as exc:
        raise ParseError("unknown point label %s" % exc)
    return Func.from_dict(sys_obj, values)


def func_payload(f: Func):
    return [[f.system.points[x], format_scalar(f(x))] for x in sorted(f.support)]


def parse_element(sys_obj: DynSystem, payload, float_mode: bool = False) -> CrossedElement:
    try:
        items = payload["coeffs"]
    except (KeyError, TypeError):
        raise ParseError("element payload needs a 'coeffs' list")
    acc = CrossedElement.zero(sys_obj)
    for label, func in items:
        try:
            g = sys_obj.group.index(str(label))
        except KeyError:
            raise ParseError("unknown group label %r" % label)
        acc = acc + CrossedElement.monomial(parse_func(sys_obj, func, float_mode), g)
    return acc


def element_payload(a: CrossedElement):
    return {
        "coeffs": [
            [a.system.group.elements[g], func_payload(a.coeffs[g])]
            for g in a.nonzero_groups
        ]
    }


def parse_diag_entry(sys_obj: DynSystem, spec: str) -> Func:
    """A ``chi:...`` or ``zero`` entry; ``parse_diag_tuple`` reads ``@file``."""
    if spec == "zero":
        return Func.zero(sys_obj)
    if spec.startswith("chi:"):
        labels = [s for s in spec[4:].split(",") if s]
        try:
            pts = [sys_obj.point_index(lbl) for lbl in labels]
        except KeyError as exc:
            raise ParseError(
                "unknown point label %s in tuple entry %r; chi: splits its labels at commas, "
                "so name a label that contains a comma with an @file entry" % (exc, spec)
            )
        return Func.indicator(sys_obj, pts)
    raise ParseError("bad tuple entry %r (use chi:..., zero, or @file)" % spec)


def parse_diag_tuple(sys_obj, specs, float_mode=False):
    """The tuple of the entries ``specs``, and the entries as a report's
    inputs show them: each ``@file`` entry's loaded JSON in place of its
    path.  Each entry is read and parsed before the next one."""
    if not specs:
        raise ParseError("empty diagonal tuple")
    entries, shown = [], []
    for spec in specs:
        if spec.startswith("@"):
            given = _load_json(spec[1:])
            entries.append(parse_func(sys_obj, given, float_mode))
            shown.append(given)
        else:
            entries.append(parse_diag_entry(sys_obj, spec))
            shown.append(spec)
    return DiagTuple(sys_obj, tuple(entries)), shown


def parse_witness(sys_obj: DynSystem, payload) -> Witness:
    rows = []
    try:
        for row in payload["rows"]:
            triples = []
            for pts, glabel, k in row:
                U = frozenset(sys_obj.point_index(str(p)) for p in pts)
                g = sys_obj.group.index(str(glabel))
                triples.append((U, g, _parse_int(k, "witness target index")))
            rows.append(tuple(triples))
        return Witness(tuple(rows))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad witness payload: %s" % exc)


def witness_payload(sys_obj: DynSystem, w: Witness):
    return {
        "rows": [
            [
                [sorted(sys_obj.points[x] for x in U), sys_obj.group.elements[s], k]
                for U, s, k in row
            ]
            for row in w.rows
        ]
    }


def matrix_payload(m: MatrixElement):
    return {
        "n": m.n,
        "entries": [[element_payload(m.entries[i][j]) for j in range(m.n)] for i in range(m.n)],
    }


def parse_matrix(sys_obj: DynSystem, payload, float_mode=False) -> MatrixElement:
    try:
        n = _parse_int(payload["n"], "matrix n")
        entries = payload["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad matrix payload: %s" % exc)
    rows = []
    for i in range(n):
        rows.append(
            tuple(parse_element(sys_obj, entries[i][j], float_mode) for j in range(n))
        )
    return MatrixElement(sys_obj, rows)


def parse_castle(sys_obj: DynSystem, payload) -> Castle:
    towers = []
    try:
        for tower in payload["towers"]:
            base = frozenset(sys_obj.point_index(str(p)) for p in tower["base"])
            shape = tuple(sys_obj.group.index(str(g)) for g in tower["shape"])
            towers.append((base, shape))
    except (KeyError, TypeError) as exc:
        raise ParseError("bad castle payload: %s" % exc)
    return Castle(sys_obj, tuple(towers))


def castle_payload(c: Castle):
    return {
        "towers": [
            {
                "base": sorted(c.system.points[x] for x in base),
                "shape": [c.system.group.elements[s] for s in shape],
            }
            for base, shape in c.towers
        ]
    }


def parse_ozm_data(sys_obj: DynSystem, payload, float_mode=False) -> CastleOzmData:
    castle = parse_castle(sys_obj, payload)
    try:
        n = _parse_int(payload["n"], "castle data n")
        weights = tuple(parse_func(sys_obj, w, float_mode) for w in payload["weights"])
        phases = None
        if "phases" in payload:
            phases = tuple(
                tuple(parse_func(sys_obj, th, float_mode) for th in row)
                for row in payload["phases"]
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad castle data payload: %s" % exc)
    if phases is None:
        return CastleOzmData.with_trivial_phases(castle, weights, n)
    return CastleOzmData(castle=castle, weights=weights, phases=phases, n=n)


def ozm_data_payload(data: CastleOzmData):
    out = castle_payload(data.castle)
    out["n"] = data.n
    out["weights"] = [func_payload(f) for f in data.weights]
    out["phases"] = [[func_payload(th) for th in row] for row in data.phases]
    return out


def ozm_payload(phi: OrderZeroMap):
    return {
        "n": phi.n,
        "images": [
            [i, j, element_payload(phi.images[(i, j)])]
            for i in range(phi.n)
            for j in range(phi.n)
            if not phi.images[(i, j)].is_zero
        ],
    }


def parse_tzs_instance(sys_obj: DynSystem, payload, float_mode=False) -> TzsInstance:
    """The instance; TzsInstance's own ValueError (epsilon <= 0, n < 1,
    zero h) is reported as a ParseError like any other bad field."""
    try:
        return TzsInstance(
            n=_parse_int(payload["n"], "instance n"),
            epsilon=parse_fraction(payload["epsilon"]),
            F=tuple(parse_element(sys_obj, e, float_mode) for e in payload["F"]),
            h=parse_func(sys_obj, payload["h"], float_mode),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad instance payload: %s" % exc)


def parse_certificate(sys_obj: DynSystem, payload, float_mode=False):
    """(epsilon, delta, t) from a certificate written by witness compile."""
    try:
        eps = parse_fraction(payload["epsilon"])
        delta = parse_fraction(payload["delta"])
        t = parse_matrix(sys_obj, payload["t"], float_mode)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError("bad certificate payload: %s" % exc)
    return eps, delta, t


# -- report plumbing -------------------------------------------------------


def _digest(parts) -> str:
    blob = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _check_flags(args) -> None:
    """The checks that read no file: budget, then ``--max-n``."""
    if getattr(args, "budget", 0) < 0:
        raise ParseError("--budget must be nonnegative, got %d" % args.budget)
    if getattr(args, "max_n", 0) < 0:
        raise ParseError("--max-n must be nonnegative, got %d" % args.max_n)


def _needed_file(args, path, flag):
    """The JSON of the file a verb cannot run without; a missing ``flag``
    is a ParseError, which comes only after the system file has loaded."""
    if not path:
        raise ParseError("%s %s needs --%s" % (args.command, args.verb, flag))
    return _load_json(path)


# -- command handlers ------------------------------------------------------
#
# ``main`` has loaded, parsed and validated the system file before a
# handler runs.  A handler gets the arguments, the system, the system
# file's payload and the system's validation report, and returns
# ``(command, inputs, result, certificates, margins)``; ``main`` builds the
# report from them and writes it.


def cmd_system_check(args, sys_obj, payload, rep):
    measures = extreme_invariant_measures(sys_obj)
    result = {
        "group_order": rep.group_order,
        "points": rep.n_points,
        "free": rep.free,
        "minimal": rep.minimal,
        "orbits": [[sys_obj.points[x] for x in orbit] for orbit in rep.orbits],
        "extreme_measures": [
            [str(w) for w in mu.weights] for mu in measures
        ],
    }
    return "system-check", payload, result, {}, {}


def cmd_compare(args, sys_obj, payload, rep):
    a, a_shown = parse_diag_tuple(sys_obj, args.a, args.float_mode)
    b, b_shown = parse_diag_tuple(sys_obj, args.b, args.float_mode)
    inputs = {"system": payload, "a": a_shown, "b": b_shown}
    holds, w = diag_subequivalent(a, b)
    result = {"subequivalent": holds}
    certificates = {}
    if args.witness and w is not None:
        certificates["witness"] = witness_payload(sys_obj, w)
    measures = extreme_invariant_measures(sys_obj)
    result["d_tau"] = [
        {
            "a": [str(d_tau(f, mu)) for f in a.entries],
            "b": [str(d_tau(f, mu)) for f in b.entries],
        }
        for mu in measures
    ]
    if args.oracle:
        result["cuntz_oracle"] = cuntz_oracle(a, b)
    if args.semigroup:
        W = type_semigroup(sys_obj, args.max_n, budget=args.budget)
        result["semigroup"] = {
            "classes": W.n_classes,
            "class_of_a": W.class_of(a),
            "class_of_b": W.class_of(b),
        }
        inputs["max_n"] = args.max_n
    return "compare", inputs, result, certificates, {}


def cmd_witness(args, sys_obj, payload, rep):
    a, a_shown = parse_diag_tuple(sys_obj, args.a, args.float_mode)
    b, b_shown = parse_diag_tuple(sys_obj, args.b, args.float_mode)
    command = "witness-" + args.verb
    inputs = {"system": payload, "a": a_shown, "b": b_shown, "verb": args.verb}
    certificates = {}
    if args.verb == "extract":
        given = _needed_file(args, args.certificate, "certificate")
        inputs["certificate"] = given
        eps, delta, t = parse_certificate(sys_obj, given, args.float_mode)
        w = extract_witness(a, b, eps, delta, t)
        certificates["witness"] = witness_payload(sys_obj, w)
        return command, inputs, {"extracted": True}, certificates, {}

    eps = parse_fraction(args.epsilon)
    inputs["epsilon"] = str(eps)
    if args.witness_file:
        given = _load_json(args.witness_file)
        inputs["witness"] = given
        w = parse_witness(sys_obj, given)
    else:
        w = search_subequivalence(
            sys_obj, a.cutdown(eps).supports(), b.supports()
        )
        if w is None:
            return command, inputs, {"compiled": False, "reason": "no witness exists"}, {}, {}
    cert = compile_witness(a, b, eps, w)
    certificates["certificate"] = {
        "epsilon": str(cert.epsilon),
        "delta": str(cert.delta),
        "t": matrix_payload(cert.t),
        "h": [[i, j, func_payload(f)] for (i, j), f in sorted(cert.partition_roots.items())],
        "bhat": [[l, func_payload(f)] for l, f in sorted(cert.target_inverse_roots.items())],
    }
    result = {"compiled": True, "delta": str(cert.delta)}
    if args.verb == "roundtrip":
        w2 = extract_witness(a, b, cert.epsilon, cert.delta, cert.t)
        certificates["witness"] = witness_payload(sys_obj, w2)
        result["roundtrip"] = True
    return command, inputs, result, certificates, {}


def cmd_castle(args, sys_obj, payload, rep):
    inputs = {"system": payload, "verb": args.verb}
    certificates = {}
    margins = {}
    if args.verb == "validate":
        castle = parse_castle(sys_obj, _needed_file(args, args.castle, "castle"))
        inputs["castle"] = castle_payload(castle)
        result = {"valid": validate_castle(castle)}
    elif args.verb == "tzs":
        given = _needed_file(args, args.instance, "instance")
        inst = parse_tzs_instance(sys_obj, given, args.float_mode)
        inputs["instance"] = given
        if args.identity:
            inputs["identity"] = True
            phi = identity_embedding(sys_obj)
        elif args.data:
            data = parse_ozm_data(sys_obj, _load_json(args.data), args.float_mode)
            inputs["data"] = ozm_data_payload(data)
            phi = build_castle_ozm(data)
        else:
            raise ParseError("castle tzs needs --data or --identity")
        report = check_tzs_instance(inst, phi)
        result = {
            "normalizer_condition": report.normalizer_condition,
            "remainder_condition": report.remainder_condition,
            "commutator_condition": report.commutator_condition,
            "all_pass": report.all_pass,
        }
        margins = {
            "max_commutator": repr(report.max_commutator),
            "bound_factor": report.commutator_bound_factor,
            "per_unit": [
                [ai, i, j, repr(v)] for ai, i, j, v in report.commutator_margins
            ],
        }
        if report.remainder_witness is not None:
            certificates["remainder_witness"] = witness_payload(
                sys_obj, report.remainder_witness
            )
    else:
        data = parse_ozm_data(sys_obj, _needed_file(args, args.data, "data"), args.float_mode)
        inputs["data"] = ozm_data_payload(data)
        phi = build_castle_ozm(data)
        if args.verb == "build-ozm":
            certificates["map"] = ozm_payload(phi)
            result = {
                "built": True,
                "unit_image_norm": operator_norm(phi.unit_image()),
            }
        else:
            recovered = decompose_ozm(phi)
            certificates["data"] = ozm_data_payload(recovered)
            result = {"decomposed": True, "towers": len(recovered.castle.towers)}
    return "castle-" + args.verb, inputs, result, certificates, margins


def cmd_semigroup(args, sys_obj, payload, rep):
    W = type_semigroup(sys_obj, args.max_n, budget=args.budget)
    unperforated, violation = almost_unperforation_check(W)
    n = W.n_classes
    addition = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            addition[i][j] = addition[j][i] = W.add_classes(i, j)
    result = {
        "max_n": args.max_n,
        "classes": [
            [sorted(sys_obj.points[x] for x in f.support) for f in cls.entries]
            for cls in W.classes
        ],
        "order": [[W.le(i, j) for j in range(n)] for i in range(n)],
        "addition": addition,
        "almost_unperforated_within_bound": unperforated,
        "violation": list(violation) if violation else None,
    }
    inputs = {"system": payload, "max_n": args.max_n}
    return "semigroup", inputs, result, {}, {}


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """``ArgumentParser`` that also refuses, like two flags that exclude
    each other, a flag that only ``--semigroup`` applies when it is given
    without ``--semigroup``."""

    semigroup_only: dict = {}  # dest -> default, applied with --semigroup

    def refuse_without_semigroup(self, *dests):
        """Parse ``dests`` with default None, so a value means the flag
        was given; their defaults are kept for runs with ``--semigroup``."""
        self.semigroup_only = {dest: self.get_default(dest) for dest in dests}
        self.set_defaults(**dict.fromkeys(dests))

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for dest, default in self.semigroup_only.items():
            if getattr(namespace, dest) is None:
                setattr(namespace, dest, default)
            elif not namespace.semigroup:
                self.error(
                    "argument --%s: not allowed without argument --semigroup"
                    % dest.replace("_", "-")
                )
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dynalg",
        description="Exact crossed-product and dynamical-comparison computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subs, name, handler, scalars=False, budget=False, **kw):
        """The parser of a command or verb that runs ``handler``.  A flag
        is matched by its whole name, never as an abbreviation of another."""
        p = subs.add_parser(name, allow_abbrev=False, **kw)
        p.add_argument("--system", required=True, help="system description file")
        if scalars:
            mode = p.add_mutually_exclusive_group()
            mode.add_argument(
                "--exact", dest="float_mode", action="store_false",
                help="exact scalars (default)",
            )
            mode.add_argument(
                "--float", dest="float_mode", action="store_true",
                help="parse scalars as floats (exploratory mode)",
            )
        p.set_defaults(float_mode=False, handler=handler)
        if budget:
            p.add_argument(
                "--budget", type=int, default=500_000,
                help="cap on the type-semigroup enumeration",
            )
        p.add_argument("--json", dest="json_out", default=None, help="also write the report here")
        return p

    command(sub, "system-check", cmd_system_check, help="validate a system file")

    p = command(
        sub, "compare", cmd_compare, scalars=True, budget=True,
        help="decide subequivalence of diagonal tuples",
    )
    p.add_argument("--a", action="append", required=True, help="tuple entry (repeatable)")
    p.add_argument("--b", action="append", required=True, help="tuple entry (repeatable)")
    p.add_argument("--witness", action="store_true", help="include the witness")
    p.add_argument("--oracle", action="store_true", help="include the rank oracle verdict")
    p.add_argument("--semigroup", action="store_true", help="include semigroup class data")
    p.add_argument("--max-n", type=int, default=2)
    p.refuse_without_semigroup("max_n", "budget")

    verbs = sub.add_parser("witness", help="compile, extract, or round-trip certificates")
    verbs = verbs.add_subparsers(dest="verb", required=True)
    for verb in ("compile", "extract", "roundtrip"):
        p = command(verbs, verb, cmd_witness, scalars=True)
        p.add_argument("--a", action="append", required=True)
        p.add_argument("--b", action="append", required=True)
        if verb == "extract":
            p.add_argument("--certificate", default=None, help="certificate file")
        else:
            p.add_argument("--epsilon", default="1/2")
            p.add_argument("--witness-file", default=None)

    verbs = sub.add_parser("castle", help="castle and order-zero-map operations")
    verbs = verbs.add_subparsers(dest="verb", required=True)
    command(verbs, "validate", cmd_castle).add_argument("--castle", default=None)
    for verb in ("build-ozm", "decompose"):
        p = command(verbs, verb, cmd_castle, scalars=True)
        p.add_argument("--data", default=None, help="castle map data file")
    p = command(verbs, "tzs", cmd_castle, scalars=True)
    p.add_argument("--instance", default=None, help="stability instance file")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--data", default=None, help="castle map data file")
    source.add_argument("--identity", action="store_true", help="use the identity embedding")

    p = command(sub, "semigroup", cmd_semigroup, budget=True, help="compute the type semigroup table")
    p.add_argument("--max-n", type=int, default=2)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing reads it
    and leaves it as it was, and building it costs more than parsing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_flags(args)
        started = time.perf_counter()
        payload = _load_json(args.system)
        sys_obj = parse_system(payload)
        rep = validate_system(sys_obj)
        command, inputs, result, certificates, margins = args.handler(
            args, sys_obj, payload, rep
        )
        text = json.dumps(
            {
                "command": command,
                "inputs": {"digest": _digest(inputs)},
                "params": {
                    "mode": "float" if args.float_mode else "exact",
                    "tolerance": FLOAT_TOL,
                },
                "result": result,
                "certificates": certificates,
                "margins": margins,
                "runtime_s": round(time.perf_counter() - started, 6),
            },
            sort_keys=True,
            indent=2,
        )
        if args.json_out:
            try:
                Path(args.json_out).write_text(text + "\n")
            except OSError as exc:
                raise ParseError("cannot write %s: %s" % (args.json_out, exc))
        if not _emit(_sys.stdout, text):
            raise ParseError("cannot write the report: standard output is closed")
        return 0
    except DynalgError as exc:
        _emit(_sys.stderr, json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


def _emit(stream, text: str) -> bool:
    """Print text on stream and flush it.  When the reader has closed the
    stream, point it at ``os.devnull``, so that no later flush (nor the
    interpreter's last one) fails, and return False."""
    try:
        print(text, file=stream, flush=True)
        return True
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, stream.fileno())
        finally:
            os.close(devnull)
        return False


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
