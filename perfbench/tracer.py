"""Tracing by wrapping the library's public callables from outside.

``Tracer.install`` replaces every public function of each ``dynalg``
module in every module namespace that binds it (``regular_rep`` is bound
in both ``algebra`` and ``castles``, for instance), wraps the public
methods of the library's classes, and wraps the few ``numpy.linalg``
routines the library calls.  ``Tracer.uninstall`` puts the originals
back.  Nothing under ``src/`` is edited.

Each wrapped call belongs to a *layer* (roughly a module) and a *group*
(a named set of callables inside it).  For both, the tracer keeps:

* calls;
* busy time: wall time inside the outermost call of that layer or group,
  so nested calls are not counted twice;
* self time: busy time minus the time covered by wrapped calls made from
  inside it (calls into other layers, or into other groups).

Scalar methods are only counted: one call costs less than the wrapper.
Methods of ``FiniteGroup`` and ``DynSystem`` (table lookups) are not
wrapped; their time belongs to the caller.  Every timed call except the
fine-grained algebra ones (``Func`` methods, constructors, sums) is also
kept as a span (name, start, end, the span that caused it, and the id of
the op it belongs to), up to ``SPAN_CAP`` spans; ``dump`` writes them
out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

import dynalg
import dynalg.cli

SPAN_CAP = 200_000

MODULES = ["scalars", "dynsys", "algebra", "normalizers", "comparison", "witness", "castles", "cli"]

# functions of the algebra module that build or use the float representation
REP_FUNCTIONS = {"regular_rep", "operator_norm", "orbit_block_decomposition", "matrix_orbit_blocks"}

# the numpy.linalg routines the library calls
LINALG = ["eigvalsh", "svd", "norm"]

ARITHMETIC = {"__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__", "__rtruediv__", "__eq__"}

# group of each module-level function whose group is not its layer
FUNCTION_GROUPS = {
    "search_subequivalence": "comparison.search",
    "type_semigroup": "comparison.semigroup",
    "almost_unperforation_check": "comparison.unperforation",
    "cuntz_oracle": "comparison.oracle",
    "compile_witness": "witness.compile",
    "extract_witness": "witness.extract",
    "build_castle_ozm": "castles.build",
    "decompose_ozm": "castles.decompose",
    "verify_cpc": "castles.verify",
    "verify_order_zero": "castles.verify",
    "verify_normalizer_preserving": "castles.verify",
    "validate_system": "dynsys.validate",
    "extreme_invariant_measures": "dynsys.measures",
    "main": "cli.main",
}


def _rep_dim(name, args):
    """Dimension of the representation a rep-layer call builds."""
    a = args[0]
    if name == "OrbitBlock.rank":
        return len(a.entries)
    if name == "OrbitBlock.to_complex":
        return None
    sys = a.system
    if name in ("regular_rep", "CrossedElement.rep_matrix"):
        return sys.group.order * sys.n_points
    if name == "MatrixElement.rep_matrix":
        return a.n * sys.group.order * sys.n_points
    if name == "orbit_block_decomposition":
        return sys.n_points
    if name == "matrix_orbit_blocks":
        return a.n * sys.n_points
    return None


def _method_group(cls_name, attr, is_classmethod):
    """Group of a method of an algebra or comparison class, or None."""
    if cls_name == "TypeSemigroup":
        return "comparison.semigroup"
    if cls_name not in ("Func", "CrossedElement", "MatrixElement", "DiagTuple"):
        return None
    if is_classmethod:
        return "algebra.new"
    if cls_name == "Func":
        return "algebra.func"
    if attr == "__mul__" and cls_name in ("CrossedElement", "MatrixElement"):
        return "algebra.%s_mul" % ("crossed" if cls_name == "CrossedElement" else "matrix")
    if attr == "adjoint":
        return "algebra.adjoint"
    if attr == "__eq__":
        return "algebra.eq"
    return "algebra.other"


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [child time, span id]
        self.groups = {}  # group -> [calls, busy, self, active]
        self.layers = {}  # layer -> [calls, busy, self, active]
        self.counts = defaultdict(int)
        self.by_dim = defaultdict(lambda: [0, 0.0])  # (layer, dim) -> [calls, busy]
        self.spans = []
        self.dropped = 0
        self.request = None
        self._patches = []
        self._next_span = 1

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn, name, layer, group, record, dim_of=None, on_return=None):
        gstats = self.groups.setdefault(group, [0, 0.0, 0.0, 0])
        lstats = self.layers.setdefault(layer, [0, 0.0, 0.0, 0])
        stack, spans, by_dim, clock = self.stack, self.spans, self.by_dim, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gstats[0] += 1
            lstats[0] += 1
            parent = stack[-1][1] if stack else 0
            sid = parent
            if record:
                sid = tracer._next_span
                tracer._next_span += 1
            frame = [0.0, sid]
            stack.append(frame)
            gstats[3] += 1
            lstats[3] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                gstats[2] += own
                lstats[2] += own
                gstats[3] -= 1
                lstats[3] -= 1
                if not gstats[3]:
                    gstats[1] += dur
                if not lstats[3]:
                    lstats[1] += dur
                    if dim_of is not None:
                        dim = dim_of(args)
                        if dim is not None:
                            cell = by_dim[(layer, dim)]
                            cell[0] += 1
                            cell[1] += dur
                if stack:
                    stack[-1][0] += dur
                if record:
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, parent, tracer.request, name, t0, t1))
                    else:
                        tracer.dropped += 1
            if on_return is not None:
                on_return(args, out)
            return out

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        original = vars(owner)[attr]  # the raw descriptor when owner is a class
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    # -- hooks that derive counters -------------------------------------

    def _rep_built(self, name):
        def hook(args, out):
            dim = _rep_dim(name, args)
            self.counts["algebra.rep.builds"] += 1
            self.counts["algebra.rep.dim_sum"] += dim

        return hook

    def _search_done(self, args, out):
        if out is not None:
            self.counts["comparison.found"] += 1

    def _linalg_call(self, args, out):
        n = np.shape(args[0])[-1]
        self.counts["linalg.n3_sum"] += n ** 3

    # -- install / uninstall -----------------------------------------------

    def install(self):
        modules = {name: getattr(dynalg, name) for name in MODULES}
        namespaces = [dynalg] + list(modules.values())
        for mod_name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(mod_name, obj)
                elif inspect.isfunction(obj):
                    wrapper = self._wrap_function(mod_name, attr, obj)
                    for ns in namespaces:
                        for name, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, name, wrapper)
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            self._patch(np.linalg, attr, self._timed(
                fn, "linalg." + attr, "linalg", "linalg", True,
                dim_of=lambda args: int(np.shape(args[0])[-1]),
                on_return=self._linalg_call,
            ))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_function(self, mod_name, attr, fn):
        if mod_name == "scalars":
            return self._counted(fn, "scalars.calls")
        layer = "algebra.rep" if attr in REP_FUNCTIONS else mod_name
        group = FUNCTION_GROUPS.get(attr, layer)
        on_return = None
        if attr in ("regular_rep", "orbit_block_decomposition"):
            on_return = self._rep_built(attr)
        elif attr == "search_subequivalence":
            on_return = self._search_done
        dim_of = (lambda args, a=attr: _rep_dim(a, args)) if layer == "algebra.rep" else None
        return self._timed(fn, attr, layer, group, True, dim_of=dim_of, on_return=on_return)

    def _wrap_class(self, mod_name, cls):
        if mod_name == "dynsys":
            return  # group and action lookups are too fine to time
        for attr, raw in list(vars(cls).items()):
            if mod_name == "scalars":
                key = "scalars.new" if attr == "__init__" else "scalars.calls"
                if isinstance(raw, property):
                    self._patch(cls, attr, property(self._counted(raw.fget, key)))
                elif inspect.isfunction(raw) and attr not in ("__repr__", "__init_subclass__"):
                    self._patch(cls, attr, self._counted(raw, key))
                elif isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._counted(raw.__func__, key)))
                continue
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            name = "%s.%s" % (cls.__name__, attr)
            layer = "algebra.rep" if attr in ("rep_matrix", "rank", "to_complex") else mod_name
            group = layer if layer == "algebra.rep" else _method_group(cls.__name__, attr, is_cm) or layer
            record = group not in ("algebra.func", "algebra.new", "algebra.other")
            dim_of = (lambda args, n=name: _rep_dim(n, args)) if layer == "algebra.rep" else None
            wrapper = self._timed(fn, name, layer, group, record, dim_of=dim_of)
            self._patch(cls, attr, classmethod(wrapper) if is_cm else wrapper)

    # -- reading ------------------------------------------------------------

    def group(self, name):
        return self.groups.get(name, [0, 0.0, 0.0, 0])

    def layer(self, name):
        return self.layers.get(name, [0, 0.0, 0.0, 0])

    def metrics(self, ops):
        """The per-layer metrics, name -> (value, unit)."""
        g, lay, c = self.group, self.layer, self.counts
        searches = g("comparison.search")[0]
        verifier_calls = g("castles.verify")[0]
        values = {
            "scalars.calls": (c["scalars.calls"], "count"),
            "scalars.new": (c["scalars.new"], "count"),
            "algebra.func_ops": (g("algebra.func")[0], "count"),
            "algebra.crossed_mul": (g("algebra.crossed_mul")[0], "count"),
            "algebra.matrix_mul": (g("algebra.matrix_mul")[0], "count"),
            "algebra.adjoint": (g("algebra.adjoint")[0], "count"),
            "algebra.eq": (g("algebra.eq")[0], "count"),
            "algebra.busy_s": (lay("algebra")[1], "s"),
            "algebra.self_s": (lay("algebra")[2], "s"),
            "algebra.rep.builds": (c["algebra.rep.builds"], "count"),
            "algebra.rep.dim_sum": (c["algebra.rep.dim_sum"], "count"),
            "algebra.rep.busy_s": (lay("algebra.rep")[1], "s"),
            "linalg.solves": (lay("linalg")[0], "count"),
            "linalg.n3_sum": (c["linalg.n3_sum"], "count"),
            "linalg.busy_s": (lay("linalg")[1], "s"),
            "normalizers.calls": (lay("normalizers")[0], "count"),
            "normalizers.busy_s": (lay("normalizers")[1], "s"),
            "normalizers.self_s": (lay("normalizers")[2], "s"),
            "comparison.searches": (searches, "count"),
            "comparison.found_ratio": (c["comparison.found"] / searches if searches else 0.0, "ratio"),
            "comparison.search_busy_s": (g("comparison.search")[1], "s"),
            "comparison.semigroup_busy_s": (g("comparison.semigroup")[1], "s"),
            "comparison.semigroup_self_s": (g("comparison.semigroup")[2], "s"),
            "comparison.unperforation_busy_s": (g("comparison.unperforation")[1], "s"),
            "comparison.oracle_busy_s": (g("comparison.oracle")[1], "s"),
            "witness.compiles": (g("witness.compile")[0], "count"),
            "witness.extracts": (g("witness.extract")[0], "count"),
            "witness.busy_s": (lay("witness")[1], "s"),
            "witness.self_s": (lay("witness")[2], "s"),
            "castles.builds": (g("castles.build")[0], "count"),
            "castles.verifier_calls": (verifier_calls, "count"),
            "castles.verifies_per_op": (verifier_calls / ops if ops else 0.0, "ratio"),
            "castles.verify_busy_s": (g("castles.verify")[1], "s"),
            "castles.build_self_s": (g("castles.build")[2], "s"),
            "castles.decompose_self_s": (g("castles.decompose")[2], "s"),
            "dynsys.validate_busy_s": (g("dynsys.validate")[1], "s"),
            "dynsys.measures_busy_s": (g("dynsys.measures")[1], "s"),
            "cli.requests": (g("cli.main")[0], "count"),
            "cli.busy_s": (lay("cli")[1], "s"),
            "cli.self_s": (lay("cli")[2], "s"),
        }
        return values

    def dim_breakdown(self):
        """Busy time of the representation and linear-algebra layers by
        dimension, outermost calls only."""
        out = {}
        for (layer, dim), (calls, busy) in sorted(self.by_dim.items()):
            if layer in ("algebra.rep", "linalg"):
                out.setdefault(layer, []).append({"dim": dim, "calls": calls, "busy_s": busy})
        return out

    def dump(self, path, extra):
        """Write counters, per-layer and per-group tables and spans."""
        names = ["span_id", "parent_id", "op", "name", "start_s", "end_s"]
        payload = dict(extra)
        payload.update({
            "layers": {k: dict(zip(["calls", "busy_s", "self_s"], v[:3])) for k, v in sorted(self.layers.items())},
            "groups": {k: dict(zip(["calls", "busy_s", "self_s"], v[:3])) for k, v in sorted(self.groups.items())},
            "counts": dict(sorted(self.counts.items())),
            "by_dim": self.dim_breakdown(),
            "span_fields": names,
            "spans": self.spans,
            "spans_dropped": self.dropped,
        })
        with open(path, "w") as fh:
            json.dump(payload, fh)
