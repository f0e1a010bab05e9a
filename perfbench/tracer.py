"""Spans and counters around weilinv's public functions, installed from outside.

``install`` replaces each traced function by a wrapper in every weilinv
module that holds a reference to it (``cli``, ``appl``, ``fundamental`` and
``induct`` import from ``weil`` by name, so patching ``weil`` alone would
miss their calls), and each traced method on its class.

Every wrapped call pushes a frame on one stack.  When it returns, its
duration is added to the time of its caller's frame that is spent in
traced callees, so the self time of a call is its duration minus the time
covered by the traced calls made inside it.  Functions in ``SPANS`` also
record a span (name, start, end, parent span, operation id) in memory; hot
methods in ``HOT`` only update counters and summed timers.  Private
kernels (``_part_cusp_columns``, ``_apply_s_raw``, ``cyclo._tables``) are
not wrapped, so their time is self time of their public caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, metric prefix, extra counter or None)
SPANS = [
    ("fqm", "from_jordan_symbol", "fqm.construct", None),
    ("fqm", "from_gram", "fqm.construct", None),
    ("weil", "dim_invariants", "weil.dim_invariants", None),
    ("weil", "cusp_classes", "weil.cusp_classes", None),
    ("weil", "word_decompose", "weil.word_decompose", "tokens"),
    ("weil", "enumerate_cosets", "weil.enumerate_cosets", None),
    ("weil", "rho", "weil.rho", None),
    ("weil", "inv_average_oracle", "weil.inv_average_oracle", None),
    ("weil", "inv", "weil.inv", None),
    ("weil", "inv_at_cusp", "weil.inv_at_cusp", None),
    ("weil", "rank_of_vectors", "weil.rank_of_vectors", "vectors_in"),
    ("induct", "isotropic_subgroups", "induct.isotropic_subgroups", "found"),
    ("induct", "quotient", "induct.quotient", None),
    ("induct", "lift_up", "induct.lift_up", None),
    ("fundamental", "invariant_generators", "fundamental.invariant_generators", "generators"),
    ("fundamental", "tensor_combine", "fundamental.tensor_combine", None),
    ("fundamental", "is_fundamental_quotient", "fundamental.is_fundamental_quotient", "hits"),
    ("appl", "theta_q_expansion", "appl.theta_q_expansion", "vectors_counted"),
    ("appl", "jacobi_singular_basis", "appl.jacobi_singular_basis", None),
    ("appl", "dim_s2_trace", "appl.dim_s2_trace", None),
    ("cli", "main", "cli.main", None),
]

# Module-level functions called too often for one span per call: counters
# and summed timers only.
HOT_FUNCTIONS = [("cyclo", "e_of", "cyclo.e_of")]

# (module, class, attribute, metric prefix); aliases such as __rmul__ share
# the metric of the method they alias.
HOT = [
    ("cyclo", "Cyclo", "__add__", "cyclo.add"),
    ("cyclo", "Cyclo", "__radd__", "cyclo.add"),
    ("cyclo", "Cyclo", "__sub__", "cyclo.sub"),
    ("cyclo", "Cyclo", "__rsub__", "cyclo.sub"),
    ("cyclo", "Cyclo", "__neg__", "cyclo.neg"),
    ("cyclo", "Cyclo", "__mul__", "cyclo.mul"),
    ("cyclo", "Cyclo", "__rmul__", "cyclo.mul"),
    ("cyclo", "Cyclo", "__truediv__", "cyclo.div"),
    ("cyclo", "Cyclo", "__rtruediv__", "cyclo.div"),
    ("cyclo", "Cyclo", "inverse", "cyclo.inverse"),
    ("cyclo", "Cyclo", "conjugate", "cyclo.conjugate"),
    ("cyclo", "Cyclo", "__eq__", "cyclo.eq"),
    ("fqm", "DiscriminantForm", "q", "fqm.q"),
    ("fqm", "DiscriminantForm", "b", "fqm.b"),
    ("fqm", "DiscriminantForm", "isotropic_elements", "fqm.isotropic_elements"),
    ("fqm", "DiscriminantForm", "p_part_decompose", "fqm.p_part_decompose"),
]


def _extra(kind: str, args, result) -> int:
    """The amount an extra counter grows by for one call."""
    if kind == "tokens":
        return len(result.tokens)
    if kind == "vectors_in":
        return len(args[0])
    if kind in ("found", "generators"):
        return len(result)
    if kind == "hits":
        return 1 if result else 0
    if kind == "vectors_counted":
        return sum(abs(c) for c in result)
    raise ValueError(kind)


class Tracer:
    """Frames, spans and per-name totals of one traced process."""

    def __init__(self):
        self.active = False
        self.op = None  # id of the running operation
        self.stack: list[list] = []  # [start, time in traced callees]
        self.span_stack: list[int] = []
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        self.depth: dict[str, int] = defaultdict(int)
        # generator lists returned by invariant_generators, by id, and the
        # (rank, generators) pairs of rank_of_vectors calls on them
        self.generator_lists: dict[int, list] = {}
        self.span_pairs: list[tuple[int, int]] = []

    def wrap(self, name: str, fn, *, span: bool, extra: str | None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if span:
                record = [name, None, None, tracer.span_stack[-1] if tracer.span_stack else -1, tracer.op]
                tracer.span_stack.append(len(tracer.spans))
                tracer.spans.append(record)
            tracer.depth[name] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.depth[name] -= 1
                if not tracer.depth[name]:
                    tracer.total_s[name] += duration
                if span:
                    tracer.span_stack.pop()
                    record[1], record[2] = frame[0], end
            if extra is not None:
                tracer.extra[name + "." + extra] += _extra(extra, args, result)
                if extra == "generators":
                    tracer.generator_lists[id(result)] = result
                elif extra == "vectors_in" and tracer.generator_lists.get(id(args[0])) is args[0]:
                    tracer.span_pairs.append((result, len(args[0])))
            return result

        return wrapper

    def exclude(self, duration: float) -> None:
        """Leave ``duration`` seconds, spent by the benchmark inside the
        current traced call, out of that call's self time."""
        if self.active and self.stack:
            self.stack[-1][1] += duration

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "weilinv" or key.startswith("weilinv.")]
        functions = [(m, a, n, e, True) for m, a, n, e in SPANS]
        functions += [(m, a, n, None, False) for m, a, n in HOT_FUNCTIONS]
        for mod_name, attr, name, extra, span in functions:
            original = getattr(sys.modules["weilinv." + mod_name], attr)
            wrapper = self.wrap(name, original, span=span, extra=extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in HOT:
            cls = getattr(sys.modules["weilinv." + mod_name], cls_name)
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr], span=False, extra=None))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""
        cyclo_names = {n for _, _, _, n in HOT if n.startswith("cyclo.")} | {"cyclo.e_of"}
        out: dict[str, tuple[float, str]] = {}

        def count(metric, value):
            out[metric] = (value, "count")

        def seconds(metric, value):
            out[metric] = (value, "s")

        for name in ("cyclo.mul", "cyclo.add", "cyclo.inverse", "cyclo.e_of"):
            count(name + ".calls", self.calls[name])
        seconds("cyclo.ops.self_s", sum(self.self_s[n] for n in cyclo_names))
        seconds("fqm.construct.s", self.total_s["fqm.construct"])
        count("fqm.q.calls", self.calls["fqm.q"])
        count("fqm.b.calls", self.calls["fqm.b"])
        seconds("fqm.isotropic_elements.s", self.total_s["fqm.isotropic_elements"])
        seconds("fqm.p_part_decompose.s", self.total_s["fqm.p_part_decompose"])
        seconds("weil.dim_invariants.self_s", self.self_s["weil.dim_invariants"])
        seconds("weil.cusp_classes.s", self.total_s["weil.cusp_classes"])
        count("weil.word_decompose.calls", self.calls["weil.word_decompose"])
        count("weil.word_decompose.tokens", self.extra["weil.word_decompose.tokens"])
        seconds("weil.enumerate_cosets.s", self.total_s["weil.enumerate_cosets"])
        for name in ("weil.rho", "weil.inv", "weil.inv_at_cusp", "weil.rank_of_vectors"):
            count(name + ".calls", self.calls[name])
            seconds(name + ".self_s", self.self_s[name])
        seconds("weil.inv_average_oracle.self_s", self.self_s["weil.inv_average_oracle"])
        count("weil.rank_of_vectors.vectors_in", self.extra["weil.rank_of_vectors.vectors_in"])
        seconds("induct.isotropic_subgroups.self_s", self.self_s["induct.isotropic_subgroups"])
        count("induct.isotropic_subgroups.found", self.extra["induct.isotropic_subgroups.found"])
        count("induct.quotient.calls", self.calls["induct.quotient"])
        seconds("induct.quotient.self_s", self.self_s["induct.quotient"])
        count("induct.lift_up.calls", self.calls["induct.lift_up"])
        seconds("fundamental.invariant_generators.self_s", self.self_s["fundamental.invariant_generators"])
        seconds("fundamental.tensor_combine.self_s", self.self_s["fundamental.tensor_combine"])
        tried = self.calls["fundamental.is_fundamental_quotient"]
        hits = self.extra["fundamental.is_fundamental_quotient.hits"]
        out["fundamental.quotient_hit_ratio"] = (hits / tried if tried else 0.0, "ratio")
        generators = sum(g for _, g in self.span_pairs)
        rank = sum(r for r, _ in self.span_pairs)
        out["fundamental.span_ratio"] = (rank / generators if generators else 0.0, "ratio")
        seconds("appl.theta_q_expansion.self_s", self.self_s["appl.theta_q_expansion"])
        count("appl.theta.vectors_counted", self.extra["appl.theta_q_expansion.vectors_counted"])
        seconds("appl.jacobi_singular_basis.self_s", self.self_s["appl.jacobi_singular_basis"])
        seconds("appl.dim_s2_trace.self_s", self.self_s["appl.dim_s2_trace"])
        seconds("cli.main.self_s", self.self_s["cli.main"])
        return out
