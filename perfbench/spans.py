"""Spans around singcalc's public functions, recorded from outside src/.

`Tracer.install()` replaces each function listed in `TRACED` by a wrapper
in every `singcalc` module namespace that binds the same function object
(`cli`, `weightfilt` and `monodromy` import `expand` by name, for example),
and `uninstall()` puts the originals back.  The bindings are found once, so
installing and uninstalling around every single report is cheap.  Each
call records a span: name, start, end, parent span and report id.  Spans
stay in memory and are written out by `write_spans`.

A span's self time is its duration minus the time spent in wrapped
children, measured from the children's wrapper entry to wrapper exit, so
the bookkeeping of a child is charged to nobody rather than to its parent.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from functools import wraps

# The public functions named in the per-layer table, by module (= layer).
TRACED = {
    "cli": ("main",),
    "cyclo": (
        "expand", "combine", "power_char", "substitute_power", "gcd_cyclo",
        "exact_divide", "product_to_divisor", "root_multiplicity",
    ),
    "quotient": ("hj_resolve", "normalize_type", "wblowup2"),
    "qres2d": ("local_invariants", "qresolve", "smoothen", "qblowup_step", "newton_weights"),
    "curves": ("curve_spec_from_dict", "qhs_test", "surface_intersections", "link_graph_adjust"),
    "monodromy": ("char_poly_lys", "jordan2_sis", "acampo_zeta", "zeta_to_char"),
    "weightfilt": (
        "delta_k", "weight_filtration", "charpoly", "cyclotomic_content", "rref",
        "solve_coordinates", "kernel", "jordan_blocks", "mat_mul", "default_power",
    ),
    "wlys": ("wdecompose", "wlys_admissibility"),
}
LAYERS = tuple(TRACED)
CYCLO_ALGEBRA = TRACED["cyclo"][1:]


class Tracer:
    """Records spans and per-function counters while installed."""

    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        self._index = {name: i for i, name in enumerate(self.names)}
        self._layer_of = [name.split(".")[0] for name in self.names]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.entries = [0] * n  # calls whose parent is in another layer
        self.counts = {
            "delta_k_nonzero": 0,
            "expand_coeffs": 0,
            "expand_max_bits": 0,
            "expand_reported": 0,
            "blowups": 0,
            "smooth_vertices": 0,
        }
        # span columns, one row per finished span; parent -1 marks a root
        self.span_id = array("l")
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_report = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.report_id = -1
        self._next_id = 0
        self._stack = []  # [span id, name index, wrapped-children time]
        self._patches = []  # (module, attribute, original, wrapper)

    # -- installation -------------------------------------------------------

    def _find_bindings(self):
        import singcalc.cli  # noqa: F401  (imports every traced module)

        modules = [m for k, m in sys.modules.items() if k.startswith("singcalc.")]
        for layer, fns in TRACED.items():
            module = sys.modules[f"singcalc.{layer}"]
            for fn in fns:
                original = getattr(module, fn)
                wrapper = self._wrap(original, self._index[f"{layer}.{fn}"])
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))

    def install(self):
        if not self._patches:
            self._find_bindings()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, fn, idx):
        layer_of = self._layer_of
        layer = layer_of[idx]
        stack = self._stack
        clock = time.perf_counter
        post = _POST.get(self.names[idx])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else None
            frame = [self._next_id, idx, 0.0]
            self._next_id += 1
            stack.append(frame)
            try:
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    self.span_id.append(frame[0])
                    self.span_name.append(idx)
                    self.span_parent.append(parent[0] if parent else -1)
                    self.span_report.append(self.report_id)
                    self.span_start.append(start)
                    self.span_end.append(end)
                    self.calls[idx] += 1
                    self.self_s[idx] += (end - start) - frame[2]
                    if parent is None or layer_of[parent[1]] != layer:
                        self.entries[idx] += 1
                if post is not None:
                    post(self, result, parent)
                return result
            finally:
                if parent is not None:
                    parent[2] += clock() - entered

        return wrapper

    # -- results ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                fh.write(
                    json.dumps(
                        {
                            "id": self.span_id[i],
                            "name": self.names[self.span_name[i]],
                            "start": self.span_start[i],
                            "end": self.span_end[i],
                            "parent": self.span_parent[i],
                            "report": self.span_report[i],
                        }
                    )
                    + "\n"
                )


def _after_delta_k(tracer, result, parent):
    if result.factors:
        tracer.counts["delta_k_nonzero"] += 1


def _after_expand(tracer, result, parent):
    counts = tracer.counts
    counts["expand_coeffs"] += len(result.coeffs)
    bits = max(abs(c) for c in result.coeffs).bit_length()
    counts["expand_max_bits"] = max(counts["expand_max_bits"], bits)
    # cli calls expand only to serialize a polynomial into the report
    if parent is not None and tracer.names[parent[1]] == "cli.main":
        counts["expand_reported"] += 1


def _after_qresolve(tracer, result, parent):
    tracer.counts["blowups"] += result.blowups


def _after_smoothen(tracer, result, parent):
    tracer.counts["smooth_vertices"] += len(result.vertices)


_POST = {
    "weightfilt.delta_k": _after_delta_k,
    "cyclo.expand": _after_expand,
    "qres2d.qresolve": _after_qresolve,
    "qres2d.smoothen": _after_smoothen,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, weightfilt_reports: int,
                  report_bytes: int, traced_wall: float, overhead: float) -> dict:
    """Per-layer metrics, summed over one pass of the input set.

    Ratios with a zero base (a layer the workload never calls) read 0.
    """
    stat = {
        name: (tracer.calls[i] / passes, tracer.self_s[i] / passes, tracer.entries[i] / passes)
        for i, name in enumerate(tracer.names)
    }
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for fn in TRACED["weightfilt"]:
        put(f"weightfilt.{fn}.calls", stat[f"weightfilt.{fn}"][0], "count")
        put(f"weightfilt.{fn}.self_s", stat[f"weightfilt.{fn}"][1], "s")
    c = tracer.counts
    put("weightfilt.delta_k.useful_ratio",
        _ratio(c["delta_k_nonzero"] / passes, stat["weightfilt.delta_k"][0]), "ratio")
    put("weightfilt.weight_filtration.per_report",
        _ratio(stat["weightfilt.weight_filtration"][0], weightfilt_reports / passes), "count")

    expand_calls = stat["cyclo.expand"][0]
    put("cyclo.expand.calls", expand_calls, "count")
    put("cyclo.expand.self_s", stat["cyclo.expand"][1], "s")
    put("cyclo.expand.coeffs_out", c["expand_coeffs"] / passes, "count")
    put("cyclo.expand.max_coeff_bits", c["expand_max_bits"], "bits")
    put("cyclo.expand.reported_ratio", _ratio(c["expand_reported"] / passes, expand_calls), "ratio")
    put("cyclo.algebra.self_s", sum(stat[f"cyclo.{fn}"][1] for fn in CYCLO_ALGEBRA), "s")

    for layer in ("qres2d", "quotient"):
        for fn in TRACED[layer]:
            put(f"{layer}.{fn}.calls", stat[f"{layer}.{fn}"][0], "count")
            put(f"{layer}.{fn}.self_s", stat[f"{layer}.{fn}"][1], "s")
    put("qres2d.blowups", c["blowups"] / passes, "count")
    put("qres2d.smooth_vertices", c["smooth_vertices"] / passes, "count")

    for layer in ("curves", "monodromy", "wlys"):
        for fn in TRACED[layer]:
            put(f"{layer}.{fn}.self_s", stat[f"{layer}.{fn}"][1], "s")
    put("cli.main.self_s", stat["cli.main"][1], "s")
    put("cli.report_bytes", report_bytes / passes, "B")

    layer_self = 0.0
    for layer in LAYERS:
        names = [f"{layer}.{fn}" for fn in TRACED[layer]]
        put(f"{layer}.calls", sum(stat[n][2] for n in names), "count")
        self_s = sum(stat[n][1] for n in names)
        put(f"{layer}.self_s", self_s, "s")
        layer_self += self_s
    put("trace.overhead_frac", overhead, "ratio")
    put("trace.accounted_frac", _ratio(layer_self, traced_wall / passes), "ratio")
    return out
