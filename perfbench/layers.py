"""Outside-in layer tracing: wrap the program's entry points, record spans.

Spans are kept in memory as [name, start, end, parent, op] lists plus a
per-span info dict, and turned into per-layer metrics (and optionally a
JSON file) when the run ends. Wrapping rebinds module attributes, so it
reaches every call that goes through a module global or attribute; the
modules that import `lp_solve` by name get their own rebinding.

Time spent by the tracer on derived counts (integer bit lengths) is kept
off the span clock, so layer self times stay comparable to untraced runs;
the wall-clock cost of tracing shows as `trace.overhead_s`.
"""

from collections import Counter, defaultdict
from time import perf_counter

# the lru_cache'd coordinate-map builders of `spaces`
MAP_BUILDERS = (
    "pushforward_matrix", "permutation_matrix", "marginal_matrix", "restriction_matrix",
)

# (layer, module, function names); one span name per layer
WRAPPED = (
    ("kernel", "_backend", ("simplex_solve",)),
    ("lp", "polytope", ("lp_solve",)),
    ("lp", "credal", ("lp_solve",)),
    ("lp", "joint", ("lp_solve",)),
    ("is_subset", "polytope", ("is_subset",)),
    ("redundancy", "polytope", ("remove_redundant_ineqs",)),
    ("dd", "polytope", ("_points_from_hrep", "_hrep_from_points")),
    ("image", "polytope", ("linear_image",)),
    ("maps", "spaces", MAP_BUILDERS),
    ("consistency", "credal", (
        "check_permutation_consistency", "check_marginal_consistency",
    )),
    ("expectation", "credal", ("lower_expectation", "upper_expectation")),
    ("build", "joint", ("build_joint",)),
    ("diagnosis", "joint", ("_diagnose",)),
    ("represent", "joint", ("verify_representation",)),
    ("properties", "joint", ("property_suite",)),
    ("pushforward", "joint", ("pushforward_joint",)),
    ("parse", "modelio", ("load_model",)),
    ("report", "modelio", (
        "dump_json", "report_document", "consistency_dict",
        "representation_dict", "properties_dict", "joint_summary",
        "joint_hrep_document", "write_atomic",
    )),
)


def _bits(values):
    best = 0
    for v in values or ():
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _kernel_info(args, result):
    m, n = args[0], args[1]
    _, x, y = result
    return {"cells": m * n, "bits": max(_bits(x), _bits(y))}


def _lp_info(args, result):
    problem = args[0]
    return {
        "status": result.status,
        "rows": len(problem.rows),
        "cols": len(problem.objective),
    }


def _redundancy_info(args, result):
    return {"rows_in": len(args[1]), "rows_kept": len(result)}


def _diagnosis_info(args, result):
    return {"core_rows": len(result.rows)}


def _consistency_info(args, result):
    return {"failed": sum(1 for r in result.records if r.status == "fail")}


def _report_info(args, result):
    return {"bytes": len(result.encode("utf-8"))} if isinstance(result, str) else {}


INFO = {
    "simplex_solve": _kernel_info,
    "lp_solve": _lp_info,
    "remove_redundant_ineqs": _redundancy_info,
    "_diagnose": _diagnosis_info,
    "check_permutation_consistency": _consistency_info,
    "check_marginal_consistency": _consistency_info,
    "dump_json": _report_info,
}


class Tracer:
    """Span recorder over wrapped functions of the program's modules."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.info = {}
        self.stack = []
        self.op = None
        self.paused = 0.0
        self._saved = []

    def clock(self):
        return perf_counter() - self.paused

    def _wrap(self, name, fn, info):
        spans, stack, infos = self.spans, self.stack, self.info

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, self.clock(), None, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                stack.pop()
            if info is not None:
                t0 = perf_counter()
                infos[idx] = info(args, result)
                self.paused += perf_counter() - t0
            return result

        return wrapper

    def install(self):
        for layer, module, names in WRAPPED:
            mod = self.modules[module]
            for fname in names:
                fn = getattr(mod, fname)
                self._saved.append((mod, fname, fn))
                setattr(mod, fname, self._wrap(layer, fn, INFO.get(fname)))

    def uninstall(self):
        for mod, fname, fn in reversed(self._saved):
            setattr(mod, fname, fn)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.info.clear()

    def op_span(self, kind):
        """Open a root span for one benchmark operation; returns its closer."""
        idx = len(self.spans)
        self.op = idx
        span = [f"op.{kind}", self.clock(), None, -1, idx]
        self.spans.append(span)
        self.stack.append(idx)

        def close():
            span[2] = self.clock()
            self.stack.pop()
            self.op = None

        return close

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o,
             **self.info.get(i, {})}
            for i, (n, s, e, p, o) in enumerate(self.spans)
        ]


def layer_metrics(spans, info, maps_hits, maps_misses):
    """Per-layer metrics from one traced pass's spans.

    busy_s sums the outermost span of a layer (a layer nested in itself is
    counted once); self_s subtracts the direct children; `lps` counts the
    lp spans below a layer's spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    busy = Counter()
    self_s = Counter()
    calls = Counter()
    lps = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".")[0]
        calls[layer] += 1
        self_s[layer] += end - start - child[i]
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0].split(".")[0])
            p = spans[p][3]
        if layer not in ancestors:
            busy[layer] += end - start
        if layer == "lp":
            for a in ancestors:
                lps[a] += 1
    sums = defaultdict(int)
    bits = 0
    for i, extra in info.items():
        for key, value in extra.items():
            if key == "bits":
                bits = max(bits, value)
            elif key == "status":
                sums[value] += 1
            else:
                sums[key] += value
    n_lp = calls["lp"] or 1
    m = {
        "kernel.calls": (calls["kernel"], "count"),
        "kernel.busy_s": (busy["kernel"], "s"),
        "kernel.cells": (sums["cells"], "count"),
        "kernel.out_bits_max": (bits, "bits"),
        "lp.calls": (calls["lp"], "count"),
        "lp.busy_s": (busy["lp"], "s"),
        "lp.self_s": (self_s["lp"], "s"),
        "lp.optimal": (sums["optimal"], "count"),
        "lp.infeasible": (sums["infeasible"], "count"),
        "lp.unbounded": (sums["unbounded"], "count"),
        "lp.rows_mean": (sums["rows"] / n_lp, "rows"),
        "lp.cols_mean": (sums["cols"] / n_lp, "cols"),
        "redundancy.rows_in": (sums["rows_in"], "rows"),
        "redundancy.rows_kept": (sums["rows_kept"], "rows"),
        "diagnosis.core_rows": (sums["core_rows"], "rows"),
        "consistency.failed_checks": (sums["failed"], "count"),
        "report.bytes": (sums["bytes"], "bytes"),
        "maps.hits": (maps_hits, "count"),
        "maps.misses": (maps_misses, "count"),
        "cli.self_s": (self_s["op"], "s"),
    }
    for layer in ("is_subset", "redundancy", "dd", "image", "expectation"):
        m[f"{layer}.calls"] = (calls[layer], "count")
    for layer in ("is_subset", "redundancy", "dd", "image", "maps", "consistency",
                  "expectation", "build", "represent", "properties",
                  "pushforward", "parse", "report"):
        m[f"{layer}.busy_s"] = (busy[layer], "s")
    for layer in ("consistency", "build", "represent", "properties"):
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    for layer in ("is_subset", "redundancy", "consistency", "build", "diagnosis",
                  "represent", "properties"):
        m[f"{layer}.lps"] = (lps[layer], "count")
    m["trace.self_total_s"] = (sum(self_s.values()), "s")
    return m
