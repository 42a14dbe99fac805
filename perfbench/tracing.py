"""Span tracing of heavylight from the outside, for the per-layer metrics.

`Tracer.install` replaces each traced function with a wrapper at every
place the function is looked up: the defining module, every module that
bound it with `from .x import y` (for example `pipeline.coproduct`,
`verify.stirling2`, `cli.closed_series`), the package namespace, extra
modules such as the fixture generator, and every class attribute that is
an alias of it (`UVPoly.__rmul__` is `UVPoly.__mul__`).  Wrapping only the
defining module would miss every call made through such a binding.

The memoised `partitions.mn_character` and `partitions.gen_partitions` are
not wrapped: `mn_character` recurses through its module global, so a
wrapper would intercept every recursion.  Their work is read from
`cache_info()` instead.

Spans are kept in memory as [name, parent index, start, end] and written
out by `write_spans` once the run is over.
"""

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Span name -> (module, attribute) of the function's defining binding.
# "Class.*" traces every function defined in the class under one name.
TARGETS = {
    "uvpoly.mul": ("heavylight.uvpoly", "UVPoly.__mul__"),
    "uvpoly.add": ("heavylight.uvpoly", "UVPoly.__add__"),
    "symseries.mul": ("heavylight.symseries", "SymSeries.__mul__"),
    "symseries.plethysm": ("heavylight.symseries", "SymSeries.plethysm"),
    "symseries.exp_series": ("heavylight.symseries", "SymSeries.exp_series"),
    "symseries.log_series": ("heavylight.symseries", "SymSeries.log_series"),
    "symseries.pleth_inverse": ("heavylight.symseries", "SymSeries.pleth_inverse"),
    "symseries.to_schur": ("heavylight.symseries", "SymSeries.to_schur"),
    "bisymseries.coproduct": ("heavylight.bisymseries", "coproduct"),
    "bisymseries.mul": ("heavylight.bisymseries", "BiSymSeries.__mul__"),
    "bisymseries.pleth2": ("heavylight.bisymseries", "BiSymSeries.pleth2"),
    "bisymseries.exp2": ("heavylight.bisymseries", "BiSymSeries.exp2"),
    "bisymseries.log2": ("heavylight.bisymseries", "BiSymSeries.log2"),
    "bisymseries.to_schur_pairs": ("heavylight.bisymseries", "BiSymSeries.to_schur_pairs"),
    "powerseries.compose_ps1_into_ps2": ("heavylight.powerseries", "compose_ps1_into_ps2"),
    "powerseries.FormalPS1": ("heavylight.powerseries", "FormalPS1.*"),
    "pipeline.closed_series": ("heavylight.pipeline", "closed_series"),
    "pipeline.open_series": ("heavylight.pipeline", "open_series"),
    "pipeline.closed_series_numeric": ("heavylight.pipeline", "closed_series_numeric"),
    "fixtures.load_fixture": ("heavylight.fixtures", "load_fixture"),
    "fixtures.save_fixture": ("heavylight.fixtures", "save_fixture"),
    "tables.render_table": ("heavylight.tables", "render_table"),
    "tables.compare_row_to_golden": ("heavylight.tables", "compare_row_to_golden"),
    "oracle.stirling2": ("heavylight.oracle", "stirling2"),
    "oracle.oracle_compare": ("heavylight.oracle", "oracle_compare"),
    "verify.fixture_suite": ("heavylight.verify", "fixture_suite"),
    "verify.table_suite": ("heavylight.verify", "table_suite"),
    "verify.property_suite": ("heavylight.verify", "property_suite"),
    "verify.corb_suite": ("heavylight.verify", "corb_suite"),
    "verify.oracle_suite": ("heavylight.verify", "oracle_suite"),
    "cli.main": ("heavylight.cli", "main"),
}

# Memoised functions whose work is read from cache_info() deltas.
CACHES = {
    "partitions.mn_character": ("heavylight.partitions", "mn_character"),
    "partitions.gen_partitions": ("heavylight.partitions", "gen_partitions"),
    "oracle.stirling2": ("heavylight.oracle", "stirling2"),
}

# Every per-layer metric the traced run reports, with its unit, as listed
# in BENCHMARK.json.  The workload-level entries (verify.checks_failed,
# proc.*) are filled in by the runner; metrics of a layer a workload never
# enters read 0.
METRICS = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["per_layer"]
}

# Per-layer metrics that count work; two traced runs on the same inputs
# must report them identically.
COUNT_METRICS = tuple(
    name for name, unit in METRICS.items()
    if unit in ("count", "bytes", "bits", "lines") and not name.startswith("proc.")
)


def _resolve(module_name, attr):
    """The raw function objects a target names (unwrapping staticmethod)."""
    module = sys.modules[module_name]
    if "." not in attr:
        return [getattr(module, attr)]
    cls_name, member = attr.split(".", 1)
    cls = getattr(module, cls_name)
    if member == "*":
        found = []
        for value in vars(cls).values():
            func = value.__func__ if isinstance(value, staticmethod) else value
            if callable(func) and getattr(func, "__qualname__", "").startswith(cls_name + "."):
                found.append(func)
        return found
    value = vars(cls)[member]
    return [value.__func__ if isinstance(value, staticmethod) else value]


def _pairs(a_keys, b_keys, arity, trunc):
    """(kept, total) operand pairs of a truncated product, from arity histograms."""
    ha = Counter(arity(k) for k in a_keys)
    hb = Counter(arity(k) for k in b_keys)
    kept = sum(ca * cb for sa, ca in ha.items() for sb, cb in hb.items() if sa + sb <= trunc)
    return kept, len(a_keys) * len(b_keys)


def _count_uv_mul(counts, args, result):
    a, b = args
    b_terms = len(b.terms) if hasattr(b, "terms") else 1
    counts["uvpoly.mul.term_products"] += len(a.terms) * b_terms


def _series_pairs(prefix, arity):
    def count(counts, args, result):
        a, b = args
        if not hasattr(b, "coeffs"):
            return  # scalar multiple: no pairs are enumerated
        kept, total = _pairs(a.coeffs, b.coeffs, arity, min(a.trunc, b.trunc))
        counts[prefix + ".pairs_kept"] += kept
        counts[prefix + ".pairs_total"] += total

    return count


def _count_closed_series(counts, args, result):
    polys = result.data.coeffs.values()
    counts["pipeline.closed_series.out_keys"] += len(result.data.coeffs)
    counts["pipeline.closed_series.out_monomials"] += sum(len(p.terms) for p in polys)
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for p in polys for c in p.terms.values()),
        default=0,
    )
    key = "pipeline.closed_series.max_coeff_bits"
    counts[key] = max(counts[key], bits)


def _count_load(counts, args, result):
    fixtures = sys.modules["heavylight.fixtures"]
    name = args[0]
    directory = args[1] if len(args) > 1 and args[1] is not None else fixtures.default_fixture_dir()
    path = directory / f"{fixtures.SHIPPED.get(name, name)}.hlf"
    counts["fixtures.load_fixture.bytes"] += path.stat().st_size


def _count_save(counts, args, result):
    counts["fixtures.save_fixture.bytes"] += result.stat().st_size


COUNTERS = {
    "uvpoly.mul": _count_uv_mul,
    "symseries.mul": _series_pairs("symseries.mul", sum),
    "bisymseries.mul": _series_pairs("bisymseries.mul", lambda k: sum(k[0]) + sum(k[1])),
    "pipeline.closed_series": _count_closed_series,
    "fixtures.load_fixture": _count_load,
    "fixtures.save_fixture": _count_save,
}


class Tracer:
    """Wraps the TARGETS of a loaded heavylight and records their spans."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._undo = []
        self._caches = {}  # name -> (memoised function, cache_info at install)

    def _wrap(self, name, func):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__qualname__ = getattr(func, "__qualname__", name)
        return traced

    def install(self, extra_modules=()):
        """Wrap every binding of every target in heavylight and `extra_modules`.

        Every module holding a target is imported first, so that no binding
        is created after the wrappers are in place.
        """
        for module_name, _attr in list(TARGETS.values()) + list(CACHES.values()):
            importlib.import_module(module_name)
        for name, (module_name, attr) in CACHES.items():
            cached = getattr(sys.modules[module_name], attr)
            self._caches[name] = (cached, cached.cache_info())
        wrappers = {}
        for name, (module_name, attr) in TARGETS.items():
            for func in _resolve(module_name, attr):
                wrappers[id(func)] = self._wrap(name, func)
        modules = [m for n, m in sys.modules.items() if n == "heavylight" or n.startswith("heavylight.")]
        modules += list(extra_modules)
        classes = {}
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, key, value, wrappers[id(value)])
                if isinstance(value, type) and value.__module__.startswith("heavylight"):
                    classes[id(value)] = value
        for cls in classes.values():
            for key, value in list(vars(cls).items()):
                func = value.__func__ if isinstance(value, staticmethod) else value
                if id(func) in wrappers:
                    wrapper = wrappers[id(func)]
                    self._set(cls, key, value, staticmethod(wrapper) if func is not value else wrapper)

    def _set(self, owner, key, old, new):
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def uninstall(self):
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    def cache_deltas(self):
        """name -> (hits, misses) since install."""
        out = {}
        for name, (cached, start) in self._caches.items():
            now = cached.cache_info()
            out[name] = (now.hits - start.hits, now.misses - start.misses)
        return out

    def layer_totals(self):
        """name -> {"calls", "s", "self_s"} aggregated over the spans.

        `s` sums only the outermost span of each name, so a function that
        calls itself (FormalPS1.compose calls FormalPS1.__mul__) is not
        counted twice; `self_s` is a span's length minus its children's.
        """
        child = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, parent, start, end) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                entry["s"] += end - start
        return totals

    def metrics(self):
        """The per-layer metrics measured by the spans, counters and caches."""
        out = {name: 0 for name, unit in METRICS.items() if not name.startswith(("proc.", "verify.checks"))}
        for name, entry in self.layer_totals().items():
            for quantity, value in entry.items():
                key = f"{name}.{quantity}"
                if key in out:
                    out[key] = value
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        for prefix in ("symseries.mul", "bisymseries.mul"):
            total = self.counts.get(prefix + ".pairs_total", 0)
            out[prefix + ".pairs_kept_ratio"] = self.counts.get(prefix + ".pairs_kept", 0) / total if total else 0
        caches = self.cache_deltas()
        hits, misses = caches["partitions.mn_character"]
        out["partitions.mn_character.misses"] = misses
        out["partitions.mn_character.hit_ratio"] = hits / (hits + misses) if hits + misses else 0
        out["partitions.gen_partitions.misses"] = caches["partitions.gen_partitions"][1]
        out["oracle.stirling2.misses"] = caches["oracle.stirling2"][1]
        return out

    def write_spans(self, path):
        """Write the spans as tab-separated id, parent, name, start and end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

