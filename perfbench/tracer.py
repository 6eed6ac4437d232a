"""Span tracing around the public functions of each qident module.

The tracer patches module attributes and class methods from outside the
package, so no source under ``src/`` carries tracing code.  Three kinds of
wrapper exist, chosen by how often a function runs:

* span      -- records (name, start, end, parent, cell) and its call count;
               used for functions called at most ~10^5 times per pass;
* generator -- counts the items it yields as ``visited``; it records no span,
               so the time spent producing items is self time of the
               calling span (the generator body runs while the caller
               iterates);
* predicate -- counts calls and true results only; its time is the
               caller's self time.  Used for per-object tests that run
               ~10^6 times, where a span per call would dwarf the call.

Self time of a span is its duration minus the part covered by its child
spans.  Time the tracer spends on its own bookkeeping after a call (the
computed multiply-add counts and coefficient sizes of the kernels) is
booked as a child of the parent span, so it is excluded from every self
time and reported as ``trace.bookkeeping_s``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

from qident import appell, overpartitions, partitions, series, verify

MODULES = {
    "overpartitions": overpartitions,
    "partitions": partitions,
    "appell": appell,
    "series": series,
    "verify": verify,
}

# module -> functions wrapped with a span (module attributes, so calls from
# inside the module, which go through its globals, are caught too)
SPANS = {
    "overpartitions": (
        "count_rj", "count_pj", "count_Dk_table", "d_witnesses", "specialize_overpartition",
    ),
    "partitions": (
        "count_B_table", "b_witnesses", "c_witnesses", "count_C",
        "schur_gap_witnesses", "count_schur_product_table",
    ),
    "appell": (
        "build_R", "check_functional_equation", "closed_product_F_coefficients",
        "appell_limit", "theorem_product", "pj_series", "congruence_product_series",
    ),
    "verify": (
        "verify_all", "verify_overpartition", "verify_corollary", "verify_schur",
        "verify_machinery", "golden_example_n10",
    ),
}

# overpartitions.enumerate_partitions is the binding overpartitions copied
# from partitions at import; it is wrapped apart from partitions' own.
GENERATORS = {
    "overpartitions": ("enumerate_overpartitions", "enumerate_partitions"),
    "partitions": ("enumerate_partitions",),
}

PREDICATES = {"overpartitions": ("is_Dk_admissible",)}

# series.conv_trunc and series.bivar_mul are the bindings series copied from
# the kernel backend; QSeries/BivariateSeries call them through series' globals.
KERNELS = ("conv_trunc", "bivar_mul")

# series operation -> the methods implementing it on QSeries/BivariateSeries
METHODS = {
    "mul": (("QSeries", "__mul__"), ("BivariateSeries", "__mul__"),
            ("BivariateSeries", "mul_qseries")),
    "add": (("QSeries", "__add__"), ("BivariateSeries", "__add__")),
    "sub": (("QSeries", "__sub__"), ("BivariateSeries", "__sub__")),
    "shift": (("QSeries", "shift"), ("BivariateSeries", "shift")),
    "mul_binomial": (("BivariateSeries", "mul_binomial"),),
    "invert_unit": (("QSeries", "invert_unit"),),
}

# witness lists whose length is the number of objects kept
KEPT = ("partitions.b_witnesses", "partitions.c_witnesses", "partitions.schur_gap_witnesses")

# the CLI is traced as one span per invocation, opened by the workload
CLI_SPAN = "cli.main"

LAYERS = ("overpartitions", "partitions", "appell", "series", "verify", "cli")


def _span_names() -> list:
    names = [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]
    names += [f"series.{k}" for k in KERNELS] + [f"series.{op}" for op in METHODS]
    return names


def catalog() -> list:
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    out = []
    for name in _span_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    for name in KEPT:
        out.append((f"{name}.kept", "count", "higher"))
    for mod, fns in GENERATORS.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.calls", "count", "lower"))
            out.append((f"{mod}.{fn}.visited", "count", "lower"))
    for mod, fns in PREDICATES.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.calls", "count", "lower"))
    out += [
        ("overpartitions.keep_ratio", "ratio", "higher"),
        ("partitions.keep_ratio", "ratio", "higher"),
        ("series.conv_trunc.mul_adds", "count", "lower"),
        ("series.bivar_mul.mul_adds", "count", "lower"),
        ("series.max_coeff_bits", "bit", "lower"),
        ("cli.calls", "count", "lower"),
        ("cli.bytes_out", "byte", "lower"),
    ]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.bookkeeping_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return out


def _nonzero_prefix(row) -> list:
    """prefix[t] = number of nonzero entries in row[:t]."""
    out = [0]
    for c in row:
        out.append(out[-1] + (1 if c else 0))
    return out


def _pair_mul_adds(row1, prefix2, order) -> int:
    """Multiply-adds the kernels perform for one row pair: they skip zeros
    on both sides and every product landing past `order`."""
    n2 = len(prefix2) - 1
    total = 0
    for i, a in enumerate(row1):
        if i > order:
            break
        if a:
            total += prefix2[min(n2, order - i + 1)]
    return total


def conv_trunc_mul_adds(args) -> int:
    c1, c2, order = args
    return _pair_mul_adds(c1, _nonzero_prefix(c2), order)


def bivar_mul_mul_adds(args) -> int:
    rows1, rows2, a_order, q_order = args
    prefixes = [_nonzero_prefix(r) for r in rows2]
    total = 0
    for m in range(a_order + 1):
        for i in range(min(m, len(rows1) - 1) + 1):
            j = m - i
            if j < len(rows2):
                total += _pair_mul_adds(rows1[i], prefixes[j], q_order)
    return total


def _max_bits(rows) -> int:
    top = 0
    for row in rows:
        if row:
            top = max(top, max(row), -min(row))
    return top.bit_length()


def _kept_tally(name):
    key = name + ".kept"
    return lambda args, result: {key: len(result)}


class Tracer:
    """Holds the spans and counters of one traced pass in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, cell, covered by children]
        self.stack = []
        self.calls = Counter()
        self.counts = Counter()
        self.cell = None

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, tally=None):
        """Wrap fn in a span; tally(args, result) -> {counter: amount} is optional."""
        spans, stack, calls, counts = self.spans, self.stack, self.calls, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, self.cell, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[2] = end
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if tally is not None:
                t0 = clock()
                counts.update(tally(args, result))
                booked = clock() - t0
                counts["trace.bookkeeping_s"] += booked
                if parent >= 0:
                    spans[parent][5] += booked
            return result

        return wrapper

    def generator(self, name, fn):
        calls, counts = self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[name + ".visited"] += n

        return wrapper

    def predicate(self, name, fn):
        """Count calls, and objects that pass; an object that passes twice
        in a row counts once (specialize_overpartition re-tests its input)."""
        calls, counts = self.calls, self.counts
        true_key = name + ".true"
        last_passed = [None]

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            calls[name] += 1
            result = fn(obj, *args, **kwargs)
            if result and obj is not last_passed[0]:
                counts[true_key] += 1
                last_passed[0] = obj
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced binding for the duration of the block."""
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        for mod, fns in SPANS.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                tally = _kept_tally(name) if name in KEPT else None
                patch(MODULES[mod], fn, self.span(name, getattr(MODULES[mod], fn), tally))
        for mod, fns in GENERATORS.items():
            for fn in fns:
                patch(MODULES[mod], fn, self.generator(f"{mod}.{fn}", getattr(MODULES[mod], fn)))
        for mod, fns in PREDICATES.items():
            for fn in fns:
                patch(MODULES[mod], fn, self.predicate(f"{mod}.{fn}", getattr(MODULES[mod], fn)))
        for fn in KERNELS:
            patch(series, fn, self.span(f"series.{fn}", getattr(series, fn), self._kernel_tally(fn)))
        for op, methods in METHODS.items():
            for cls_name, attr in methods:
                cls = getattr(series, cls_name)
                patch(cls, attr, self.span(f"series.{op}", getattr(cls, attr)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _kernel_tally(self, fn):
        mul_adds = conv_trunc_mul_adds if fn == "conv_trunc" else bivar_mul_mul_adds
        key = f"series.{fn}.mul_adds"
        counts = self.counts

        def tally(args, result):
            rows = [result] if fn == "conv_trunc" else result
            counts["series.max_coeff_bits"] = max(counts["series.max_coeff_bits"], _max_bits(rows))
            return {key: mul_adds(args)}

        return tally

    def cli_span(self, invoke):
        """Span one in-process CLI invocation, counting the bytes it printed."""
        return self.span(CLI_SPAN, invoke, lambda args, res: {"cli.bytes_out": len(res.stdout_bytes)})

    # -- results ------------------------------------------------------------

    def self_times(self) -> Counter:
        out = Counter()
        for name, start, end, _parent, _cell, covered in self.spans:
            out[name] += (end - start) - covered
        return out

    def metrics(self, wall_s: float) -> dict:
        """Every catalog metric as {"value", "unit"}; 0 where the pass never reached it."""
        selfs = self.self_times()
        values = dict(self.counts)
        values.update((f"{name}.calls", n) for name, n in self.calls.items())
        values.update((f"{name}.self_s", s) for name, s in selfs.items())
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(s for name, s in selfs.items() if name.startswith(layer + "."))
        values["cli.calls"] = self.calls[CLI_SPAN]
        visited = self.counts["overpartitions.enumerate_overpartitions.visited"]
        if visited:
            values["overpartitions.keep_ratio"] = self.counts["overpartitions.is_Dk_admissible.true"] / visited
        visited = self.counts["partitions.enumerate_partitions.visited"]
        if visited:
            values["partitions.keep_ratio"] = sum(self.counts[f"{k}.kept"] for k in KEPT) / visited
        values["trace.wall_s"] = wall_s
        values["trace.spans"] = len(self.spans)
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in catalog()}

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON array per span:
        [name, start, end, parent index, cell id]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, cell, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, cell]) + "\n")
