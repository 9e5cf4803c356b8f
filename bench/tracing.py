"""Per-layer spans for the traced run.

While installed, the tracer wraps the functions through which
`termcat.cli` calls into each layer, so the traced run executes the real
command and records one span per top-level layer call, in the order the
command makes them: name, start, end, op id and parent (the op's own span).
A call made from inside another layer call is not wrapped: when a span
opens, the original functions are put back until it closes, so nested and
recursive calls run at full speed.  The one exception is
`models.enumerate_models` inside the counterexample search, which stays
wrapped to count the models the search visits.

Counts are taken at the same boundaries from the calls' arguments and
results; the time spent counting is excluded from the op's self time.
Spans stay in memory until `write` is called at the end of the run.  The
speed kernel is timed around every traced op as around every untraced one,
and each span is scaled by its op's factor, so per-layer times are at the
reference speed of the end-to-end ones (see speed.py).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# (module name inside termcat, attribute, span name, counter); every
# function listed must exist, so that a renamed layer call stops the traced
# run instead of reading 0
LAYER_CALLS = (
    ("cli", "parse_spec", "dsl.parse", "input_bytes"),
    ("cli", "build_proof", "dsl.elaborate", None),
    ("arrows", "term_arrow", "arrows.compile", "arrow_nodes"),
    ("arrows", "equation_arrows", "arrows.compile", "arrow_nodes"),
    ("arrows", "occurrence_arrow", "arrows.compile", "arrow_nodes"),
    ("arrows", "regroup_arrow", "arrows.compile", "arrow_nodes"),
    ("arrows", "apply_arrow", "arrows.compile", "arrow_nodes"),
    ("arrows", "input_product", "arrows.compile", None),
    ("arrows", "normalize", "arrows.normalize", "normal_nodes"),
    ("arrows", "arrows_equal", "arrows.equal", None),
    ("cli", "subst_term", "subst.recursive", None),
    ("cli", "subst_arrow_direct", "subst.direct", None),
    ("deduction", "normalize_deduction", "deduction.levelled", "levelled"),
    ("deduction", "compile_to_factorization", "deduction.certificate",
     "certificate"),
    ("deduction", "verify_factorization", "deduction.replay", None),
    ("models", "find_counterexample", "models.search", None),
    ("cli", "_emit", "cli.render", None),
    ("cli", "arrow_json", "cli.render", None),
    ("cli", "normal_json", "cli.render", None),
    ("cli", "expr_json", "cli.render", None),
    ("cli", "equation_json", "cli.render", None),
    ("cli", "term_json", "cli.render", None),
    ("cli", "factorization_json", "cli.render", None),
    ("cli", "levelled_json", "cli.render", None),
)
# wrapped apart: counted inside the search, a span of its own outside it
ENUMERATE = ("models", "enumerate_models")

# (name, unit); times are in ms at the reference speed (see speed.py), and
# times and counts are means per traced op
PER_LAYER = (
    ("dsl.parse_ms", "ms"),
    ("dsl.elaborate_ms", "ms"),
    ("dsl.input_bytes", "bytes"),
    ("arrows.compile_ms", "ms"),
    ("arrows.normalize_ms", "ms"),
    ("arrows.equal_ms", "ms"),
    ("arrows.arrow_nodes", "count"),
    ("arrows.normal_nodes", "count"),
    ("subst.recursive_ms", "ms"),
    ("subst.direct_ms", "ms"),
    ("deduction.levelled_ms", "ms"),
    ("deduction.certificate_ms", "ms"),
    ("deduction.replay_ms", "ms"),
    ("deduction.level0_entries", "count"),
    ("deduction.kernel_steps", "count"),
    ("deduction.workspace_size", "count"),
    ("models.search_ms", "ms"),
    ("models.count_ms", "ms"),
    ("models.models_searched", "count"),
    ("models.models_counted", "count"),
    ("cli.render_ms", "ms"),
    ("cli.output_bytes", "bytes"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

CHILD_FIELDS = ("parts", "args", "after", "before")


def tree_nodes(root) -> int:
    """Node count of an arrow or normal-form tree, repeats included."""
    n, stack = 0, [root]
    while stack:
        x = stack.pop()
        n += 1
        for f in CHILD_FIELDS:
            c = getattr(x, f, None)
            if isinstance(c, tuple):
                stack.extend(c)
            elif c is not None and not isinstance(c, (int, str)):
                stack.append(c)
    return n


def _count(counts: Counter, kind: str, args, result) -> None:
    if kind == "input_bytes":
        counts["dsl.input_bytes"] += len(args[0].encode())
    elif kind == "arrow_nodes":
        arrows = result if isinstance(result, tuple) else (result,)
        counts["arrows.arrow_nodes"] += sum(tree_nodes(a) for a in arrows)
    elif kind == "normal_nodes":
        counts["arrows.normal_nodes"] += tree_nodes(result.body)
    elif kind == "levelled":
        counts["deduction.level0_entries"] += len(result.levels[0])
    elif kind == "certificate":
        counts["deduction.kernel_steps"] += sum(len(p) for p in result.verif)
        counts["deduction.workspace_size"] += len(result.wksp)


def missing_calls(modules: dict) -> list[str]:
    """The functions the tracer wraps that the program does not have."""
    need = [(m, attr) for m, attr, _, _ in LAYER_CALLS] + [ENUMERATE]
    return [f"termcat.{m}.{attr}" for m, attr in need
            if not callable(getattr(modules[m], attr, None))]


class Tracer:
    def __init__(self, termcat_modules: dict):
        missing = missing_calls(termcat_modules)
        if missing:
            raise LookupError("cannot trace, termcat has no "
                              + ", ".join(missing))
        self.modules = termcat_modules      # short name -> module
        self.spans: list[tuple] = []        # (name, start, end, op, parent)
        self.counts: Counter = Counter()
        self.op = None                      # current op id
        self.op_span = None                 # index of the op's span
        self.op_spans: list[int] = []       # every op span's index
        self.factors: list[float] = []      # speed factor per op span
        self.book_ns: Counter = Counter()   # time spent counting, per op span
        self.active = None                  # open top-level span name
        self.patches: list[tuple] = []      # (module, attr, original, wrapper)
        self.enum_patch = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span, counter in LAYER_CALLS:
            self._patch(mod_name, attr, self._wrap(span, counter))
        patched = {attr for _, attr, _, _ in LAYER_CALLS}
        for attr in dir(self.modules["cli"]):
            if attr.endswith("_json") and attr not in patched:
                self._patch("cli", attr, self._wrap("cli.render", None))
        module, attr = self.modules[ENUMERATE[0]], ENUMERATE[1]
        orig = getattr(module, attr)
        self.enum_patch = (module, attr, orig, self._wrap_enumerate(orig))
        setattr(module, attr, self.enum_patch[3])

    def uninstall(self) -> None:
        self._set(original=True)
        if self.enum_patch:
            module, attr, orig, _ = self.enum_patch
            setattr(module, attr, orig)
        self.patches, self.enum_patch = [], None

    def _patch(self, mod_name, attr, make) -> None:
        module = self.modules[mod_name]
        orig = getattr(module, attr)
        wrapper = make(orig)
        setattr(module, attr, wrapper)
        self.patches.append((module, attr, orig, wrapper))

    def _set(self, original: bool) -> None:
        for module, attr, orig, wrapper in self.patches:
            setattr(module, attr, orig if original else wrapper)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span: str, counter):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.active is not None:
                    return fn(*args, **kwargs)
                self._set(original=True)
                self.active = span
                start = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    self.active = None
                    self._set(original=False)
                    self.spans.append((span, start, end, self.op,
                                       self.op_span))
                if counter:
                    t = time.perf_counter_ns()
                    _count(self.counts, counter, args, result)
                    self.book_ns[self.op_span] += time.perf_counter_ns() - t
                return result
            return wrapper
        return make

    def _wrap_enumerate(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active == "models.search":
                return self._counting(fn(*args, **kwargs),
                                      "models.models_searched")
            if self.active is not None:
                return fn(*args, **kwargs)
            return self._count_span(fn(*args, **kwargs))
        return wrapper

    def _counting(self, it, counter: str):
        for item in it:
            self.counts[counter] += 1
            yield item

    def _count_span(self, it):
        self.active = "models.count"
        start = time.perf_counter_ns()
        n = 0
        try:
            for item in it:
                n += 1
                yield item
        finally:
            end = time.perf_counter_ns()
            self.active = None
            self.spans.append(("models.count", start, end, self.op,
                               self.op_span))
            self.counts["models.models_counted"] += n

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.op_span = len(self.spans)
        self.op_spans.append(self.op_span)
        self.spans.append(None)             # filled in by end_op

    def end_op(self, command: str, start: int, end: int) -> None:
        self.spans[self.op_span] = (f"op.{command}", start, end, self.op,
                                    None)

    def scale_ops(self, factors) -> None:
        """Give the ops traced since the last call their speed factors
        (speed.factors), in order."""
        self.factors += factors
        assert len(self.factors) == len(self.op_spans)

    # -- results --------------------------------------------------------------

    def layer_metrics(self, overhead_ns: float, output_bytes: int) -> dict:
        """Per-layer means per traced op, each span scaled by its op's
        speed factor.  Self time is the op time, net of counting, that no
        layer span covers; the overhead, given at the reference speed, is
        the mean traced op time minus the mean untraced one."""
        factor = dict(zip(self.op_spans, self.factors))
        ms = Counter()
        op_ns = 0.0
        for i, (name, start, end, _, parent) in enumerate(self.spans):
            if parent is None:
                op_ns += (end - start - self.book_ns[i]) * factor[i]
            else:
                ms[name] += (end - start) * factor[parent]
        ops = len(self.op_spans)
        out = {}
        for name, unit in PER_LAYER:
            if unit == "ms":
                value = ms[name[:-3]] / 1e6 / ops
            else:
                value = self.counts[name] / ops
            out[name] = {"value": value, "unit": unit}
        out["cli.self_ms"]["value"] = (op_ns - sum(ms.values())) / 1e6 / ops
        out["trace.overhead_ms"]["value"] = overhead_ns / 1e6
        out["cli.output_bytes"]["value"] = output_bytes / ops
        return out

    def write(self, path) -> None:
        """One JSON line per span, times raw; `scale` is the speed factor
        of the span's op."""
        factor = dict(zip(self.op_spans, self.factors))
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, op, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end, "op": op,
                    "parent": parent,
                    "scale": factor[i if parent is None else parent]}) + "\n")
