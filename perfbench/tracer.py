"""Spans at divgraph's layer boundaries, recorded from outside the program.

Each boundary is a public function, wrapped at the module attribute through
which it is called (``divgraph.brill_noether.enumerate_classes`` is the name
the level scan looks up, not ``divgraph.divisors.enumerate_classes``).  A
span records its name, start, end, its own id, the id of the span open when
it started, the id of the operation, and one integer value (a yielded item,
a True result, or the ``classes_examined`` of a search result).  Spans stay
in memory until the run ends.

Batch units run in worker processes, which these wrappers cannot see.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import time
from collections import defaultdict

# (span name, how it is called, value of a result, call sites)
BOUNDARIES = (
    ("cli.main", "call", None, ("divgraph.cli.main",)),
    ("brill_noether.find_gdr", "call", "classes_examined", ("divgraph.cli.find_gdr",)),
    ("divisors.enumerate_classes", "generator", None,
     ("divgraph.brill_noether.enumerate_classes",)),
    ("divisors.rank_at_least", "call", "truth", ("divgraph.brill_noether.rank_at_least",)),
    ("divisors.rank", "call", None, ("divgraph.cli.rank",)),
    ("divisors.reduce", "call", None,
     ("divgraph.cli.reduce", "divgraph.brill_noether.reduce")),
    ("graphs.refine", "call", None,
     ("divgraph.graphs.refine", "divgraph.brill_noether.refine", "divgraph.cli.refine")),
    ("graphs.spanning_tree_count", "call", None, ("divgraph.cli.spanning_tree_count",)),
    ("harmonic.build_morphism", "call", None, ("divgraph.io.build_morphism",)),
    ("harmonic.check_harmonic", "call", None,
     ("divgraph.harmonic.check_harmonic", "divgraph.cli.check_harmonic")),
    ("harmonic.riemann_hurwitz_check", "call", None, ("divgraph.cli.riemann_hurwitz_check",)),
    ("harmonic.pullback", "call", None, ("divgraph.cli.pullback",)),
    ("io.resolve_graph", "call", None,
     ("divgraph.cli.resolve_graph", "divgraph.batch.resolve_graph", "divgraph.io.resolve_graph")),
    ("io.load_morphism", "call", None, ("divgraph.cli.load_morphism",)),
    ("io.load_divisor", "call", None, ("divgraph.cli.load_divisor",)),
    ("batch.expand_units", "call", None, ("divgraph.batch.expand_units",)),
    ("batch.load_recorded_keys", "call", None, ("divgraph.batch.load_recorded_keys",)),
)

_VALUES = {
    None: lambda result: 0,
    "truth": lambda result: 1 if result is True else 0,
    "classes_examined": lambda result: result.classes_examined,
}


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one operation."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, id, parent, op, value)
        self.op = 0
        self._ids = itertools.count(1)
        self._stack = [0]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name, how, value, sites in BOUNDARIES:
            for site in sites:
                module_name, attr = site.rsplit(".", 1)
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.uninstall()
                    raise LookupError(f"trace boundary {site} does not exist")
                self._saved.append((module, attr, original))
                wrap = self._wrap_generator if how == "generator" else self._wrap_call
                setattr(module, attr, wrap(name, original, _VALUES[value]))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap_call(self, name, fn, value_of):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            value = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                value = value_of(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, span_id, parent, self.op, value))

        return traced

    def _wrap_generator(self, name, fn, value_of):
        """Each ``next`` on the generator is one span; its value is 1 when
        an item was yielded."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span_id = next(ids)
                parent = stack[-1]
                stack.append(span_id)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    spans.append((name, start, clock(), span_id, parent, self.op, 0))
                    return
                finally:
                    stack.pop()
                spans.append((name, start, clock(), span_id, parent, self.op, 1))
                yield item

        return traced

    def summarize(self, include_op) -> dict[str, dict[str, float]]:
        """Per span name, over the spans whose op passes ``include_op``:
        ``calls``, ``busy_s`` (time inside outermost calls of that name),
        ``self_s`` (span time minus direct children) and the sum of
        ``value``."""
        by_id = {span[3]: span for span in self.spans}
        child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, _, parent, _, _ in self.spans:
            child_ns[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0, "value": 0.0}
        )
        for name, start, end, span_id, parent, op, value in self.spans:
            if not include_op(op):
                continue
            entry = stats[name]
            entry["calls"] += 1
            entry["value"] += value
            entry["self_s"] += (end - start - child_ns[span_id]) / 1e9
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[0] != name:
                ancestor = by_id.get(ancestor[4])
            if ancestor is None:
                entry["busy_s"] += (end - start) / 1e9
        return stats

    def write(self, path) -> None:
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        doc = {
            "fields": ["name", "start_ns", "end_ns", "id", "parent", "op", "value"],
            "names": names,
            "spans": [[code[s[0]], *s[1:]] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as sink:
            json.dump(doc, sink, separators=(",", ":"))
