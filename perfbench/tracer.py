"""Spans around cosma's public functions, recorded from outside the package.

``Tracer.install`` replaces each function or method named in ``_TARGETS``
by a wrapper that appends one span (name, parent, start, end) to flat
arrays kept in memory; ``uninstall`` puts the originals back.  Sizes that
a call reveals (bytes printed, graph nodes, trace steps) go to counters at
the same boundary.  Self time is derived from the spans afterwards: a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import types
from array import array
from collections import Counter
from time import perf_counter

BDD_OPS = (
    "mk_var", "not_", "and_", "or_", "xor_", "apply", "ite", "exists", "rename",
    "sat_count", "support", "evaluate", "some_assignment", "from_expr",
)


def _source_bytes(counts, args, result):
    counts["frontend.source_bytes"] += len(args[0])


def _graph_size(counts, args, result):
    counts["reach.nodes"] += len(result.nodes)
    counts["reach.edges"] += len(result.edges)


def _symbolic_size(counts, args, result):
    counts["robdd.nodes"] += len(result.manager)


def _text_bytes(key):
    def measure(counts, args, result):
        counts[key] += len(result)

    return measure


def _trace_steps(counts, args, result):
    counts["mc.trace_steps"] += len(result.trace or ())


# (module, class or None, attribute, measure); span names are
# "module.attribute" or "module.Class.attribute"
_TARGETS = [
    ("cli", None, "main", None),
    ("frontend", None, "parse_system", _source_bytes),
    ("frontend", None, "parse_queries", _source_bytes),
    ("model", None, "validate", None),
    ("formula", "GuardContext", "__init__", None),
    ("formula", "GuardContext", "satisfiable", None),
    ("formula", "GuardContext", "tautology", None),
    ("formula", None, "evaluate", None),
    ("formula", None, "to_text", _text_bytes("formula.to_text_bytes")),
    ("reach", None, "build_rg_explicit", _graph_size),
    ("reach", None, "build_rg_symbolic", _symbolic_size),
    ("reach", None, "to_dot", None),
    ("reach", None, "json_text", None),
    ("mc", None, "check_query", _trace_steps),
    ("mc", None, "check_ctl", None),
    ("vhdlgen", None, "generate", _text_bytes("vhdlgen.bytes")),
    ("vhdlgen", None, "structural_audit", None),
    ("robdd", "BddManager", "__init__", None),
] + [("robdd", "BddManager", op, None) for op in BDD_OPS]


def _self_bound(fn):
    """A copy of ``fn`` whose recursive calls reach the copy, not the wrapper.

    ``formula.evaluate`` calls itself through its module's globals; without
    this, every node of a formula would count as one call.
    """
    scope = dict(fn.__globals__)
    clone = types.FunctionType(fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__)
    clone.__kwdefaults__ = fn.__kwdefaults__
    scope[fn.__name__] = clone
    return clone


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple] = []

    def install(self, cosma_modules: dict) -> None:
        for module_name, class_name, attr, measure in _TARGETS:
            module = cosma_modules[module_name]
            owner = getattr(module, class_name) if class_name else module
            name = ".".join(filter(None, (module_name, class_name, attr)))
            original = owner.__dict__[attr] if class_name else getattr(module, attr)
            target = _self_bound(original) if attr == "evaluate" and not class_name else original
            setattr(owner, attr, self._wrap(name, target, measure))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, measure):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                measure(counts, args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def take_counts(self) -> Counter:
        taken = Counter(self.counts)
        self.counts.clear()
        return taken

    def summarize(self, lo: int, hi: int) -> dict:
        """Per span name over spans ``lo`` to ``hi``: calls, inclusive and self seconds.

        Also counts ``BddManager.exists`` calls made directly by the symbolic
        engine, one per image step of its fixpoint.
        """
        children = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                children[p - lo] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        own: Counter = Counter()
        images = 0
        symbolic = self.names.index("reach.build_rg_symbolic")
        exists = self.names.index("robdd.BddManager.exists")
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            inclusive[name] += dur
            own[name] += dur - children[i - lo]
            p = self.parent[i]
            if self.name_id[i] == exists and p >= 0 and self.name_id[p] == symbolic:
                images += 1
        return {"calls": calls, "inclusive": inclusive, "self": own, "image_steps": images}

    def write(self, path, lo: int, hi: int) -> None:
        """Spans ``lo`` to ``hi`` as tab-separated lines, times relative to the first."""
        t0 = self.start[lo] if hi > lo else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            for i in range(lo, hi):
                p = self.parent[i]
                out.write(
                    f"{i - lo}\t{p - lo if p >= lo else -1}\t{self.names[self.name_id[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )
