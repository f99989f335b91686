"""Spans recorded from outside the program.

install() swaps each listed public function for a wrapper at every name a
crossflats module binds it to (``from .linalg import rref`` makes a second
binding), and patches Field methods on the class.  Spans are aggregated
per (parent, name) rather than kept one by one, because a PG(2,3) search
makes about ten million field calls.  Field ops and a few hot linalg
helpers are counted without timing, which keeps the tracing overhead
bounded.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

_clock = time.perf_counter_ns

# (module, function, group): timed spans.  A group's busy time counts only
# the outermost open span of the group, so nesting is not counted twice.
TIMED = [
    ("linalg", "rref", "linalg.rref"),
    ("geometry", "flats_disjoint", "geometry.disjoint"),
    ("geometry", "projective_disjoint", "geometry.disjoint"),
    ("geometry", "char_vector", "geometry.char_vector"),
    ("linalg", "enumerate_hyperplanes", "geometry.enumerate"),
    ("geometry", "enumerate_projective_points", "geometry.enumerate"),
    ("families", "construct_extremal_affine", "families.construct"),
    ("families", "construct_lower_bound_affine", "families.construct"),
    ("families", "dump_family", "families.dump"),
    ("families", "load_family", "families.load"),
    ("families", "verify_cross_intersecting", "families.verify"),
    ("search", "candidates_affine", "search.candidates"),
    ("search", "candidates_projective", "search.candidates"),
    ("search", "compatible", "search.compat"),
    ("search", "max_family", "search.dp"),
    ("certify", "build_certificate", "certify.build"),
    ("certify", "matrix_rank", "certify.rank"),
    ("certify", "evaluate_identities", "certify.identities"),
]
# Generator functions: each resume is one span of the group.
GENERATORS = [
    ("linalg", "enumerate_subspaces", "geometry.enumerate"),
    ("geometry", "enumerate_flats", "geometry.enumerate"),
]
COUNTED = [
    ("linalg", "subspace_sum", "linalg.subspace_sum.calls"),
    ("linalg", "contains", "linalg.contains.calls"),
]
FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "pow")


def _on_result(name: str, counts: Counter):
    """Deterministic counts read off a function's return value."""
    if name.startswith("candidates_"):
        return lambda r: counts.update({"search.candidates.count": len(r)})
    if name == "compatible":
        return lambda r: counts.update({"search.compat.edges": int(r)})
    if name == "max_family":
        return lambda r: counts.update({"search.nodes": r.nodes_explored})
    if name == "build_certificate":
        return lambda r: counts.update({"certify.matrix_cells": len(r.rows) * (r.t + 1)})
    return None


class Tracer:
    def __init__(self):
        self.stack = [["", 0]]   # open spans: [name, ns covered by child spans]
        self.spans = {}          # (parent, name) -> [calls, total_ns, self_ns]
        self.depth = Counter()   # group -> open spans of the group
        self.busy_ns = Counter()  # group -> ns with a span of the group open
        self.counts = Counter()

    def timed(self, name, group, fn, on_result=None):
        stack, spans, depth, busy = self.stack, self.spans, self.depth, self.busy_ns

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            outer = depth[group]
            depth[group] = outer + 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                depth[group] = outer
                if not outer:
                    busy[group] += elapsed
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                rec = spans.get((parent[0], name))
                if rec is None:
                    rec = spans[(parent[0], name)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def timed_generator(self, name, group, fn):
        step = self.timed(name, group, next)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def calls(self, name: str) -> int:
        return sum(rec[0] for (_, n), rec in self.spans.items() if n == name)

    def report(self) -> dict:
        return {
            "spans": [[parent, name, *rec] for (parent, name), rec in self.spans.items()],
            "busy_s": {g: ns / 1e9 for g, ns in self.busy_ns.items()},
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Wrap the listed functions wherever crossflats modules bind them."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "crossflats" or name.startswith("crossflats.")}
    swaps = {}  # id(original) -> (original, wrapper)
    for mod_name, fn_name, group in TIMED:
        fn = getattr(modules["crossflats." + mod_name], fn_name)
        wrapper = tracer.timed(f"{mod_name}.{fn_name}", group, fn,
                               _on_result(fn_name, tracer.counts))
        swaps[id(fn)] = (fn, wrapper)
    for mod_name, fn_name, group in GENERATORS:
        fn = getattr(modules["crossflats." + mod_name], fn_name)
        swaps[id(fn)] = (fn, tracer.timed_generator(f"{mod_name}.{fn_name}", group, fn))
    for mod_name, fn_name, key in COUNTED:
        fn = getattr(modules["crossflats." + mod_name], fn_name)
        swaps[id(fn)] = (fn, tracer.counted(key, fn))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            swap = swaps.get(id(value))
            if swap is not None and swap[0] is value:
                setattr(mod, attr, swap[1])
    field_cls = modules["crossflats.field"].Field
    for op in FIELD_OPS:
        setattr(field_cls, op, tracer.counted("field.calls", getattr(field_cls, op)))
    field_cls.check = tracer.counted("field.check_calls", field_cls.check)
