"""Spans and counters around the calls into each autodual module.

The tracer wraps public functions from outside the package: every module
namespace that binds a traced function gets the wrapper, so calls made
through `from .powers import find_embedding` are seen as well as calls made
through `powers.find_embedding`.  Spans are kept in memory as
`[name, start, end, parent]` and written out when the pass ends.  Hot
element-level functions (`AutomaticAlgebra.mul`, `.word`, `pointwise_mul`)
get a call counter only, because a span per call would dominate their cost.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter

MODULES = ("algebras", "terms", "powers", "structure", "abgroups",
           "classify", "witness", "cli")


# (module, attribute path, function from the result to {counter: amount})
SPANNED = (
    ("powers", "enumerate_homs", lambda r: {"powers.enumerate_homs.homs": len(r)}),
    ("powers", "find_embedding",
     lambda r: {"powers.find_embedding.hits": r is not None}),
    ("powers", "hom_exists", lambda r: {"powers.hom_exists.true": bool(r)}),
    ("powers", "generate_subuniverse",
     lambda r: {"powers.generate_subuniverse.elements": len(r)}),
    ("powers", "Groupoid.from_power",
     lambda r: {"powers.Groupoid.from_power.cells": r.n * r.n}),
    ("powers", "Groupoid.from_algebra", None),
    ("algebras", "catalog", None),
    ("terms", "check_quasi_identity", None),
    ("terms", "check_identity", None),
    ("terms", "order_sensitivity", None),
    ("structure", "whiskery_check", None),
    ("structure", "component_group", None),
    ("structure", "rankill_check", None),
    ("structure", "permutation_profile", None),
    ("structure", "letter_affine_analysis", None),
    ("structure", "nondcomm_check", None),
    ("abgroups", "AbelianGroup.__init__", None),
    ("abgroups", "cyclic_decomposition", None),
    ("classify", "classify", lambda r: {f"classify.rule.{r.rule}.count": 1}),
    ("classify", "normalize_algebra", None),
    ("classify", "verify_certificate", None),
    ("witness", "build_truncation", None),
    ("witness", "kernel_block_analysis",
     lambda r: {"witness.kernel_block_analysis.restriction_mode":
                r.mode == "restrictions"}),
    ("witness", "verify_construction",
     lambda r: {"witness.verify_construction.instances":
                sum(i["instances"] for i in r["identities"])}),
    ("cli", "main", None),
    ("cli", "parse_algebra_file", None),
)

# (module, attribute path, metric prefix)
COUNTED = (("powers", "pointwise_mul", "powers.pointwise_mul"),
           ("algebras", "AutomaticAlgebra.mul", "algebras.mul"),
           ("algebras", "AutomaticAlgebra.word", "algebras.word"))


class Tracer:
    """Installs wrappers into the autodual modules and removes them on exit."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._call_counters = {}
        self._undo = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        mods = {m: importlib.import_module(f"autodual.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("autodual")
        cap_exceeded = importlib.import_module("autodual.errors").CapExceeded
        for module, path, stats in SPANNED:
            name = f"{module}.{path.removesuffix('.__init__')}"  # a class for its constructor
            self._patch(mods[module], path, lambda fn: self._spanned(
                fn, name, stats, cap_exceeded), mods.values())
        for module, path, name in COUNTED:
            self._patch(mods[module], path, lambda fn: self._counted(fn, name),
                        mods.values())
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _patch(self, module, path, make_wrapper, namespaces):
        """Wrap a method on its class, or a function in every namespace binding it."""
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make_wrapper(raw.__func__))
            else:
                wrapped = make_wrapper(raw)
            self._set(cls, attr, wrapped)
            return
        original = getattr(module, path)
        wrapper = make_wrapper(original)
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, fn, name, stats, cap_exceeded):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except cap_exceeded:
                counts[f"{name}.cap_hits"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if stats is not None:
                counts.update(stats(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counter = itertools.count()
        self._call_counters[name] = counter
        tick = counter.__next__

        def wrapper(*args):
            tick()
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_stats(self) -> dict:
        """calls and self_s per span name, plus every counter."""
        out = Counter(self.counts)
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        for name, counter in self._call_counters.items():
            # a fresh itertools.count reads 0, so the next value is the call count
            out[f"{name}.calls"] = next(counter)
        return dict(out)
