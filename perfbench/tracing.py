"""Spans around ordercraft's public functions, recorded from outside the
package.

:class:`Tracer` replaces each public function of the traced modules, and a few
public methods that do more than constant work, with a wrapper that records a
span ``(name, start_ns, end_ns, parent, job, produced)``. ``parent`` is the
index of the enclosing span (-1 for a root) and ``job`` the index of the root
span of the job the call belongs to, so the spans of one job share it.
``produced`` is the number of downsets an ``enumerate_downsets`` call returned,
else None. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("families", "poset", "downsets", "semilattice", "constructions",
          "suites", "cli")

# Methods are wrapped only where one call does real work: constant-time
# accessors such as Poset.leq run millions of times inside one structure
# report, and wrapping them would measure the wrapper.
METHODS = {
    "poset": {"Poset": ("cover_pairs", "width", "basic_stats", "height",
                        "linear_extension", "join_table", "meet_table")},
    "semilattice": {"MapWitness": ("check_flag", "verify_all")},
}

PRODUCED = {"downsets.enumerate_downsets": lambda family: len(family.sets)}

FIELDS = ("name", "start_ns", "end_ns", "parent", "job", "produced")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = -1
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count = PRODUCED.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                produced = count(result) if count and result is not None else None
                spans[idx] = (name, start, end, parent, tracer._job, produced)

        return traced

    def root(self, name, fn, *args, **kwargs):
        """Call ``fn`` under a root span; the calls it makes share its index
        as their job identifier."""
        outer = self._job
        self._job = len(self.spans)
        try:
            return self._wrap(name, fn)(*args, **kwargs)
        finally:
            self._job = outer

    def install(self) -> None:
        """Wrap the traced functions of the imported ordercraft, and rebind
        every module-level name in the package that refers to one of them."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"ordercraft.{layer}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = vars(cls)[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{layer}.{meth}", original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ordercraft" and not mod_name.startswith("ordercraft."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def self_times(spans, lo: int, hi: int):
    """Per span name over ``spans[lo:hi]``: self time in seconds (duration
    minus the durations of direct children), call count, and produced count."""
    child_ns = defaultdict(int)
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= 0:
            child_ns[parent] += spans[i][2] - spans[i][1]
    self_s, calls, produced = defaultdict(float), Counter(), Counter()
    for i in range(lo, hi):
        name, start, end, _parent, _job, made = spans[i]
        self_s[name] += (end - start - child_ns[i]) / 1e9
        calls[name] += 1
        if made is not None:
            produced[name] += made
    return self_s, calls, produced
