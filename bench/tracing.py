"""Layer spans and exact counts, from the benchmark's own files.

The package is not edited.  Each layer entry point is rebound, for the
length of one pass, in every cppo module that holds it (a function imported
by name into four modules is rebound in all four) and on the class that
defines it.  Everything is restored afterwards, so untraced passes run the
package's own functions.

Spans are kept in memory as [id, parent, name, start_ns, end_ns, label] and
written out when the pass ends.  A layer's self time is the sum over its
spans of the duration minus the time covered by child spans.  The
permutation kernel is never wrapped in a timed pass: its functions are
rebound only by the counting pass, where a wrapper per call is acceptable.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager

# layer span name -> entry points, as (module, attribute) or (module, class, method)
SPAN_POINTS = {
    "bsgs.build": [("bsgs", "StabilizerChain", "from_raw_generators"),
                   ("bsgs", "StabilizerChain", "_schreier_sims")],
    "group.elements": [("group", "FiniteGroup", "_raw_elements"),
                       ("group", "QuotientGroup", "_raw_elements")],
    "group.classes": [("group", "FiniteGroup", "_raw_classes"),
                      ("group", "QuotientGroup", "_raw_classes")],
    "group.cppo_scan": [("group", "FiniteGroup", "cppo_witness")],
    "group.commutator_set": [("group", "FiniteGroup", "commutator_set")],
    "group.closure": [("group", "FiniteGroup", "_normal_closure_raw"),
                      ("group", "FiniteGroup", "_subgroup_from_raw_elements"),
                      ("towers", "_closure_under_conjugation")],
    "group.quotient": [("group", "quotient_by_normal")],
    "group.centralizer": [("group", "FiniteGroup", "centralizer")],
    "structure.sylow": [("structure", "sylow_subgroup")],
    "structure.p_core": [("structure", "p_core")],
    "structure.upper_fitting": [("structure", "upper_fitting_series")],
    "structure.normal_lattice": [("structure", "normal_subgroups")],
    "structure.identify": [("structure", "identify_simple_eppo")],
    "towers.find_max_tower": [("towers", "find_max_tower")],
    "towers.probe": [("towers", "tower_probe")],
    "towers.validate": [("towers", "validate_tower")],
    "towers.span": [("towers", "_commutator_span")],
    "atlas.build": [("atlas", "build")],
    "harness.classify": [("harness", "classify")],
    "harness.serialize": [("harness", "reports_to_text"),
                          ("harness", "lemma_checks_to_doc"),
                          ("towers", "tower_to_data")],
}

# the counting pass: counter name -> entry points
COUNT_POINTS = {
    "permutation.mul_calls": [("permutation", "mul_raw")],
    "permutation.inv_calls": [("permutation", "inv_raw")],
    "permutation.conj_calls": [("permutation", "conj_raw")],
    "permutation.order_calls": [("permutation", "order_raw")],
    "bsgs.builds": [("bsgs", "StabilizerChain", "from_raw_generators")],
    "bsgs.inserts": [("bsgs", "StabilizerChain", "_insert")],
    "bsgs.sifts": [("bsgs", "StabilizerChain", "sift")],
    "group.closures": SPAN_POINTS["group.closure"],
    "group.quotients": [("group", "quotient_by_normal")],
    "structure.upper_fitting_calls": [("structure", "upper_fitting_series")],
    "atlas.builds": [("atlas", "build")],
}


def _module(short):
    return sys.modules["cppo." + short]


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "cppo" or n.startswith("cppo."))]


class Rebinder:
    """Replaces entry points with wrappers and puts the originals back."""

    def __init__(self):
        self._undo = []

    def wrap(self, point, make_wrapper):
        if len(point) == 3:
            cls = getattr(_module(point[0]), point[1])
            raw = cls.__dict__[point[2]]
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            self._undo.append((cls, point[2], raw))
            setattr(cls, point[2], new)
            return
        fn = getattr(_module(point[0]), point[1])
        new = make_wrapper(fn)
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, new)

    def wrap_registry(self, make_wrapper_for):
        """Wrap each lemma family in the registry the suite runner reads."""
        registry = _module("lemmas").REGISTRY
        for lid, fn in list(registry.items()):
            self._undo.append((registry, lid, fn))
            registry[lid] = make_wrapper_for(lid)(fn)

    def restore(self):
        for owner, attr, val in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = val
            else:
                setattr(owner, attr, val)
        self._undo.clear()


# ---------------------------------------------------------------------------
# spans


def _cache_hit(attr):
    """Skip the span when the group's lazy cache is already filled."""
    return lambda args: getattr(args[0], attr, None) is not None


_SKIP = {
    ("group", "FiniteGroup", "_raw_elements"): _cache_hit("_elements"),
    ("group", "FiniteGroup", "_raw_classes"): _cache_hit("_classes"),
}


# spans of these layers carry the group's name as their label
LABELLED = ("harness.classify",)


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _make(self, name, skip=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        labelled = name in LABELLED

        def make_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if skip is not None and skip(args):
                    return fn(*args, **kwargs)
                label = getattr(args[0], "name", None) if labelled else None
                rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0, label]
                spans.append(rec)
                stack.append(rec[0])
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[4] = clock()
                    stack.pop()

            return wrapper

        return make_wrapper

    @contextmanager
    def active(self):
        rb = Rebinder()
        try:
            for name, points in SPAN_POINTS.items():
                for point in points:
                    rb.wrap(point, self._make(name, _SKIP.get(point)))
            rb.wrap_registry(lambda lid: self._make("lemmas." + lid))
            yield self
        finally:
            rb.restore()

    def self_times(self) -> dict:
        """Layer name -> summed self time in seconds."""
        covered = [0] * len(self.spans)
        for sid, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for sid, _, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0) + (end - start - covered[sid])
        return {k: v / 1e9 for k, v in out.items()}

    def inclusive_times(self, by_label=False) -> dict:
        """Span name (or, with by_label, label) -> summed duration in seconds."""
        out = {}
        for _, _, name, start, end, label in self.spans:
            key = label if by_label else name
            out[key] = out.get(key, 0) + (end - start) / 1e9
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# exact counts


class Counter:
    def __init__(self):
        self.counts = {name: 0 for name in COUNT_POINTS}
        self.counts["group.elements_enumerated"] = 0
        self.counts["group.classes_computed"] = 0

    def _make(self, name):
        counts = self.counts

        def make_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make_wrapper

    def _make_fill(self, name, attr, size):
        """Count only calls that fill an empty cache: real computations."""
        counts = self.counts

        def make_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(self_, *args, **kwargs):
                fresh = getattr(self_, attr) is None
                out = fn(self_, *args, **kwargs)
                if fresh:
                    counts[name] += size(out)
                return out

            return wrapper

        return make_wrapper

    @contextmanager
    def active(self):
        rb = Rebinder()
        try:
            for name, points in COUNT_POINTS.items():
                for point in points:
                    rb.wrap(point, self._make(name))
            # QuotientGroup's overrides delegate to these, so counting here
            # sees every real enumeration exactly once.
            rb.wrap(("group", "FiniteGroup", "_raw_elements"),
                    self._make_fill("group.elements_enumerated", "_elements", len))
            rb.wrap(("group", "FiniteGroup", "_raw_classes"),
                    self._make_fill("group.classes_computed", "_classes", lambda _: 1))
            yield self
        finally:
            rb.restore()
