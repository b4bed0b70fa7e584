"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces public functions of the ``tropgroups``
modules with wrappers, at every place a caller looks the name up: the
defining module, each module that imported the name, and the class for
methods.  Span wrappers record (name, start, end, parent, request),
keep the spans in memory until ``write`` and fold each into per-round
totals as it closes.  Count wrappers (the scalar operations of
``semiring``) only count, since a timed wrapper per scalar operation
would mostly time the wrapper.  ``uninstall()`` puts the
originals back.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# metric stem, module, attribute ("Class.method" for methods), mode.
# Modes: "count" only counts calls; every other mode times calls as
# spans, and "repeats" also counts calls whose arguments equal an earlier
# call's in the same request, "solutions" also sums len() of the results
# and "enumerated" that of the results not taken from the group's cache.
TARGETS = [
    ("semiring.value_new", "semiring", "Value.__init__", "count"),
    ("semiring.value_add", "semiring", "Value.__add__", "count"),
    ("semiring.value_add", "semiring", "Value.__sub__", "count"),
    ("semiring.value_add", "semiring", "Value.__neg__", "count"),
    ("semiring.value_cmp", "semiring", "Value._cmp", "count"),
    ("semiring.free_basis_check", "semiring", "free_basis_check", "span"),
    ("matrix.parse_matrix", "matrix", "parse_matrix", "span"),
    ("matrix.mat_mul", "matrix", "mat_mul", "span"),
    ("matrix.is_idempotent", "matrix", "is_idempotent", "span"),
    ("spaces.member", "spaces", "member", "span"),
    ("spaces.h_related", "spaces", "h_related", "span"),
    ("spaces.reduce_full_rank", "spaces", "reduce_full_rank", "repeats"),
    ("spaces.has_full_rank", "spaces", "has_full_rank", "span"),
    ("components.class_partition", "components", "class_partition", "repeats"),
    ("pairsearch.pair_solutions", "pairsearch", "pair_solutions", "repeats solutions"),
    ("pairsearch.commuting_solutions", "pairsearch", "commuting_solutions", "span"),
    ("stabilizer.group_description", "stabilizer", "group_description", "span"),
    ("stabilizer.normalize_eigenvectors", "stabilizer", "normalize_eigenvectors", "span"),
    ("stabilizer.classification_conditions", "stabilizer", "classification_conditions", "span"),
    ("permgroups.elements", "permgroups", "PermGroup.elements", "enumerated"),
    ("permgroups.elements", "permgroups", "PairedPermGroup.elements", "enumerated"),
    ("permgroups.automorphisms", "permgroups", "coloured_automorphisms", "span"),
    ("permgroups.automorphisms", "permgroups", "coloured_bipartite_automorphisms", "span"),
    ("permgroups.groups_isomorphic", "permgroups", "groups_isomorphic", "span"),
    ("permgroups.identify_group", "permgroups", "identify_group", "span"),
    ("permgroups.is_paired_two_closed", "permgroups", "is_paired_two_closed", "span"),
    ("constructors.construct_idempotent", "constructors", "construct_idempotent", "span"),
    ("constructors.construct_from_bipartite", "constructors", "construct_from_bipartite", "span"),
    ("constructors.finite_approximant", "constructors", "finite_approximant", "span"),
    ("cli.main", "cli", "main", "span"),
    ("cli.analyze", "cli", "cmd_analyze", "span"),
    ("cli.verify", "cli", "cmd_verify", "span"),
    ("cli.construct", "cli", "cmd_construct", "span"),
    ("cli.approximate", "cli", "cmd_approximate", "span"),
    ("cli.closure", "cli", "cmd_closure", "span"),
]

# metric suffixes that are counts; the others ("s", "self_s") are times
COUNTS = {"calls", "repeats", "solutions", "enumerated"}


def _key(args, kwargs):
    try:
        key = (args, tuple(sorted(kwargs.items())))
        hash(key)
        return key
    except TypeError:
        return None


PACKAGE = "tropgroups"


class Tracer:
    def __init__(self):
        self.patches = []  # (owner, attribute, original)
        self.spans = []  # [name, start, end, parent index, request id]
        self.request = -1
        self.stack = []  # open spans: [index, name, start, child time]
        self.depth = defaultdict(int)
        self.seen = set()
        self.round = defaultdict(float)
        self.rounds = []

    # -- bookkeeping ------------------------------------------------------

    def begin_request(self, index):
        self.request = index
        self.seen = set()

    def end_round(self):
        self.rounds.append(dict(self.round))
        self.round = defaultdict(float)

    def _enter(self, name, args, kwargs, mode):
        r = self.round
        r[name + ".calls"] += 1
        if "repeats" in mode:
            key = _key(args, kwargs)
            if key is not None:
                key = (name, key)
                if key in self.seen:
                    r[name + ".repeats"] += 1
                else:
                    self.seen.add(key)
        self.depth[name] += 1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1][0] if self.stack else -1, self.request])
        frame = [idx, name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, result, mode):
        end = time.perf_counter()
        self.stack.pop()
        idx, name, start, child = frame
        dur = end - start
        r = self.round
        self.depth[name] -= 1
        if self.depth[name] == 0:  # inclusive time once per outermost call
            r[name + ".s"] += dur
        r[name + ".self_s"] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        for sized in ("solutions", "enumerated"):
            if sized in mode and result is not None:
                r[f"{name}.{sized}"] += len(result)
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    # -- wrappers -----------------------------------------------------------

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.round[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, name, fn, mode):
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = tracer._enter(name, args, kwargs, mode)
            # a group's cached element set is returned, not enumerated
            fresh = "enumerated" not in mode or args[0]._elements[0] is None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(frame, result if fresh else None, mode)

        return spanned

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for stem, modname, attr, mode in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                name = stem + ".calls" if mode == "count" else stem
                wrapper = self._counter(name, orig) if mode == "count" else self._spanner(name, orig, mode)
                setattr(cls, meth, wrapper)
                self.patches.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._spanner(stem, orig, mode)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self.patches.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self.patches):
            setattr(owner, key, orig)
        self.patches = []

    # -- results ------------------------------------------------------------

    def metric_value(self, metric):
        """Counts from the first round, which every run sees from the same
        fresh process state; times as the median over the rounds."""
        if not self.rounds:
            return 0
        if metric == "cli.self_s":
            per_round = [sum(v for k, v in r.items() if k.startswith("cli.") and k.endswith(".self_s"))
                         for r in self.rounds]
        elif metric.rsplit(".", 1)[1] in COUNTS:
            return int(self.rounds[0].get(metric, 0))
        else:
            per_round = [r.get(metric, 0.0) for r in self.rounds]
        return statistics.median(per_round)

    def write(self, path):
        """Spans as JSON lines, times relative to the first span, followed
        by one line of per-round totals."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(json.dumps({"name": name, "start": round(start - t0, 9),
                                     "end": round(end - t0, 9), "parent": parent,
                                     "request": req}) + "\n")
            fh.write(json.dumps({"rounds": self.rounds}, sort_keys=True) + "\n")
