"""Tracing from outside the program.

``Tracer.install`` replaces public functions and methods of the ``bcscan``
modules with wrappers that time each call; ``uninstall`` puts the
originals back, so untraced operations run the unmodified program. Each
operation the benchmark starts (a CLI command, a session open, a query) is
a root span. A wrapped call is charged to the root that is active when it
runs, also from the scoring thread pool, and to its parent on the calling
thread's span stack. Spans and counts stay in memory until ``dump``.

Calls that happen tens of thousands of times per operation (biclique
builds and indicator calls) are summed per root instead of kept one by
one; scoring calls also keep their intervals, because they overlap on the
thread pool and only the time covered by at least one of them counts.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import bcscan.cli
import bcscan.detector
import bcscan.ingest
import bcscan.mining
import bcscan.query
from bcscan.detector import DetectionResult
from bcscan.model import Biclique, RatingGraph

# Aggregated span names: counted and summed per root, not kept one by one.
FINE = {"model.biclique_build", "indicators.score", "indicators.screen"}

_SCORE = ("group_value_similarity", "group_time_similarity",
          "group_rating_spamicity", "group_member_suspiciousness")


class _Root:
    __slots__ = ("sid", "kind", "traced", "start", "end", "totals", "counts",
                 "intervals", "seen")

    def __init__(self, sid: int, kind: str, traced: bool):
        self.sid = sid
        self.kind = kind
        self.traced = traced
        self.start = self.end = 0
        # Only traced roots collect. Untraced ones stay small: a run keeps
        # thousands of them, and they count in its peak memory. totals maps
        # a span name to [calls, ns, max ns].
        self.totals = defaultdict(lambda: [0, 0, 0]) if traced else None
        self.counts = defaultdict(int) if traced else None
        self.intervals: list[tuple[int, int]] | None = [] if traced else None
        self.seen: set | None = set() if traced else None


class Tracer:
    def __init__(self):
        self.roots: list[_Root] = []
        self.spans: list[tuple] = []     # (id, parent, name, start ns, end ns)
        self._root: _Root | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = self._build()

    # -- roots --------------------------------------------------------------

    @contextmanager
    def op(self, kind: str, traced: bool):
        """One benchmark operation; nested calls are charged to it when
        ``traced`` and the wrappers are installed."""
        self._next += 1
        root = _Root(self._next, kind, traced)
        if traced:
            self.install()
        self._root = root
        root.start = time.perf_counter_ns()
        try:
            yield root
        finally:
            root.end = time.perf_counter_ns()
            self._root = None
            if traced:
                self.uninstall()
            root.seen = None
            self.roots.append(root)

    # -- wrapping -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, after=None):
        tracer = self
        fine = name in FINE
        keep_interval = name == "indicators.score"

        def wrapper(*args, **kwargs):
            root = tracer._root
            stack = tracer._stack()
            if not fine:
                tracer._next += 1
                sid = tracer._next
                parent = stack[-1] if stack else root.sid
                stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                with tracer._lock:
                    total = root.totals[name]
                    total[0] += 1
                    total[1] += t1 - t0
                    total[2] = max(total[2], t1 - t0)
                    if keep_interval:
                        root.intervals.append((t0, t1))
                if not fine:
                    stack.pop()
                    tracer.spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(root, args, kwargs, result)
            return result

        return wrapper

    def _build(self) -> list[tuple[object, str, object]]:
        out = []

        def add(owner, attr, name, after=None, kind="function"):
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if kind == "classmethod":
                out.append((owner, attr, classmethod(self._wrap(raw.__func__, name, after))))
            else:
                out.append((owner, attr, self._wrap(raw, name, after)))

        def count(key, measure):
            def after(root, args, kwargs, result):
                root.counts[key] += measure(result)
            return after

        def candidates(root, args, kwargs, result):
            root.counts["mining.candidates"] += len(result)
            root.seen.update(b.key for b in result)

        def subgroups(root, args, kwargs, result):
            root.counts["mining.subgroups"] += len(result)
            fresh = [b.key for b in result if b.key not in root.seen]
            root.counts["mining.subgroups_new"] += len(fresh)
            root.seen.update(fresh)

        def detected(root, args, kwargs, result):
            root.counts["detector.examined"] += result.examined_count
            root.counts["detector.expanded"] += result.expanded_count
            root.counts["detector.collusive"] += len(result.collusive)

        def evaluated(root, args, kwargs, result):
            cache = kwargs["cache"] if "cache" in kwargs else args[3]
            root.counts["query.groups_scanned"] += len(cache.scored)
            root.counts["query.matches"] += len(result.groups) + len(result.ids)

        ing = bcscan.ingest
        add(ing, "parse_log", "ingest.parse_log",
            count("ingest.raw_ratings", lambda r: len(r[0])))
        add(ing, "prune", "ingest.prune")
        add(ing, "build_graph", "ingest.build_graph",
            count("ingest.edges", len))
        add(RatingGraph, "save", "model.snapshot_save")
        add(RatingGraph, "load", "model.snapshot_load", kind="classmethod")
        add(Biclique, "from_graph", "model.biclique_build", kind="classmethod")
        det = bcscan.detector
        add(det, "enumerate_candidates", "mining.enumerate", candidates)
        add(det, "find_sub_bicliques", "mining.expand", subgroups)
        add(det, "build_suspiciousness", "indicators.suspiciousness")
        for fn in _SCORE:
            add(det, fn, "indicators.score")
        for fn in _SCORE[:2]:
            add(bcscan.mining, fn, "indicators.screen")
        add(bcscan.cli, "detect", "detector.detect", detected)
        add(DetectionResult, "to_dict", "detector.result_dump")
        add(DetectionResult, "from_dict", "detector.result_load", kind="classmethod")
        add(bcscan.query, "parse", "query.parse")
        add(bcscan.query, "evaluate", "query.evaluate", evaluated)
        return out

    def install(self) -> None:
        for owner, attr, wrapper in self._wrappers:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every root and every kept span as JSON."""
        data = {
            "roots": [{"id": r.sid, "kind": r.kind, "traced": r.traced,
                       "start_ns": r.start, "end_ns": r.end,
                       "totals": {k: {"calls": v[0], "ns": v[1], "max_ns": v[2]}
                                  for k, v in (r.totals or {}).items()},
                       "counts": dict(r.counts or {})} for r in self.roots],
            "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                       "start_ns": s[3], "end_ns": s[4]} for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(data, fp)

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit): for each, the median
        over the traced roots of the kind of operation that does that work,
        plus the tracing overhead."""
        by_kind = defaultdict(list)
        for r in self.roots:
            if r.traced:
                by_kind[r.kind].append(r)

        def med(kind, value) -> float:
            values = [value(r) for r in by_kind[kind]]
            return float(statistics.median(values)) if values else 0.0

        # totals and counts are defaultdicts: work a root never did reads 0.
        def secs(name):
            return lambda r: r.totals[name][1] / 1e9

        def calls(name):
            return lambda r: r.totals[name][0]

        def counted(key):
            return lambda r: r.counts[key]

        def wall(r):
            return (r.end - r.start) / 1e9

        def score_s(r):
            covered, reach = 0, 0
            for t0, t1 in sorted(r.intervals):
                if t1 > reach:
                    covered += t1 - max(t0, reach)
                    reach = t1
            return covered / 1e9

        def cli_self(r):
            inner = sum(secs(n)(r) for n in ("model.snapshot_load", "detector.detect",
                                             "detector.result_dump"))
            return wall(r) - inner

        def detector_self(r):
            inner = sum(secs(n)(r) for n in ("mining.enumerate", "mining.expand",
                                             "indicators.suspiciousness"))
            return secs("detector.detect")(r) - inner - score_s(r)

        def expand_max(r):
            return r.totals["mining.expand"][2] / 1e9

        def yield_(r):
            emitted = r.counts["mining.subgroups"]
            return r.counts["mining.subgroups_new"] / emitted if emitted else 0.0

        def per_query(name):
            return lambda r: secs(name)(r) * 1e3

        d, i, q, o = "cli.detect", "cli.ingest", "query", "session.open"
        table = [
            ("cli.ingest_s", "s", i, wall),
            ("cli.detect_s", "s", d, wall),
            ("cli.self_s", "s", d, cli_self),
            ("ingest.parse_log_s", "s", i, secs("ingest.parse_log")),
            ("ingest.prune_s", "s", i, secs("ingest.prune")),
            ("ingest.build_graph_s", "s", i, secs("ingest.build_graph")),
            ("ingest.raw_ratings", "count", i, counted("ingest.raw_ratings")),
            ("ingest.edges", "count", i, counted("ingest.edges")),
            ("model.snapshot_save_s", "s", i, secs("model.snapshot_save")),
            ("model.snapshot_load_s", "s", d, secs("model.snapshot_load")),
            ("model.biclique_builds", "count", d, calls("model.biclique_build")),
            ("model.biclique_build_s", "s", d, secs("model.biclique_build")),
            ("mining.enumerate_s", "s", d, secs("mining.enumerate")),
            ("mining.candidates", "count", d, counted("mining.candidates")),
            ("mining.expand_s", "s", d, secs("mining.expand")),
            ("mining.expand_calls", "count", d, calls("mining.expand")),
            ("mining.expand_max_s", "s", d, expand_max),
            ("mining.subgroups", "count", d, counted("mining.subgroups")),
            ("mining.subgroup_yield", "ratio", d, yield_),
            ("indicators.suspiciousness_s", "s", d, secs("indicators.suspiciousness")),
            ("indicators.score_s", "s", d, score_s),
            ("indicators.screen_s", "s", d, secs("indicators.screen")),
            ("indicators.screen_calls", "count", d, calls("indicators.screen")),
            ("detector.detect_s", "s", d, secs("detector.detect")),
            ("detector.self_s", "s", d, detector_self),
            ("detector.examined", "count", d, counted("detector.examined")),
            ("detector.expanded", "count", d, counted("detector.expanded")),
            ("detector.collusive", "count", d, counted("detector.collusive")),
            ("detector.result_dump_s", "s", d, secs("detector.result_dump")),
            ("detector.result_load_s", "s", o, secs("detector.result_load")),
            ("query.parse_ms", "ms", q, per_query("query.parse")),
            ("query.evaluate_ms", "ms", q, per_query("query.evaluate")),
            ("query.groups_scanned", "count", q, counted("query.groups_scanned")),
            ("query.matches", "count", q, counted("query.matches")),
        ]
        out = {name: (med(kind, value), unit) for name, unit, kind, value in table}
        out["trace.overhead_s"] = (self.overhead_s(), "s")
        return out

    def overhead_s(self) -> float:
        """Median traced minus median untraced ``bcscan detect`` wall time."""
        walls = defaultdict(list)
        for r in self.roots:
            if r.kind == "cli.detect":
                walls[r.traced].append((r.end - r.start) / 1e9)
        if not walls[True] or not walls[False]:
            return 0.0
        return statistics.median(walls[True]) - statistics.median(walls[False])
