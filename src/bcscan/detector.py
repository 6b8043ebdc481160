"""Collusion detection: score mined groups, flag the collusive ones and
expand damaging-but-undecided groups into their tighter sub-groups."""

from __future__ import annotations

import logging
from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from math import fsum
from operator import attrgetter, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import (Biclique, DetectionConfig, IndicatorReport, RatingGraph,
                    fields_of, id_lists, json_objects, scored_row, validate_weights)
from .indicators import (SuspiciousnessTable, build_suspiciousness,
                         group_member_suspiciousness, group_rating_spamicity,
                         group_time_similarity, group_value_similarity)
from .mining import enumerate_candidates, find_sub_bicliques

log = logging.getLogger(__name__)

# how many weight vectors' DOC columns a DetectionResult keeps
DOCS_KEPT = 8


def degree_of_collusiveness(gvs: float, gts: float, grs: float, gms: float,
                            weights: Iterable[float] = (0.25, 0.25, 0.25, 0.25),
                            ) -> float:
    """DOC: weighted sum of the four behavioural indicators.

    Weights must be four non-negative reals summing to 1 (BadWeights
    otherwise), which keeps the result in [0, 1].
    """
    return _weighted_doc((gvs, gts, grs, gms), validate_weights(weights))


def _weighted_doc(quadruple: Sequence[float], weights: Sequence[float]) -> float:
    """DOC without the weight check, for weights validated once per call."""
    value = fsum(map(mul, quadruple, weights))
    return min(1.0, max(0.0, value))


def damaging_impact(gps: float, gs: float) -> float:
    """DI: how much damage the group can do, the mean of its two size scores."""
    return (gps + gs) / 2.0


def route(rep: IndicatorReport, delta: float) -> str:
    """Where a scored group goes: "collusive" when its DOC exceeds delta,
    "dangerous" when its damaging impact is at least delta (the detector
    expands it into sub-groups), "clear" otherwise."""
    if rep.doc > delta:
        return "collusive"
    if rep.di >= delta:
        return "dangerous"
    return "clear"


class Postings(NamedTuple):
    """Each product id and each reviewer id of a result's scored groups,
    in sorted order, mapped to the ascending positions in ``scored`` of the
    groups that hold it."""

    products: dict[str, tuple[int, ...]]
    reviewers: dict[str, tuple[int, ...]]


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of a detection run.

    ``scored`` holds every group that was examined (initial candidates plus
    expanded sub-groups) in canonical order, which is what reports and
    queries work from. The flagged groups are derived from it. Construction
    checks that order: group keys must strictly increase (ValueError
    otherwise), so no group is listed twice.

    A result also remembers its sorted ``collusive`` tuple, its four
    behavioural indicator columns, its ``postings`` and the DOC column of
    the last few weight vectors ``docs`` was asked for, so none is built
    twice. Each is built on first use; the postings are first used by a
    query, so neither ``detect`` nor the loader builds them. These memos
    are not part of the result's value: they stay out of ``to_dict``,
    equality, hashing and repr, and ``dataclasses.replace`` starts the new
    result without them.
    """

    scored: tuple[tuple[Biclique, IndicatorReport], ...]
    expanded_count: int
    config: DetectionConfig
    # validated weights -> DOC column, least recently used first
    _docs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = [b.key for b, _ in self.scored]
        for n, (before, after) in enumerate(zip(keys, keys[1:]), 2):
            if not before < after:
                raise ValueError(f"scored group {n} does not come after group {n - 1} "
                                 "in canonical order (sorted by reviewers, then "
                                 "products, each group once)")

    @cached_property
    def collusive(self) -> tuple[tuple[Biclique, IndicatorReport], ...]:
        """The scored groups routed "collusive", by descending DOC."""
        delta = self.config.delta
        return tuple(sorted(((b, rep) for b, rep in self.scored
                             if route(rep, delta) == "collusive"),
                            key=lambda br: (-br[1].doc, br[0].key)))

    @cached_property
    def _columns(self) -> tuple[tuple[float, ...], ...]:
        """The scored groups' gvs, gts, grs and gms, one tuple each, in
        scored order. Each column is read from the reports directly: a
        tuple per group would be thousands of collector-tracked objects made
        while a result loads, which checks its DOC column."""
        reports = [rep for _, rep in self.scored]
        return tuple(tuple(map(attrgetter(name), reports))
                     for name in IndicatorReport._fields[:4])

    @cached_property
    def postings(self) -> Postings:
        """Where each id occurs among the scored groups (see ``Postings``);
        the index a query filtered on ids reads instead of every group."""
        by_product: defaultdict[str, list[int]] = defaultdict(list)
        by_reviewer: defaultdict[str, list[int]] = defaultdict(list)
        for i, (b, _) in enumerate(self.scored):
            for p in b.products:
                by_product[p].append(i)
            for r in b.reviewers:
                by_reviewer[r].append(i)
        return Postings(*({ident: tuple(side[ident]) for ident in sorted(side)}
                          for side in (by_product, by_reviewer)))

    @property
    def examined_count(self) -> int:
        return len(self.scored)

    def docs(self, weights: Iterable[float]) -> tuple[float, ...]:
        """The DOC of every scored group under ``weights``, in scored order.

        Each value is re-aggregated from the group's indicator quadruple
        (a loaded result's stored ``doc`` is checked on load to equal it
        under the result's weights), and equals
        ``_weighted_doc(rep.quadruple(), weights)`` bit for bit. A new weight
        vector costs one pass over the four indicator columns, clamped to
        [0, 1] only when a value falls outside. BadWeights if the weights
        are invalid. The columns of the DOCS_KEPT most recently used weight
        vectors are kept, so a repeated weight vector costs no arithmetic.
        """
        weights = validate_weights(weights)
        memo = self._docs
        column = memo.pop(weights, None)
        if column is None:
            w0, w1, w2, w3 = weights
            column = [fsum((a * w0, b * w1, c * w2, d * w3))
                      for a, b, c, d in zip(*self._columns)]
            # weights within WEIGHT_TOLERANCE of summing to 1 can spill past 1
            if column and (min(column) < 0.0 or max(column) > 1.0):
                column = [min(1.0, max(0.0, v)) for v in column]
            column = tuple(column)
            if len(memo) >= DOCS_KEPT:
                del memo[next(iter(memo))]
        memo[weights] = column
        return column

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(),
                "examined_count": self.examined_count,
                "expanded_count": self.expanded_count,
                "collusive": [scored_row(b, rep) for b, rep in self.collusive],
                "scored": [scored_row(b, rep) for b, rep in self.scored]}

    @classmethod
    def from_dict(cls, data: Mapping, graph: RatingGraph) -> "DetectionResult":
        """Load a result; ValueError if it or one of its rows is not a JSON
        object with every field, if a row's reviewers or products are not a
        non-empty list of ids (see ``id_lists``), if a row's ``gs``,
        ``gps``, ``di`` or ``doc`` is not what its group and indicators
        derive to under the result's config (see ``check_derived``), or if
        its collusive list is not derived."""
        if not isinstance(data, Mapping):
            raise ValueError("a result must be a JSON object")
        with fields_of("result"):
            rows = list(json_objects(data["scored"], "result scored row"))
            groups = map(Biclique.from_graph, id_lists(rows, "reviewers", "result"),
                         id_lists(rows, "products", "result"), repeat(graph))
            scored = tuple(zip(groups, map(IndicatorReport.from_dict, rows)))
            result = cls(scored, int(data["expanded_count"]),
                         DetectionConfig.from_dict(data["config"]))
            check_derived("result scored row",
                          [len(b.reviewers) for b, _ in scored],
                          [len(b.products) for b, _ in scored],
                          [rep for _, rep in scored],
                          result.docs(result.config.weights))
            collusive = list(json_objects(data["collusive"], "result collusive row"))
            listed = [(tuple(sorted(set(rs))), tuple(sorted(set(ps))))
                      for rs, ps in zip(id_lists(collusive, "reviewers", "result"),
                                        id_lists(collusive, "products", "result"))]
        if listed != [b.key for b, _ in result.collusive]:
            raise ValueError("the result's collusive list does not match its "
                             "scored groups above delta")
        return result


def check_derived(kind: str, reviewer_counts: Sequence[int],
                  product_counts: Sequence[int], reports: Sequence[IndicatorReport],
                  docs: Sequence[float] | None = None) -> None:
    """Check the fields of stored reports that derive from others, as
    ``score_cohort`` and ``detect`` compute them: ``gs`` is the group's
    reviewer count over the largest among the rows, ``gps`` likewise for
    products, ``di`` is ``damaging_impact(gps, gs)`` and, when ``docs`` is
    given, ``doc`` is its value for the row. ValueError "<kind> N: stored
    <field> X is not the Y it derives to" for the first row N (from 1) of
    the first field that differs."""
    if not reports:
        return
    max_r = max(reviewer_counts)
    max_p = max(product_counts)
    gs = tuple(n / max_r for n in reviewer_counts)
    gps = tuple(n / max_p for n in product_counts)
    derived = {"gs": gs, "gps": gps, "di": tuple(map(damaging_impact, gps, gs))}
    if docs is not None:
        derived["doc"] = tuple(docs)
    for name, column in derived.items():
        stored = tuple(map(attrgetter(name), reports))
        if stored != column:
            n, value, want = next((n, a, b) for n, (a, b) in
                                  enumerate(zip(stored, column), 1) if a != b)
            raise ValueError(f"{kind} {n}: stored {name} {value!r} "
                             f"is not the {want!r} it derives to")


def _score(groups: Iterable[Biclique], table: SuspiciousnessTable,
           config: DetectionConfig, max_r: int, max_p: int,
           ) -> list[tuple[Biclique, IndicatorReport]]:
    """Score groups with size scores relative to the given maxima."""
    out = []
    for b in groups:
        quadruple = (group_value_similarity(b),
                     group_time_similarity(b, config.max_tw),
                     group_rating_spamicity(b),
                     group_member_suspiciousness(b, table))
        gs = len(b.reviewers) / max_r
        gps = len(b.products) / max_p
        rep = IndicatorReport(*quadruple, gs, gps,
                              _weighted_doc(quadruple, config.weights),
                              damaging_impact(gps, gs))
        out.append((b, rep))
    return out


def score_cohort(graph: RatingGraph, groups: Sequence[Biclique],
                 config: DetectionConfig, table: SuspiciousnessTable | None = None,
                 ) -> list[tuple[Biclique, IndicatorReport]]:
    """Score a fixed cohort of groups against each other.

    Size scores are relative to the largest group present. Returned in
    canonical order.
    """
    if not groups:
        return []
    if table is None:
        table = build_suspiciousness(graph)
    return _score(sorted(groups, key=lambda b: b.key), table, config,
                  max(len(b.reviewers) for b in groups),
                  max(len(b.products) for b in groups))


def detect(graph: RatingGraph, config: DetectionConfig | None = None) -> DetectionResult:
    """Run the full detection pass over a graph.

    Mines maximal candidate groups, scores each one, and routes it: DOC
    above delta means collusive; otherwise a damaging impact below delta
    discards it, and anything still standing is expanded into sub-groups
    that re-enter the queue exactly once each. Size scores are relative to
    the largest initial candidate: a sub-group only ever holds its parent's
    reviewers and products, so none is larger.

    The graph's recorded settings (its scale and, when ingest recorded
    them, its pruning floors) replace the config's, so the result echoes
    what ran; no config means the defaults.
    """
    config = replace(config or DetectionConfig(), **graph.settings)
    initial = enumerate_candidates(graph, config.min_r, config.min_p,
                                   config.candidate_cap)
    if not initial:
        return DetectionResult((), 0, config)
    table = build_suspiciousness(graph)
    max_r = max(len(b.reviewers) for b in initial)
    max_p = max(len(b.products) for b in initial)

    queue = deque(_score(initial, table, config, max_r, max_p))
    seen = {b.key for b in initial}
    examined = []
    expanded = 0
    while queue:
        group, rep = queue.popleft()
        examined.append((group, rep))
        if route(rep, config.delta) != "dangerous":
            continue
        expanded += 1
        subs = find_sub_bicliques(group, config)
        fresh = [s for s in subs if s.key not in seen]
        seen.update(s.key for s in fresh)
        queue.extend(_score(fresh, table, config, max_r, max_p))
        if fresh:
            log.debug("expanded %r into %d sub-group(s)", group.key, len(fresh))

    examined.sort(key=lambda br: br[0].key)
    return DetectionResult(tuple(examined), expanded, config)
