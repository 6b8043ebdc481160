"""Collusion detection: score mined groups, flag the collusive ones and
expand damaging-but-undecided groups into their tighter sub-groups."""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from math import fsum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import (Biclique, DetectionConfig, IndicatorReport, RatingGraph,
                    validate_weights)
from .indicators import (SuspiciousnessTable, build_suspiciousness,
                         group_member_suspiciousness, group_rating_spamicity,
                         group_time_similarity, group_value_similarity)
from .mining import collusive_fragment_screen, enumerate_candidates, find_sub_bicliques

log = logging.getLogger(__name__)


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
    value = fsum(v * w for v, w in zip(quadruple, weights))
    return min(1.0, max(0.0, value))


def damaging_impact(gps: float, gs: float) -> float:
    """DI: how much damage the group can do, the mean of its two size scores."""
    return (gps + gs) / 2.0


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of a detection run.

    ``collusive`` holds the flagged groups sorted by descending DOC;
    ``scored`` holds every group that was examined (initial candidates plus
    expanded sub-groups) in canonical order, which is what reports and
    queries work from.
    """

    collusive: tuple[tuple[Biclique, IndicatorReport], ...]
    scored: tuple[tuple[Biclique, IndicatorReport], ...]
    examined_count: int
    expanded_count: int
    config: DetectionConfig

    def to_dict(self) -> dict:
        def rows(pairs):
            return [{**b.to_dict(), **rep.to_dict()} for b, rep in pairs]
        return {"config": self.config.to_dict(),
                "examined_count": self.examined_count,
                "expanded_count": self.expanded_count,
                "collusive": rows(self.collusive),
                "scored": rows(self.scored)}

    @classmethod
    def from_dict(cls, data: Mapping, graph: RatingGraph) -> "DetectionResult":
        config = DetectionConfig.from_dict(data["config"])

        def pairs(rows):
            out = []
            for row in rows:
                b = Biclique.from_graph(row["reviewers"], row["products"], graph)
                rep = IndicatorReport(row["gvs"], row["gts"], row["grs"],
                                      row["gms"], row["gs"], row["gps"],
                                      row["doc"], row["di"])
                out.append((b, rep))
            return tuple(out)

        return cls(pairs(data["collusive"]), pairs(data["scored"]),
                   int(data["examined_count"]), int(data["expanded_count"]),
                   config)


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
    """
    if config is None:
        config = DetectionConfig(max_value=graph.max_value)
    candidates = enumerate_candidates(graph, config.min_r, config.min_p,
                                      config.candidate_cap)
    initial = list(candidates)
    if not initial:
        return DetectionResult((), (), 0, 0, config)
    table = build_suspiciousness(graph)
    screen = collusive_fragment_screen(config)
    max_r = max(len(b.reviewers) for b in initial)
    max_p = max(len(b.products) for b in initial)

    queue = deque(_score(initial, table, config, max_r, max_p))
    seen = {b.key for b in initial}
    examined: dict = {}
    collusive: list = []
    expanded = 0
    while queue:
        group, rep = queue.popleft()
        examined[group.key] = (group, rep)
        if rep.doc > config.delta:
            collusive.append((group, rep))
        elif rep.di < config.delta:
            continue
        else:
            expanded += 1
            subs = find_sub_bicliques(group, graph, config, screen)
            fresh = [s for s in subs if s.key not in seen]
            seen.update(s.key for s in fresh)
            queue.extend(_score(fresh, table, config, max_r, max_p))
            if fresh:
                log.debug("expanded %r into %d sub-group(s)", group.key, len(fresh))

    scored = tuple(examined[k] for k in sorted(examined))
    collusive.sort(key=lambda br: (-br[1].doc, br[0].key))
    return DetectionResult(tuple(collusive), scored, len(examined), expanded, config)


class ReportRow(NamedTuple):
    group_id: int
    reviewers: tuple[str, ...]
    products: tuple[str, ...]
    doc: float
    di: float
    status: str


def rank_report(result: DetectionResult) -> list[ReportRow]:
    """Flatten a detection result into display rows.

    Groups are numbered in canonical order. Status is "collusive" above the
    DOC threshold, "dangerous" when only the damaging impact clears delta,
    and "clear" otherwise: a low-DOC group with a big footprint still
    deserves an analyst's eye.
    """
    delta = result.config.delta
    rows = []
    for i, (b, rep) in enumerate(result.scored, start=1):
        if rep.doc > delta:
            status = "collusive"
        elif rep.di > delta:
            status = "dangerous"
        else:
            status = "clear"
        rows.append(ReportRow(i, b.reviewers, b.products, rep.doc, rep.di, status))
    return rows
