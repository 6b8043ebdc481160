"""Group collusion indicators.

Four behavioural signals are computed per group (value similarity, time
tightness, rating spamicity, member suspiciousness). The two size signals
are relative to a cohort of examined groups, so the detector computes them
where it scores a cohort. Every indicator lands in [0, 1] with 1 meaning
"most suspicious".
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from math import fsum, sqrt
from typing import Mapping, NamedTuple, Sequence

from .model import BcscanError, Biclique, IndicatorReport, RatingGraph


class GroupTooSmall(BcscanError):
    """Pairwise similarity needs at least two reviewers."""


def _cosine(a: Sequence[float], b: Sequence[float]) -> float:
    if tuple(a) == tuple(b):
        # sqrt rounding would otherwise report identical vectors as < 1
        return 1.0
    num = fsum(x * y for x, y in zip(a, b))
    den = sqrt(fsum(x * x for x in a)) * sqrt(fsum(y * y for y in b))
    # ratings are >= 1, so den > 0; clamp rounding spill above 1
    return min(1.0, num / den)


def pairwise_value_similarity(a: str, b: str, group: Biclique) -> float:
    """Cosine similarity of two members' rating vectors over the group's
    products. Ratings are positive, so the result lies in (0, 1]."""
    return _cosine(group.values_of(a), group.values_of(b))


def group_value_similarity(group: Biclique) -> float:
    """GVS: the worst (minimum) pairwise value similarity inside the group.

    One disagreeing member drags the whole group down, which is the point:
    colluders vote alike.
    """
    members = group.reviewers
    if len(members) < 2:
        raise GroupTooSmall("group value similarity needs >= 2 reviewers")
    vectors = [group.values_of(r) for r in members]
    return min(_cosine(vectors[i], vectors[j])
               for i in range(len(members) - 1)
               for j in range(i + 1, len(members)))


def product_time_window(group: Biclique, product: str, max_tw: int) -> float:
    """Tightness of the group's posting window on one product.

    0 once the span exceeds ``max_tw`` days, otherwise 1 - span / max_tw.
    """
    times = [e.time for e in group.edges_on(product)]
    span = max(times) - min(times)
    if span > max_tw:
        return 0.0
    return 1.0 - span / max_tw


def group_time_similarity(group: Biclique, max_tw: int) -> float:
    """GTS: the tightest posting window over the group's products."""
    return max(product_time_window(group, p, max_tw) for p in group.products)


def group_rating_spamicity(group: Biclique) -> float:
    """GRS: value-weighted average spamicity of the group's edges."""
    edges = group.edges
    total = fsum(e.value for e in edges)
    return fsum(e.value * e.spamicity for e in edges) / total


class ProductConsensus(NamedTuple):
    """Per-product rating consensus used by the suspiciousness table."""

    median: float
    distance: float        # root-mean-square deviation from the median
    credible_mean: float   # mean of ratings within one distance of the median


def _rms_about(values: Sequence[float], center: float) -> float:
    return sqrt(fsum((v - center) ** 2 for v in values) / len(values))


@dataclass(frozen=True)
class SuspiciousnessTable:
    """Global per-reviewer deviation profile.

    For every product a credible mean is derived (ratings within one RMS
    distance of the median; the median itself if nothing qualifies). Each
    reviewer then gets an L2 deviation and a worst single deviation from
    those means, and reviewers whose deviation exceeds the population median
    by more than one RMS distance are flagged suspicious.
    """

    consensus: Mapping[str, ProductConsensus]
    l2_deviation: Mapping[str, float]
    max_deviation: Mapping[str, float]
    suspicious: frozenset[str]


def build_suspiciousness(graph: RatingGraph) -> SuspiciousnessTable:
    """Build the global suspiciousness table for a graph."""
    if not graph:
        return SuspiciousnessTable({}, {}, {}, frozenset())
    consensus: dict[str, ProductConsensus] = {}
    for p in graph.products:
        values = [e.value for e in graph.edges_of_product(p)]
        med = float(statistics.median(values))
        dist = _rms_about(values, med)
        credible = [v for v in values if med - dist <= v <= med + dist]
        mean = fsum(credible) / len(credible) if credible else med
        consensus[p] = ProductConsensus(med, dist, mean)
    l2: dict[str, float] = {}
    worst: dict[str, float] = {}
    for r in graph.reviewers:
        errs = [abs(e.value - consensus[e.product].credible_mean)
                for e in graph.edges_of_reviewer(r)]
        l2[r] = sqrt(fsum(x * x for x in errs))
        worst[r] = max(errs)
    l2_values = [l2[r] for r in graph.reviewers]
    worst_values = [worst[r] for r in graph.reviewers]
    l2_med = float(statistics.median(l2_values))
    l2_dist = _rms_about(l2_values, l2_med)
    worst_med = float(statistics.median(worst_values))
    worst_dist = _rms_about(worst_values, worst_med)
    flagged = frozenset(r for r in graph.reviewers
                        if l2[r] > l2_med + l2_dist
                        or worst[r] > worst_med + worst_dist)
    return SuspiciousnessTable(consensus, l2, worst, flagged)


def group_member_suspiciousness(group: Biclique,
                                table: SuspiciousnessTable) -> float:
    """GMS: share of the group's members flagged in the global table."""
    hits = sum(1 for r in group.reviewers if r in table.suspicious)
    return hits / len(group.reviewers)


class CumulativePoint(NamedTuple):
    indicator: str
    label: str
    value: float
    cumulative: float


def cumulative_distribution(reports: Sequence[IndicatorReport],
                            labels: Sequence[str]) -> list[CumulativePoint]:
    """Cumulative-distribution points per indicator, split by label.

    For each (indicator, label) series the values are sorted ascending and
    paired with their cumulative share, ready for plotting or CSV export.
    """
    if len(labels) != len(reports):
        raise ValueError("labels must align with reports")
    points: list[CumulativePoint] = []
    names = ("gvs", "gts", "grs", "gms", "gs", "gps", "doc", "di")
    for name in names:
        for label in sorted(set(labels)):
            series = sorted(getattr(rep, name)
                            for rep, lab in zip(reports, labels) if lab == label)
            for i, v in enumerate(series, start=1):
                points.append(CumulativePoint(name, label, v, i / len(series)))
    return points
