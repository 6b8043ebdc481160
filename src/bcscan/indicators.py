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
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .model import BcscanError, Biclique, IndicatorReport, RatingGraph


class GroupTooSmall(BcscanError):
    """Pairwise similarity needs at least two reviewers."""


def _norm(vector: Sequence[float]) -> float:
    return sqrt(fsum(map(mul, vector, vector)))


def _cosine(a: Sequence[float], b: Sequence[float],
            norm_a: float, norm_b: float) -> float:
    """Cosine of two rating vectors of one sequence type, given their norms."""
    if a == b:
        # sqrt rounding would otherwise report identical vectors as < 1
        return 1.0
    # ratings are >= 1, so the norms are > 0; clamp rounding spill above 1
    return min(1.0, fsum(map(mul, a, b)) / (norm_a * norm_b))


def pairwise_value_similarity(a: str, b: str, group: Biclique) -> float:
    """Cosine similarity of two members' rating vectors over the group's
    products. Ratings are positive, so the result lies in (0, 1]."""
    va, vb = group.values_of(a), group.values_of(b)
    return _cosine(va, vb, _norm(va), _norm(vb))


def group_value_similarity(group: Biclique) -> float:
    """GVS: the worst (minimum) pairwise value similarity inside the group.

    One disagreeing member drags the whole group down, which is the point:
    colluders vote alike. Each member's norm is taken once.
    """
    if len(group.reviewers) < 2:
        raise GroupTooSmall("group value similarity needs >= 2 reviewers")
    worst = 1.0
    earlier: list[tuple[list[float], float]] = []
    for b in group.value_rows():
        norm_b = _norm(b)
        for a, norm_a in earlier:
            worst = min(worst, _cosine(a, b, norm_a, norm_b))
        earlier.append((b, norm_b))
    return worst


def _window(span: int, max_tw: int) -> float:
    """Tightness of a posting window spanning ``span`` days: 0 once the
    span exceeds ``max_tw``, otherwise 1 - span / max_tw."""
    if span > max_tw:
        return 0.0
    return 1.0 - span / max_tw


def product_time_window(group: Biclique, product: str, max_tw: int) -> float:
    """Tightness of the group's posting window on one product."""
    times = [e.time for e in group.edges_on(product)]
    return _window(max(times) - min(times), max_tw)


def group_time_similarity(group: Biclique, max_tw: int) -> float:
    """GTS: the tightest posting window over the group's products.

    A window's tightness falls as its span grows, so this is the window of
    the narrowest span, equal bit for bit to the best ``product_time_window``.
    """
    return _window(min([max(times) - min(times)
                        for times in group.posting_times()]), max_tw)


def group_rating_spamicity(group: Biclique) -> float:
    """GRS: value-weighted average spamicity of the group's edges."""
    edges = group.edges
    values = [e.value for e in edges]
    # fsum is exact before its one rounding, so the order of the terms is free
    return fsum(map(mul, values, [e.spamicity for e in edges])) / fsum(values)


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
    return len(table.suspicious.intersection(group.reviewers)) / len(group.reviewers)


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
    for name in IndicatorReport._fields:
        for label in sorted(set(labels)):
            series = sorted(getattr(rep, name)
                            for rep, lab in zip(reports, labels) if lab == label)
            for i, v in enumerate(series, start=1):
                points.append(CumulativePoint(name, label, v, i / len(series)))
    return points
