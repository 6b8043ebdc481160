"""Synthetic rating logs with planted collusion attacks, plus the
precision/recall harness used to evaluate detection quality."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from datetime import date, timedelta
from typing import Iterable, Sequence

from .model import BcscanError, Biclique, DEFAULT_MAX_VALUE, DetectionConfig
from .ingest import RawRating, ingest_ratings
from .detector import DetectionResult, detect

BASE_DATE = date(2004, 1, 1)
HONEST_DAYS = 365
NOISE_SIGMA = 0.7


class InfeasibleScript(BcscanError):
    """An attack script that cannot be realised on the given catalogue."""


@dataclass(frozen=True)
class AttackScript:
    """Parameters of one planted collusion group."""

    group_size: int = 5
    target_count: int = 4
    value_mode: str = "promote"    # "promote" pushes max_value, "demote" pushes 1
    time_span_days: int = 2        # all attack posts land within this window
    duplicate_rate: float = 0.0    # chance a member spams extra copies on a target
    camouflage_rate: float = 0.0   # honest-looking extra ratings per member,
                                   # as a fraction of target_count

    def __post_init__(self):
        if self.group_size < 2:
            raise ValueError(f"group_size must be >= 2, got {self.group_size}")
        if self.target_count < 3:
            # smaller target sets can never form a reportable group
            raise ValueError(f"target_count must be >= 3, got {self.target_count}")
        if self.value_mode not in ("promote", "demote"):
            raise ValueError(f"value_mode must be promote or demote, got {self.value_mode!r}")
        if self.time_span_days < 0:
            raise ValueError(f"time_span_days must be >= 0, got {self.time_span_days}")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError(f"duplicate_rate outside [0, 1]: {self.duplicate_rate}")
        if not 0.0 <= self.camouflage_rate <= 1.0:
            raise ValueError(f"camouflage_rate outside [0, 1]: {self.camouflage_rate}")


@dataclass(frozen=True)
class TruthGroup:
    """Ground-truth membership of one planted attack."""

    reviewers: frozenset[str]
    products: frozenset[str]


@dataclass(frozen=True)
class LabeledDataset:
    raw: tuple[RawRating, ...]
    truth: tuple[TruthGroup, ...]
    max_value: float = DEFAULT_MAX_VALUE


def _clamp(v: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, v))


def generate(honest_reviewers: int, products: int, density: float,
             attacks: Sequence[AttackScript] = (), seed: int = 0,
             max_value: float = DEFAULT_MAX_VALUE) -> LabeledDataset:
    """Generate a labelled rating log.

    Honest behaviour: every product gets a latent quality uniform in
    [1, max_value]; each honest reviewer rates each product with probability
    ``density``, voting quality plus integer-rounded Gaussian noise (sigma
    0.7) clamped into range, on a day uniform over a year. Attacks then
    inject fresh reviewer groups that all vote the extreme value on their
    targets inside a narrow shared window, optionally spamming duplicate
    copies and sprinkling honest-looking camouflage ratings.

    The same seed always yields the identical dataset.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    if honest_reviewers < 0 or products <= 0:
        raise ValueError("need a non-negative reviewer count and a positive catalogue")
    rng = random.Random(seed)
    product_ids = [f"p{j:04d}" for j in range(products)]
    quality = {p: rng.uniform(1.0, max_value) for p in product_ids}

    raw: list[RawRating] = []

    def honest_rating(reviewer: str, product: str):
        value = _clamp(quality[product] + round(rng.gauss(0.0, NOISE_SIGMA)),
                       1.0, max_value)
        day = rng.randrange(HONEST_DAYS)
        raw.append(RawRating(reviewer, product, value,
                             BASE_DATE + timedelta(days=day)))

    for i in range(honest_reviewers):
        reviewer = f"u{i:04d}"
        for product in product_ids:
            if rng.random() < density:
                honest_rating(reviewer, product)

    truth: list[TruthGroup] = []
    for a, script in enumerate(attacks):
        if script.target_count > products:
            raise InfeasibleScript(
                f"attack wants {script.target_count} targets, catalogue has {products}")
        members = [f"a{a:02d}x{i:02d}" for i in range(script.group_size)]
        targets = sorted(rng.sample(product_ids, script.target_count))
        start = rng.randrange(max(1, HONEST_DAYS - script.time_span_days))
        value = max_value if script.value_mode == "promote" else 1.0
        camouflage_count = round(script.camouflage_rate * script.target_count)
        others = [p for p in product_ids if p not in targets]
        for member in members:
            for product in targets:
                day = start + rng.randrange(script.time_span_days + 1)
                raw.append(RawRating(member, product, value,
                                     BASE_DATE + timedelta(days=day)))
                if rng.random() < script.duplicate_rate:
                    # enough copies to count as spamming, not an edit war
                    for _ in range(3):
                        extra = start + rng.randrange(script.time_span_days + 1)
                        raw.append(RawRating(member, product, value,
                                             BASE_DATE + timedelta(days=extra)))
            for product in rng.sample(others, min(camouflage_count, len(others))):
                honest_rating(member, product)
        truth.append(TruthGroup(frozenset(members), frozenset(targets)))
    return LabeledDataset(tuple(raw), tuple(truth), max_value)


@dataclass(frozen=True)
class Metric:
    """A score plus a flag marking the degenerate empty-denominator case."""

    value: float
    vacuous: bool = False


def _jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    return len(a & b) / len(union) if union else 1.0


def matches(group: Biclique, truth: TruthGroup, min_overlap: float = 0.5) -> bool:
    """A retrieved group hits a planted one when their member sets overlap
    by at least ``min_overlap`` Jaccard and they share a target product."""
    if _jaccard(frozenset(group.reviewers), truth.reviewers) < min_overlap:
        return False
    return bool(truth.products & set(group.products))


def precision(retrieved: Sequence[Biclique], truth: Sequence[TruthGroup],
              min_overlap: float = 0.5) -> Metric:
    """Share of retrieved groups matching some planted group. Retrieving
    nothing is vacuously precise."""
    if not retrieved:
        return Metric(1.0, vacuous=True)
    hits = sum(1 for g in retrieved if any(matches(g, t, min_overlap) for t in truth))
    return Metric(hits / len(retrieved))


def recall(retrieved: Sequence[Biclique], truth: Sequence[TruthGroup],
           min_overlap: float = 0.5) -> Metric:
    """Share of planted groups matched by some retrieved group. With no
    planted groups recall is vacuously perfect."""
    if not truth:
        return Metric(1.0, vacuous=True)
    hits = sum(1 for t in truth if any(matches(g, t, min_overlap) for g in retrieved))
    return Metric(hits / len(truth))


def run_pipeline(dataset: LabeledDataset, config: DetectionConfig) -> DetectionResult:
    """Prune, collapse and detect over a labelled dataset."""
    return detect(ingest_ratings(list(dataset.raw), config), config)


@dataclass(frozen=True)
class SweepPoint:
    delta: float
    precision: Metric
    recall: Metric
    retrieved: int


def threshold_sweep(dataset: LabeledDataset, config: DetectionConfig,
                    deltas: Iterable[float]) -> list[SweepPoint]:
    """Precision/recall over a range of collusiveness thresholds."""
    points = []
    for delta in deltas:
        result = run_pipeline(dataset, replace(config, delta=delta))
        retrieved = [b for b, _ in result.collusive]
        points.append(SweepPoint(delta,
                                 precision(retrieved, dataset.truth),
                                 recall(retrieved, dataset.truth),
                                 len(retrieved)))
    return points


def strong_attack_dataset() -> LabeledDataset:
    """The frozen retrieval benchmark: one blatant promote attack (identical
    votes, two-day window, a fifth of the pairs spammed with duplicates)
    planted among 200 honest reviewers at density 0.05.

    The catalogue is kept small (20 products) so that per-product honest
    traffic stays realistic (~10 raters) while coincidental honest co-rating
    triples, which would otherwise dominate the precision denominator, stay
    rare."""
    script = AttackScript(group_size=5, target_count=4, value_mode="promote",
                          time_span_days=2, duplicate_rate=0.2)
    return generate(honest_reviewers=200, products=20, density=0.05,
                    attacks=[script], seed=42)


def mixed_dataset() -> LabeledDataset:
    """Five planted attacks among denser honest traffic, so that honestly
    co-rating groups get mined alongside the planted ones."""
    script = AttackScript(group_size=5, target_count=4, value_mode="promote",
                          time_span_days=2, duplicate_rate=0.2)
    return generate(honest_reviewers=200, products=50, density=0.08,
                    attacks=[script] * 5, seed=7)
