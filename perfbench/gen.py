"""Seeded input generators for the benchmark workloads.

The generators are the benchmark's own code and share nothing with
``bcscan.synth``, so a change to the program cannot change the inputs it
is measured on. Each returns the raw log lines (CSV text, in the format
``bcscan ingest`` reads) and the planted truth.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from datetime import date, timedelta

BASE_DATE = date(2010, 1, 1)
HONEST_DAYS = 365
MAX_VALUE = 5.0


@dataclass(frozen=True)
class Planted:
    """One planted group: its members and the products they target."""

    reviewers: tuple[str, ...]
    products: tuple[str, ...]


@dataclass(frozen=True)
class Dataset:
    lines: list[str]
    truth: tuple[Planted, ...]

    def csv_text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def _line(reviewer: str, product: str, value: float, day: int) -> str:
    when = BASE_DATE + timedelta(days=day)
    return f"{reviewer},{product},{value!r},{when.isoformat()}"


def _honest_line(rng: random.Random, reviewer: str, product: str,
                 quality: float) -> str:
    """An honest rating: the product's quality plus rounded Gaussian noise
    (sigma 0.7), clamped to the scale, on a day uniform over a year."""
    value = min(MAX_VALUE, max(1.0, quality + round(rng.gauss(0.0, 0.7))))
    return _line(reviewer, product, value, rng.randrange(HONEST_DAYS))


def _qualities(rng: random.Random, products: list[str]) -> dict[str, float]:
    """Latent product qualities, evenly spread over [1, MAX_VALUE] and
    shuffled: the spread is the same for every seed, which keeps the share
    of honest reviewers the global deviation rule flags, and so the false
    positive count, from swinging with the seed."""
    n = len(products)
    levels = [1.0 + (MAX_VALUE - 1.0) * (j + 0.5) / n for j in range(n)]
    rng.shuffle(levels)
    return dict(zip(products, levels))


def _degrees(rng: random.Random, reviewers: int, mean: float) -> list[int]:
    """Per-reviewer rating counts: the Poisson(``mean``) quantiles at evenly
    spaced levels, shuffled. Like the qualities, the multiset is the same
    for every seed; only who gets which count and what they rate varies."""
    cdf, k, term = [], 0, math.exp(-mean)
    total = term
    while total < 1.0 - 1e-12:
        cdf.append(total)
        k += 1
        term *= mean / k
        total += term
    out = [bisect.bisect_left(cdf, (i + 0.5) / reviewers) for i in range(reviewers)]
    rng.shuffle(out)
    return out


def _honest(rng: random.Random, lines: list[str], reviewers: int,
            products: list[str], mean_degree: float,
            attack_of: dict[str, int]) -> None:
    """Honest traffic: reviewer ``i`` rates a random set of products of the
    size ``_degrees`` gives, each with ``_honest_line``. A reviewer rates at
    most two targets of any one attack (``attack_of`` maps a target to its
    attack), so no honest reviewer joins a planted group's rectangle."""
    quality = _qualities(rng, products)
    for i, degree in enumerate(_degrees(rng, reviewers, mean_degree)):
        reviewer = f"u{i:05d}"
        hits: dict[int, int] = {}
        rated = 0
        for p in rng.sample(products, len(products)):
            if rated == degree:
                break
            a = attack_of.get(p)
            if a is not None:
                if hits.get(a, 0) == 2:
                    continue
                hits[a] = hits.get(a, 0) + 1
            lines.append(_honest_line(rng, reviewer, p, quality[p]))
            rated += 1


def catalogue(seed: int, honest: int, products: int, mean_degree: float,
              attacks: int, size: int, targets: int) -> Dataset:
    """A large sparse honest catalogue with ``attacks`` planted groups.

    Each planted group is ``size`` fresh reviewers who all give the top
    value to the same ``targets`` products within a two-day window; a fifth
    of their ratings are spammed as four copies. Targets of different
    attacks are disjoint, and honest reviewers rate at most two targets of
    one attack, so each planted group is exactly one maximal rectangle.
    """
    rng = random.Random(seed)
    ids = [f"p{j:05d}" for j in range(products)]
    pool = rng.sample(ids, attacks * targets)
    hit_sets = [tuple(sorted(pool[a * targets:(a + 1) * targets]))
                for a in range(attacks)]
    lines: list[str] = []
    _honest(rng, lines, honest, ids, mean_degree,
            {p: a for a, hit in enumerate(hit_sets) for p in hit})
    truth = []
    for a, hit in enumerate(hit_sets):
        members = tuple(f"a{a:03d}m{i:02d}" for i in range(size))
        start = rng.randrange(HONEST_DAYS - 2)
        for m in members:
            for p in hit:
                copies = 4 if rng.random() < 0.2 else 1
                for _ in range(copies):
                    lines.append(_line(m, p, MAX_VALUE, start + rng.randrange(3)))
        truth.append(Planted(members, hit))
    rng.shuffle(lines)
    return Dataset(lines, tuple(truth))


def crowds(seed: int, count: int, core: int, scattered: int, targets: int,
           honest: int, products: int) -> Dataset:
    """``count`` crowds over a tiny honest background.

    A crowd is ``core`` colluders who give the top value to the same
    ``targets`` products on one day, beside ``scattered`` raters who rate
    the same products with alternating low/high values on days at least 19
    days apart from each other and from the core. No two crowd members
    other than colluders rate one product within the 18 days that the
    expansion screen (``max_tw`` 30, ``delta`` 0.4) tolerates, so the
    expansion work per crowd is the same for every seed. Honest reviewers
    rate three products each, never a crowd target and never the same
    three as another honest reviewer, so they survive pruning but form no
    candidate group.
    """
    rng = random.Random(seed)
    ids = [f"p{j:05d}" for j in range(products)]
    pool = rng.sample(ids, count * targets)
    crowd_targets = set(pool)
    background = [p for p in ids if p not in crowd_targets]
    lines: list[str] = []
    quality = _qualities(rng, background)
    used: set[tuple[str, ...]] = set()
    for i in range(honest):
        reviewer = f"u{i:05d}"
        rated = tuple(sorted(rng.sample(background, 3)))
        while rated in used:
            rated = tuple(sorted(rng.sample(background, 3)))
        used.add(rated)
        lines += [_honest_line(rng, reviewer, p, quality[p]) for p in rated]
    truth = []
    for c in range(count):
        hit = tuple(sorted(pool[c * targets:(c + 1) * targets]))
        members = tuple(f"c{c:03d}k{i:02d}" for i in range(core))
        day = rng.randrange(HONEST_DAYS)
        for m in members:
            for p in hit:
                lines.append(_line(m, p, MAX_VALUE, day))
        for j, p in enumerate(hit):
            order = list(range(scattered))
            rng.shuffle(order)
            for slot, k in enumerate(order):
                value = 1.0 if (k + j) % 2 else MAX_VALUE
                lines.append(_line(f"c{c:03d}s{k:02d}", p, value,
                                   day + 19 * (slot + 1)))
        truth.append(Planted(members, hit))
    rng.shuffle(lines)
    return Dataset(lines, tuple(truth))


# The inputs of each workload; README.md says why each shape was chosen.
WORKLOADS = {
    "scan-catalogue": lambda seed: catalogue(seed, honest=2400, products=240,
                                             mean_degree=7.0, attacks=5,
                                             size=10, targets=8),
    "scan-crowds": lambda seed: crowds(seed, count=2, core=6, scattered=6,
                                       targets=4, honest=300, products=150),
    "query-session": lambda seed: catalogue(seed, honest=1500, products=150,
                                            mean_degree=7.0, attacks=3,
                                            size=10, targets=8),
}
