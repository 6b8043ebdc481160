"""Shared test helpers: graph builders and brute-force oracles.

The oracles deliberately share no code with the package: maximal groups are
found by enumerating every reviewer subset, and sub-group screening by
enumerating every sub-rectangle. Slow but obviously correct, which is the
point.

``reference_enumerate_candidates`` is the package's earlier closed-set walk,
kept verbatim as a differential reference for the bitmask miner on graphs
far too large for the exponential oracle.
"""

from __future__ import annotations

import itertools
import random
from math import fsum, sqrt

from bcscan.mining import BudgetExceeded, CandidateSet
from bcscan.model import Biclique, RatingEdge, RatingGraph


def make_graph(rows, max_value=5.0, epoch=None) -> RatingGraph:
    """Build a graph from (reviewer, product, value, time[, spamicity]) rows."""
    edges = []
    for row in rows:
        r, p, v, t = row[:4]
        s = row[4] if len(row) > 4 else 0.0
        edges.append(RatingEdge(r, p, float(v), int(t), float(s)))
    return RatingGraph(edges, max_value=max_value, epoch=epoch)


def grid_graph(reviewers, products, value=5.0, time=0, max_value=5.0) -> RatingGraph:
    """A complete rectangle where everyone votes the same value at the same time."""
    return make_graph([(r, p, value, time) for r in reviewers for p in products],
                      max_value=max_value)


def random_graph(rng: random.Random, n_reviewers: int, n_products: int,
                 density: float, days: int = 365, max_value: float = 5.0,
                 ) -> RatingGraph:
    """Random bipartite rating graph with integer values and day stamps."""
    edges = []
    for i in range(n_reviewers):
        for j in range(n_products):
            if rng.random() < density:
                edges.append(RatingEdge(f"r{i:03d}", f"p{j:03d}",
                                        float(rng.randint(1, int(max_value))),
                                        rng.randrange(days)))
    return RatingGraph(edges, max_value=max_value)


def oracle_maximal_bicliques(graph: RatingGraph, min_r: int, min_p: int,
                             ) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Every maximal complete rectangle meeting the size floors, by checking
    all reviewer subsets. Exponential in the reviewer count."""
    reviewers = graph.reviewers
    prods = {r: set(graph.products_of(r)) for r in reviewers}
    out = set()
    for k in range(min_r, len(reviewers) + 1):
        for subset in itertools.combinations(reviewers, k):
            common = set.intersection(*(prods[r] for r in subset))
            if len(common) < min_p:
                continue
            closure = tuple(sorted(r for r in reviewers if common <= prods[r]))
            if closure == subset:
                out.add((subset, tuple(sorted(common))))
    return sorted(out)


def reference_enumerate_candidates(graph: RatingGraph, min_r: int = 2, min_p: int = 3,
                                   cap: int = 100_000) -> CandidateSet:
    """Enumerate all maximal bicliques with >= min_r reviewers and >= min_p
    products.

    Reviewer sets are bitmasks; the walk extends closed product sets one
    product at a time and keeps an extension only when it does not disturb
    the already-fixed prefix, so every closed set is visited exactly once.
    Raises BudgetExceeded once more than ``cap`` candidates qualify.
    """
    reviewers = graph.reviewers
    products = graph.products
    if len(reviewers) < min_r or len(products) < min_p:
        return CandidateSet(())
    bit_of = {r: 1 << i for i, r in enumerate(reviewers)}
    supporters = []
    for p in products:
        mask = 0
        for r in graph.reviewers_of(p):
            mask |= bit_of[r]
        supporters.append(mask)
    full_mask = (1 << len(reviewers)) - 1
    n_products = len(products)

    def closure(mask: int) -> tuple[int, ...]:
        return tuple(j for j in range(n_products)
                     if supporters[j] & mask == mask)

    found: list[tuple[int, tuple[int, ...]]] = []
    root = closure(full_mask)
    stack = [(root, full_mask, 0)]
    while stack:
        closed, mask, start = stack.pop()
        if len(closed) >= min_p and mask.bit_count() >= min_r:
            found.append((mask, closed))
            if len(found) > cap:
                raise BudgetExceeded(len(found), cap)
        closed_set = set(closed)
        for j in range(start, n_products):
            if j in closed_set:
                continue
            extended = mask & supporters[j]
            if extended.bit_count() < min_r:
                continue
            new_closed = closure(extended)
            # canonical extension: the closure may only add products at or
            # beyond j, otherwise this set is reached via a smaller prefix
            if any(q < j and q not in closed_set for q in new_closed):
                continue
            stack.append((new_closed, extended, j + 1))

    out = []
    for mask, closed in found:
        rs = [reviewers[i] for i in range(len(reviewers)) if mask >> i & 1]
        ps = [products[j] for j in closed]
        out.append(Biclique.from_graph(rs, ps, graph))
    return CandidateSet(out)


def cosine(a, b) -> float:
    num = fsum(x * y for x, y in zip(a, b))
    return num / (sqrt(fsum(x * x for x in a)) * sqrt(fsum(y * y for y in b)))


def oracle_screen_pass(graph: RatingGraph, reviewers, products,
                       delta: float, max_tw: int) -> bool:
    """Independent check of the sub-group retention screen: worst pairwise
    cosine and best per-product window both at least delta."""
    reviewers = sorted(reviewers)
    products = sorted(products)
    vectors = {r: [graph.edge(r, p).value for p in products] for r in reviewers}
    if len(reviewers) >= 2:
        worst = min(cosine(vectors[a], vectors[b])
                    for a, b in itertools.combinations(reviewers, 2))
        if worst < delta:
            return False
    best_window = 0.0
    for p in products:
        times = [graph.edge(r, p).time for r in reviewers]
        span = max(times) - min(times)
        tw = 0.0 if span > max_tw else 1.0 - span / max_tw
        best_window = max(best_window, tw)
    return best_window >= delta


def oracle_passing_subrectangles(graph: RatingGraph, parent: Biclique,
                                 min_r: int, min_p: int, delta: float,
                                 max_tw: int) -> list[tuple[tuple, tuple]]:
    """All sub-rectangles of a parent that meet the size floors and pass the
    retention screen, parent excluded."""
    out = []
    for nr in range(min_r, len(parent.reviewers) + 1):
        for rs in itertools.combinations(parent.reviewers, nr):
            for np_ in range(min_p, len(parent.products) + 1):
                for ps in itertools.combinations(parent.products, np_):
                    if (rs, ps) == parent.key:
                        continue
                    if oracle_screen_pass(graph, rs, ps, delta, max_tw):
                        out.append((rs, ps))
    return sorted(out)
