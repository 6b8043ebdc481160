"""Candidate group mining.

``enumerate_candidates`` lists every maximal complete reviewer x product
rectangle meeting the size floors: take any qualifying product set, the
reviewers are exactly those who rated all of it, and neither side can be
grown without losing completeness. This is closed-itemset enumeration with
reviewers as transactions and products as items, walked LCM-style. A group
holds its members as a set of reviewer numbers and its products as a
bitmask. Extending it by a product intersects the members with that
product's raters; the closure is the AND of the remaining members' product
bitmasks. A group is extended only by products at least two of its members
rated (one, when the reviewer floor is below 2), since any other product
leaves too few members.

``find_sub_bicliques`` searches inside one rectangle for tighter sub-groups
by merging single ratings bottom-up, keeping only merges that still look
collusive.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Iterator

from .model import BcscanError, Biclique, DetectionConfig, RatingGraph
from .indicators import group_time_similarity, group_value_similarity


class BudgetExceeded(BcscanError):
    """More than the configured cap of candidates were mined, or of
    fragments were made while expanding one group into sub-groups. The cap
    counts distinct groups, so it bounds neither merge attempts nor time."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"candidate budget exhausted: {count} > cap {cap}")
        self.count = count
        self.cap = cap


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_candidates(graph: RatingGraph, min_r: int = 2, min_p: int = 3,
                         cap: int = 100_000) -> list[Biclique]:
    """Enumerate all maximal bicliques with >= min_r reviewers and >= min_p
    products, in key order.

    Reviewers and products are numbered in sorted order. A node of the walk
    is a closed product set, held as a bitmask over the products, and its
    members, held as a set of reviewer numbers. The walk extends a node one
    product at a time and keeps an extension only when its closure adds no
    product before the one just added, so every closed set is visited
    exactly once. An extension's members are the node's members who rated
    the new product, one set intersection; its closure is the AND of those
    members' product bitmasks. Only products at least two members rated are
    tried (any one member's, when ``min_r`` is below 2), since an extension
    by any other product keeps too few members.
    Raises BudgetExceeded once more than ``cap`` candidates qualify.
    """
    reviewers = graph.reviewers
    products = graph.products
    # the root's closure is the AND over every reviewer, so it needs one
    if len(reviewers) < max(min_r, 1) or len(products) < min_p:
        return []
    number = {r: i for i, r in enumerate(reviewers)}
    raters = [frozenset(number[r] for r in graph.reviewers_of(p)) for p in products]
    item_of = {p: 1 << j for j, p in enumerate(products)}
    rated = []
    for r in reviewers:
        items = 0
        for p in graph.products_of(r):
            items |= item_of[p]
        rated.append(items)

    found: list[tuple[frozenset, int]] = []
    stack = [(reduce(and_, rated), frozenset(range(len(reviewers))), 0)]
    while stack:
        closed, members, start = stack.pop()
        if len(members) >= min_r and closed.bit_count() >= min_p:
            found.append((members, closed))
            if len(found) > cap:
                raise BudgetExceeded(len(found), cap)
        # conditional database: products at or after start, not yet closed,
        # rated by two members (by one when min_r is below 2); any other
        # extension has too few members left
        once = twice = 0
        for i in members:
            items = rated[i]
            twice |= once & items
            once |= items
        tail = (twice if min_r >= 2 else once) & ~closed & -(1 << start)
        while tail:
            low = tail & -tail
            tail ^= low
            extended = members & raters[low.bit_length() - 1]
            if len(extended) < min_r:
                continue
            new_closed = reduce(and_, map(rated.__getitem__, extended))
            # canonical extension: the closure may only add products at or
            # beyond this one, otherwise this set is reached via a smaller prefix
            if new_closed & ~closed & (low - 1):
                continue
            stack.append((new_closed, extended, low.bit_length()))

    out = []
    for members, closed in found:
        rs = [reviewers[i] for i in members]
        ps = [products[j] for j in _bits(closed)]
        out.append(Biclique.from_graph(rs, ps, graph))
    return sorted(out, key=lambda b: b.key)


def _looks_collusive(fragment: Biclique, config: DetectionConfig) -> bool:
    """Retention test for merged fragments: value and time similarity both
    at least delta. A single-member fragment trivially agrees with itself,
    so its value similarity counts as 1."""
    if len(fragment.reviewers) >= 2:
        if group_value_similarity(fragment) < config.delta:
            return False
    return group_time_similarity(fragment, config.max_tw) >= config.delta


def _merge(a: Biclique, b: Biclique) -> Biclique | None:
    """Union two fragments' relation sets; None if the union is not a
    complete rectangle of their graph."""
    rs = set(a.reviewers) | set(b.reviewers)
    ps = set(a.products) | set(b.products)
    shared_r = len(set(a.reviewers) & set(b.reviewers))
    shared_p = len(set(a.products) & set(b.products))
    union_edges = (len(a.reviewers) * len(a.products)
                   + len(b.reviewers) * len(b.products)
                   - shared_r * shared_p)
    if union_edges != len(rs) * len(ps):
        return None
    return Biclique.from_graph(rs, ps, a.graph)


def find_sub_bicliques(parent: Biclique, config: DetectionConfig) -> list[Biclique]:
    """Mine collusive sub-groups of one rectangle of its graph bottom-up.

    Generation zero is one fragment per rating. Each round merges every
    fragment pair whose relation union is itself a complete rectangle and
    passes the screen; fragments that took part in no surviving merge are
    final and are emitted when they meet the size floors. The parent itself
    is never emitted.
    """
    current: list[Biclique] = [Biclique.from_graph((r,), (p,), parent.graph)
                               for r in parent.reviewers for p in parent.products]
    emitted: dict = {}
    generated = len(current)
    verdict: dict = {}

    def passes(frag: Biclique) -> bool:
        key = frag.key
        if key not in verdict:
            verdict[key] = _looks_collusive(frag, config)
        return verdict[key]

    while current:
        n = len(current)
        merged_into_next: dict = {}
        processed = [False] * n
        for i in range(n - 1):
            for j in range(i + 1, n):
                frag = _merge(current[i], current[j])
                if frag is None or not passes(frag):
                    continue
                processed[i] = processed[j] = True
                if frag.key not in merged_into_next:
                    merged_into_next[frag.key] = frag
                    generated += 1
                    if generated > config.candidate_cap:
                        raise BudgetExceeded(generated, config.candidate_cap)
        for i, frag in enumerate(current):
            if processed[i]:
                continue
            if (len(frag.reviewers) >= config.min_r
                    and len(frag.products) >= config.min_p
                    and frag.key != parent.key):
                emitted[frag.key] = frag
        current = [merged_into_next[k] for k in sorted(merged_into_next)]
    return [emitted[k] for k in sorted(emitted)]
