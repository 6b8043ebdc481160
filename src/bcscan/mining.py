"""Candidate group mining.

``enumerate_candidates`` lists every maximal complete reviewer x product
rectangle meeting the size floors: take any qualifying product set, the
reviewers are exactly those who rated all of it, and neither side can be
grown without losing completeness. This is closed-itemset enumeration with
reviewers as transactions and products as items, walked LCM-style over
bitmasks: a closure is checked only over the products of one member (any
product every member rated, that member rated too), and a group is extended
only by products in the union of its members' product bitmasks.

``find_sub_bicliques`` searches inside one rectangle for tighter sub-groups
by merging single ratings bottom-up, keeping only merges that still look
collusive.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .model import BcscanError, Biclique, DetectionConfig, RatingGraph
from .indicators import group_time_similarity, group_value_similarity


class BudgetExceeded(BcscanError):
    """Enumeration produced more candidates than the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"candidate budget exhausted: {count} > cap {cap}")
        self.count = count
        self.cap = cap


class CandidateSet:
    """An immutable, canonically ordered collection of bicliques."""

    __slots__ = ("_bicliques", "_max_r", "_max_p")

    def __init__(self, bicliques: Sequence[Biclique]):
        unique = {b.key: b for b in bicliques}
        self._bicliques = tuple(unique[k] for k in sorted(unique))
        self._max_r = max((len(b.reviewers) for b in self._bicliques), default=0)
        self._max_p = max((len(b.products) for b in self._bicliques), default=0)

    @property
    def max_reviewers(self) -> int:
        return self._max_r

    @property
    def max_products(self) -> int:
        return self._max_p

    def __iter__(self) -> Iterator[Biclique]:
        return iter(self._bicliques)

    def __len__(self) -> int:
        return len(self._bicliques)

    def __getitem__(self, i):
        return self._bicliques[i]

    def __contains__(self, item) -> bool:
        if isinstance(item, Biclique):
            return any(b.key == item.key for b in self._bicliques)
        return False


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_candidates(graph: RatingGraph, min_r: int = 2, min_p: int = 3,
                         cap: int = 100_000) -> CandidateSet:
    """Enumerate all maximal bicliques with >= min_r reviewers and >= min_p
    products.

    Reviewer sets and product sets are bitmasks over the graph's sorted
    reviewers and products. The walk extends closed product sets one product
    at a time and keeps an extension only when its closure adds no product
    before the one just added, so every closed set is visited exactly once.
    A closure tests only the products of the group's lowest-numbered member,
    and extensions come only from the products its members rated, so no
    node scans every reviewer or every product.
    Raises BudgetExceeded once more than ``cap`` candidates qualify.
    """
    reviewers = graph.reviewers
    products = graph.products
    # a group has at least one reviewer, whose products seed every closure
    if len(reviewers) < max(min_r, 1) or len(products) < min_p:
        return CandidateSet(())
    bit_of = {r: 1 << i for i, r in enumerate(reviewers)}
    item_of = {p: 1 << j for j, p in enumerate(products)}
    supporters = []
    for p in products:
        mask = 0
        for r in graph.reviewers_of(p):
            mask |= bit_of[r]
        supporters.append(mask)
    rated = []
    for r in reviewers:
        items = 0
        for p in graph.products_of(r):
            items |= item_of[p]
        rated.append(items)

    def closure(mask: int) -> int:
        # every product in the closure was rated by the lowest member
        closed = 0
        for j in _bits(rated[(mask & -mask).bit_length() - 1]):
            if supporters[j] & mask == mask:
                closed |= 1 << j
        return closed

    found: list[tuple[int, int]] = []
    full_mask = (1 << len(reviewers)) - 1
    stack = [(closure(full_mask), full_mask, 0)]
    while stack:
        closed, mask, start = stack.pop()
        if closed.bit_count() >= min_p and mask.bit_count() >= min_r:
            found.append((mask, closed))
            if len(found) > cap:
                raise BudgetExceeded(len(found), cap)
        # conditional database: products at or after start, not yet closed,
        # rated by some member (any other extension has no reviewers left)
        tail = 0
        for i in _bits(mask):
            tail |= rated[i]
        tail &= ~closed & ~((1 << start) - 1)
        for j in _bits(tail):
            extended = mask & supporters[j]
            if extended.bit_count() < min_r:
                continue
            new_closed = closure(extended)
            # canonical extension: the closure may only add products at or
            # beyond j, otherwise this set is reached via a smaller prefix
            if new_closed & ~closed & ((1 << j) - 1):
                continue
            stack.append((new_closed, extended, j + 1))

    out = []
    for mask, closed in found:
        rs = [reviewers[i] for i in _bits(mask)]
        ps = [products[j] for j in _bits(closed)]
        out.append(Biclique.from_graph(rs, ps, graph))
    return CandidateSet(out)


def collusive_fragment_screen(config: DetectionConfig) -> Callable[[Biclique], bool]:
    """Retention test for merged fragments: value and time similarity both
    at least delta. A single-member fragment trivially agrees with itself,
    so its value similarity counts as 1."""

    def passes(fragment: Biclique) -> bool:
        if len(fragment.reviewers) >= 2:
            if group_value_similarity(fragment) < config.delta:
                return False
        return group_time_similarity(fragment, config.max_tw) >= config.delta

    return passes


def _merge(a: Biclique, b: Biclique, graph: RatingGraph) -> Biclique | None:
    """Union two fragments' relation sets; None if the union is not a
    complete rectangle."""
    rs = set(a.reviewers) | set(b.reviewers)
    ps = set(a.products) | set(b.products)
    shared_r = len(set(a.reviewers) & set(b.reviewers))
    shared_p = len(set(a.products) & set(b.products))
    union_edges = (len(a.reviewers) * len(a.products)
                   + len(b.reviewers) * len(b.products)
                   - shared_r * shared_p)
    if union_edges != len(rs) * len(ps):
        return None
    return Biclique.from_graph(rs, ps, graph)


def find_sub_bicliques(parent: Biclique, graph: RatingGraph,
                       config: DetectionConfig,
                       screen: Callable[[Biclique], bool] | None = None,
                       ) -> list[Biclique]:
    """Mine collusive sub-groups of one rectangle bottom-up.

    Generation zero is one fragment per rating. Each round merges every
    fragment pair whose relation union is itself a complete rectangle and
    passes the screen; fragments that took part in no surviving merge are
    final and are emitted when they meet the size floors. The parent itself
    is never emitted.
    """
    if screen is None:
        screen = collusive_fragment_screen(config)
    current: list[Biclique] = [Biclique.from_graph((e.reviewer,), (e.product,), graph)
                               for e in parent.edges]
    emitted: dict = {}
    generated = len(current)
    verdict: dict = {}

    def passes(frag: Biclique) -> bool:
        key = frag.key
        if key not in verdict:
            verdict[key] = screen(frag)
        return verdict[key]

    while current:
        n = len(current)
        merged_into_next: dict = {}
        processed = [False] * n
        for i in range(n - 1):
            for j in range(i + 1, n):
                frag = _merge(current[i], current[j], graph)
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
