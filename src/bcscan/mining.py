"""Candidate group mining.

``enumerate_candidates`` lists every maximal complete reviewer x product
rectangle meeting the size floors: take any qualifying product set, the
reviewers are exactly those who rated all of it, and neither side can be
grown without losing completeness. This is closed-itemset enumeration,
walked LCM-style over one side of the graph: over reviewer sets when the
product floor is the larger (the default 2/3), over product sets otherwise.
Each closed set on one side has exactly one partner set on the other, so
both walks find the same groups; the walked side is the one whose extensions
the larger floor prunes. A node holds its walked set as a bitmask and its
partners as a set of numbers. Extending it by one walked item intersects
the partners with that item's holders; the closure is the AND of the
remaining partners' bitmasks. A node is extended only by items that at
least the partner floor's count of its partners hold, since any other item
leaves too few partners.

``find_sub_bicliques`` searches inside one rectangle for tighter sub-groups
by merging single ratings bottom-up, keeping only merges that still look
collusive.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Callable, Iterator, Sequence

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


def _held_at_least(k: int, masks: Iterator[int]) -> int:
    """The bits set in at least ``k`` of ``masks``, for ``k`` from 1 to 3:
    one running OR per count."""
    if k <= 1:
        return reduce(or_, masks, 0)
    once = twice = 0
    if k == 2:
        for items in masks:
            twice |= once & items
            once |= items
        return twice
    thrice = 0
    for items in masks:
        thrice |= twice & items
        twice |= once & items
        once |= items
    return thrice


def _closed_sets(holders: Sequence[str], items: Sequence[str],
                 items_of: Callable[[str], Sequence[str]],
                 min_holders: int, min_items: int,
                 cap: int) -> list[tuple[frozenset, int]]:
    """Every closed item set held by >= min_holders holders and holding
    >= min_items items, as (holder numbers, item bitmask) pairs.

    Holders and items are numbered in the given order. A node of the walk
    is a closed item set, held as a bitmask, and its holders, held as a set
    of numbers. The walk extends a node one item at a time and keeps an
    extension only when its closure adds no item before the one just added,
    so every closed set is visited exactly once. An extension's holders are
    the node's holders of the new item, one set intersection; its closure
    is the AND of those holders' item bitmasks. Only items at least
    ``min_holders`` of the node's holders hold are tried, since an extension
    by any other item keeps too few holders.
    Raises BudgetExceeded once more than ``cap`` sets qualify.
    """
    number = {x: j for j, x in enumerate(items)}
    bit = [1 << j for j in range(len(items))]
    holders_of: list[list[int]] = [[] for _ in items]
    holds = []
    for t, h in enumerate(holders):
        mask = 0
        for x in items_of(h):
            j = number[x]
            mask |= bit[j]
            holders_of[j].append(t)
        holds.append(mask)
    held_by = [frozenset(ts) for ts in holders_of]
    holding = holds.__getitem__

    found: list[tuple[frozenset, int]] = []
    stack = [(reduce(and_, holds), frozenset(range(len(holders))), 0)]
    while stack:
        closed, members, start = stack.pop()
        if len(members) >= min_holders and closed.bit_count() >= min_items:
            found.append((members, closed))
            if len(found) > cap:
                raise BudgetExceeded(len(found), cap)
        # conditional database: items at or after start, not yet closed,
        # held by enough of the node's holders (counted up to three, which
        # is what pays; a deeper floor is checked on the extension); any
        # other item leaves too few holders
        tail = (_held_at_least(min(min_holders, 3), map(holding, members))
                & ~closed & -(1 << start))
        while tail:
            low = tail & -tail
            tail ^= low
            extended = members & held_by[low.bit_length() - 1]
            if len(extended) < min_holders:
                continue
            new_closed = reduce(and_, map(holding, extended))
            # canonical extension: the closure may only add items at or
            # beyond this one, otherwise this set is reached via a smaller prefix
            if new_closed & ~closed & (low - 1):
                continue
            stack.append((new_closed, extended, low.bit_length()))
    return found


def enumerate_candidates(graph: RatingGraph, min_r: int = DetectionConfig.min_r,
                         min_p: int = DetectionConfig.min_p,
                         cap: int = DetectionConfig.candidate_cap) -> list[Biclique]:
    """Enumerate all maximal bicliques with >= min_r reviewers and >= min_p
    products, in key order.

    The closed-set walk (``_closed_sets``) runs over reviewer sets, with
    products as holders, when ``min_p > min_r``, and over product sets, with
    reviewers as holders, otherwise. Either way a node is extended only by
    items that at least the partner side's floor of its holders hold: with
    the default floors, reviewers who rated three of the node's products.
    Both walks visit each qualifying group once, so the groups and the
    ``BudgetExceeded`` count are the same whichever side is walked.
    Both floors must be at least 1 (``DetectionConfig`` requires 2): the
    root's closure is the AND over every holder, so each side needs one.
    Raises ValueError for a floor below 1, and BudgetExceeded once more than
    ``cap`` candidates qualify.
    """
    if min_r < 1 or min_p < 1:
        raise ValueError(f"mining floors must be at least 1, got {min_r}/{min_p}")
    reviewers = graph.reviewers
    products = graph.products
    if len(reviewers) < min_r or len(products) < min_p:
        return []
    if min_p > min_r:
        pairs = [(list(_bits(closed)), sorted(members)) for members, closed in
                 _closed_sets(products, reviewers, graph.reviewers_of,
                              min_p, min_r, cap)]
    else:
        pairs = [(sorted(members), list(_bits(closed))) for members, closed in
                 _closed_sets(reviewers, products, graph.products_of,
                              min_r, min_p, cap)]
    # both sides are numbered in sorted order, so sorting the number lists
    # puts the groups in key order; each pair is a complete rectangle of the
    # graph by construction, so the groups need no completeness check
    pairs.sort()
    return [Biclique(tuple(map(reviewers.__getitem__, rs)),
                     tuple(map(products.__getitem__, ps)), graph)
            for rs, ps in pairs]


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
