"""Shared test helpers: graph builders and brute-force oracles.

The oracles deliberately share no code with the package: maximal groups are
found by enumerating every reviewer subset, and sub-group screening by
enumerating every sub-rectangle. Slow but obviously correct, which is the
point.

``reference_enumerate_candidates`` is the package's earlier closed-set walk,
kept verbatim as a differential reference for the bitmask miner on graphs
far too large for the exponential oracle. ``reference_build_graph`` is the
earlier multi-step duplicate collapse (pair and product counts, spamicity,
a date-to-day map, last posting per pair), kept as a differential reference
for the one-pass ``build_graph``. ``reference_evaluate`` is the earlier
query evaluator, which rebuilt the report of every kept group with its
re-weighted DOC and sorted its matches, kept as a differential
reference for the one-pass ``query.evaluate``; ``reference_weighted_doc``
is the generator form of the DOC sum it used. ``reference_prune`` is the
earlier fixed-point prune, which rebuilt per-reviewer product sets on every
pass, and ``reference_snapshot`` the earlier snapshot writer, one
``json.dumps`` per edge; they are differential references for ``prune``
and ``RatingGraph.snapshot``. ``reference_read_json_lines`` is the earlier
line reader, one ``json.loads`` per non-blank line, kept as a differential
reference for the scanner-based ``read_json_lines``. The earlier group
indicators, which read each member's vector and each product's times
through the group's checked accessors and took the best window over the
products, are kept as ``reference_group_value_similarity``,
``reference_group_time_similarity`` and ``reference_group_rating_spamicity``
(with their ``reference_cosine`` and ``reference_product_time_window``
helpers), differential references for the row-reading indicators.
``reference_parse`` is the earlier query front end, which lexed one
``re.match`` and one ``_Token`` per token with its character position
before parsing, kept as a differential reference for the one-``findall``
``query.parse``.
"""

from __future__ import annotations

import itertools
import json
import logging
import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date
from math import fsum, sqrt
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from bcscan.detector import DetectionResult
from bcscan.indicators import GroupTooSmall
from bcscan.ingest import RawRating
from bcscan.mining import BudgetExceeded
from bcscan.model import (DEFAULT_MAX_VALUE, BadWeights, Biclique, DetectionConfig,
                          RatingEdge, RatingGraph, validate_weights)
from bcscan.query import (QueryAst, QueryResult, QuerySemanticError, QuerySyntaxError,
                          UnknownId)

log = logging.getLogger(__name__)


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
                                   cap: int = 100_000) -> list[Biclique]:
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
        return []
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
    return sorted(out, key=lambda b: b.key)


@dataclass(frozen=True)
class DuplicateStats:
    """Multiplicity counts over a raw (pre-collapse) rating list."""

    pair_counts: Mapping[tuple[str, str], int]
    product_counts: Mapping[str, int]

    @classmethod
    def from_ratings(cls, raw: Iterable[RawRating]) -> "DuplicateStats":
        pairs: Counter[tuple[str, str]] = Counter()
        products: Counter[str] = Counter()
        for rr in raw:
            pairs[(rr.reviewer, rr.product)] += 1
            products[rr.product] += 1
        return cls(dict(pairs), dict(products))


def compute_spamicity(stats: DuplicateStats, reviewer: str, product: str) -> float:
    """Share of the product's raw ratings posted by this pair.

    Posting once or twice is treated as ordinary behaviour and scores 0.
    """
    pair = stats.pair_counts.get((reviewer, product), 0)
    if pair <= 2:
        return 0.0
    return pair / stats.product_counts[product]


def normalize_time(raw: list[RawRating]) -> tuple[date, dict[date, int]]:
    """Map calendar dates to day offsets from the earliest rating."""
    if not raw:
        raise ValueError("cannot normalize an empty rating list")
    epoch = min(rr.date for rr in raw)
    mapping = {d: (d - epoch).days for d in {rr.date for rr in raw}}
    return epoch, mapping


def collapse_duplicates(raw: list[RawRating],
                        stats: DuplicateStats) -> list[RatingEdge]:
    """Collapse repeated opinions into one edge per (reviewer, product).

    The chronologically last posting wins (ties broken by input order, so a
    later line beats an earlier one on the same day). Edge times are day
    offsets from the epoch of ``raw`` and each edge carries the pair's
    spamicity from ``stats``.
    """
    if not raw:
        return []
    _, day_of = normalize_time(raw)
    last: dict[tuple[str, str], RawRating] = {}
    for rr in raw:
        key = (rr.reviewer, rr.product)
        prev = last.get(key)
        if prev is None or rr.date >= prev.date:
            last[key] = rr
    edges = []
    for reviewer, product in sorted(last):
        rr = last[(reviewer, product)]
        edges.append(RatingEdge(reviewer, product, rr.value, day_of[rr.date],
                                compute_spamicity(stats, reviewer, product)))
    return edges


def reference_build_graph(raw: list[RawRating],
                          max_value: float = DEFAULT_MAX_VALUE) -> RatingGraph:
    """Collapse an already-pruned rating list into a RatingGraph."""
    if not raw:
        return RatingGraph([], max_value=max_value)
    epoch = min(rr.date for rr in raw)
    stats = DuplicateStats.from_ratings(raw)
    return RatingGraph(collapse_duplicates(raw, stats),
                       max_value=max_value, epoch=epoch)


def reference_prune(raw: list[RawRating], reviewer_min: int = 10,
                    product_min: int = 10) -> list[RawRating]:
    """Drop thin activity until a joint fixed point.

    A reviewer survives with at least ``reviewer_min`` distinct rated
    products, a product with at least ``product_min`` raw ratings. Removing
    one side can starve the other, so the filter repeats until stable.
    Input order is preserved.
    """
    kept = list(raw)
    while True:
        products_by_reviewer: dict[str, set[str]] = defaultdict(set)
        ratings_per_product: Counter[str] = Counter()
        for rr in kept:
            products_by_reviewer[rr.reviewer].add(rr.product)
            ratings_per_product[rr.product] += 1
        survivors = [rr for rr in kept
                     if len(products_by_reviewer[rr.reviewer]) >= reviewer_min
                     and ratings_per_product[rr.product] >= product_min]
        if len(survivors) == len(kept):
            return survivors
        kept = survivors


def reference_snapshot(graph: RatingGraph) -> str:
    """A graph's snapshot text: a header line, then one JSON line per edge."""
    header = {"max_value": graph._max_value, **graph._floors,
              "epoch": graph._epoch.isoformat() if graph._epoch else None}
    lines = [json.dumps(header, separators=(",", ":"))]
    for e in graph.edges():
        lines.append(json.dumps(
            {"r": e.reviewer, "p": e.product, "v": e.value,
             "t": e.time, "s": e.spamicity},
            separators=(",", ":")))
    return "\n".join(lines) + "\n"


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


def reference_weighted_doc(quadruple: Sequence[float], weights: Sequence[float]) -> float:
    """DOC without the weight check, for weights validated once per call."""
    value = fsum(v * w for v, w in zip(quadruple, weights))
    return min(1.0, max(0.0, value))


def reference_evaluate(ast: QueryAst, graph: RatingGraph, config: DetectionConfig,
                       cache: DetectionResult, strict: bool = False) -> QueryResult:
    """Run a query against the detection result ``cache``.

    Query weights override the config's; DOC values are re-aggregated from
    the cached indicator quadruples, never re-mined. The effective DOC floor
    is the query's threshold, or delta when the query names none; matches
    must exceed it strictly.
    """
    weights = validate_weights(ast.weights if ast.weights is not None
                               else config.weights)
    floor = ast.doc_min if ast.doc_min is not None else config.delta

    warnings: list[str] = []
    for ids, known, side in ((ast.on or (), graph.products, "product"),
                             (ast.contains or (), graph.reviewers, "reviewer")):
        for ident in ids:
            if ident not in known:
                message = f"unknown {side} id {ident!r}"
                if strict:
                    raise UnknownId(message)
                warnings.append(message)
                log.warning("%s", message)

    on = set(ast.on) if ast.on else None
    contains = set(ast.contains) if ast.contains else None
    kept = []
    for group, rep in cache.scored:
        if on is not None and not on <= set(group.products):
            continue
        if contains is not None and not contains <= set(group.reviewers):
            continue
        doc = reference_weighted_doc(rep.quadruple(), weights)
        if doc > floor:
            kept.append((group, rep, doc))

    if ast.projection == "products":
        ids = sorted({p for group, _, _ in kept for p in group.products})
        return QueryResult("products", ids=tuple(ids), warnings=tuple(warnings))
    if ast.projection == "reviewers":
        ids = sorted({r for group, _, _ in kept for r in group.reviewers})
        return QueryResult("reviewers", ids=tuple(ids), warnings=tuple(warnings))
    # only the bicliques projection shows reports, re-weighted to the query
    kept.sort(key=lambda item: item[0].key)
    groups = tuple((group, rep._replace(doc=doc)) for group, rep, doc in kept)
    return QueryResult("bicliques", groups=groups, warnings=tuple(warnings))


def reference_read_json_lines(lines: Iterable[str], kind: str) -> Iterator[dict]:
    """The JSON object on each non-blank line: ValueError "<kind> line N is
    not a JSON object" (N the line number) for any other JSON value."""
    for n, line in enumerate(lines, 1):
        if line.strip():
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"{kind} line {n} is not a JSON object")
            yield record


def reference_cosine(a: Sequence[float], b: Sequence[float]) -> float:
    if tuple(a) == tuple(b):
        # sqrt rounding would otherwise report identical vectors as < 1
        return 1.0
    num = fsum(x * y for x, y in zip(a, b))
    den = sqrt(fsum(x * x for x in a)) * sqrt(fsum(y * y for y in b))
    # ratings are >= 1, so den > 0; clamp rounding spill above 1
    return min(1.0, num / den)


def reference_group_value_similarity(group: Biclique) -> float:
    """GVS: the worst (minimum) pairwise value similarity inside the group.

    One disagreeing member drags the whole group down, which is the point:
    colluders vote alike.
    """
    members = group.reviewers
    if len(members) < 2:
        raise GroupTooSmall("group value similarity needs >= 2 reviewers")
    vectors = [group.values_of(r) for r in members]
    return min(reference_cosine(vectors[i], vectors[j])
               for i in range(len(members) - 1)
               for j in range(i + 1, len(members)))


def reference_product_time_window(group: Biclique, product: str, max_tw: int) -> float:
    """Tightness of the group's posting window on one product.

    0 once the span exceeds ``max_tw`` days, otherwise 1 - span / max_tw.
    """
    times = [e.time for e in group.edges_on(product)]
    span = max(times) - min(times)
    if span > max_tw:
        return 0.0
    return 1.0 - span / max_tw


def reference_group_time_similarity(group: Biclique, max_tw: int) -> float:
    """GTS: the tightest posting window over the group's products."""
    return max(reference_product_time_window(group, p, max_tw) for p in group.products)


def reference_group_rating_spamicity(group: Biclique) -> float:
    """GRS: value-weighted average spamicity of the group's edges."""
    edges = group.edges
    total = fsum(e.value for e in edges)
    return fsum(e.value * e.spamicity for e in edges) / total


class _Token(NamedTuple):
    kind: str   # ident | number | string | punct | end
    text: str
    pos: int


_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<number>\d+(?:\.\d+)?|\.\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>'[^']*'|"[^"]*")
    | (?P<punct>[.,(){};>])
""", re.VERBOSE)


def _lex(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            if kind == "string":
                value = value[1:-1]
            tokens.append(_Token(kind, value, pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


_PROJECTIONS = {"products": "products", "product": "products",
                "reviewers": "reviewers", "reviewer": "reviewers"}
_ANY_PROJECTION = " or ".join(map(repr, _PROJECTIONS))
# filter clause word -> the QueryAst field it sets
_CLAUSES = {"on": "on", "contains": "contains", "contain": "contains", "DOC": "doc_min"}

_IDENT, _NUMBER, _PUNCT = ("ident",), ("number",), ("punct",)
_ID = ("ident", "string", "number")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def take(self, kinds: tuple[str, ...], want: str | None,
             texts: Sequence[str] = ()) -> _Token | None:
        """Consume the next token if its kind is in ``kinds`` and, when
        ``texts`` is given, its text is in ``texts`` (words, or a string of
        punctuation characters). Otherwise return None, or raise "expected
        <want>, found ..." when ``want`` names what belongs here."""
        tok = self.tokens[self.i]
        if tok.kind in kinds and (not texts or tok.text in texts):
            self.i += 1
            return tok
        if want is None:
            return None
        found = "end of input" if tok.kind == "end" else tok.text
        raise QuerySyntaxError(f"expected {want}, found {found!r}", tok.pos)

    def items(self, kinds: tuple[str, ...], want: str) -> list[str]:
        """The texts of a comma-separated list of one or more tokens."""
        texts = [self.take(kinds, want).text]
        while self.take(_PUNCT, None, ","):
            texts.append(self.take(kinds, want).text)
        return texts

    # -- grammar ----------------------------------------------------------

    def parse_query(self) -> QueryAst:
        take = self.take
        take(_IDENT, "'getbicliques'", ("getbicliques",))
        projection = "bicliques"
        if take(_PUNCT, None, "."):
            tok = take(_IDENT, _ANY_PROJECTION, _PROJECTIONS)
            projection = _PROJECTIONS[tok.text]
        take(_PUNCT, "'('", "(")
        weights = None
        if not take(_PUNCT, None, ")"):
            weights = self.items(_NUMBER, "a number")
            if len(weights) != 4:
                raise QuerySyntaxError(f"expected 4 weights, found {len(weights)}",
                                       self.tokens[self.i].pos)
            take(_PUNCT, "')'", ")")
        # one semicolon is tolerated before a filter block
        semicolon = take(_PUNCT, None, ";")
        clauses = self.parse_filter() if take(_IDENT, None, ("filter",)) else {}
        if clauses or not semicolon:
            take(_PUNCT, "';'", ";")
        tail = self.tokens[self.i]
        if tail.kind != "end":
            raise QuerySyntaxError(f"trailing input {tail.text!r}", tail.pos)
        # the semantic checks follow every syntax check
        if weights is not None:
            try:
                weights = validate_weights(weights)
            except BadWeights as exc:
                raise QuerySemanticError(str(exc)) from exc
        doc_min = clauses.get("doc_min")
        if doc_min is not None and not 0.0 <= doc_min <= 1.0:
            raise QuerySemanticError(f"DOC threshold {doc_min} outside [0, 1]")
        return QueryAst(projection, weights, **clauses)

    def parse_filter(self) -> dict:
        """The clauses of a filter block, by QueryAst field."""
        take = self.take
        take(_PUNCT, "'{'", "{")
        clauses = {}
        while not take(_PUNCT, None, "}"):
            word = take(_IDENT, "a filter clause", _CLAUSES).text
            if word == "DOC":
                take(_PUNCT, "'>'", ">")
                value = float(take(_NUMBER, "a number").text)
            else:
                take(_PUNCT, "'('", "(")
                value = tuple(self.items(_ID, "an id"))
                take(_PUNCT, "')'", ")")
            field = _CLAUSES[word]
            if field in clauses:
                label = "DOC" if word == "DOC" else f"{field}(...)"
                raise QuerySemanticError(f"duplicate {label} clause")
            clauses[field] = value
            take(_PUNCT, "';'", ";")
        if not clauses:
            raise QuerySyntaxError("empty filter block", self.tokens[self.i].pos)
        return clauses


def reference_parse(text: str) -> QueryAst:
    """Parse query text into an AST, then check its semantics."""
    return _Parser(_lex(text)).parse_query()
