"""Core domain types: rating edges, the bipartite rating graph, bicliques,
per-group indicator reports and the detection configuration.

Values are checked where they enter from outside the program and trusted
inside it: an edge and a config check themselves when built, a snapshot's
header as it loads, and a report only in ``IndicatorReport.from_dict``.
"""

from __future__ import annotations

import json
import json.scanner
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from datetime import date
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import fsum, isfinite
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

DEFAULT_MAX_VALUE = 5.0
# the ingest settings a graph records besides its scale: its pruning floors
PRUNE_FLOORS = ("prune_reviewer_min", "prune_product_min")
WEIGHT_TOLERANCE = 1e-9


class BcscanError(Exception):
    """Base class for every error this package raises on purpose. The
    failure rule: one raised by bad input is also a ValueError, on which the
    CLI exits 3; QuerySyntaxError exits 2 and any other error exits 1."""


class DuplicateEdge(BcscanError, ValueError):
    """A (reviewer, product) pair appeared twice while building a graph.

    Duplicate opinions must be collapsed during ingest; the graph itself
    never accepts them.
    """

    def __init__(self, reviewer: str, product: str):
        super().__init__(f"duplicate edge for ({reviewer!r}, {product!r})")
        self.reviewer = reviewer
        self.product = product


class MissingEdge(BcscanError, ValueError):
    """A requested group is not a complete rectangle in the graph."""

    def __init__(self, reviewer: str, product: str):
        super().__init__(f"no rating by {reviewer!r} on {product!r}")
        self.reviewer = reviewer
        self.product = product


class BadWeights(BcscanError, ValueError):
    """Indicator weights must be four non-negative reals summing to 1."""


def validate_weights(weights: Iterable) -> tuple[float, float, float, float]:
    """Check a weight vector and return it as a 4-tuple of floats. Items are
    numbers (see ``_as_float``) or numeric text; any other is BadWeights too."""
    try:
        ws = tuple(w if w.__class__ is float else float(w) if isinstance(w, str)
                   else _as_float("weight", w) for w in weights)
    except (TypeError, ValueError):
        raise BadWeights(f"weights must be numbers, got {weights!r}") from None
    if len(ws) != 4:
        raise BadWeights(f"expected 4 weights, got {len(ws)}")
    if any(not isfinite(w) or w < 0.0 for w in ws):
        raise BadWeights(f"weights must be non-negative reals: {ws}")
    total = fsum(ws)
    if abs(total - 1.0) > WEIGHT_TOLERANCE:
        raise BadWeights(f"weights sum to {total!r}, expected 1.0")
    return ws


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str) -> date:
    """A YYYY-MM-DD date. Any other text is a ValueError with the message
    Python 3.10's ``date.fromisoformat`` gives, also the other ISO 8601
    forms (20040301, 2004-W10-1) that Python 3.11's reads as dates."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


def json_objects(rows: list, kind: str) -> Iterator[dict]:
    """Each row of a JSON list, checked to be a JSON object: ValueError
    "<kind> N is not a JSON object" (N counted from 1) otherwise."""
    if not isinstance(rows, list):
        raise ValueError(f"{kind}s are not in a JSON list")
    for n, row in enumerate(rows, 1):
        if not isinstance(row, dict):
            raise ValueError(f"{kind} {n} is not a JSON object")
        yield row


# json.loads without its per-call checks: the C scanner, which reads one
# JSON value starting at an index and returns it with the index after it
_scan = json.scanner.make_scanner(json.JSONDecoder())


def read_json_lines(lines: Iterable[str], kind: str) -> Iterator[dict]:
    """The JSON object on each non-blank line: ValueError "<kind> line N is
    not a JSON object" (N the line number) for any other JSON value, and
    "<kind> line N is nested too deeply to read" for a value that nests past
    the decoder's recursion limit.

    A line whose value ends exactly at the line's end (or before a final
    newline) is taken from the scanner. Any line the scanner cannot take
    whole, blank, padded, malformed or followed by more text, falls back to
    ``json.loads``, which skips it if blank and otherwise parses it or
    raises its own error for it, exactly as before the scanner was used.
    """
    n = 0
    try:
        for n, line in enumerate(lines, 1):
            try:
                record, end = _scan(line, 0)
            except (StopIteration, ValueError):
                whole = False
            else:
                whole = end == len(line) or line[end:] == "\n"
            if not whole:
                if not line.strip():
                    continue
                record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"{kind} line {n} is not a JSON object")
            yield record
    except RecursionError:
        raise ValueError(f"{kind} line {n} is nested too deeply to read") from None


def id_lists(rows: Sequence[Mapping], kind: str) -> Iterator[list[list[str]]]:
    """Yields the records' reviewers column, then their products column, each
    field checked to be a non-empty JSON list of strings: ValueError "<kind>
    <side> must be a non-empty list of ids, got ..." for the first that is
    not, and KeyError for a missing one. A column is checked whole before the
    next is read, and searched row by row only when it fails."""
    for side in ("reviewers", "products"):
        column = [row[side] for row in rows]
        if not ({*map(type, column)} <= {list} and all(column)
                and {*map(type, chain.from_iterable(column))} <= {str}):
            for ids in column:
                if not (ids.__class__ is list and ids
                        and all(i.__class__ is str for i in ids)):
                    raise ValueError(f"{kind} {side} must be a non-empty list of "
                                     f"ids, got {ids!r}")
        yield column


@contextmanager
def fields_of(kind: str):
    """Report a record field missing inside the block as a ValueError that
    names the kind of file or record being read."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{kind} has no {exc.args[0]!r} field") from None


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(name: str, value) -> float:
    """A JSON number as a float; ValueError for anything else, bools too."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


class _EdgeFields(NamedTuple):
    reviewer: str
    product: str
    value: float
    time: int
    spamicity: float = 0.0


class RatingEdge(_EdgeFields):
    """One collapsed rating: reviewer -> product with value, day and spamicity.

    The ids are non-empty strings (ValueError otherwise, so an id read as a
    JSON number cannot reach a graph that sorts its ids). ``time`` is a day
    offset from the log epoch, ``spamicity`` the share of the product's raw
    ratings contributed by this pair (0 unless the pair posted more than
    twice). ``value`` and ``spamicity`` are stored as
    floats and ``time`` must be an int, so a snapshot writes every edge in
    one form. An edge is a named tuple: immutable, hashable, indexable, and
    equal to the plain tuple of its five fields.
    """

    __slots__ = ()

    def __new__(cls, reviewer: str, product: str, value: float, time: int,
                spamicity: float = 0.0):
        if reviewer.__class__ is not str or product.__class__ is not str:
            for side, ident in (("reviewer", reviewer), ("product", product)):
                if not isinstance(ident, str):
                    raise ValueError(f"{side} id must be a string, got {ident!r}")
        if not reviewer or not product:
            raise ValueError("reviewer and product ids must be non-empty")
        if value.__class__ is not float:
            value = _as_float("rating value", value)
        if not isfinite(value) or value < 1.0:
            raise ValueError(f"rating value must be >= 1, got {value!r}")
        if time.__class__ is not int:
            if isinstance(time, bool) or not isinstance(time, int):
                raise ValueError(f"time must be an integer day offset, got {time!r}")
            time = int(time)
        if time < 0:
            raise ValueError(f"time must be a non-negative day offset, got {time!r}")
        if spamicity.__class__ is not float:
            spamicity = _as_float("spamicity", spamicity)
        if not 0.0 <= spamicity <= 1.0:
            raise ValueError(f"spamicity must lie in [0, 1], got {spamicity!r}")
        return tuple.__new__(cls, (reviewer, product, value, time, spamicity))

    @classmethod
    def _make(cls, iterable) -> "RatingEdge":
        # _replace builds through _make, so both run the checks above
        return cls(*iterable)


class RatingGraph:
    """Immutable bipartite reviewer/product graph indexed both ways.

    Construction rejects duplicate (reviewer, product) pairs and values above
    ``max_value``. ``floors`` holds the pruning floors the ratings passed,
    when ingest recorded them. Every row (a reviewer's ratings) and every
    column (a product's ratings) is stored once in lexicographic order, so
    listings and snapshots come out in a reproducible order without sorting
    again.
    """

    __slots__ = ("_by_reviewer", "_by_product", "_reviewers", "_products",
                 "_max_value", "_epoch", "_floors", "_n_edges")

    def __init__(self, edges: Iterable[RatingEdge],
                 max_value: float = DEFAULT_MAX_VALUE,
                 epoch: date | None = None,
                 floors: Mapping[str, int] | None = None):
        rows: dict[str, dict[str, RatingEdge]] = {}
        n = 0
        for e in edges:
            if e.value > max_value:
                raise ValueError(
                    f"rating {e.value!r} by {e.reviewer!r} on {e.product!r} "
                    f"exceeds max_value={max_value!r}")
            row = rows.setdefault(e.reviewer, {})
            if e.product in row:
                raise DuplicateEdge(e.reviewer, e.product)
            row[e.product] = e
            n += 1
        self._reviewers = tuple(sorted(rows))
        # each row is sorted once; filling the columns in row order sorts them too
        by_r: dict[str, dict[str, RatingEdge]] = {}
        by_p: dict[str, dict[str, RatingEdge]] = {}
        for r in self._reviewers:
            by_r[r] = row = dict(sorted(rows[r].items()))
            for p, e in row.items():
                by_p.setdefault(p, {})[r] = e
        self._by_reviewer = by_r
        self._by_product = by_p
        self._products = tuple(sorted(by_p))
        self._max_value = _as_float("max_value", max_value)
        self._epoch = epoch
        self._floors = dict(floors or {})
        self._n_edges = n

    @property
    def reviewers(self) -> tuple[str, ...]:
        return self._reviewers

    @property
    def products(self) -> tuple[str, ...]:
        return self._products

    @property
    def max_value(self) -> float:
        return self._max_value

    @property
    def epoch(self) -> date | None:
        return self._epoch

    @property
    def settings(self) -> dict:
        """The DetectionConfig fields this graph was built with: its scale,
        and its pruning floors when they were recorded."""
        return {"max_value": self._max_value, **self._floors}

    def __len__(self) -> int:
        return self._n_edges

    def has_reviewer(self, reviewer: str) -> bool:
        return reviewer in self._by_reviewer

    def has_product(self, product: str) -> bool:
        return product in self._by_product

    def edge(self, reviewer: str, product: str) -> RatingEdge:
        return self._by_reviewer[reviewer][product]

    def products_of(self, reviewer: str) -> tuple[str, ...]:
        return tuple(self._by_reviewer[reviewer])

    def reviewers_of(self, product: str) -> tuple[str, ...]:
        return tuple(self._by_product[product])

    def edges_of_reviewer(self, reviewer: str) -> tuple[RatingEdge, ...]:
        return tuple(self._by_reviewer[reviewer].values())

    def edges_of_product(self, product: str) -> tuple[RatingEdge, ...]:
        return tuple(self._by_product[product].values())

    def edges(self) -> Iterator[RatingEdge]:
        for r in self._reviewers:
            yield from self._by_reviewer[r].values()

    # -- snapshot format ---------------------------------------------------
    # Line 1 is a header with the scale, the pruning floors (when recorded;
    # a header without them still loads) and the epoch; every further line
    # is one edge. The writer is canonical, so save -> load -> save is
    # byte-identical.

    def snapshot(self) -> str:
        header = {"max_value": self._max_value, **self._floors,
                  "epoch": self._epoch.isoformat() if self._epoch else None}
        lines = [json.dumps(header, separators=(",", ":"))]
        # Each edge line is the json.dumps text of {"r", "p", "v", "t", "s"}
        # with these separators, written directly: ids quoted by the function
        # json.dumps quotes with, and the repr of the edge's finite floats
        # and int, which is what json.dumps writes for them.
        quote = encode_basestring_ascii
        quoted = {p: quote(p) for p in self._products}
        for r in self._reviewers:
            head = '{"r":' + quote(r) + ',"p":'
            lines += [f'{head}{quoted[p]},"v":{e.value!r},"t":{e.time!r},'
                      f'"s":{e.spamicity!r}}}'
                      for p, e in self._by_reviewer[r].items()]
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.snapshot())

    @classmethod
    def loads(cls, text: str) -> "RatingGraph":
        records = read_json_lines(text.splitlines(), "snapshot")
        header = next(records, None)
        if header is None:
            raise ValueError("empty snapshot: header line missing")
        epoch = header.get("epoch")
        if epoch is not None and not isinstance(epoch, str):
            raise ValueError(f"snapshot epoch must be a date string or null, got {epoch!r}")
        epoch = iso_date(epoch) if epoch else None
        floors = {k: header[k] for k in PRUNE_FLOORS if k in header}
        with fields_of("snapshot"):
            max_value = header["max_value"]
            # checks the scale and the floors as detect's config does
            DetectionConfig(max_value=max_value, **floors)
            # the fields go in as read, so RatingEdge rejects a day that is
            # not an integer and a value or spamicity that is not a number
            edges = [RatingEdge(rec["r"], rec["p"], rec["v"], rec["t"], rec["s"])
                     for rec in records]
        return cls(edges, max_value=max_value, epoch=epoch, floors=floors)

    @classmethod
    def load(cls, path) -> "RatingGraph":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.loads(fp.read())


@dataclass(frozen=True)
class Biclique:
    """A complete reviewer x product rectangle of a rating graph.

    Identity (equality and hashing) is the pair of sorted id tuples, which
    ``key`` returns; groups are sorted by ``key``, not compared directly.
    The group keeps a reference to the graph it was checked against and
    reads its ratings from there; it holds no copy of them.
    """

    reviewers: tuple[str, ...]
    products: tuple[str, ...]
    graph: RatingGraph = field(compare=False, repr=False)

    @classmethod
    def from_graph(cls, reviewers: Iterable[str], products: Iterable[str],
                   graph: RatingGraph) -> "Biclique":
        """Build a biclique, checking completeness against the graph."""
        rs = tuple(sorted(set(reviewers)))
        ps = tuple(sorted(set(products)))
        if not rs or not ps:
            raise ValueError("a biclique needs at least one reviewer and one product")
        for r in rs:
            row = graph._by_reviewer.get(r, {})
            for p in ps:
                if p not in row:
                    raise MissingEdge(r, p)
        return cls(rs, ps, graph)

    @property
    def key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return (self.reviewers, self.products)

    @property
    def edges(self) -> tuple[RatingEdge, ...]:
        """The group's ratings, row by row (reviewer-major)."""
        rows = self.graph._by_reviewer
        return tuple(rows[r][p] for r in self.reviewers for p in self.products)

    def edge(self, reviewer: str, product: str) -> RatingEdge:
        if reviewer not in self.reviewers or product not in self.products:
            raise ValueError(f"({reviewer!r}, {product!r}) is outside this group")
        return self.graph.edge(reviewer, product)

    def values_of(self, reviewer: str) -> tuple[float, ...]:
        """The reviewer's rating vector over this group's products."""
        if reviewer not in self.reviewers:
            raise ValueError(f"reviewer {reviewer!r} is outside this group")
        row = self.graph._by_reviewer[reviewer]
        return tuple(row[p].value for p in self.products)

    def edges_on(self, product: str) -> tuple[RatingEdge, ...]:
        if product not in self.products:
            raise ValueError(f"product {product!r} is outside this group")
        col = self.graph._by_product[product]
        return tuple(col[r] for r in self.reviewers)

    def value_rows(self) -> list[list[float]]:
        """Every member's rating vector over the group's products, in
        reviewer order; the whole-group form of ``values_of``."""
        products = self.products
        rows = self.graph._by_reviewer
        return [[row[p].value for p in products]
                for row in map(rows.__getitem__, self.reviewers)]

    def posting_times(self) -> list[list[int]]:
        """The members' posting days on each of the group's products, in
        product order; the whole-group form of ``edges_on``."""
        reviewers = self.reviewers
        columns = self.graph._by_product
        return [[col[r].time for r in reviewers]
                for col in map(columns.__getitem__, self.products)]

    def to_dict(self) -> dict:
        return {"reviewers": list(self.reviewers), "products": list(self.products)}


class IndicatorReport(NamedTuple):
    """The six group indicators plus their two aggregates, each a number in
    [0, 1].

    A report is a named tuple, like RatingEdge, but built unchecked: the
    program computes its fields in range, so only ``from_dict``, the way in
    from a file, checks them.
    """

    gvs: float   # group value similarity: min pairwise rating-vector cosine
    gts: float   # group time similarity: tightest per-product posting window
    grs: float   # group rating spamicity: value-weighted duplicate share
    gms: float   # group member suspiciousness: share of globally flagged members
    gs: float    # group size relative to the largest examined group
    gps: float   # group target-set size relative to the largest examined
    doc: float   # degree of collusiveness: weighted sum of the first four
    di: float    # damaging impact: mean of gps and gs

    def quadruple(self) -> tuple[float, float, float, float]:
        return self[:4]

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, row: Mapping) -> "IndicatorReport":
        """A report from a record's eight fields, each checked to be a
        number (an int or a float, not a bool) in [0, 1]; ValueError
        otherwise, and KeyError for a missing field."""
        values = [row[name] for name in cls._fields]
        for name, v in zip(cls._fields, values):
            if v.__class__ is not float and not _is_number(v):
                raise ValueError(f"{name} must be a number, got {v!r}")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v!r} outside [0, 1]")
        return cls._make(values)


def scored_row(group: Biclique, rep: IndicatorReport) -> dict:
    """A scored group as one flat record: its ids plus its report."""
    return {**group.to_dict(), **rep.to_dict()}


@dataclass(frozen=True)
class DetectionConfig:
    """Run parameters shared across ingest, mining, scoring and queries.

    Construction checks every field, its JSON type first and then its
    range, so a config file or a result echo is checked here and nowhere
    else. An int field takes an int, a float field an int or a float.
    """

    min_r: int = 2                 # smallest group size worth examining
    min_p: int = 3                 # smallest co-rated product set
    max_tw: int = 30               # widest posting window (days) still suspicious
    delta: float = 0.4             # collusiveness threshold
    weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    prune_reviewer_min: int = 10   # min distinct products per kept reviewer
    prune_product_min: int = 10    # min raw ratings per kept product
    max_value: float = DEFAULT_MAX_VALUE
    # most candidates mined, and most fragments made while expanding one
    # group; bounds neither merge attempts nor time
    candidate_cap: int = 100_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "weights":
                ok = isinstance(value, (list, tuple)) and all(map(_is_number, value))
                what = "a list of numbers"
            elif isinstance(f.default, int):
                ok, what = _is_number(value) and isinstance(value, int), "an integer"
            else:
                ok, what = _is_number(value), "a number"
            if not ok:
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
        object.__setattr__(self, "weights", validate_weights(self.weights))
        if self.min_r < 2:
            raise ValueError(f"min_r must be >= 2, got {self.min_r}")
        if self.min_p < 2:
            raise ValueError(f"min_p must be >= 2, got {self.min_p}")
        if self.max_tw < 1:
            raise ValueError(f"max_tw must be a positive day count, got {self.max_tw}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if self.prune_reviewer_min < 0 or self.prune_product_min < 0:
            raise ValueError("prune thresholds must be non-negative")
        if not isfinite(_as_float("max_value", self.max_value)):
            # NaN passes every comparison below, and neither is JSON
            raise ValueError(f"max_value must be finite, got {self.max_value}")
        if self.max_value <= 1.0:
            raise ValueError(f"max_value must exceed 1, got {self.max_value}")
        if self.candidate_cap < 1:
            raise ValueError(f"candidate_cap must be positive, got {self.candidate_cap}")

    def to_dict(self) -> dict:
        return {**asdict(self), "weights": list(self.weights)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "DetectionConfig":
        """Build a config from the known keys of a mapping; others are ignored.
        ValueError if ``data`` is not a mapping."""
        if not isinstance(data, Mapping):
            raise ValueError("a config must be a JSON object")
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})
