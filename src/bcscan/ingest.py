"""Rating-log ingestion: parse raw lines, prune thin activity, and collapse
repeated opinions into graph edges that carry their pair's spamicity."""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter
from datetime import date
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .model import (BcscanError, DEFAULT_MAX_VALUE, PRUNE_FLOORS, DetectionConfig,
                    RatingEdge, RatingGraph, _as_float, iso_date)

log = logging.getLogger(__name__)


class ParseError(BcscanError):
    """A malformed log line, with its 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class RawRating(NamedTuple):
    """One log line before duplicate collapsing: a dated opinion. A named
    tuple: immutable, indexable, and equal to the plain tuple of its fields."""

    reviewer: str
    product: str
    value: float
    date: date


_PAIR = itemgetter(0, 1)    # a RawRating's (reviewer, product)
_REVIEWER, _PRODUCT = itemgetter(0), itemgetter(1)


def parse_log(lines: Iterable[str], fmt: str = "csv",
              max_value: float = DEFAULT_MAX_VALUE,
              strict: bool = False) -> tuple[list[RawRating], list[ParseError]]:
    """Parse a rating log into RawRating records.

    ``fmt`` is "csv" (reviewer,product,value,yyyy-mm-dd) or "jsonl" (objects
    with reviewer/product/value/date keys; an id is a string or a number, a
    value a number or numeric text, not a bool). A date must be YYYY-MM-DD
    on every Python (see ``iso_date``). Malformed lines are collected as
    ParseError values and skipped; under ``strict`` the first one is raised.
    Returns (records, errors).
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown log format {fmt!r}")
    records: list[RawRating] = []
    errors: list[ParseError] = []
    # a log has few distinct dates; only parsed ones are kept, so a bad
    # date fails again, with its own line number, on every line it is on
    dates: dict[str, date] = {}

    def fail(line_no: int, reason: str):
        err = ParseError(line_no, reason)
        if strict:
            raise err
        errors.append(err)

    for line_no, line in enumerate(lines, start=1):
        text = line.rstrip("\n")
        if not text.strip():
            continue
        try:
            if fmt == "csv":
                row = next(csv.reader([text]))
                if len(row) != 4:
                    raise ValueError(f"expected 4 fields, got {len(row)}")
                reviewer, product, value_s, date_s = map(str.strip, row)
            else:
                rec = json.loads(text)
                if not isinstance(rec, dict):
                    raise ValueError("expected a JSON object")
                missing = [k for k in ("reviewer", "product", "value", "date")
                           if k not in rec]
                if missing:
                    raise ValueError(f"missing keys: {', '.join(missing)}")
                reviewer, product = (_json_id(side, rec[side])
                                     for side in ("reviewer", "product"))
                value_s, date_s = rec["value"], str(rec["date"])
                if value_s.__class__ is not str:
                    value_s = _as_float("value", value_s)
            if not reviewer or not product:
                raise ValueError("empty reviewer or product id")
            value = float(value_s)
            if not 1.0 <= value <= max_value:
                raise ValueError(f"value {value!r} outside [1, {max_value}]")
            when = dates.get(date_s)
            if when is None:
                when = dates[date_s] = iso_date(date_s)
        except Exception as exc:
            fail(line_no, str(exc))
            continue
        records.append(RawRating(reviewer, product, value, when))
    if errors:
        log.warning("skipped %d malformed line(s) out of %d", len(errors), line_no)
    return records, errors


def _json_id(side: str, ident) -> str:
    """A JSONL log id as text: a string, or a number written as its text;
    ValueError for null, a bool, a list or an object."""
    if isinstance(ident, bool) or not isinstance(ident, (str, int, float)):
        raise ValueError(f"{side} id must be a string or a number, got {ident!r}")
    return str(ident)


def prune(raw: list[RawRating],
          reviewer_min: int = DetectionConfig.prune_reviewer_min,
          product_min: int = DetectionConfig.prune_product_min) -> list[RawRating]:
    """Drop thin activity until a joint fixed point.

    A reviewer survives with at least ``reviewer_min`` distinct rated
    products, a product with at least ``product_min`` raw ratings. Removing
    one side can starve the other, so the filter repeats until stable.
    Input order is preserved.
    """
    kept = list(raw)
    while kept:
        # distinct products per reviewer, and raw ratings per product
        breadth = Counter(map(_REVIEWER, set(map(_PAIR, kept))))
        ratings = Counter(map(_PRODUCT, kept))
        if min(breadth.values()) >= reviewer_min and min(ratings.values()) >= product_min:
            break
        kept = [rr for rr in kept
                if breadth[rr.reviewer] >= reviewer_min
                and ratings[rr.product] >= product_min]
    return kept


def build_graph(raw: list[RawRating], max_value: float = DEFAULT_MAX_VALUE,
                floors: Mapping[str, int] | None = None) -> RatingGraph:
    """Collapse an already-pruned rating list into a RatingGraph that records
    the pruning ``floors`` it passed, if given.

    Repeated opinions collapse into one edge per (reviewer, product): the
    chronologically last posting wins, and on a same-day tie the later
    line does. Edge times are day offsets from the earliest rating. A pair
    posted more than twice carries its share of the product's raw ratings
    as spamicity; posting once or twice is ordinary behaviour and scores 0.
    """
    if not raw:
        return RatingGraph([], max_value=max_value, floors=floors)
    epoch = min(rr.date for rr in raw)
    posts = Counter(map(_PAIR, raw))
    per_product = Counter(map(_PRODUCT, raw))
    last: dict[tuple[str, str], RawRating] = {}
    for rr in raw:
        pair = (rr.reviewer, rr.product)
        prev = last.get(pair)
        if prev is None or rr.date >= prev.date:
            last[pair] = rr
    edges = [RatingEdge(r, p, rr.value, (rr.date - epoch).days,
                        posts[r, p] / per_product[p] if posts[r, p] > 2 else 0.0)
             for (r, p), rr in last.items()]
    return RatingGraph(edges, max_value=max_value, epoch=epoch, floors=floors)


def ingest_ratings(raw: list[RawRating], config: DetectionConfig) -> RatingGraph:
    """Full ingest pipeline: prune thin activity, then collapse into a graph
    that records the pruning floors."""
    pruned = prune(raw, config.prune_reviewer_min, config.prune_product_min)
    if len(pruned) != len(raw):
        log.info("pruning kept %d of %d ratings", len(pruned), len(raw))
    return build_graph(pruned, max_value=config.max_value,
                       floors={k: getattr(config, k) for k in PRUNE_FLOORS})
