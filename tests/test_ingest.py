"""Ingest behaviour: parsing, pruning to a fixed point, and collapsing
repeated opinions into dated edges with their spamicity."""

import json
import random
from datetime import date, timedelta

import pytest

from bcscan.ingest import (ParseError, RawRating, build_graph, ingest_ratings,
                           parse_log, prune)
from bcscan.model import DetectionConfig

from testutil import reference_build_graph, reference_prune


def rr(reviewer, product, value, iso):
    return RawRating(reviewer, product, float(value), date.fromisoformat(iso))


class TestParseLog:
    def test_csv_line(self):
        records, errors = parse_log(["u1,p1,5,2004-03-01"])
        assert errors == []
        assert records == [rr("u1", "p1", 5, "2004-03-01")]

    def test_jsonl_line(self):
        line = '{"reviewer": "u1", "product": "p1", "value": 4.5, "date": "2004-03-01"}'
        records, errors = parse_log([line], fmt="jsonl")
        assert errors == []
        assert records[0].value == 4.5

    def test_jsonl_ids_are_strings_or_numbers_and_values_not_bools(self):
        def line(**fields):
            return json.dumps({"reviewer": "u1", "product": "p1", "value": 4,
                               "date": "2004-03-01", **fields})

        lines = [line(reviewer=None), line(product=["p1"]), line(value=True),
                 line(reviewer=True), line(product={"id": "p1"}),
                 line(reviewer=17, product=2.5), line(value="4.5"), line(value=10 ** 400)]
        records, errors = parse_log(lines, fmt="jsonl")
        assert records == [rr("17", "2.5", 4, "2004-03-01"),
                           rr("u1", "p1", 4.5, "2004-03-01")]
        assert [(e.line_no, e.reason) for e in errors] == [
            (1, "reviewer id must be a string or a number, got None"),
            (2, "product id must be a string or a number, got ['p1']"),
            (3, "value must be a number, got True"),
            (4, "reviewer id must be a string or a number, got True"),
            (5, "product id must be a string or a number, got {'id': 'p1'}"),
            (8, "value is an integer too large for a float")]

    def test_only_plain_iso_dates_parse_on_every_python(self):
        # Python 3.11's date.fromisoformat also reads these ISO 8601 forms,
        # 3.10's does not; a log must ingest the same on both
        lines = ["u1,p1,5,20040301", "u2,p1,4,2004-W10-1", "u3,p1,4,2004-03-01",
                 "u4,p1,4,2004-03-01T00:00", "u5,p1,4,20040301",
                 '{"reviewer": "u6", "product": "p1", "value": 4, "date": 20040301}']
        records, errors = parse_log(lines[:5])
        assert records == [rr("u3", "p1", 4, "2004-03-01")]
        assert [(e.line_no, e.reason) for e in errors] == [
            (1, "Invalid isoformat string: '20040301'"),
            (2, "Invalid isoformat string: '2004-W10-1'"),
            (4, "Invalid isoformat string: '2004-03-01T00:00'"),
            (5, "Invalid isoformat string: '20040301'")]
        _, errors = parse_log(lines[5:], fmt="jsonl")
        assert [e.reason for e in errors] == ["Invalid isoformat string: '20040301'"]

    def test_value_out_of_range(self):
        records, errors = parse_log(["u1,p1,9,2004-03-01"], max_value=5.0)
        assert records == []
        assert len(errors) == 1 and errors[0].line_no == 1
        assert "outside" in errors[0].reason

    def test_malformed_lines_collected_with_numbers(self):
        lines = ["u1,p1,5,2004-03-01",
                 "garbage",
                 "u2,p1,4,not-a-date",
                 "",
                 "u3,p1,3,2004-03-02"]
        records, errors = parse_log(lines)
        assert [r.reviewer for r in records] == ["u1", "u3"]
        assert [e.line_no for e in errors] == [2, 3]

    def test_strict_raises_first_error(self):
        with pytest.raises(ParseError) as exc:
            parse_log(["u1,p1,5,2004-03-01", "nope"], strict=True)
        assert exc.value.line_no == 2

    def test_repeated_dates_parse_alike_and_each_bad_one_fails(self):
        # valid dates repeat, and one invalid date recurs on several lines
        rng = random.Random(7)
        days = ["2004-03-01", "2004-03-02", "2005-12-31", "2004-02-30", "2004-3-01"]
        lines = [f"u{rng.randrange(5)},p{rng.randrange(5)},{rng.randint(1, 5)},"
                 f"{rng.choice(days)}" for _ in range(300)]
        records, errors = parse_log(lines)
        expected, expected_errors = [], []
        for line_no, line in enumerate(lines, 1):
            reviewer, product, value, day = line.split(",")
            try:
                expected.append(RawRating(reviewer, product, float(value),
                                          date.fromisoformat(day)))
            except ValueError as exc:
                expected_errors.append((line_no, str(exc)))
        assert records == expected
        assert [(e.line_no, e.reason) for e in errors] == expected_errors
        assert len({reason for _, reason in expected_errors}) == 2
        assert len(expected_errors) > 50
        with pytest.raises(ParseError) as exc:
            parse_log(lines, strict=True)
        assert exc.value.line_no == expected_errors[0][0]

    def test_quoted_csv_ids(self):
        records, _ = parse_log(['"last, first",p1,5,2004-03-01'])
        assert records[0].reviewer == "last, first"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            parse_log([], fmt="xml")


class TestPrune:
    def test_reviewer_below_threshold_removed(self):
        raw = [rr("thin", f"p{i}", 5, "2004-01-01") for i in range(9)]
        raw += [rr("busy", f"p{i}", 5, "2004-01-01") for i in range(10)]
        # make every product popular enough that only the reviewer rule bites
        raw += [rr(f"filler{k}", f"p{i}", 3, "2004-01-02")
                for i in range(10) for k in range(10)]
        kept = prune(raw, reviewer_min=10, product_min=10)
        reviewers = {r.reviewer for r in kept}
        assert "thin" not in reviewers
        assert "busy" in reviewers

    def test_product_below_threshold_removed(self):
        raw = []
        for r in range(12):
            for p in range(12):
                raw.append(rr(f"u{r:02d}", f"p{p:02d}", 4, "2004-01-01"))
        raw.append(rr("u00", "lonely", 4, "2004-01-01"))
        kept = prune(raw, reviewer_min=10, product_min=10)
        assert all(k.product != "lonely" for k in kept)
        assert len(kept) == 144

    def test_cascade_reaches_fixed_point(self):
        # u-core reviewers each rate 10 popular products; "extra" only stays
        # popular thanks to a reviewer who loses their footing once a thin
        # product disappears
        raw = []
        for r in range(10):
            for p in range(10):
                raw.append(rr(f"u{r}", f"p{p}", 4, "2004-01-01"))
        hanger = [rr("hang", f"p{p}", 4, "2004-01-02") for p in range(9)]
        hanger.append(rr("hang", "thin", 4, "2004-01-02"))
        kept = prune(raw + hanger, reviewer_min=10, product_min=10)
        # "thin" has 1 rating -> dies; "hang" then has 9 products -> dies too
        assert {k.reviewer for k in kept} == {f"u{r}" for r in range(10)}
        assert len(kept) == 100

    def test_zero_thresholds_keep_everything(self):
        raw = [rr("u1", "p1", 5, "2004-01-01")]
        assert prune(raw, 0, 0) == raw

    def test_idempotent(self):
        rng = random.Random(5)
        raw = [rr(f"u{rng.randrange(8)}", f"p{rng.randrange(8)}",
                  rng.randint(1, 5), "2004-01-01") for _ in range(120)]
        once = prune(raw, 3, 3)
        assert prune(once, 3, 3) == once


    def test_matches_the_reference_prune(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 12)
            raw = [rr(f"u{rng.randrange(n)}", f"p{rng.randrange(n)}", rng.randint(1, 5),
                      "2004-01-01") for _ in range(rng.randint(0, 80))]
            floors = rng.randrange(5), rng.randrange(5)
            assert prune(raw, *floors) == reference_prune(raw, *floors)


class TestSpamicity:
    def test_casual_pairs_score_zero(self):
        g = build_graph([rr("u1", "p1", 5, "2004-01-01"), rr("u1", "p1", 4, "2004-01-02"),
                         rr("u2", "p1", 3, "2004-01-01")])
        assert g.edge("u1", "p1").spamicity == 0.0
        assert g.edge("u2", "p1").spamicity == 0.0

    def test_heavy_pair_scores_its_share(self):
        raw = [rr("u1", "p1", 5, "2004-01-01")] * 5
        raw += [rr(f"u{k}", "p1", 3, "2004-01-01") for k in range(2, 17)]
        g = build_graph(raw)
        assert g.edge("u1", "p1").spamicity == 0.25
        assert g.edge("u2", "p1").spamicity == 0.0

    def test_single_rating_zero(self):
        g = build_graph([rr("u1", "p1", 5, "2004-01-01")])
        assert g.edge("u1", "p1").spamicity == 0.0


class TestNormalizeTime:
    def test_offsets_from_earliest(self):
        g = build_graph([rr("u1", "p1", 5, "2004-01-31"), rr("u2", "p1", 4, "2004-01-01")])
        assert g.epoch == date(2004, 1, 1)
        assert g.edge("u2", "p1").time == 0
        assert g.edge("u1", "p1").time == 30

    def test_single_rating_is_day_zero(self):
        g = build_graph([rr("u1", "p1", 5, "2004-06-15")])
        assert g.epoch == date(2004, 6, 15)
        assert g.edge("u1", "p1").time == 0


class TestCollapse:
    def test_last_posting_wins(self):
        g = build_graph([rr("u1", "p1", 2, "2004-01-03"), rr("u1", "p1", 5, "2004-01-09"),
                         rr("u1", "p1", 3, "2004-01-05"), rr("u2", "p1", 4, "2004-01-01")])
        winner = g.edge("u1", "p1")
        assert winner.value == 5.0
        assert winner.time == 8  # days after 2004-01-01

    def test_same_day_tie_breaks_by_input_order(self):
        raw = [rr("u1", "p1", 2, "2004-01-05"), rr("u1", "p1", 4, "2004-01-05")]
        assert build_graph(raw).edge("u1", "p1").value == 4.0
        assert build_graph(raw[::-1]).edge("u1", "p1").value == 2.0

    def test_spamicity_attached_to_surviving_edge(self):
        raw = [rr("u1", "p1", 5, f"2004-01-0{d}") for d in range(1, 5)]
        raw += [rr(f"u{k}", "p1", 3, "2004-01-01") for k in range(2, 8)]
        g = build_graph(raw)
        assert g.edge("u1", "p1").spamicity == pytest.approx(0.4)
        assert g.edge("u1", "p1").time == 3
        assert g.edge("u2", "p1").spamicity == 0.0

    def test_no_duplicates_is_identity_shaped(self):
        g = build_graph([rr("u1", "p1", 5, "2004-01-01"), rr("u2", "p2", 3, "2004-01-04")])
        assert [(e.reviewer, e.product, e.value, e.time) for e in g.edges()] == \
            [("u1", "p1", 5.0, 0), ("u2", "p2", 3.0, 3)]


def random_log(rng: random.Random) -> list[RawRating]:
    """A small log whose pairs are posted 1-6 times, on dates drawn out of
    order from a short span so that same-day repeats are common."""
    day0 = date(2004, 1, 1) + timedelta(days=rng.randrange(400))
    pairs = [(f"u{r}", f"p{p}") for r in range(6) for p in range(5)]
    raw = []
    for reviewer, product in rng.sample(pairs, rng.randint(1, 20)):
        for _ in range(rng.randint(1, 6)):
            raw.append(RawRating(reviewer, product, float(rng.randint(1, 5)),
                                 day0 + timedelta(days=rng.randrange(8))))
    rng.shuffle(raw)
    return raw


def test_build_graph_matches_the_reference_collapse():
    rng = random.Random(2024)
    for _ in range(200):
        raw = random_log(rng)
        max_value = rng.choice((5.0, 10.0))
        assert build_graph(raw, max_value).snapshot() == \
            reference_build_graph(raw, max_value).snapshot()


def test_build_graph_sets_epoch_and_collapses():
    raw = [rr("u1", "p1", 5, "2004-02-01"), rr("u1", "p1", 3, "2004-02-10"),
           rr("u2", "p1", 4, "2004-02-05")]
    g = build_graph(raw)
    assert g.epoch == date(2004, 2, 1)
    assert len(g) == 2
    assert g.edge("u1", "p1").value == 3.0


def test_ingest_pipeline_applies_config():
    cfg = DetectionConfig(prune_reviewer_min=1, prune_product_min=2)
    raw = [rr("u1", "p1", 5, "2004-01-01"), rr("u2", "p1", 4, "2004-01-02"),
           rr("u3", "lone", 5, "2004-01-01")]
    g = ingest_ratings(raw, cfg)
    assert g.products == ("p1",)
    floors = {"prune_reviewer_min": 1, "prune_product_min": 2}
    assert g.settings == {"max_value": 5.0, **floors}
    empty = ingest_ratings([], cfg)
    assert empty.reviewers == () and empty.epoch is None
    assert empty.settings == g.settings


def test_ingest_deterministic():
    rng = random.Random(11)
    raw = [rr(f"u{rng.randrange(20)}", f"p{rng.randrange(10)}", rng.randint(1, 5),
              (date(2004, 1, 1) + timedelta(days=rng.randrange(90))).isoformat())
           for _ in range(400)]
    cfg = DetectionConfig(prune_reviewer_min=2, prune_product_min=2)
    assert ingest_ratings(raw, cfg).snapshot() == ingest_ratings(list(raw), cfg).snapshot()
