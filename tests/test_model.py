"""Core type behaviour: edges, graph, biclique completeness, snapshots."""

import json
import random
import re
from datetime import date, timedelta

import pytest

import bcscan.model
from bcscan.cli import _read_jsonl
from bcscan.model import (BadWeights, Biclique, DetectionConfig, DuplicateEdge,
                          IndicatorReport, MissingEdge, RatingEdge, RatingGraph,
                          id_lists, read_json_lines, validate_weights)
from testutil import make_graph, reference_read_json_lines, reference_snapshot


def test_edge_validation():
    RatingEdge("u1", "p1", 1.0, 0)
    with pytest.raises(ValueError):
        RatingEdge("u1", "p1", 0.5, 0)
    with pytest.raises(ValueError):
        RatingEdge("u1", "p1", 3.0, -1)
    with pytest.raises(ValueError):
        RatingEdge("u1", "p1", 3.0, 0, spamicity=1.5)
    with pytest.raises(ValueError):
        RatingEdge("", "p1", 3.0, 0)


def test_edge_stores_floats_and_an_int_time():
    e = RatingEdge("a", "x", 5, 1, 0)
    assert (e.value, e.time, e.spamicity) == (5.0, 1, 0.0)
    assert type(e.value) is float and type(e.spamicity) is float
    assert type(RatingEdge("a", "x", 3.0, 2, 1).spamicity) is float
    for bad in ({"time": 1.5}, {"time": True}, {"time": "1"}, {"time": None},
                {"value": "5"}, {"value": True}, {"spamicity": False},
                {"spamicity": "0.5"}):
        fields = {"value": 5.0, "time": 1, "spamicity": 0.0, **bad}
        with pytest.raises(ValueError):
            RatingEdge("a", "x", **fields)


def test_edge_ids_must_be_strings():
    class Tag(str):
        pass

    assert RatingEdge(Tag("u1"), "p1", 4.0, 0).reviewer == "u1"
    for side, bad in (("reviewer", 5), ("reviewer", None), ("product", ["p1"]),
                      ("product", True), ("reviewer", b"u1")):
        ids = {"reviewer": "u1", "product": "p1", side: bad}
        with pytest.raises(ValueError, match=f"^{side} id must be a string, got "):
            RatingEdge(ids["reviewer"], ids["product"], 4.0, 0)


def test_edge_is_an_immutable_named_tuple():
    e = RatingEdge("u1", "p1", 4.0, 3, 0.5)
    assert e == ("u1", "p1", 4.0, 3, 0.5) and e[2] == 4.0
    assert e == RatingEdge("u1", "p1", 4.0, 3, 0.5)
    assert e != RatingEdge("u1", "p1", 4.0, 3)
    assert hash(e) == hash(("u1", "p1", 4.0, 3, 0.5))
    assert repr(e) == ("RatingEdge(reviewer='u1', product='p1', value=4.0, "
                       "time=3, spamicity=0.5)")
    with pytest.raises(AttributeError):
        e.value = 5.0
    with pytest.raises(AttributeError):
        e.extra = 1
    # _replace builds a checked edge too
    assert e._replace(time=4) == ("u1", "p1", 4.0, 4, 0.5)
    with pytest.raises(ValueError):
        e._replace(time=-1)


def test_graph_rejects_duplicate_pair():
    edges = [RatingEdge("u1", "p1", 5.0, 0), RatingEdge("u1", "p1", 4.0, 1)]
    with pytest.raises(DuplicateEdge):
        RatingGraph(edges)


def test_graph_rejects_value_above_scale():
    with pytest.raises(ValueError):
        RatingGraph([RatingEdge("u1", "p1", 4.5, 0)], max_value=4.0)


def test_graph_indexes_are_consistent():
    g = make_graph([("u2", "p1", 5, 0), ("u1", "p2", 3, 1), ("u1", "p1", 4, 2)])
    assert g.reviewers == ("u1", "u2")
    assert g.products == ("p1", "p2")
    assert len(g) == 3
    assert g.edge("u1", "p2").value == 3.0
    assert g.products_of("u1") == ("p1", "p2")
    assert g.reviewers_of("p1") == ("u1", "u2")
    # both indexes see the same edge objects
    assert g.edge("u1", "p1") is g.edges_of_product("p1")[0]
    assert [e.reviewer + e.product for e in g.edges()] == ["u1p1", "u1p2", "u2p1"]
    assert g.has_reviewer("u2") and g.has_product("p2")
    # each side answers for its own ids only
    assert not g.has_reviewer("p1") and not g.has_product("u1")
    assert not g.has_reviewer("u3") and not g.has_product("")


def test_biclique_requires_completeness():
    g = make_graph([("u1", "p1", 5, 0), ("u1", "p2", 5, 0),
                    ("u2", "p1", 4, 1)])
    b = Biclique.from_graph(["u1", "u2"], ["p1"], g)
    assert b.reviewers == ("u1", "u2")
    with pytest.raises(MissingEdge) as exc:
        Biclique.from_graph(["u1", "u2"], ["p1", "p2"], g)
    assert exc.value.reviewer == "u2" and exc.value.product == "p2"


def test_biclique_unknown_id_is_missing_edge():
    g = make_graph([("u1", "p1", 5, 0)])
    with pytest.raises(MissingEdge):
        Biclique.from_graph(["u1", "ghost"], ["p1"], g)


def test_biclique_canonical_identity():
    g = make_graph([("u1", "p1", 5, 0), ("u1", "p2", 4, 9),
                    ("u2", "p1", 3, 4), ("u2", "p2", 2, 1)])
    a = Biclique.from_graph(["u2", "u1"], ["p2", "p1"], g)
    b = Biclique.from_graph(["u1", "u2"], ["p1", "p2"], g)
    assert a == b
    assert a.key == (("u1", "u2"), ("p1", "p2"))
    assert a.values_of("u2") == (3.0, 2.0)
    assert a.edge("u1", "p2").value == 4.0
    assert [e.reviewer for e in a.edges_on("p1")] == ["u1", "u2"]
    assert a.value_rows() == [[5.0, 4.0], [3.0, 2.0]]
    assert a.posting_times() == [[0, 4], [9, 1]]
    assert a.edges == (g.edge("u1", "p1"), g.edge("u1", "p2"),
                       g.edge("u2", "p1"), g.edge("u2", "p2"))


def test_biclique_accessors_reject_ids_outside_the_group():
    g = make_graph([("u1", "p1", 5, 0), ("u1", "p2", 4, 0),
                    ("u2", "p1", 3, 0), ("u2", "p2", 2, 0)])
    b = Biclique.from_graph(["u1"], ["p1"], g)
    assert b.graph is g
    # u2 and p2 are in the graph, but not in the group
    for call in (lambda: b.edge("u2", "p1"), lambda: b.edge("u1", "p2"),
                 lambda: b.values_of("u2"), lambda: b.edges_on("p2")):
        with pytest.raises(ValueError):
            call()


def test_snapshot_round_trip_is_byte_identical(tmp_path):
    g = make_graph([("u1", "p1", 5, 0, 0.25), ("u2", "p1", 4.5, 3, 0.0),
                    ("u1", "p2", 1, 7, 0.0)],
                   epoch=__import__("datetime").date(2004, 1, 1))
    first = g.snapshot()
    again = RatingGraph.loads(first).snapshot()
    assert first == again
    path = tmp_path / "graph.jsonl"
    g.save(path)
    assert RatingGraph.load(path).snapshot() == first


def test_snapshot_round_trip_keeps_int_fields_as_floats():
    g = RatingGraph([RatingEdge("a", "x", 5, 1, 0), RatingEdge("b", "x", 2, 0, 1)])
    first = g.snapshot()
    assert first.splitlines()[1:] == ['{"r":"a","p":"x","v":5.0,"t":1,"s":0.0}',
                                      '{"r":"b","p":"x","v":2.0,"t":0,"s":1.0}']
    back = RatingGraph.loads(first)
    assert back.snapshot() == first
    assert list(back.edges()) == list(g.edges())


# every character class the JSON writer escapes, and some it does not
ID_CHARS = ['a', 'Z', '0', ' ', ',', '/', '"', '\\', '\x00', '\x1f', '\n', '\t',
            '\x7f', 'é', 'ß', '中', '\u2028', '🙂', '\ud800']


def random_id(rng: random.Random) -> str:
    return "".join(rng.choice(ID_CHARS) for _ in range(rng.randint(1, 6)))


def random_float(rng: random.Random, low: float, high: float) -> float:
    return rng.choice((low, high, rng.uniform(low, high),
                       float(rng.randint(int(low), int(high))),
                       low + (high - low) * 2.0 ** -rng.randint(1, 60)))


def test_snapshot_matches_the_reference_writer():
    rng = random.Random(1313)
    for _ in range(200):
        max_value = rng.choice((5.0, 10.0, 7.5, 1e6))
        rows = {}
        for _ in range(rng.randint(0, 40)):
            rows[random_id(rng), random_id(rng)] = (
                random_float(rng, 1.0, max_value),
                rng.choice((0, rng.randrange(400), rng.randrange(2 ** 70))),
                rng.choice((0.0, 1.0, 5e-324, random_float(rng, 0.0, 1.0))))
        epoch = rng.choice((None, date(2004, 1, 1) + timedelta(days=rng.randrange(4000))))
        floors = rng.choice((None, {"prune_reviewer_min": rng.randrange(20),
                                    "prune_product_min": rng.randrange(20)}))
        g = RatingGraph([RatingEdge(r, p, *rest) for (r, p), rest in rows.items()],
                        max_value=max_value, epoch=epoch, floors=floors)
        text = g.snapshot()
        assert text == reference_snapshot(g)
        assert RatingGraph.loads(text).snapshot() == text


def test_snapshot_preserves_scale_and_epoch():
    g = make_graph([("u1", "p1", 9, 2)], max_value=10.0)
    back = RatingGraph.loads(g.snapshot())
    assert back.max_value == 10.0
    assert back.epoch is None
    assert back.settings == {"max_value": 10.0}
    floors = {"prune_reviewer_min": 3, "prune_product_min": 2}
    recorded = RatingGraph(g.edges(), max_value=10.0, floors=floors)
    header = recorded.snapshot().splitlines()[0]
    assert header == ('{"max_value":10.0,"prune_reviewer_min":3,'
                      '"prune_product_min":2,"epoch":null}')
    assert RatingGraph.loads(recorded.snapshot()).settings == {"max_value": 10.0, **floors}


@pytest.mark.parametrize("value", ["x", True, 2.5, None, -1])
def test_snapshot_floors_are_checked_as_a_config_checks_them(value):
    g = make_graph([("u1", "p1", 4, 2)])
    for name in ("prune_reviewer_min", "prune_product_min"):
        text = RatingGraph(g.edges(), floors={name: value}).snapshot()
        with pytest.raises(ValueError) as expected:
            DetectionConfig(**{name: value})
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            RatingGraph.loads(text)


@pytest.mark.parametrize("value", [1.0, 0.5, 1])
def test_snapshot_scale_is_checked_as_a_config_checks_it(value):
    edges = [RatingEdge("u1", "p1", 1.0, 2)] if value >= 1 else []
    text = RatingGraph(edges, max_value=value).snapshot()
    with pytest.raises(ValueError, match="max_value must exceed 1"):
        RatingGraph.loads(text)


# edits of one snapshot edge line, each giving the lines that replace it
LINE_EDITS = {
    "canonical": lambda line: [line],
    "trailing-newline": lambda line: [line + "\n"],
    "leading-spaces": lambda line: ["  " + line],
    "trailing-spaces": lambda line: [line + "  "],
    "trailing-spaces-and-newline": lambda line: [line + " \n"],
    "byte-order-mark": lambda line: ["\ufeff" + line],
    "text-after-the-object": lambda line: [line + "x"],
    "empty-object-then-text": lambda line: ["{}x"],
    "two-objects": lambda line: ["{} {}"],
    "two-edges": lambda line: [line + " " + line],
    "form-feed-after-the-object": lambda line: [line + "\x0c"],
    "object-over-two-lines": lambda line: [line[:12], line[12:]],
    "a-list": lambda line: ["[1, 2]"],
    "a-string": lambda line: ['"x"'],
    "truncated": lambda line: [line[:-1]],
    "whitespace-only-lines": lambda line: [line, "", "   ", "\t", "\n", " \n"],
}


def _outcome(call):
    """What a call gives: its value, or the type and text of its ValueError."""
    try:
        return "value", call()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", list(LINE_EDITS))
def test_snapshot_lines_parse_as_json_loads_parses_them(case, monkeypatch):
    g = make_graph([("u1", "p1", 5, 0, 0.25), ("u2", "p1", 4.5, 3),
                    ("u2", "p2", 1, 7)], epoch=date(2004, 1, 1))
    header, first, *rest = g.snapshot().splitlines()
    lines = [header, *LINE_EDITS[case](first), *rest]
    # the reader on lines as a file gives them: newline kept where there is one
    assert _outcome(lambda: list(read_json_lines(lines, "snapshot"))) == \
        _outcome(lambda: list(reference_read_json_lines(lines, "snapshot")))
    # the whole loader on the text
    text = "\n".join(line.rstrip("\n") for line in lines) + "\n"
    got = _outcome(lambda: RatingGraph.loads(text).snapshot())
    monkeypatch.setattr(bcscan.model, "read_json_lines", reference_read_json_lines)
    assert got == _outcome(lambda: RatingGraph.loads(text).snapshot())


def test_candidate_jsonl_reads_as_json_loads_reads_it(tmp_path):
    path = tmp_path / "candidates.jsonl"
    rows = [{"products": ["p1", "p2"], "reviewers": ["u1", "u2"]},
            {"products": ["p3"], "reviewers": ["u\u2028", "v"]}]
    body = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows)
    for text in (body, body + "\n  \n", " " + body, body.replace("\n", "\r\n"),
                 body + "{}x\n", body + "[]\n", body[:-2]):
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fp:
            want = _outcome(lambda: list(reference_read_json_lines(fp, "candidate file")))
        assert _outcome(lambda: _read_jsonl(str(path), "candidate file")) == want
    path.write_text(body, encoding="utf-8")
    assert _read_jsonl(str(path), "candidate file") == rows


@pytest.mark.parametrize("ids", [5, "r1", [], None, True, ["r1", 2], [["r1"]],
                                 {"r1": 1}, ("r1",)])
def test_id_lists_names_the_first_list_that_is_not_one_of_ids(ids):
    for side in ("reviewers", "products"):
        rows = [{"reviewers": ["r1", "r2"], "products": ["p1"]},
                {"reviewers": ["r1"], "products": ["p1"], side: ids},
                {"reviewers": ["r1"], "products": ["p1"], side: 7}]
        with pytest.raises(ValueError) as exc:
            list(id_lists(rows, "result"))
        assert str(exc.value) == \
            f"result {side} must be a non-empty list of ids, got {ids!r}"


def test_id_lists_returns_each_row_list_as_read():
    rows = [{"reviewers": ["r1"], "products": ["p2", "p1", "p2"]},
            {"reviewers": ["r2", "r1"], "products": ["p1"]}]
    reviewers, products = id_lists(rows, "kind")
    assert reviewers == [["r1"], ["r2", "r1"]]
    assert products == [["p2", "p1", "p2"], ["p1"]]
    assert all(rs is row["reviewers"] and ps is row["products"]
               for rs, ps, row in zip(reviewers, products, rows))
    assert list(id_lists([], "kind")) == [[], []]
    with pytest.raises(KeyError):
        list(id_lists([{"reviewers": ["r1"]}], "kind"))


def test_id_lists_checks_the_reviewers_before_it_reads_the_products():
    # a file with both faults reports its reviewers, as the readers always did
    with pytest.raises(ValueError, match="kind reviewers must be a non-empty list"):
        list(id_lists([{"reviewers": 5}], "kind"))


def test_weights_validation():
    assert validate_weights([0.25, 0.25, 0.25, 0.25]) == (0.25,) * 4
    assert validate_weights((0.4, 0.3, 0.2, 0.1)) == (0.4, 0.3, 0.2, 0.1)
    with pytest.raises(BadWeights):
        validate_weights([0.5, 0.5, 0.1, 0.1])
    with pytest.raises(BadWeights):
        validate_weights([0.5, 0.5])
    with pytest.raises(BadWeights):
        validate_weights([1.2, -0.2, 0.0, 0.0])
    assert validate_weights("0.4,0.3,0.2,0.1".split(",")) == (0.4, 0.3, 0.2, 0.1)
    with pytest.raises(BadWeights):
        validate_weights("0.4,x,0.2,0.1".split(","))
    # a number too large for a float, or a bool, is not a weight
    for bad in ([10 ** 400, 0, 0, 0], [True, 0, 0, 0]):
        with pytest.raises(BadWeights, match="weights must be numbers"):
            validate_weights(bad)


def _report_row(*values) -> dict:
    return dict(zip(IndicatorReport._fields, values))


def test_indicator_report_bounds():
    rep = IndicatorReport.from_dict(_report_row(1, 0, 0.5, 0, 1, 1, 0.375, 1))
    assert rep == IndicatorReport(1, 0, 0.5, 0, 1, 1, 0.375, 1)
    assert rep.to_dict() == _report_row(1, 0, 0.5, 0, 1, 1, 0.375, 1)
    assert rep.quadruple() == (1, 0, 0.5, 0)
    for i, name in enumerate(IndicatorReport._fields):
        for value in (1.2, -0.1, float("nan")):
            fields = [0.5] * 8
            fields[i] = value
            with pytest.raises(ValueError, match=re.escape(f"{name}={value!r} outside")):
                IndicatorReport.from_dict(_report_row(*fields))


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
def test_indicator_report_fields_must_be_numbers(value):
    for i, name in enumerate(("gvs", "gts", "grs", "gms", "gs", "gps", "doc", "di")):
        fields = [0.5] * 8
        fields[i] = value
        with pytest.raises(ValueError,
                           match=re.escape(f"{name} must be a number, got {value!r}")):
            IndicatorReport.from_dict(_report_row(*fields))


def test_config_defaults_and_echo():
    cfg = DetectionConfig()
    assert (cfg.min_r, cfg.min_p) == (2, 3)
    assert cfg.delta == 0.4
    assert cfg.weights == (0.25, 0.25, 0.25, 0.25)
    assert cfg.max_tw == 30
    assert (cfg.prune_reviewer_min, cfg.prune_product_min) == (10, 10)
    assert cfg.candidate_cap == 100_000
    assert DetectionConfig.from_dict(cfg.to_dict()) == cfg
    echo = cfg.to_dict()
    assert echo["weights"] == [0.25, 0.25, 0.25, 0.25]
    assert list(echo) == ["min_r", "min_p", "max_tw", "delta", "weights",
                          "prune_reviewer_min", "prune_product_min",
                          "max_value", "candidate_cap"]
    # unknown keys, such as a result file's other fields, are ignored
    assert DetectionConfig.from_dict({**echo, "delta": 0.3, "scored": []}) \
        == DetectionConfig(delta=0.3)


def test_config_validation():
    with pytest.raises(ValueError):
        DetectionConfig(min_r=1)
    with pytest.raises(ValueError):
        DetectionConfig(min_p=1)
    with pytest.raises(ValueError):
        DetectionConfig(delta=1.5)
    with pytest.raises(BadWeights):
        DetectionConfig(weights=(0.3, 0.3, 0.3, 0.3))
    with pytest.raises(ValueError):
        DetectionConfig(max_tw=0)
    # each field's JSON type is checked before its range
    for bad in ({"delta": "0.5"}, {"min_r": 2.5}, {"candidate_cap": True},
                {"weights": "0.25,0.25,0.25,0.25"}, {"weights": ["1", 0, 0, 0]}):
        with pytest.raises(ValueError):
            DetectionConfig(**bad)
    assert DetectionConfig(delta=0, max_value=10).max_value == 10
    with pytest.raises(ValueError):
        DetectionConfig.from_dict([])
