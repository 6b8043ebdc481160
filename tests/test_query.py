"""Query language: lexing, parsing, rendering, evaluation."""

import random
from dataclasses import replace
from math import fsum

import pytest

from bcscan import synth
from bcscan.detector import (DOCS_KEPT, DetectionResult, _weighted_doc, detect,
                             score_cohort)
from bcscan.ingest import ingest_ratings
from bcscan.model import (BadWeights, Biclique, DetectionConfig, IndicatorReport,
                          RatingGraph)
from bcscan.query import (QueryAst, QuerySemanticError, QuerySyntaxError,
                          UnknownId, evaluate, parse, pretty)
from testutil import make_graph, reference_evaluate, reference_weighted_doc


class TestParse:
    def test_bare_query(self):
        assert parse("getbicliques();") == QueryAst()

    def test_doc_filter(self):
        ast = parse("getbicliques() filter{ DOC > 0.7; };")
        assert ast == QueryAst(doc_min=0.7)

    def test_custom_weights(self):
        ast = parse("getbicliques(0.4, 0.2, 0.2, 0.2);")
        assert ast.weights == (0.4, 0.2, 0.2, 0.2)
        assert ast.projection == "bicliques"

    def test_product_projection_with_member_filter(self):
        ast = parse("getbicliques.products(0.25,0.25,0.25,0.25);"
                    " filter{ contains('Jack', 'Jhon'); };")
        assert ast.projection == "products"
        assert ast.weights == (0.25, 0.25, 0.25, 0.25)
        assert ast.contains == ("Jack", "Jhon")
        assert ast.on is None and ast.doc_min is None

    def test_reviewer_projection_with_target_filter(self):
        ast = parse("getbicliques.reviewers(0.25,0.25,0.25,0.25);"
                    " filter{ on('Book1', 'DVD2'); };")
        assert ast.projection == "reviewers"
        assert ast.on == ("Book1", "DVD2")

    def test_all_clauses_together(self):
        ast = parse("getbicliques(0.4,0.3,0.2,0.1)"
                    " filter{ on('p1'); contains('r1'); DOC > 0.5; };")
        assert ast == QueryAst("bicliques", (0.4, 0.3, 0.2, 0.1),
                               ("p1",), ("r1",), 0.5)

    def test_singular_projection_aliases(self):
        assert parse("getbicliques.product();").projection == "products"
        assert parse("getbicliques.reviewer();").projection == "reviewers"

    def test_contain_alias(self):
        assert parse("getbicliques() filter{ contain(x); };").contains == ("x",)

    def test_id_spellings(self):
        ast = parse('getbicliques() filter{ on("a b", c_d, 42); };')
        assert ast.on == ("a b", "c_d", "42")

    def test_whitespace_and_newlines(self):
        ast = parse("getbicliques ( 0.25 ,0.25, 0.25,0.25 )\n"
                    "filter {\n  DOC > 0.9 ;\n} ;")
        assert ast.weights == (0.25,) * 4 and ast.doc_min == 0.9

    def test_semicolon_before_filter_is_tolerated_once(self):
        a = parse("getbicliques(); filter{ DOC > 0.5; };")
        b = parse("getbicliques() filter{ DOC > 0.5; };")
        assert a == b


class TestParseErrors:
    @pytest.mark.parametrize("text", [
        "getbicliques()",                     # missing terminator
        "getbicliques(;",                     # unclosed weights
        "getbicliques(0.25,0.25,0.25);",      # three weights
        "getbicliques(0.2,0.2,0.2,0.2,0.2);", # five weights
        "getbicliques.edges();",              # unknown projection
        "getbicliques() filter{};",           # empty filter block
        "getbicliques() filter{ near(x); };", # unknown clause
        "getbicliques() filter{ DOC > ; };",  # missing number
        "getbicliques() filter{ on(); };",    # empty id list
        "getbicliques(); getbicliques();",    # trailing input
        "getbicliques();;",                   # stray second terminator
        "findbicliques();",                   # wrong verb
        "getbicliques() filter{ DOC < 0.5; };",  # unsupported comparison
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(QuerySyntaxError):
            parse(text)

    def test_unlexable_character_reports_position(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse("getbicliques($);")
        assert err.value.position == 13
        assert "position 13" in str(err.value)

    def test_missing_paren_reports_position(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse("getbicliques;")
        assert err.value.position == 12

    @pytest.mark.parametrize("text", [
        "getbicliques(0.5,0.5,0.5,0.5);",       # weights sum to 2
        "getbicliques() filter{ DOC > 1.5; };",  # threshold above 1
        "getbicliques() filter{ DOC > 0.2; DOC > 0.4; };",
        "getbicliques() filter{ on(a); on(b); };",
        "getbicliques() filter{ contains(a); contain(b); };",
    ])
    def test_semantic_errors(self, text):
        with pytest.raises(QuerySemanticError):
            parse(text)


# Malformed queries: the text, the exception, its exact message and, for a
# syntax error, the character position it reports.
MALFORMED_QUERIES = [
    ("", QuerySyntaxError,
     "expected 'getbicliques', found 'end of input' (at position 0)", 0),
    ("findbicliques();", QuerySyntaxError,
     "expected 'getbicliques', found 'findbicliques' (at position 0)", 0),
    ("getbicliques.();", QuerySyntaxError,
     "expected 'products' or 'product' or 'reviewers' or 'reviewer', found '('"
     " (at position 13)", 13),
    ("getbicliques;", QuerySyntaxError, "expected '(', found ';' (at position 12)", 12),
    ("getbicliques()", QuerySyntaxError,
     "expected ';', found 'end of input' (at position 14)", 14),
    ("getbicliques(;", QuerySyntaxError,
     "expected a number, found ';' (at position 13)", 13),
    ("getbicliques(0.25 0.25);", QuerySyntaxError,
     "expected 4 weights, found 1 (at position 18)", 18),
    ("getbicliques();;", QuerySyntaxError, "trailing input ';' (at position 15)", 15),
    ("getbicliques(); 'filter'{ DOC > 0.5; };", QuerySyntaxError,
     "trailing input 'filter' (at position 16)", 16),
    ("getbicliques() filter{};", QuerySyntaxError, "empty filter block (at position 23)", 23),
    ("getbicliques() filter{ near(x); };", QuerySyntaxError,
     "expected a filter clause, found 'near' (at position 23)", 23),
    ("getbicliques() filter{ DOC > 0.5;", QuerySyntaxError,
     "expected a filter clause, found 'end of input' (at position 33)", 33),
    ("getbicliques() filter{ on(a,); };", QuerySyntaxError,
     "expected an id, found ')' (at position 28)", 28),
    ("getbicliques() filter{ on(a) };", QuerySyntaxError,
     "expected ';', found '}' (at position 29)", 29),
    # syntax errors come before the weight and DOC range checks ...
    ("getbicliques(0.5,0.5,0.5,0.5) filter{ DOC > 0.2 };", QuerySyntaxError,
     "expected ';', found '}' (at position 48)", 48),
    ("getbicliques(0.5,0.5,0.5,0.5) filter{ DOC > 1.5; };", QuerySemanticError,
     "weights sum to 2.0, expected 1.0", None),
    # ... but a duplicate clause is reported where it is read
    ("getbicliques() filter{ DOC > 0.2; DOC > 0.4 };", QuerySemanticError,
     "duplicate DOC clause", None),
    ("getbicliques() filter{ DOC > 1.5; DOC > 2; };", QuerySemanticError,
     "duplicate DOC clause", None),
    ("getbicliques() filter{ contains(a); contain(b); };", QuerySemanticError,
     "duplicate contains(...) clause", None),
]


@pytest.mark.parametrize("text,error,message,position", MALFORMED_QUERIES)
def test_malformed_query_error_and_position(text, error, message, position):
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position


class TestPretty:
    def test_canonical_forms(self):
        assert pretty(QueryAst()) == "getbicliques();"
        assert pretty(QueryAst(doc_min=0.7)) == \
            "getbicliques() filter{ DOC > 0.7; };"
        ast = QueryAst("reviewers", (0.25, 0.25, 0.25, 0.25), ("Book1", "DVD2"))
        assert pretty(ast) == ("getbicliques.reviewers(0.25,0.25,0.25,0.25)"
                               " filter{ on('Book1','DVD2'); };")

    def test_double_quote_fallback(self):
        ast = QueryAst(contains=("O'Brien",))
        assert '"O\'Brien"' in pretty(ast)
        assert parse(pretty(ast)).contains == ("O'Brien",)

    def test_round_trip_random_asts(self):
        rng = random.Random(4242)
        alphabet = "abcdefghij0123456789_ -"
        def rand_id():
            return "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 8))).strip() or "x"
        def rand_ids():
            return tuple(rand_id() for _ in range(rng.randint(1, 3)))
        for _ in range(300):
            parts = [rng.randint(0, 10) for _ in range(4)]
            total = sum(parts)
            weights = tuple(p / total for p in parts) if total else None
            ast = QueryAst(
                projection=rng.choice(["bicliques", "products", "reviewers"]),
                weights=weights if rng.random() < 0.7 else None,
                on=rand_ids() if rng.random() < 0.5 else None,
                contains=rand_ids() if rng.random() < 0.5 else None,
                doc_min=rng.randint(0, 100) / 100 if rng.random() < 0.5 else None,
            )
            assert parse(pretty(ast)) == ast


def five_block_fixture():
    """Five disjoint unanimous groups plus a cache whose four behavioural
    indicators are equal within each group, making DOC weight-independent."""
    docs = [0.598, 0.37, 0.45, 0.056, 0.121]
    rows = []
    for i in range(5):
        for r in (f"g{i}ra", f"g{i}rb"):
            for p in (f"g{i}p0", f"g{i}p1", f"g{i}p2"):
                rows.append((r, p, 5, 0))
    graph = make_graph(rows)
    scored = []
    for i, v in enumerate(docs):
        b = Biclique.from_graph((f"g{i}ra", f"g{i}rb"),
                                (f"g{i}p0", f"g{i}p1", f"g{i}p2"), graph)
        scored.append((b, IndicatorReport(v, v, v, v, 1.0, 1.0, v, 1.0)))
    scored.sort(key=lambda pair: pair[0].key)
    cache = DetectionResult(tuple(scored), 0, DetectionConfig())
    return graph, cache


class TestEvaluate:
    def test_doc_floor_is_strict_and_weight_proof_on_flat_groups(self):
        graph, cache = five_block_fixture()
        result = evaluate(parse("getbicliques() filter{ DOC > 0.7; };"),
                          graph, cache.config, cache)
        assert result.groups == ()
        # same question under skewed weights: still empty, the four
        # behavioural indicators agree within every group
        skewed = evaluate(parse("getbicliques(0.7,0.1,0.1,0.1)"
                                " filter{ DOC > 0.7; };"),
                          graph, cache.config, cache)
        assert skewed.groups == ()

    def test_integer_floors_compare_as_numbers(self):
        graph, cache = five_block_fixture()
        assert evaluate(QueryAst(doc_min=1), graph, cache.config, cache).groups == ()
        config = replace(cache.config, delta=1)
        assert evaluate(QueryAst(), graph, config, cache).groups == ()
        assert len(evaluate(QueryAst(doc_min=0), graph, config, cache).groups) == 5

    def test_default_floor_is_config_delta(self):
        graph, cache = five_block_fixture()
        result = evaluate(parse("getbicliques();"), graph, cache.config, cache)
        docs = sorted(rep.doc for _, rep in result.groups)
        assert docs == [0.45, 0.598]

    def test_results_in_canonical_order(self):
        graph, cache = five_block_fixture()
        result = evaluate(parse("getbicliques() filter{ DOC > 0.0; };"),
                          graph, cache.config, cache)
        keys = [b.key for b, _ in result.groups]
        assert keys == sorted(keys) and len(keys) == 5

    def test_weights_change_membership(self):
        rows = [(r, p, v, t) for r, v, t in
                (("r1", 5, 0), ("r2", 5, 3)) for p in ("p1", "p2", "p3")]
        graph = make_graph(rows)
        b = Biclique.from_graph(("r1", "r2"), ("p1", "p2", "p3"), graph)
        rep = IndicatorReport(0.8, 0.6, 0.4, 0.2, 1.0, 1.0, 0.5, 1.0)
        cache = DetectionResult(((b, rep),), 0, DetectionConfig())
        floor_55 = "filter{ DOC > 0.55; };"
        assert evaluate(parse(f"getbicliques() {floor_55}"),
                        graph, cache.config, cache).groups == ()
        kept = evaluate(parse(f"getbicliques(0.4,0.3,0.2,0.1) {floor_55}"),
                        graph, cache.config, cache).groups
        assert len(kept) == 1
        assert kept[0][1].doc == pytest.approx(0.6, abs=1e-9)
        # the cached report is untouched
        assert cache.scored[0][1].doc == 0.5

    def test_on_requires_every_listed_product(self):
        graph, cache = five_block_fixture()
        hit = evaluate(parse("getbicliques()"
                             " filter{ on(g0p0, g0p2); DOC > 0.0; };"),
                       graph, cache.config, cache)
        assert [b.key for b, _ in hit.groups] == \
            [(("g0ra", "g0rb"), ("g0p0", "g0p1", "g0p2"))]
        miss = evaluate(parse("getbicliques()"
                              " filter{ on(g0p0, g1p0); DOC > 0.0; };"),
                        graph, cache.config, cache)
        assert miss.groups == ()

    def test_contains_requires_every_listed_member(self):
        graph, cache = five_block_fixture()
        hit = evaluate(parse("getbicliques()"
                             " filter{ contains(g2ra, g2rb); DOC > 0.0; };"),
                       graph, cache.config, cache)
        assert len(hit.groups) == 1
        miss = evaluate(parse("getbicliques()"
                              " filter{ contains(g2ra, g3ra); DOC > 0.0; };"),
                        graph, cache.config, cache)
        assert miss.groups == ()

    def test_projections_collect_sorted_unions(self):
        graph, cache = five_block_fixture()
        prods = evaluate(parse("getbicliques.products();"),
                         graph, cache.config, cache)
        assert prods.ids == ("g0p0", "g0p1", "g0p2", "g2p0", "g2p1", "g2p2")
        revs = evaluate(parse("getbicliques.reviewers();"),
                        graph, cache.config, cache)
        assert revs.ids == ("g0ra", "g0rb", "g2ra", "g2rb")

    def test_unknown_ids_warn_by_default_and_raise_in_strict_mode(self):
        graph, cache = five_block_fixture()
        ast = parse("getbicliques() filter{ on(nosuch); };")
        result = evaluate(ast, graph, cache.config, cache)
        assert result.groups == ()
        assert any("nosuch" in w for w in result.warnings)
        with pytest.raises(UnknownId):
            evaluate(ast, graph, cache.config, cache, strict=True)

    def test_bad_weights_raise_even_over_an_empty_cache(self):
        graph, _ = five_block_fixture()
        config = DetectionConfig()
        empty = DetectionResult((), 0, config)
        with pytest.raises(BadWeights):
            evaluate(QueryAst(weights=(0.5, 0.5, 0.5, 0.5)), graph, config,
                     cache=empty)

    def test_to_dict_shapes(self):
        graph, cache = five_block_fixture()
        d = evaluate(parse("getbicliques();"), graph, cache.config, cache).to_dict()
        assert d["projection"] == "bicliques"
        assert {"reviewers", "products", "doc"} <= set(d["groups"][0])
        assert "warnings" not in d
        p = evaluate(parse("getbicliques.products() filter{ on(zzz); };"),
                     graph, cache.config, cache).to_dict()
        assert p["ids"] == [] and p["warnings"]


SESSION_WEIGHTS = [(0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4)]


@pytest.fixture(scope="module")
def sessions():
    """Seeded synthetic detection results, one per set of session weights:
    (graph, config, cache) triples."""
    out = []
    for seed, weights in enumerate(SESSION_WEIGHTS, start=1):
        dataset = synth.generate(200, 40, 0.1, [synth.AttackScript()] * 3, seed=seed)
        config = DetectionConfig(prune_reviewer_min=1, prune_product_min=1,
                                 weights=weights, delta=0.3)
        graph = ingest_ratings(list(dataset.raw), config)
        cache = detect(graph, config)
        assert len(cache.scored) >= 20
        out.append((graph, cache.config, cache))
    return out


class TestNoCopy:
    def test_session_weights_return_the_cached_reports(self, sessions):
        for graph, config, cache in sessions:
            cached = {pair[0].key: pair for pair in cache.scored}
            for ast in (QueryAst(doc_min=0.0), QueryAst(weights=config.weights)):
                groups = evaluate(ast, graph, config, cache).groups
                assert groups
                assert all(pair is cached[pair[0].key] for pair in groups)

    def test_reweighted_query_builds_new_reports_and_leaves_the_cache(self, sessions):
        # the hand-written result's first, third and fifth groups have equal
        # indicators, so no weight vector moves their DOC
        flat = {"gvs": 0.5, "gts": 0.5, "grs": 0.5, "gms": 0.5, "gs": 1.0,
                "gps": 1.0, "doc": 0.5, "di": 1.0}
        skewed = {**flat, "gvs": 0.9, "gms": 0.1}
        mixed_graph, mixed = _hand_written([flat, skewed, flat, skewed, flat])
        changed = kept = 0
        for graph, config, cache in [*sessions, (mixed_graph, mixed.config, mixed)]:
            before = [(b.key, rep.to_dict()) for b, rep in cache.scored]
            cached = {pair[0].key: pair for pair in cache.scored}
            weights = next(w for w in SESSION_WEIGHTS if w != config.weights)
            groups = evaluate(QueryAst(weights=weights, doc_min=0.0),
                              graph, config, cache).groups
            assert len(groups) == len(cache.scored)
            for pair in groups:
                b, rep = pair
                old_pair = cached[b.key]
                old = old_pair[1]
                assert rep.doc == _weighted_doc(old.quadruple(), weights)
                assert {**rep.to_dict(), "doc": None} == {**old.to_dict(), "doc": None}
                if rep.doc != old.doc:
                    assert pair is not old_pair and rep is not old
                    assert b is old_pair[0]
                    changed += 1
                else:
                    assert pair is old_pair
                    kept += 1
            assert [(b.key, rep.to_dict()) for b, rep in cache.scored] == before
        assert changed > kept == 3


def test_every_built_report_passes_the_load_check(sessions):
    """Reports are built unchecked; every one that ``detect``,
    ``score_cohort`` and a re-weighted ``evaluate`` build must pass the
    check a report read from a file gets, and every result must load."""
    for graph, config, cache in sessions:
        cohort = score_cohort(graph, [b for b, _ in cache.scored], config)
        reweighted = [pair for weights in MEMO_WEIGHTS for pair in evaluate(
            QueryAst(weights=weights, doc_min=0.0), graph, config, cache).groups]
        for _, rep in (*cache.scored, *cohort, *reweighted):
            assert IndicatorReport.from_dict(rep.to_dict()) == rep
        assert DetectionResult.from_dict(cache.to_dict(), graph).to_dict() \
            == cache.to_dict()


def _random_query(rng: random.Random, graph, config, cache) -> QueryAst:
    """A query over ``cache``: any projection; the session weights, their
    explicit copy or other weights; ``on``/``contains`` drawn from a cached
    group with repeats and unknown ids, either clause or both, and at times
    with ids from a second group too, so that every id is known but their
    posting lists may not meet; no DOC floor, a random one, or one set
    exactly to a group's DOC under the query's weights."""
    weights = rng.choice([None, config.weights, *SESSION_WEIGHTS])
    group, rep = rng.choice(cache.scored)
    other, _ = rng.choice(cache.scored)

    def ids(pool, other_pool, known):
        if rng.random() < 0.5:
            return None
        picked = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            picked.append(rng.choice(other_pool))
        if rng.random() < 0.3:
            picked.append(rng.choice(known))
        if rng.random() < 0.2:
            picked.append("no-such-id")
        return tuple(picked)

    floor = rng.random()
    if floor < 0.3:
        doc_min = None
    elif floor < 0.7:
        doc_min = _weighted_doc(rep.quadruple(), weights or config.weights)
    else:
        doc_min = rng.randint(0, 100) / 100
    return QueryAst(rng.choice(["bicliques", "products", "reviewers"]), weights,
                    ids(group.products, other.products, graph.products),
                    ids(group.reviewers, other.reviewers, graph.reviewers), doc_min)


def _assert_matches_reference(ast, graph, config, cache):
    got = evaluate(ast, graph, config, cache)
    want = reference_evaluate(ast, graph, config, cache)
    assert got.projection == want.projection
    assert [(b.key, rep.to_dict()) for b, rep in got.groups] == \
        [(b.key, rep.to_dict()) for b, rep in want.groups]
    assert got.ids == want.ids
    assert got.warnings == want.warnings


def test_evaluate_matches_the_reference_evaluator(sessions):
    rng = random.Random(1212)
    boundary_hits = 0
    for graph, config, cache in sessions:
        for _ in range(300):
            ast = _random_query(rng, graph, config, cache)
            _assert_matches_reference(ast, graph, config, cache)
            weights = ast.weights or config.weights
            boundary_hits += any(_weighted_doc(rep.quadruple(), weights) == ast.doc_min
                                 for _, rep in cache.scored)
    assert boundary_hits > 100


# ten distinct weight vectors, more than a result keeps DOC columns for
MEMO_WEIGHTS = [*SESSION_WEIGHTS, (0.7, 0.1, 0.1, 0.1), (0.1, 0.7, 0.1, 0.1),
                (0.1, 0.1, 0.7, 0.1), (0.1, 0.1, 0.1, 0.7), (0.5, 0.5, 0.0, 0.0),
                (0.0, 0.0, 0.5, 0.5), (1.0, 0.0, 0.0, 0.0)]


class TestDocMemo:
    def test_answers_match_the_reference_as_weights_repeat_and_interleave(self, sessions):
        rng = random.Random(2024)
        for graph, config, shared in sessions:
            cache = replace(shared)   # a fresh memo, whatever ran before
            # repeats and interleavings, every vector once past the bound,
            # then the first ones again after they have been dropped
            order = [0, 1, 0, 2, 1, 0, None, 3, None, *range(10), 0, 1, None, 9, 0]
            for i in order:
                weights = None if i is None else MEMO_WEIGHTS[i]
                for projection in ("bicliques", "products", "reviewers"):
                    ast = _random_query(rng, graph, config, cache)
                    _assert_matches_reference(replace(ast, projection=projection,
                                                      weights=weights),
                                              graph, config, cache)
                assert len(cache._docs) <= DOCS_KEPT

    def test_columns_are_recomputed_from_the_quadruples(self, sessions):
        graph, config, cache = sessions[0]
        for weights in MEMO_WEIGHTS:
            assert cache.docs(weights) == tuple(
                _weighted_doc(rep.quadruple(), weights) for _, rep in cache.scored)
        # one column per weight vector, however it is spelled
        assert cache.docs([1, 0, 0, 0]) is cache.docs(("1.0", 0.0, "0", 0))
        with pytest.raises(BadWeights):
            cache.docs((0.5, 0.5, 0.5, 0.5))

    def test_keeps_the_most_recently_used_columns(self, sessions):
        cache = replace(sessions[0][2])
        first = [cache.docs(w) for w in MEMO_WEIGHTS[:DOCS_KEPT]]
        assert all(cache.docs(w) is column
                   for w, column in zip(MEMO_WEIGHTS, first))
        cache.docs(MEMO_WEIGHTS[0])            # now the most recently used
        cache.docs(MEMO_WEIGHTS[DOCS_KEPT])    # drops MEMO_WEIGHTS[1]
        assert len(cache._docs) == DOCS_KEPT
        assert cache.docs(MEMO_WEIGHTS[0]) is first[0]
        again = cache.docs(MEMO_WEIGHTS[1])    # recomputed; drops MEMO_WEIGHTS[2]
        assert again == first[1] and again is not first[1]
        assert cache.docs(MEMO_WEIGHTS[3]) is first[3]
        assert cache.docs(MEMO_WEIGHTS[2]) is not first[2]
        assert len(cache._docs) == DOCS_KEPT

    def test_memo_is_not_part_of_the_result(self):
        graph, cold = five_block_fixture()
        warm = replace(cold)
        for weights in MEMO_WEIGHTS:
            evaluate(QueryAst(weights=weights, on=("g0p0",)), graph, warm.config, warm)
        assert warm._docs and not cold._docs
        assert warm.collusive is warm.collusive    # sorted once, then kept
        assert warm._columns is warm._columns      # built once, then kept
        assert warm.postings is warm.postings      # built once, then kept
        assert not {"collusive", "_columns", "postings"} & set(vars(replace(warm)))
        assert warm.to_dict() == cold.to_dict()
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

    def test_results_never_share_a_memo(self):
        graph, cache = five_block_fixture()
        cache.docs(MEMO_WEIGHTS[1])
        copied = replace(cache)
        rebuilt = DetectionResult(cache.scored, cache.expanded_count, cache.config)
        loaded = DetectionResult.from_dict(cache.to_dict(), graph)
        # the load checked the stored doc against a column of its own under
        # its config's weights, and kept only that one
        weights = cache.config.weights
        assert list(loaded._docs) == [weights]
        assert loaded._docs[weights] == cache.docs(weights)
        assert loaded._docs[weights] is not cache.docs(weights)
        for other in (copied, rebuilt, loaded):
            assert MEMO_WEIGHTS[1] not in other._docs
            assert other.docs(MEMO_WEIGHTS[1]) == cache.docs(MEMO_WEIGHTS[1])
            assert other.docs(MEMO_WEIGHTS[1]) is not cache.docs(MEMO_WEIGHTS[1])
        copied.docs(MEMO_WEIGHTS[2])
        assert MEMO_WEIGHTS[2] not in cache._docs
        assert MEMO_WEIGHTS[2] not in rebuilt._docs


class TestPostings:
    def test_only_a_query_that_reads_them_builds_them(self):
        dataset = synth.generate(120, 20, 0.1, [synth.AttackScript()] * 2, seed=5)
        config = DetectionConfig(prune_reviewer_min=1, prune_product_min=1)
        graph = ingest_ratings(list(dataset.raw), config)
        detected = detect(graph, config)
        assert len(detected.scored) >= 2
        detected.to_dict()
        loaded = DetectionResult.from_dict(detected.to_dict(), graph)
        for result in (detected, loaded):
            evaluate(QueryAst(), graph, result.config, result)
            assert "postings" not in vars(result)
        (group, _), *_ = loaded.scored
        evaluate(QueryAst(contains=group.reviewers[:1]), graph, loaded.config, loaded)
        assert "postings" in vars(loaded)
        assert "postings" not in vars(replace(loaded))
        assert "postings" not in vars(detected)
        evaluate(QueryAst("products"), graph, detected.config, detected)
        assert "postings" in vars(detected)

    def test_id_projections_match_the_reference_on_both_sides_of_the_size_rule(
            self, sessions):
        rng = random.Random(77)
        for graph, config, shared in sessions:
            # each whole session has fewer ids on each side than groups, so
            # its id projections test ids; two of its groups hold more ids
            # than that, so they take the pass over the groups
            for cache in (shared, DetectionResult(shared.scored[:2], 0, config)):
                for projection in ("products", "reviewers"):
                    fewer = len(getattr(cache.postings, projection)) < len(cache.scored)
                    assert fewer == (cache is shared)
                    for _ in range(30):
                        ast = _random_query(rng, graph, config, cache)
                        _assert_matches_reference(
                            replace(ast, projection=projection, on=None, contains=None),
                            graph, config, cache)

    def test_each_id_maps_to_the_ascending_positions_of_its_groups(self, sessions):
        for _, _, shared in sessions:
            postings = replace(shared).postings
            for side in ("products", "reviewers"):
                want = {}
                for i, (b, _) in enumerate(shared.scored):
                    for ident in getattr(b, side):
                        want.setdefault(ident, []).append(i)
                got = getattr(postings, side)
                assert list(got) == sorted(want)
                assert got == {ident: tuple(rows) for ident, rows in want.items()}
                assert all(type(rows) is tuple for rows in got.values())


def _hand_written(reports) -> tuple[RatingGraph, DetectionResult]:
    """The five-block graph and a result over its groups with the given
    behavioural indicators, loaded as a result.json holding them would be.
    The loader checks each row's derived fields, so doc is the row's DOC
    under the result's weights, and gs, gps and di are 1: the five groups
    are the same size."""
    graph, shape = five_block_fixture()
    weights = shape.config.weights
    data = shape.to_dict()
    data["scored"] = [{**b.to_dict(), **rep, "gs": 1.0, "gps": 1.0, "di": 1.0,
                       "doc": _weighted_doc((rep["gvs"], rep["gts"], rep["grs"],
                                             rep["gms"]), weights)}
                      for (b, _), rep in zip(shape.scored, reports)]
    data["collusive"] = sorted(
        (row for row in data["scored"] if row["doc"] > shape.config.delta),
        key=lambda row: (-row["doc"], row["reviewers"], row["products"]))
    return graph, DetectionResult.from_dict(data, graph)


def _bits(column) -> list[str]:
    return [float.hex(v) for v in column]


class TestDocColumns:
    """``docs`` computes a column from the cached indicator columns; each
    value must equal the per-group ``_weighted_doc`` bit for bit."""

    def test_empty_result_gives_an_empty_column(self):
        empty = DetectionResult((), 0, DetectionConfig())
        for weights in MEMO_WEIGHTS:
            assert empty.docs(weights) == ()

    def test_int_valued_indicators_match_the_per_group_doc(self):
        reports = [{"gvs": 1, "gts": 0.5, "grs": 0, "gms": 0, "gs": 1, "gps": 1,
                    "doc": 0.375, "di": 1},
                   {"gvs": 0, "gts": 0, "grs": 0, "gms": 0, "gs": 1, "gps": 1,
                    "doc": 0, "di": 1},
                   {"gvs": 1, "gts": 1, "grs": 1, "gms": 1, "gs": 1, "gps": 1,
                    "doc": 1, "di": 1},
                   {"gvs": 0.3, "gts": 1, "grs": 0.25, "gms": 0, "gs": 1, "gps": 0.5,
                    "doc": 0.3875, "di": 0.75},
                   {"gvs": 0, "gts": 0.1, "grs": 1, "gms": 0, "gs": 0.5, "gps": 1,
                    "doc": 0.275, "di": 0.75}]
        _, cache = _hand_written(reports)
        assert any(type(rep.gms) is int for _, rep in cache.scored)
        for weights in MEMO_WEIGHTS:
            column = cache.docs(weights)
            assert all(type(v) is float for v in column)
            assert _bits(column) == _bits(_weighted_doc(rep.quadruple(), weights)
                                          for _, rep in cache.scored)

    def test_weights_within_tolerance_of_one_clamp_to_exactly_one(self):
        ones = {"gvs": 1.0, "gts": 1.0, "grs": 1.0, "gms": 1.0, "gs": 1.0, "gps": 1.0,
                "doc": 1.0, "di": 1.0}
        half = {**ones, "gvs": 0.5, "doc": 0.875}
        _, cache = _hand_written([ones, half, ones, half, ones])
        # sums to 1 + 9e-10, inside WEIGHT_TOLERANCE (exactly 1 + 1e-9 is
        # not, once rounded), so an all-1.0 group's sum spills past 1
        weights = (0.25, 0.25, 0.25, 0.2500000009)
        assert fsum(w * 1.0 for w in weights) > 1.0
        column = cache.docs(weights)
        assert _bits(column) == _bits(_weighted_doc(rep.quadruple(), weights)
                                      for _, rep in cache.scored)
        assert [column[i] for i in (0, 2, 4)] == [1.0, 1.0, 1.0]
        assert column[1] == fsum((0.5 * 0.25, 0.25, 0.25, 0.2500000009)) < 1.0

    def test_random_indicators_and_weights_match_the_reference_bit_for_bit(self, sessions):
        rng = random.Random(1919)
        _, config, cache = sessions[0]

        def value():
            pick = rng.random()
            if pick < 0.1:
                return rng.choice([0, 1, 0.0, 1.0])
            return rng.random()

        for _ in range(40):
            scored = tuple((b, IndicatorReport(value(), value(), value(), value(),
                                               1.0, 1.0, 0.5, 1.0))
                           for b, _ in cache.scored)
            result = DetectionResult(scored, 0, config)
            for _ in range(5):
                parts = [rng.choice([0, rng.random()]) for _ in range(3)]
                parts.append(rng.random() + 1e-3)
                total = fsum(parts)
                weights = [p / total for p in parts]
                if rng.random() < 0.3:   # push the sum to the tolerance's edge
                    weights[3] += rng.choice([-9e-10, 9e-10])
                weights = tuple(weights)
                assert _bits(result.docs(weights)) == _bits(
                    reference_weighted_doc(rep.quadruple(), weights)
                    for _, rep in scored)
