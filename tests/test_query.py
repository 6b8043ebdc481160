"""Query language: lexing, parsing, rendering, evaluation."""

import random

import pytest

from bcscan.detector import DetectionResult
from bcscan.model import BadWeights, Biclique, DetectionConfig, IndicatorReport
from bcscan.query import (QueryAst, QuerySemanticError, QuerySyntaxError,
                          UnknownId, evaluate, parse, pretty)
from testutil import make_graph


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
    cache = DetectionResult((), tuple(scored), 5, 0, DetectionConfig())
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
        cache = DetectionResult((), ((b, rep),), 1, 0, DetectionConfig())
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
        empty = DetectionResult((), (), 0, 0, config)
        with pytest.raises(BadWeights):
            evaluate(QueryAst(weights=(0.5, 0.5, 0.5, 0.5)), graph, config,
                     cache=empty)

    def test_fresh_evaluation_runs_detection(self):
        rows = [(r, p, 5, 0) for r in ("a", "b", "c")
                for p in ("p1", "p2", "p3")]
        graph = make_graph(rows)
        result = evaluate(parse("getbicliques();"), graph, DetectionConfig())
        assert [b.key for b, _ in result.groups] == \
            [(("a", "b", "c"), ("p1", "p2", "p3"))]

    def test_to_dict_shapes(self):
        graph, cache = five_block_fixture()
        d = evaluate(parse("getbicliques();"), graph, cache.config, cache).to_dict()
        assert d["projection"] == "bicliques"
        assert {"reviewers", "products", "doc"} <= set(d["groups"][0])
        assert "warnings" not in d
        p = evaluate(parse("getbicliques.products() filter{ on(zzz); };"),
                     graph, cache.config, cache).to_dict()
        assert p["ids"] == [] and p["warnings"]
