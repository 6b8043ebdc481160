"""Release acceptance suite: one test per shipping gate.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
gate. Every check goes through the public API and re-derives its expected
values independently (brute-force oracles, hand arithmetic, frozen
constants), so a green run certifies the pipeline end to end rather than
any single module. Detail-level diagnosis lives in the per-module suites.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import replace
from datetime import date, timedelta
from math import fsum, sqrt

from bcscan.detector import (damaging_impact, degree_of_collusiveness, detect,
                             score_cohort)
from bcscan.indicators import (build_suspiciousness, cumulative_distribution,
                               group_member_suspiciousness,
                               group_rating_spamicity, group_time_similarity,
                               group_value_similarity, pairwise_value_similarity,
                               product_time_window)
from bcscan.ingest import RawRating, build_graph, prune
from bcscan.mining import enumerate_candidates
from bcscan.model import Biclique, DetectionConfig
from bcscan.query import QueryAst, evaluate, parse, pretty
from bcscan.synth import mixed_dataset, precision, recall, run_pipeline, strong_attack_dataset

from testutil import make_graph, oracle_maximal_bicliques, oracle_passing_subrectangles, random_graph

INDICATOR_FIELDS = ("gvs", "gts", "grs", "gms", "gs", "gps", "doc", "di")


def test_1_mining_equals_bruteforce_oracle_on_500_random_graphs():
    # 501 graphs, up to 12x12, three density regimes; the oracle enumerates
    # every reviewer subset, so agreement here pins down both maximality and
    # closedness of the mining output. The whole sweep must stay under a
    # minute to remain a usable gate.
    rng = random.Random(1)
    started = time.monotonic()
    checked = 0
    for density in (0.2, 0.5, 0.8):
        for _ in range(167):
            g = random_graph(rng, rng.randint(2, 12), rng.randint(2, 12), density)
            mined = [b.key for b in enumerate_candidates(g, min_r=2, min_p=3)]
            assert mined == oracle_maximal_bicliques(g, min_r=2, min_p=3)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 500
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_2_hand_checked_indicator_instances():
    # Rating vectors (5,5,5) vs (5,5,1): 55 / (sqrt(75) * sqrt(51)).
    g = make_graph([("u1", "q1", 5, 0), ("u1", "q2", 5, 0), ("u1", "q3", 5, 0),
                    ("u2", "q1", 5, 0), ("u2", "q2", 5, 0), ("u2", "q3", 1, 0)])
    pair = Biclique.from_graph(("u1", "u2"), ("q1", "q2", "q3"), g)
    assert abs(pairwise_value_similarity("u1", "u2", pair) - 0.8893) <= 1e-4

    # A four-day posting window against a 30-day cap: 1 - 4/30.
    g = make_graph([("u1", "q1", 5, 0), ("u2", "q1", 5, 4)])
    window = Biclique.from_graph(("u1", "u2"), ("q1",), g)
    assert abs(product_time_window(window, "q1", 30) - 0.8667) <= 1e-4

    # Five copies of one reviewer's vote among 20 ratings on the product.
    day = date(2004, 1, 1)
    raw = [RawRating("i", "j", 5.0, day + timedelta(days=k)) for k in range(5)]
    raw += [RawRating(f"h{k:02d}", "j", 3.0, day) for k in range(15)]
    assert build_graph(raw).edge("i", "j").spamicity == 0.25

    # Product rated {1,5,5,5,5}: median 5, RMS distance sqrt(16/5), the four
    # fives stay credible so the mean is 5, and the lone 1-rater carries a
    # deviation of 4 in both the L2 and the worst-case profile.
    g = make_graph([(f"w{k}", "q", v, 0) for k, v in enumerate((1, 5, 5, 5, 5))])
    table = build_suspiciousness(g)
    consensus = table.consensus["q"]
    assert abs(consensus.median - 5.0) <= 1e-9
    assert abs(consensus.distance - sqrt(16 / 5)) <= 1e-9
    assert abs(consensus.credible_mean - 5.0) <= 1e-9
    assert abs(table.l2_deviation["w0"] - 4.0) <= 1e-9
    assert abs(table.max_deviation["w0"] - 4.0) <= 1e-9

    # Aggregates: a dot product and an arithmetic mean, both by hand.
    doc = degree_of_collusiveness(0.8, 0.6, 0.4, 0.2, (0.4, 0.3, 0.2, 0.1))
    assert abs(doc - 0.6) <= 1e-9
    assert abs(damaging_impact(0.5, 0.7) - 0.6) <= 1e-9


def test_3_default_run_parameters_echoed_in_result():
    g = make_graph([(r, p, 5, 0) for r in ("a", "b") for p in ("x", "y", "z")])
    config = detect(g).config
    assert config.delta == 0.4
    assert config.weights == (0.25, 0.25, 0.25, 0.25)
    assert config.min_r == 2
    assert config.min_p == 3


def _random_spammy_graph(rng: random.Random):
    n_r, n_p = rng.randint(2, 8), rng.randint(3, 7)
    rows = []
    for i in range(n_r):
        for j in range(n_p):
            if rng.random() < 0.6:
                rows.append((f"r{i}", f"p{j}", rng.randint(1, 5),
                             rng.randrange(60), rng.choice((0.0, 0.0, 0.4, 1.0))))
    return make_graph(rows)


def _quarter_weights(rng: random.Random):
    parts = [rng.randint(0, 10) for _ in range(4)]
    total = sum(parts)
    return tuple(p / total for p in parts) if total else None


def test_4_property_suites_of_1000_cases_each():
    config = DetectionConfig()

    # Suite 1: every indicator and aggregate stays inside [0,1] on random
    # graphs, including ones carrying duplicate-spamicity mass.
    rng = random.Random(101)
    produced = 0
    for case in range(1000):
        if case % 2:
            g = _random_spammy_graph(rng)
        else:
            g = random_graph(rng, rng.randint(2, 8), rng.randint(3, 7),
                             rng.choice((0.3, 0.5, 0.8)),
                             days=rng.choice((5, 40, 365)))
        groups = list(enumerate_candidates(g, config.min_r, config.min_p))
        for _, report in score_cohort(g, groups, config):
            produced += 1
            for name in INDICATOR_FIELDS:
                assert 0.0 <= getattr(report, name) <= 1.0, (name, report)
    assert produced >= 1000, f"only {produced} scored groups generated"

    # Suite 2: DOC is threshold-independent, so a group flagged at a high
    # delta and examined at a lower one must be flagged there too.
    rng = random.Random(202)
    deltas = (0.1, 0.3, 0.5, 0.7)
    comparisons = 0
    for _ in range(250):
        g = random_graph(rng, rng.randint(3, 8), rng.randint(3, 6),
                         rng.choice((0.5, 0.8)), days=rng.choice((3, 30, 200)))
        runs = {}
        for d in deltas:
            result = detect(g, DetectionConfig(delta=d))
            runs[d] = ({b.key: rep.doc for b, rep in result.scored},
                       {b.key for b, _ in result.collusive})
        for low, high in itertools.combinations(deltas, 2):
            docs_low, flagged_low = runs[low]
            docs_high, flagged_high = runs[high]
            for key in docs_low.keys() & docs_high.keys():
                assert abs(docs_low[key] - docs_high[key]) <= 1e-12
            for key in flagged_high & docs_low.keys():
                assert key in flagged_low, (key, low, high)
            comparisons += 1
    assert comparisons >= 1000

    # Suite 3: adding a filter clause (or raising the DOC floor) never
    # enlarges a query's result set over a fixed cached run.
    dataset = mixed_dataset()
    bench = DetectionConfig(prune_reviewer_min=1, prune_product_min=1)
    graph = build_graph(prune(list(dataset.raw), 1, 1), max_value=dataset.max_value)
    cache = detect(graph, bench)
    assert len(cache.scored) >= 20    # the cohort must be worth filtering
    reviewers = sorted(graph.reviewers)
    products = sorted(graph.products)
    rng = random.Random(303)
    for _ in range(1000):
        base = QueryAst(
            projection=rng.choice(("bicliques", "products", "reviewers")),
            weights=_quarter_weights(rng) if rng.random() < 0.5 else None,
            on=tuple(rng.sample(products, rng.randint(1, 2))) if rng.random() < 0.4 else None,
            contains=tuple(rng.sample(reviewers, rng.randint(1, 2))) if rng.random() < 0.4 else None,
            doc_min=rng.randint(40, 100) / 100 if rng.random() < 0.5 else None,
        )
        kind = rng.choice(("on", "contains", "doc"))
        if kind == "doc":
            floor = base.doc_min if base.doc_min is not None else bench.delta
            tightened = replace(base, doc_min=min(1.0, floor + rng.randint(0, 40) / 100))
        elif kind == "on":
            tightened = replace(base, on=(base.on or ()) + (rng.choice(products),))
        else:
            tightened = replace(base, contains=(base.contains or ()) + (rng.choice(reviewers),))
        wide = evaluate(base, graph, bench, cache)
        narrow = evaluate(tightened, graph, bench, cache)
        if base.projection == "bicliques":
            kept_wide = {b.key for b, _ in wide.groups}
            kept_narrow = {b.key for b, _ in narrow.groups}
        else:
            kept_wide, kept_narrow = set(wide.ids), set(narrow.ids)
        assert kept_narrow <= kept_wide, (base, tightened)

    # Suite 4: pruning to the activity floors is idempotent.
    rng = random.Random(404)
    epoch = date(2004, 1, 1)
    for _ in range(1000):
        raw = [RawRating(f"r{rng.randint(0, 14)}", f"p{rng.randint(0, 9)}",
                         float(rng.randint(1, 5)),
                         epoch + timedelta(days=rng.randrange(90)))
               for _ in range(rng.randint(1, 120))]
        floors = (rng.randint(0, 4), rng.randint(0, 4))
        once = prune(raw, *floors)
        assert prune(once, *floors) == once

    # Suite 5: pretty-printing a query AST reparses to the identical AST.
    rng = random.Random(505)
    alphabet = "abcdefghij0123456789_ -'"
    def rand_id():
        return "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 8))).strip() or "x"
    def rand_ids():
        return tuple(rand_id() for _ in range(rng.randint(1, 3)))
    for _ in range(1000):
        ast = QueryAst(
            projection=rng.choice(("bicliques", "products", "reviewers")),
            weights=_quarter_weights(rng) if rng.random() < 0.7 else None,
            on=rand_ids() if rng.random() < 0.5 else None,
            contains=rand_ids() if rng.random() < 0.5 else None,
            doc_min=rng.randint(0, 100) / 100 if rng.random() < 0.5 else None,
        )
        assert parse(pretty(ast)) == ast


def test_5_planted_attack_retrieval_beats_90_percent():
    dataset = strong_attack_dataset()
    bench = DetectionConfig(prune_reviewer_min=1, prune_product_min=1)
    assert bench.delta == 0.4
    result = run_pipeline(dataset, bench)
    retrieved = [b for b, _ in result.collusive]
    hit_rate = precision(retrieved, dataset.truth)
    coverage = recall(retrieved, dataset.truth)
    assert not hit_rate.vacuous and hit_rate.value >= 0.9, hit_rate
    assert not coverage.vacuous and coverage.value >= 0.9, coverage


def test_6_injected_groups_dominate_honest_groups_on_every_indicator():
    dataset = mixed_dataset()
    config = DetectionConfig(prune_reviewer_min=1, prune_product_min=1)
    graph = build_graph(prune(list(dataset.raw), 1, 1), max_value=dataset.max_value)
    table = build_suspiciousness(graph)

    injected = [Biclique.from_graph(t.reviewers, t.products, graph)
                for t in dataset.truth]
    attackers = set().union(*(t.reviewers for t in dataset.truth))
    honest = [b for b in enumerate_candidates(graph, config.min_r, config.min_p)
              if not attackers & set(b.reviewers)]
    assert len(injected) == 5
    assert len(honest) >= 5    # the comparison needs a real honest cohort

    def means(groups):
        n = len(groups)
        return (fsum(group_value_similarity(b) for b in groups) / n,
                fsum(group_time_similarity(b, config.max_tw) for b in groups) / n,
                fsum(group_rating_spamicity(b) for b in groups) / n,
                fsum(group_member_suspiciousness(b, table) for b in groups) / n)

    planted = means(injected)
    background = means(honest)
    for name, hot, cold in zip(("gvs", "gts", "grs", "gms"), planted, background):
        assert hot > cold, f"{name}: injected {hot:.4f} <= honest {cold:.4f}"

    # The cumulative curves backing the comparison: every labelled series
    # must climb monotonically to exactly 1.
    scored = score_cohort(graph, injected + honest, config, table)
    labels = ["injected" if attackers & set(b.reviewers) else "honest"
              for b, _ in scored]
    points = cumulative_distribution([rep for _, rep in scored], labels)
    series: dict[tuple[str, str], list] = {}
    for pt in points:
        series.setdefault((pt.indicator, pt.label), []).append(pt)
    assert set(lbl for _, lbl in series) == {"injected", "honest"}
    for run in series.values():
        assert all(a.cumulative < b.cumulative for a, b in zip(run, run[1:]))
        assert run[-1].cumulative == 1.0


def _example_catalogue():
    """Two disjoint 3x3 blocks: a tight unanimous clique on named products
    and a slow honest one whose ratings spread over ten months."""
    rows = []
    for day, r in ((3, "Jack"), (4, "Jhon"), (5, "Mary")):
        for p in ("Book1", "DVD2", "CD3"):
            rows.append((r, p, 5, day))
    for day, r in ((0, "u1"), (150, "u2"), (300, "u3")):
        for p, v in (("G1", 4), ("G2", 4), ("G3", 2 if r == "u3" else 4)):
            rows.append((r, p, v, day))
    return make_graph(rows)


def test_7_example_queries_evaluate_with_documented_semantics():
    graph = _example_catalogue()
    cache = detect(graph)
    config = cache.config

    def run(text):
        return evaluate(parse(text), graph, config, cache)

    tight = (("Jack", "Jhon", "Mary"), ("Book1", "CD3", "DVD2"))
    slow = (("u1", "u2", "u3"), ("G1", "G2", "G3"))

    everything = run("getbicliques();")
    assert [b.key for b, _ in everything.groups] == [tight]
    assert {b.key for b, _ in cache.collusive} == {tight}

    serious = run("getbicliques()\n"
                  "filter{\n"
                  "    DOC > 0.7;\n"
                  "};")
    assert serious.groups == ()

    reweighted = run("getbicliques(0.4,0.2,0.2,0.2);")
    assert [b.key for b, _ in reweighted.groups] == [tight, slow]

    attacked = run("getbicliques.products(0.4,0.2,0.2,0.2);\n"
                   "filter{\n"
                   "    contains('Jack', 'Jhon');\n"
                   "};")
    assert attacked.ids == ("Book1", "CD3", "DVD2")

    accomplices = run("getbicliques.reviewers(0.4,0.2,0.2,0.2);\n"
                      "filter{\n"
                      "    on('Book1','DVD2');\n"
                      "};")
    assert accomplices.ids == ("Jack", "Jhon", "Mary")

    combined_text = ("getbicliques(0.4,0.3,0.2,0.1)\n"
                     "filter{\n"
                     "    contains('Jack', 'Jhon');\n"
                     "    on('Book1','DVD2');\n"
                     "    DOC > 0.7;\n"
                     "};")
    combined = parse(combined_text)
    assert combined == QueryAst("bicliques", (0.4, 0.3, 0.2, 0.1),
                                on=("Book1", "DVD2"), contains=("Jack", "Jhon"),
                                doc_min=0.7)
    assert run(combined_text).groups == ()    # 0.4 + 0.3 * (28/30) < 0.7


def test_8_detect_recovers_planted_trio_through_expansion():
    # Six reviewers share three products; only c1-c3 voted identically on the
    # same day, the rest scattered over months. The parent biclique is not
    # collusive on its own but has full damaging impact, which must push
    # detection into sub-group search and surface exactly the trio.
    rows = [(r, p, 5, 10) for r in ("c1", "c2", "c3")
            for p in ("p1", "p2", "p3")]
    for r, (v, t) in (("s1", (1, 100)), ("s2", (3, 170)), ("s3", (5, 240))):
        for i, p in enumerate(("p1", "p2", "p3")):
            rows.append((r, p, ((v + 2 * i - 1) % 5) + 1, t + 7 * i))
    graph = make_graph(rows)
    config = DetectionConfig()

    result = detect(graph, config)
    trio = (("c1", "c2", "c3"), ("p1", "p2", "p3"))
    assert result.expanded_count == 1
    assert result.examined_count == 2
    assert [b.key for b, _ in result.collusive] == [trio]

    # Brute force over every sub-rectangle of the parent: the trio must be
    # the unique maximal one passing the retention screen.
    parent = Biclique.from_graph(("c1", "c2", "c3", "s1", "s2", "s3"),
                                 ("p1", "p2", "p3"), graph)
    passing = oracle_passing_subrectangles(graph, parent, config.min_r,
                                           config.min_p, config.delta,
                                           config.max_tw)
    assert (trio in passing)
    maximal = [key for key in passing
               if not any(key != other
                          and set(key[0]) <= set(other[0])
                          and set(key[1]) <= set(other[1])
                          for other in passing)]
    assert maximal == [trio]
