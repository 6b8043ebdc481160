"""Indicator math, pinned to hand-computed values and cross-checked against
an independent cosine."""

import math
import random

import pytest

from bcscan.indicators import (GroupTooSmall, build_suspiciousness,
                               cumulative_distribution,
                               group_member_suspiciousness,
                               group_rating_spamicity, group_time_similarity,
                               group_value_similarity, pairwise_value_similarity,
                               product_time_window)
from bcscan.model import Biclique, IndicatorReport
from testutil import (cosine, grid_graph, make_graph, random_graph,
                      reference_group_rating_spamicity,
                      reference_group_time_similarity,
                      reference_group_value_similarity)


def group(graph, reviewers=None, products=None):
    return Biclique.from_graph(reviewers or graph.reviewers,
                               products or graph.products, graph)


class TestValueSimilarity:
    def test_hand_computed_cosine(self):
        g = make_graph([("a", "p1", 5, 0), ("a", "p2", 5, 0), ("a", "p3", 5, 0),
                        ("b", "p1", 5, 0), ("b", "p2", 5, 0), ("b", "p3", 1, 0)])
        b = group(g)
        expected = 55 / math.sqrt(75 * 51)
        assert pairwise_value_similarity("a", "b", b) == pytest.approx(0.8893, abs=1e-4)
        assert pairwise_value_similarity("a", "b", b) == pytest.approx(expected, abs=1e-12)

    def test_identical_vectors_score_one(self):
        b = group(grid_graph(["a", "b"], ["p1", "p2", "p3"], value=4.0))
        assert pairwise_value_similarity("a", "b", b) == 1.0

    def test_min_pair_wins(self):
        g = make_graph([("a", "p1", 5, 0), ("a", "p2", 5, 0), ("a", "p3", 5, 0),
                        ("b", "p1", 5, 0), ("b", "p2", 5, 0), ("b", "p3", 1, 0),
                        ("c", "p1", 5, 0), ("c", "p2", 5, 0), ("c", "p3", 5, 0)])
        b = group(g)
        assert group_value_similarity(b) == pytest.approx(55 / math.sqrt(75 * 51), abs=1e-12)

    def test_matches_independent_cosine_on_random_groups(self):
        rng = random.Random(3)
        for _ in range(200):
            n_p = rng.randint(1, 5)
            vals_a = [float(rng.randint(1, 5)) for _ in range(n_p)]
            vals_b = [float(rng.randint(1, 5)) for _ in range(n_p)]
            rows = [("a", f"p{j}", vals_a[j], 0) for j in range(n_p)]
            rows += [("b", f"p{j}", vals_b[j], 0) for j in range(n_p)]
            b = group(make_graph(rows))
            assert pairwise_value_similarity("a", "b", b) == pytest.approx(
                min(1.0, cosine(vals_a, vals_b)), abs=1e-12)

    def test_scale_invariance(self):
        low = group(make_graph([("a", "p1", 1, 0), ("a", "p2", 2, 0),
                                ("b", "p1", 2, 0), ("b", "p2", 1, 0)]))
        high = group(make_graph([("a", "p1", 2, 0), ("a", "p2", 4, 0),
                                 ("b", "p1", 4, 0), ("b", "p2", 2, 0)]))
        assert group_value_similarity(low) == pytest.approx(
            group_value_similarity(high), abs=1e-12)

    def test_single_member_rejected(self):
        b = group(grid_graph(["a"], ["p1", "p2", "p3"]))
        with pytest.raises(GroupTooSmall):
            group_value_similarity(b)


class TestTimeSimilarity:
    def test_hand_computed_window(self):
        g = make_graph([("a", "p1", 5, 10), ("b", "p1", 5, 14)])
        b = group(g)
        assert product_time_window(b, "p1", 30) == pytest.approx(0.8667, abs=1e-4)
        assert product_time_window(b, "p1", 30) == pytest.approx(13 / 15, abs=1e-12)

    def test_span_beyond_window_scores_zero(self):
        g = make_graph([("a", "p1", 5, 0), ("b", "p1", 5, 31)])
        assert product_time_window(group(g), "p1", 30) == 0.0
        g2 = make_graph([("a", "p1", 5, 0), ("b", "p1", 5, 30)])
        assert product_time_window(group(g2), "p1", 30) == 0.0  # 1 - 30/30

    def test_same_day_is_perfectly_tight(self):
        g = make_graph([("a", "p1", 5, 7), ("b", "p1", 5, 7)])
        assert product_time_window(group(g), "p1", 30) == 1.0

    def test_group_takes_tightest_product(self):
        g = make_graph([("a", "p1", 5, 10), ("b", "p1", 5, 14),
                        ("a", "p2", 5, 0), ("b", "p2", 5, 24)])
        b = group(g)
        assert product_time_window(b, "p2", 30) == pytest.approx(0.2, abs=1e-12)
        assert group_time_similarity(b, 30) == pytest.approx(13 / 15, abs=1e-12)

    def test_monotone_in_max_tw(self):
        rng = random.Random(4)
        for _ in range(100):
            t1, t2 = rng.randrange(60), rng.randrange(60)
            g = make_graph([("a", "p1", 5, t1), ("b", "p1", 5, t2)])
            b = group(g)
            loose = product_time_window(b, "p1", 45)
            tight = product_time_window(b, "p1", 15)
            assert loose >= tight - 1e-12


class TestRatingSpamicity:
    def test_weighted_average(self):
        g = make_graph([("a", "p1", 5, 0, 0.4), ("b", "p1", 5, 0, 0.0)])
        # (5*0.4 + 5*0.0) / 10
        assert group_rating_spamicity(group(g)) == pytest.approx(0.2, abs=1e-12)

    def test_clean_group_scores_zero(self):
        assert group_rating_spamicity(group(grid_graph(["a", "b"], ["p1"]))) == 0.0

    def test_all_spam_scores_one(self):
        g = make_graph([("a", "p1", 5, 0, 1.0), ("b", "p1", 3, 0, 1.0)])
        assert group_rating_spamicity(group(g)) == 1.0


class TestSuspiciousness:
    def test_lone_dissenter_statistics(self):
        rows = [("u1", "p1", 1, 0)] + [(f"u{k}", "p1", 5, 0) for k in range(2, 6)]
        table = build_suspiciousness(make_graph(rows))
        stats = table.consensus["p1"]
        assert stats.median == 5.0
        assert stats.distance == pytest.approx(math.sqrt(16 / 5), abs=1e-12)
        assert stats.credible_mean == pytest.approx(5.0, abs=1e-12)
        assert table.l2_deviation["u1"] == pytest.approx(4.0, abs=1e-12)
        assert table.max_deviation["u1"] == pytest.approx(4.0, abs=1e-12)

    def test_even_count_median_is_midpoint(self):
        rows = [("u1", "p1", 2, 0), ("u2", "p1", 4, 0)]
        table = build_suspiciousness(make_graph(rows))
        assert table.consensus["p1"].median == 3.0

    def test_empty_band_falls_back_to_median(self):
        # two voters at 1 and 5: median 3, distance 2, band [1, 5] covers all;
        # force the empty band with a wider spread instead
        rows = [("u1", "p1", 1, 0), ("u2", "p1", 1, 0), ("u3", "p1", 5, 0)]
        table = build_suspiciousness(make_graph(rows))
        stats = table.consensus["p1"]
        # median 1, rms distance sqrt(16/3) ~ 2.31, band [-1.31, 3.31] -> {1, 1}
        assert stats.credible_mean == pytest.approx(1.0, abs=1e-12)

    def test_unanimous_graph_has_no_suspects(self):
        g = grid_graph([f"u{k}" for k in range(6)], ["p1", "p2", "p3"], value=4.0)
        table = build_suspiciousness(g)
        assert table.suspicious == frozenset()

    def test_big_deviator_is_flagged(self):
        rows = []
        for p in ("p1", "p2", "p3"):
            rows += [(f"u{k}", p, 5, 0) for k in range(5)]
            rows.append(("bad", p, 1, 0))
        table = build_suspiciousness(make_graph(rows))
        assert "bad" in table.suspicious
        assert table.suspicious == frozenset({"bad"})

    def test_flagging_needs_strict_excess(self):
        # symmetric two-sided graph: everyone deviates equally, nobody sticks out
        rows = [("u1", "p1", 1, 0), ("u2", "p1", 5, 0)]
        table = build_suspiciousness(make_graph(rows))
        assert table.suspicious == frozenset()

    def test_empty_graph(self):
        table = build_suspiciousness(make_graph([]))
        assert table.suspicious == frozenset()


class TestMemberSuspiciousness:
    def test_ratio(self):
        rows = []
        for p in ("p1", "p2", "p3"):
            rows += [(f"u{k}", p, 5, 0) for k in range(5)]
            rows.append(("bad", p, 1, 0))
        g = make_graph(rows)
        table = build_suspiciousness(g)
        pair = Biclique.from_graph(["bad", "u0"], ["p1", "p2", "p3"], g)
        assert group_member_suspiciousness(pair, table) == 0.5
        clean = Biclique.from_graph(["u0", "u1"], ["p1", "p2", "p3"], g)
        assert group_member_suspiciousness(clean, table) == 0.0


def test_indicators_stay_in_unit_interval_on_random_groups():
    rng = random.Random(99)
    checked = 0
    while checked < 300:
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 5), 0.8, days=80)
        # pick a complete rectangle if one exists
        for r1 in g.reviewers:
            common = set(g.products_of(r1))
            members = [r for r in g.reviewers
                       if common & set(g.products_of(r)) == common]
            if len(members) >= 2 and common:
                b = Biclique.from_graph(members, common, g)
                table = build_suspiciousness(g)
                vals = [group_value_similarity(b),
                        group_time_similarity(b, 30),
                        group_rating_spamicity(b),
                        group_member_suspiciousness(b, table)]
                assert all(0.0 <= v <= 1.0 for v in vals)
                checked += 1
                break


def _seeded_group(rng: random.Random, max_tw: int) -> Biclique:
    """A group of 2-12 reviewers x 1-8 products inside a larger graph.

    Some members copy an earlier member's vector, so identical vectors
    occur; each product's posting span is drawn from 0, max_tw - 1, max_tw,
    max_tw + 1 and a wide one, so spans fall at, below and above max_tw.
    """
    members = [f"r{i:02d}" for i in range(rng.randint(2, 12))]
    products = [f"p{j}" for j in range(rng.randint(1, 8))]
    ratings = [1.0, 2.0, 3.0, 4.0, 5.0, 1.5, 4.25]
    vectors: list[list[float]] = []
    for _ in members:
        if vectors and rng.random() < 0.3:
            vectors.append(list(rng.choice(vectors)))
        else:
            vectors.append([rng.choice(ratings) for _ in products])
    rows = []
    for j, p in enumerate(products):
        span = rng.choice([0, max_tw - 1, max_tw, max_tw + 1, 3 * max_tw])
        start = rng.randrange(100)
        times = [start, start + span] + [start + rng.randint(0, span)
                                         for _ in members[2:]]
        rng.shuffle(times)
        for r, vector, t in zip(members, vectors, times):
            spam = rng.choice([0.0, 0.0, rng.random(), 1.0])
            rows.append((r, p, vector[j], t, spam))
    # ratings outside the group, on its products and by its members
    rows += [("z-outsider", p, 5.0, 0) for p in products]
    rows += [(r, "z-other", 1.0, 0) for r in members]
    g = make_graph(rows)
    return Biclique.from_graph(members, products, g)


def test_indicators_equal_the_reference_bit_for_bit():
    rng = random.Random(113)
    for trial in range(400):
        max_tw = rng.choice([1, 2, 7, 30])
        b = _seeded_group(rng, max_tw)
        assert group_value_similarity(b) == reference_group_value_similarity(b), trial
        for tw in (max_tw, max_tw + 1, 30):
            assert group_time_similarity(b, tw) == \
                reference_group_time_similarity(b, tw), (trial, tw)
        assert group_rating_spamicity(b) == reference_group_rating_spamicity(b), trial


def test_cumulative_distribution_points():
    reps = [IndicatorReport(v, v, v, v, v, v, v, v) for v in (0.2, 0.4, 0.6, 0.8)]
    points = cumulative_distribution(reps, ["a", "a", "b", "b"])
    gvs_a = [(p.value, p.cumulative) for p in points
             if p.indicator == "gvs" and p.label == "a"]
    assert gvs_a == [(0.2, 0.5), (0.4, 1.0)]
    with pytest.raises(ValueError):
        cumulative_distribution(reps, ["a"])
