"""Synthetic data generation and the precision/recall harness."""

from collections import Counter

import pytest

from bcscan.model import Biclique, DetectionConfig
from bcscan.synth import (AttackScript, InfeasibleScript, Metric, TruthGroup,
                          generate, matches, mixed_dataset, precision, recall,
                          run_pipeline, strong_attack_dataset, threshold_sweep)
from testutil import make_graph

BENCH_CONFIG = DetectionConfig(prune_reviewer_min=1, prune_product_min=1)

ONE_ATTACK = AttackScript(group_size=5, target_count=4, value_mode="promote",
                          time_span_days=2, duplicate_rate=0.0)


class TestGenerate:
    def test_same_seed_same_dataset(self):
        a = generate(50, 10, 0.2, [ONE_ATTACK], seed=9)
        b = generate(50, 10, 0.2, [ONE_ATTACK], seed=9)
        assert a == b

    def test_different_seed_different_dataset(self):
        a = generate(50, 10, 0.2, seed=9)
        b = generate(50, 10, 0.2, seed=10)
        assert a != b

    def test_no_attacks_no_truth(self):
        ds = generate(20, 5, 0.3, seed=1)
        assert ds.truth == ()
        assert all(r.reviewer.startswith("u") for r in ds.raw)

    def test_truth_groups_are_complete_bicliques_in_raw(self):
        ds = generate(30, 10, 0.2, [ONE_ATTACK, ONE_ATTACK], seed=3)
        assert len(ds.truth) == 2
        present = {(r.reviewer, r.product) for r in ds.raw}
        for t in ds.truth:
            assert len(t.reviewers) == 5 and len(t.products) == 4
            for r in t.reviewers:
                for p in t.products:
                    assert (r, p) in present

    def test_attack_values_and_window(self):
        for mode, expected in (("promote", 5.0), ("demote", 1.0)):
            script = AttackScript(group_size=3, target_count=3,
                                  value_mode=mode, time_span_days=2)
            ds = generate(0, 6, 0.5, [script], seed=11)
            assert all(r.value == expected for r in ds.raw)
            days = sorted(r.date.toordinal() for r in ds.raw)
            assert days[-1] - days[0] <= 2

    def test_duplicates_add_three_copies(self):
        script = AttackScript(group_size=3, target_count=3,
                              time_span_days=0, duplicate_rate=1.0)
        ds = generate(0, 5, 0.5, [script], seed=2)
        counts = Counter((r.reviewer, r.product) for r in ds.raw)
        assert set(counts.values()) == {4}
        assert len(counts) == 9

    def test_camouflage_lands_on_non_targets(self):
        script = AttackScript(group_size=2, target_count=4,
                              camouflage_rate=0.5)
        ds = generate(0, 10, 0.5, [script], seed=5)
        targets = set(ds.truth[0].products)
        off_target = [r for r in ds.raw if r.product not in targets]
        # half of target_count rounds to 2 extra ratings per member
        assert len(off_target) == 4
        by_member = Counter(r.reviewer for r in off_target)
        assert set(by_member.values()) == {2}
        on_target = [r for r in ds.raw if r.product in targets]
        assert all(r.value == 5.0 for r in on_target)

    def test_attack_reviewers_are_fresh_per_attack(self):
        ds = generate(10, 8, 0.2, [ONE_ATTACK, ONE_ATTACK], seed=6)
        first, second = (t.reviewers for t in ds.truth)
        assert not first & second
        honest = {r.reviewer for r in ds.raw if r.reviewer.startswith("u")}
        assert not (first | second) & honest

    def test_infeasible_target_count(self):
        with pytest.raises(InfeasibleScript):
            generate(10, 3, 0.5, [ONE_ATTACK], seed=0)

    def test_bad_density(self):
        with pytest.raises(ValueError):
            generate(10, 5, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate(10, 5, 1.5, seed=0)

    def test_honest_values_stay_in_range(self):
        ds = generate(80, 10, 0.5, seed=13)
        assert all(1.0 <= r.value <= 5.0 for r in ds.raw)


class TestAttackScript:
    @pytest.mark.parametrize("kwargs", [
        dict(group_size=1),
        dict(target_count=2),
        dict(value_mode="boost"),
        dict(time_span_days=-1),
        dict(duplicate_rate=1.5),
        dict(camouflage_rate=-0.1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AttackScript(**kwargs)


def block(graph, reviewers, products):
    return Biclique.from_graph(sorted(reviewers), sorted(products), graph)


def block_rows(i):
    return [(r, p, 5.0, 0)
            for r in (f"m{i}a", f"m{i}b", f"m{i}c")
            for p in (f"x{i}0", f"x{i}1", f"x{i}2")]


class TestMatching:
    def setup_method(self):
        self.graph = make_graph(
            [(r, p, 5, 0) for r in ("a1", "a2", "a3", "a4", "h1", "h2")
             for p in ("t1", "t2", "t3", "q1", "q2", "q3")])
        self.truth = TruthGroup(frozenset({"a1", "a2", "a3", "a4"}),
                                frozenset({"t1", "t2", "t3"}))

    def test_exact_match_at_any_overlap(self):
        g = block(self.graph, self.truth.reviewers, self.truth.products)
        assert matches(g, self.truth, min_overlap=1.0)

    def test_partial_overlap(self):
        g = block(self.graph, ("a1", "a2", "a3", "h1"), ("t1", "q1", "q2"))
        # jaccard 3/5 with one shared target
        assert matches(g, self.truth)
        assert not matches(g, self.truth, min_overlap=0.7)

    def test_shared_product_required(self):
        g = block(self.graph, ("a1", "a2", "a3", "a4"), ("q1", "q2", "q3"))
        assert not matches(g, self.truth)

    def test_disjoint_members(self):
        g = block(self.graph, ("h1", "h2"), ("t1", "t2", "t3"))
        assert not matches(g, self.truth)


class TestMetrics:
    def test_precision_four_of_five(self):
        graph = make_graph([row for i in range(5) for row in block_rows(i)])
        groups = [block(graph, (f"m{i}a", f"m{i}b", f"m{i}c"),
                        (f"x{i}0", f"x{i}1", f"x{i}2")) for i in range(5)]
        truth = [TruthGroup(frozenset(g.reviewers), frozenset(g.products))
                 for g in groups[:4]]
        result = precision(groups, truth)
        assert result == Metric(0.8)
        assert not result.vacuous

    def test_recall_five_of_seven(self):
        graph = make_graph([row for i in range(7) for row in block_rows(i)])
        groups = [block(graph, (f"m{i}a", f"m{i}b", f"m{i}c"),
                        (f"x{i}0", f"x{i}1", f"x{i}2")) for i in range(7)]
        truth = [TruthGroup(frozenset(g.reviewers), frozenset(g.products))
                 for g in groups]
        result = recall(groups[:5], truth)
        assert result.value == pytest.approx(0.7143, abs=1e-4)

    def test_vacuous_cases(self):
        truth = [TruthGroup(frozenset({"a"}), frozenset({"p"}))]
        assert precision([], truth) == Metric(1.0, vacuous=True)
        assert recall([], []) == Metric(1.0, vacuous=True)
        assert recall([], truth) == Metric(0.0)


class TestPipeline:
    def test_strong_benchmark_retrieval(self):
        ds = strong_attack_dataset()
        result = run_pipeline(ds, BENCH_CONFIG)
        retrieved = [b for b, _ in result.collusive]
        assert precision(retrieved, ds.truth).value >= 0.9
        assert recall(retrieved, ds.truth).value >= 0.9

    def test_pruning_config_is_honored(self):
        ds = strong_attack_dataset()
        # default floors (10 products per reviewer) empty this small log
        result = run_pipeline(ds, DetectionConfig())
        assert result.examined_count == 0


class TestSweep:
    def test_extreme_thresholds(self):
        ds = strong_attack_dataset()
        points = threshold_sweep(ds, BENCH_CONFIG, [0.0, 0.4, 1.0])
        assert [p.delta for p in points] == [0.0, 0.4, 1.0]
        assert points[0].recall.value == 1.0
        assert points[1].precision.value >= 0.9
        assert points[2].retrieved == 0
        assert points[2].precision == Metric(1.0, vacuous=True)
        assert points[2].recall.value == 0.0

    def test_recall_never_increases_along_sweep(self):
        ds = mixed_dataset()
        deltas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        points = threshold_sweep(ds, BENCH_CONFIG, deltas)
        recalls = [p.recall.value for p in points]
        assert recalls == sorted(recalls, reverse=True)
