"""Mining behaviour, arbitrated by the exponential oracle."""

import random

import pytest

from bcscan.mining import (BudgetExceeded, CandidateSet, enumerate_candidates,
                           find_sub_bicliques)
from bcscan.model import Biclique, DetectionConfig
from testutil import (grid_graph, make_graph, oracle_maximal_bicliques,
                      oracle_passing_subrectangles, random_graph,
                      reference_enumerate_candidates)


def keys(candidates):
    return [b.key for b in candidates]


class TestEnumerateCandidates:
    def test_dense_block_is_single_candidate(self):
        g = grid_graph(["r1", "r2", "r3"], ["p1", "p2", "p3"])
        got = enumerate_candidates(g, 2, 3)
        assert keys(got) == [(("r1", "r2", "r3"), ("p1", "p2", "p3"))]

    def test_embedded_block_plus_noise(self):
        rows = [(r, p, 5, 0) for r in ("r1", "r4", "r5") for p in ("p1", "p2", "p3")]
        rows += [("r2", "p1", 4, 0), ("r3", "p4", 2, 0), ("r1", "p5", 3, 1)]
        g = make_graph(rows)
        got = enumerate_candidates(g, 2, 3)
        assert keys(got) == [(("r1", "r4", "r5"), ("p1", "p2", "p3"))]

    def test_empty_graph(self):
        assert len(enumerate_candidates(make_graph([]), 2, 3)) == 0

    def test_no_qualifying_groups(self):
        g = make_graph([("r1", "p1", 5, 0), ("r2", "p2", 5, 0)])
        assert len(enumerate_candidates(g, 2, 3)) == 0

    def test_two_overlapping_maximal_groups(self):
        rows = [(r, p, 5, 0) for r in ("a", "b", "c") for p in ("p1", "p2", "p3")]
        rows += [("a", "p4", 5, 0), ("b", "p4", 5, 0)]
        g = make_graph(rows)
        got = keys(enumerate_candidates(g, 2, 3))
        assert (("a", "b"), ("p1", "p2", "p3", "p4")) in got
        assert (("a", "b", "c"), ("p1", "p2", "p3")) in got
        assert len(got) == 2

    def test_equals_oracle_on_random_graphs(self):
        rng = random.Random(17)
        for trial in range(60):
            g = random_graph(rng, rng.randint(2, 8), rng.randint(1, 8),
                             rng.choice([0.3, 0.5, 0.8]))
            got = keys(enumerate_candidates(g, 2, 3))
            assert got == oracle_maximal_bicliques(g, 2, 3), f"trial {trial}"

    def test_equals_oracle_with_other_floors(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng, 7, 7, 0.6)
            for min_r, min_p in ((2, 2), (3, 3), (2, 4)):
                assert keys(enumerate_candidates(g, min_r, min_p)) == \
                    oracle_maximal_bicliques(g, min_r, min_p)

    def test_candidates_are_complete_and_maximal(self):
        rng = random.Random(31)
        g = random_graph(rng, 10, 10, 0.5)
        for b in enumerate_candidates(g, 2, 3):
            members = set(b.reviewers)
            prods = set(b.products)
            # completeness is enforced by construction; check maximality
            for r in g.reviewers:
                if r not in members:
                    assert not prods <= set(g.products_of(r))
            common = set.intersection(*(set(g.products_of(r)) for r in members))
            assert common == prods

    def test_budget_cap_raises(self):
        rng = random.Random(41)
        g = random_graph(rng, 12, 12, 0.7)
        plenty = enumerate_candidates(g, 2, 2, cap=100_000)
        assert len(plenty) > 3
        with pytest.raises(BudgetExceeded):
            enumerate_candidates(g, 2, 2, cap=3)

    def test_equals_reference_walk_on_sparse_graphs(self):
        # graphs far beyond the oracle's reach: many reviewers per closure,
        # sparse product unions and rejected prefixes at every depth
        rng = random.Random(59)
        for trial in range(6):
            g = random_graph(rng, rng.randint(150, 400), rng.randint(20, 60),
                             rng.uniform(0.03, 0.15))
            for min_r, min_p in ((2, 3), (2, 2), (3, 3), (2, 4)):
                want = keys(reference_enumerate_candidates(g, min_r, min_p))
                total = len(want)
                # a cap equal to the total is not exceeded
                got = keys(enumerate_candidates(g, min_r, min_p, cap=total))
                assert got == want, f"trial {trial}, floors {min_r}/{min_p}"
                if total:
                    with pytest.raises(BudgetExceeded) as exc:
                        enumerate_candidates(g, min_r, min_p, cap=total - 1)
                    assert (exc.value.count, exc.value.cap) == (total, total - 1)

    def test_candidate_set_maxima(self):
        g = grid_graph(["r1", "r2", "r3"], ["p1", "p2", "p3", "p4"])
        cs = enumerate_candidates(g, 2, 3)
        assert cs.max_reviewers == 3
        assert cs.max_products == 4
        assert CandidateSet(()).max_reviewers == 0


class TestFindSubBicliques:
    def config(self, **kw):
        defaults = dict(delta=0.4, max_tw=30, min_r=2, min_p=3)
        defaults.update(kw)
        return DetectionConfig(**defaults)

    def test_homogeneous_parent_yields_nothing_new(self):
        g = grid_graph(["r1", "r2", "r3"], ["p1", "p2", "p3"], value=5.0, time=3)
        parent = Biclique.from_graph(g.reviewers, g.products, g)
        assert find_sub_bicliques(parent, g, self.config()) == []

    def test_planted_trio_recovered_exactly(self):
        rows = []
        for r in ("r1", "r2", "r3"):
            for p in ("p1", "p2", "p3"):
                rows.append((r, p, 5, 10))
        scatter = {"r4": (1, 100), "r5": (3, 170), "r6": (5, 240)}
        for r, (v, t) in scatter.items():
            for i, p in enumerate(("p1", "p2", "p3")):
                rows.append((r, p, ((v + 2 * i - 1) % 5) + 1, t + 7 * i))
        g = make_graph(rows)
        parent = Biclique.from_graph(g.reviewers, g.products, g)
        got = find_sub_bicliques(parent, g, self.config())
        assert [b.key for b in got] == [(("r1", "r2", "r3"), ("p1", "p2", "p3"))]

    def test_emitted_groups_pass_oracle_screen(self):
        rng = random.Random(53)
        cfg = self.config()
        for _ in range(40):
            g = random_graph(rng, 5, 4, 1.0, days=90)
            parent = Biclique.from_graph(g.reviewers, g.products, g)
            got = find_sub_bicliques(parent, g, cfg)
            passing = oracle_passing_subrectangles(g, parent, 2, 3, 0.4, 30)
            for b in got:
                assert b.key != parent.key
                assert len(b.reviewers) >= 2 and len(b.products) >= 3
                assert b.key in passing

    def test_small_parent_has_no_room(self):
        g = grid_graph(["r1", "r2"], ["p1", "p2", "p3"], value=5.0)
        parent = Biclique.from_graph(g.reviewers, g.products, g)
        assert find_sub_bicliques(parent, g, self.config()) == []

    def test_budget_cap_respected(self):
        g = grid_graph([f"r{i}" for i in range(5)], [f"p{j}" for j in range(4)])
        parent = Biclique.from_graph(g.reviewers, g.products, g)
        with pytest.raises(BudgetExceeded):
            find_sub_bicliques(parent, g, self.config(candidate_cap=30))

    def test_custom_screen_is_honoured(self):
        g = grid_graph(["r1", "r2", "r3"], ["p1", "p2", "p3"])
        parent = Biclique.from_graph(g.reviewers, g.products, g)
        got = find_sub_bicliques(parent, g, self.config(),
                                 screen=lambda frag: len(frag.reviewers) < 3)
        # with the parent unreachable, the 2x3 fragments are locally maximal
        assert {b.key for b in got} == {
            (("r1", "r2"), ("p1", "p2", "p3")),
            (("r1", "r3"), ("p1", "p2", "p3")),
            (("r2", "r3"), ("p1", "p2", "p3"))}
