"""Mining behaviour, arbitrated by the exponential oracle."""

import random

import pytest

from bcscan.mining import BudgetExceeded, enumerate_candidates, find_sub_bicliques
from bcscan.model import Biclique, DetectionConfig
from testutil import (grid_graph, make_graph, oracle_maximal_bicliques,
                      oracle_passing_subrectangles, random_graph,
                      reference_enumerate_candidates)


# both walk orientations (reviewer sets when min_p > min_r), and counting
# depths up to three and past it; floors below DetectionConfig's (min_r 1)
# extend by items one holder holds, not two
SPARSE_FLOORS = ((2, 3), (2, 2), (3, 3), (2, 4), (1, 1), (1, 3), (2, 1),
                 (3, 2), (4, 2), (2, 5), (3, 4), (5, 3))


def with_block(rng, g, n_r, n_p):
    """The graph plus a complete n_r x n_p block of ratings on randomly
    chosen members and products, so that the higher floors find groups."""
    rows = {(e.reviewer, e.product): (e.value, e.time) for e in g.edges()}
    block = rng.sample(g.products, n_p)
    for r in rng.sample(g.reviewers, n_r):
        for p in block:
            rows.setdefault((r, p), (5.0, rng.randrange(365)))
    return make_graph([(r, p, v, t) for (r, p), (v, t) in rows.items()])


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

    def test_floor_below_one_is_rejected(self):
        g = grid_graph(["r1", "r2"], ["p1", "p2"])
        for floors in ((0, 2), (2, 0), (-1, 3)):
            with pytest.raises(ValueError, match="at least 1"):
                enumerate_candidates(g, *floors)

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
            for min_r, min_p in ((2, 2), (3, 3), (2, 4), (1, 1), (1, 3), (2, 1)):
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

    def check_against_reference(self, g, label):
        for min_r, min_p in SPARSE_FLOORS:
            want = keys(reference_enumerate_candidates(g, min_r, min_p))
            total = len(want)
            # a cap equal to the total is not exceeded
            got = keys(enumerate_candidates(g, min_r, min_p, cap=total))
            assert got == want, f"{label}, floors {min_r}/{min_p}"
            if total:
                with pytest.raises(BudgetExceeded) as exc:
                    enumerate_candidates(g, min_r, min_p, cap=total - 1)
                assert (exc.value.count, exc.value.cap) == (total, total - 1)

    def test_equals_reference_walk_on_sparse_graphs(self):
        # wide graphs far beyond the oracle's reach: many reviewers per
        # closure, sparse product unions and rejected prefixes at every depth
        rng = random.Random(59)
        for trial in range(6):
            g = random_graph(rng, rng.randint(150, 400), rng.randint(20, 60),
                             rng.uniform(0.03, 0.15))
            self.check_against_reference(with_block(rng, g, 6, 5), f"trial {trial}")

    def test_equals_reference_walk_on_tall_graphs(self):
        # many products per reviewer: long closed product sets, and reviewer
        # sets the walk over reviewers extends deep
        rng = random.Random(61)
        for trial in range(3):
            g = random_graph(rng, rng.randint(20, 35), rng.randint(120, 200),
                             rng.uniform(0.08, 0.15))
            self.check_against_reference(with_block(rng, g, 6, 5), f"trial {trial}")


class TestFindSubBicliques:
    def config(self, **kw):
        defaults = dict(delta=0.4, max_tw=30, min_r=2, min_p=3)
        defaults.update(kw)
        return DetectionConfig(**defaults)

    def test_homogeneous_parent_yields_nothing_new(self):
        g = grid_graph(["r1", "r2", "r3"], ["p1", "p2", "p3"], value=5.0, time=3)
        parent = Biclique.from_graph(g.reviewers, g.products, g)
        assert find_sub_bicliques(parent, self.config()) == []

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
        got = find_sub_bicliques(parent, self.config())
        assert [b.key for b in got] == [(("r1", "r2", "r3"), ("p1", "p2", "p3"))]

    def test_emitted_groups_pass_oracle_screen(self):
        rng = random.Random(53)
        cfg = self.config()
        for _ in range(40):
            g = random_graph(rng, 5, 4, 1.0, days=90)
            parent = Biclique.from_graph(g.reviewers, g.products, g)
            got = find_sub_bicliques(parent, cfg)
            passing = oracle_passing_subrectangles(g, parent, 2, 3, 0.4, 30)
            for b in got:
                assert b.key != parent.key
                assert len(b.reviewers) >= 2 and len(b.products) >= 3
                assert b.key in passing

    def test_small_parent_has_no_room(self):
        g = grid_graph(["r1", "r2"], ["p1", "p2", "p3"], value=5.0)
        parent = Biclique.from_graph(g.reviewers, g.products, g)
        assert find_sub_bicliques(parent, self.config()) == []

    def test_budget_cap_respected(self):
        g = grid_graph([f"r{i}" for i in range(5)], [f"p{j}" for j in range(4)])
        parent = Biclique.from_graph(g.reviewers, g.products, g)
        with pytest.raises(BudgetExceeded):
            find_sub_bicliques(parent, self.config(candidate_cap=30))
