"""Detection loop behaviour: aggregation, routing, expansion, reporting."""

import math
import random
import re

import pytest

from bcscan.detector import (DetectionResult, damaging_impact,
                             degree_of_collusiveness, detect, route,
                             score_cohort)
from bcscan.model import BadWeights, Biclique, DetectionConfig, IndicatorReport
from testutil import grid_graph, make_graph, reference_weighted_doc


class TestAggregates:
    def test_doc_weighted_sum(self):
        assert degree_of_collusiveness(0.8, 0.6, 0.4, 0.2, (0.4, 0.3, 0.2, 0.1)) \
            == pytest.approx(0.6, abs=1e-9)

    def test_doc_equal_indicators_fixed_point(self):
        assert degree_of_collusiveness(0.6, 0.6, 0.6, 0.6) == pytest.approx(0.6, abs=1e-9)

    def test_doc_degenerate_weight_projects(self):
        assert degree_of_collusiveness(0.1, 0.9, 0.3, 0.5, (0, 1, 0, 0)) \
            == pytest.approx(0.9, abs=1e-9)

    def test_doc_rejects_bad_weights(self):
        with pytest.raises(BadWeights):
            degree_of_collusiveness(1, 1, 1, 1, (0.3, 0.3, 0.3, 0.3))
        with pytest.raises(BadWeights):
            degree_of_collusiveness(1, 1, 1, 1, (0.5, 0.5))

    def test_weighted_doc_is_bit_identical_to_the_generator_form(self):
        rng = random.Random(2024)
        for _ in range(20_000):
            quadruple = tuple(rng.choice([rng.random(), rng.randint(0, 8) / 8])
                              for _ in range(4))
            parts = [rng.randint(0, 20) for _ in range(4)]
            parts[rng.randrange(4)] += 1
            weights = tuple(p / sum(parts) for p in parts)
            assert degree_of_collusiveness(*quadruple, weights) == \
                reference_weighted_doc(quadruple, weights)

    def test_di_mean(self):
        assert damaging_impact(0.5, 0.7) == pytest.approx(0.6, abs=1e-9)
        assert damaging_impact(1.0, 1.0) == 1.0


def unanimous_block(n_r=3, n_p=3, value=5.0, time=0):
    return grid_graph([f"r{i}" for i in range(n_r)],
                      [f"p{j}" for j in range(n_p)], value=value, time=time)


def planted_trio():
    """A tight trio inside a six-member crowd: three colluders vote 5.0 on
    day 10, three scattered raters vote all over the scale and calendar."""
    rows = []
    for r in ("c1", "c2", "c3"):
        for p in ("p1", "p2", "p3"):
            rows.append((r, p, 5, 10))
    scatter = {"s1": (1, 100), "s2": (3, 170), "s3": (5, 240)}
    for r, (v, t) in scatter.items():
        for i, p in enumerate(("p1", "p2", "p3")):
            rows.append((r, p, ((v + 2 * i - 1) % 5) + 1, t + 7 * i))
    return make_graph(rows)


class TestDetect:
    def test_tight_unanimous_block_is_collusive(self):
        g = unanimous_block()
        result = detect(g, DetectionConfig())
        assert len(result.collusive) == 1
        b, rep = result.collusive[0]
        assert b.key == (("r0", "r1", "r2"), ("p0", "p1", "p2"))
        assert rep.gvs == 1.0 and rep.gts == 1.0
        assert rep.gs == 1.0 and rep.gps == 1.0
        # unanimous voting also means nobody is a suspect and nothing is spam
        assert rep.doc == pytest.approx(0.5, abs=1e-9)
        assert rep.di == 1.0

    def test_empty_graph_empty_result(self):
        result = detect(make_graph([]), DetectionConfig())
        assert result.collusive == () and result.scored == ()
        assert result.examined_count == 0 and result.expanded_count == 0

    def test_delta_one_flags_nothing(self):
        result = detect(unanimous_block(), DetectionConfig(delta=1.0))
        assert result.collusive == ()

    def test_config_echoed(self):
        cfg = DetectionConfig(delta=0.3)
        assert detect(unanimous_block(), cfg).config == cfg

    def test_default_config_from_graph_scale(self):
        g = grid_graph(["a", "b"], ["p0", "p1", "p2"], value=7.0, max_value=10.0)
        result = detect(g)
        assert result.config.max_value == 10.0

    def test_expansion_recovers_planted_trio(self):
        g = planted_trio()
        result = detect(g, DetectionConfig())
        # the six-member parent is the only initial candidate and it fails
        # the DOC screen but has full damaging impact, so it gets expanded
        assert result.expanded_count == 1
        assert result.examined_count == 2
        flagged = [b.key for b, _ in result.collusive]
        assert flagged == [(("c1", "c2", "c3"), ("p1", "p2", "p3"))]
        sub_rep = dict(result.scored)[
            Biclique.from_graph(("c1", "c2", "c3"), ("p1", "p2", "p3"), g)]
        assert sub_rep.gvs == 1.0 and sub_rep.gts == 1.0
        assert sub_rep.gs == 0.5     # relative to the six-member parent
        assert sub_rep.gps == 1.0

    def test_low_doc_low_di_group_is_discarded_without_expansion(self):
        # two parents: a big tight one and a small scattered one; the small
        # one has di = (3/4 + 2/4) / 2 = 0.625 ... so shrink delta gap instead
        rows = [(r, p, 5, 0) for r in ("a", "b", "c", "d")
                for p in ("p1", "p2", "p3", "p4")]
        rows += [(r, p, v, t) for (r, p, v, t) in
                 (("x", "q1", 1, 0), ("x", "q2", 5, 40), ("x", "q3", 3, 80),
                  ("y", "q1", 5, 120), ("y", "q2", 1, 160), ("y", "q3", 4, 200))]
        g = make_graph(rows)
        result = detect(g, DetectionConfig(delta=0.7))
        keys = [b.key for b, _ in result.scored]
        assert (("x", "y"), ("q1", "q2", "q3")) in keys
        # di of the small group = (3/4 + 2/4)/2 = 0.625 < 0.7 -> dropped
        assert result.expanded_count == 1  # only the big parent expands
        assert result.collusive == ()

    def test_collusive_sorted_by_doc_descending(self):
        rows = [(r, p, 5, 0) for r in ("a", "b") for p in ("p1", "p2", "p3")]
        rows += [(r, p, v, 0) for r, v in (("x", 5), ("y", 4))
                 for p in ("q1", "q2", "q3")]
        rows += [("x", "q4", 2, 9), ("y", "q4", 5, 21)]
        g = make_graph(rows)
        result = detect(g, DetectionConfig(delta=0.2))
        docs = [rep.doc for _, rep in result.collusive]
        assert docs == sorted(docs, reverse=True)

    def test_di_equal_to_delta_is_expanded_and_reported_dangerous(self):
        # the only candidate is also the largest, so its di is 1.0: at
        # delta 1.0 its DOC cannot exceed delta, but its damaging impact
        # reaches it, so detect expands it and the report says so
        g = unanimous_block()
        result = detect(g, DetectionConfig(delta=1.0))
        assert result.expanded_count == 1
        [rep] = [rep for b, rep in result.scored
                 if b.key == (g.reviewers, g.products)]
        assert rep.doc <= 1.0 and rep.di == 1.0
        assert route(rep, result.config.delta) == "dangerous"

    def test_result_round_trip(self):
        # the trio's crowd is scored but not flagged, the trio is flagged
        for g, flagged, examined in ((unanimous_block(), 1, 1), (planted_trio(), 1, 2)):
            result = detect(g, DetectionConfig())
            back = DetectionResult.from_dict(result.to_dict(), g)
            assert back.to_dict() == result.to_dict()
            above = [(b, rep) for b, rep in back.scored if rep.doc > back.config.delta]
            assert back.collusive == tuple(
                sorted(above, key=lambda br: (-br[1].doc, br[0].key)))
            assert len(back.collusive) == flagged
            assert back.examined_count == len(back.scored) == examined

    def test_from_dict_builds_each_scored_group_once(self, monkeypatch):
        g = planted_trio()
        data = detect(g, DetectionConfig()).to_dict()
        assert data["collusive"]
        build = Biclique.from_graph.__func__
        calls = []

        def counted(cls, reviewers, products, graph):
            calls.append((reviewers, products))
            return build(cls, reviewers, products, graph)

        monkeypatch.setattr(Biclique, "from_graph", classmethod(counted))
        DetectionResult.from_dict(data, g)
        assert len(calls) == len(data["scored"])

    def test_scored_groups_must_strictly_increase_by_key(self):
        g = planted_trio()
        result = detect(g, DetectionConfig())
        first, second = result.scored
        for scored in ((second, first), (first, first), (first, second, second)):
            with pytest.raises(ValueError, match="canonical order"):
                DetectionResult(scored, 0, result.config)
        data = result.to_dict()
        with pytest.raises(ValueError, match="scored group 2 does not come after"):
            DetectionResult.from_dict({**data, "scored": data["scored"][::-1]}, g)

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_from_dict_rejects_an_indicator_that_is_not_a_number(self, value):
        g = planted_trio()
        data = detect(g, DetectionConfig()).to_dict()
        first, *rest = data["scored"]
        with pytest.raises(ValueError, match=f"gvs must be a number, got {value!r}"):
            DetectionResult.from_dict({**data, "scored": [{**first, "gvs": value}, *rest]},
                                      g)

    @pytest.mark.parametrize("field", ["gs", "gps", "di", "doc"])
    def test_from_dict_rejects_a_derived_field_one_ulp_off(self, field):
        g = planted_trio()
        data = detect(g, DetectionConfig()).to_dict()
        # the second row is the six-member crowd, after the trio it holds
        row = data["scored"][1]
        assert len(row["reviewers"]) == 6 and row["gs"] == 1.0
        stored = row[field]
        moved = math.nextafter(stored, 0.0 if stored > 0.0 else 1.0)
        edited = {**data, "scored": [data["scored"][0], {**row, field: moved}]}
        with pytest.raises(ValueError, match=re.escape(
                f"result scored row 2: stored {field} {moved!r} "
                f"is not the {stored!r} it derives to")):
            DetectionResult.from_dict(edited, g)

    def test_from_dict_rejects_a_collusive_list_that_disagrees_with_scored(self):
        g = planted_trio()
        data = detect(g, DetectionConfig()).to_dict()
        [trio] = data["collusive"]
        stray = {**trio, "reviewers": ["c1", "c2"]}   # a real rectangle, never scored
        assert all(row["reviewers"] != ["c1", "c2"] for row in data["scored"])
        for collusive in ([], [trio, stray], [stray]):
            with pytest.raises(ValueError, match="collusive"):
                DetectionResult.from_dict({**data, "collusive": collusive}, g)


class TestScoreCohort:
    def test_relative_sizes_within_cohort(self):
        g = grid_graph(["a", "b", "c"], ["p1", "p2", "p3", "p4"])
        big = Biclique.from_graph(["a", "b", "c"], ["p1", "p2", "p3", "p4"], g)
        small = Biclique.from_graph(["a", "b"], ["p1", "p2", "p3"], g)
        scored = dict(score_cohort(g, [big, small], DetectionConfig()))
        assert scored[big].gs == 1.0 and scored[big].gps == 1.0
        assert scored[small].gs == pytest.approx(2 / 3)
        assert scored[small].gps == pytest.approx(3 / 4)

    def test_empty_cohort(self):
        assert score_cohort(make_graph([]), [], DetectionConfig()) == []


class TestRankReport:
    def test_statuses(self):
        quads = {
            # doc above delta -> collusive regardless of di
            "collusive": (0.598, 0.599),
            # doc below, di above -> dangerous
            "dangerous": (0.121, 0.41),
            # both below -> clear
            "clear": (0.056, 0.173),
        }
        delta = DetectionConfig().delta
        for status, (doc, di) in quads.items():
            rep = IndicatorReport(doc, doc, doc, doc, di, di, doc, di)
            assert route(rep, delta) == status
        # the bounds: doc equal to delta is not collusive, di equal to it is dangerous
        at = IndicatorReport(delta, delta, delta, delta, delta, delta, delta, delta)
        assert route(at, delta) == "dangerous"
