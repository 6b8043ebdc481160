"""Detection loop behaviour: aggregation, routing, expansion, reporting."""

import pytest

from bcscan.detector import (DetectionResult, damaging_impact,
                             degree_of_collusiveness, detect, rank_report,
                             score_cohort)
from bcscan.model import BadWeights, Biclique, DetectionConfig, IndicatorReport
from testutil import grid_graph, make_graph


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

    def test_di_mean(self):
        assert damaging_impact(0.5, 0.7) == pytest.approx(0.6, abs=1e-9)
        assert damaging_impact(1.0, 1.0) == 1.0


def unanimous_block(n_r=3, n_p=3, value=5.0, time=0):
    return grid_graph([f"r{i}" for i in range(n_r)],
                      [f"p{j}" for j in range(n_p)], value=value, time=time)


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
        assert detect(unanimous_block(), cfg).config is cfg

    def test_default_config_from_graph_scale(self):
        g = grid_graph(["a", "b"], ["p0", "p1", "p2"], value=7.0, max_value=10.0)
        result = detect(g)
        assert result.config.max_value == 10.0

    def test_expansion_recovers_planted_trio(self):
        rows = []
        for r in ("c1", "c2", "c3"):
            for p in ("p1", "p2", "p3"):
                rows.append((r, p, 5, 10))
        scatter = {"s1": (1, 100), "s2": (3, 170), "s3": (5, 240)}
        for r, (v, t) in scatter.items():
            for i, p in enumerate(("p1", "p2", "p3")):
                rows.append((r, p, ((v + 2 * i - 1) % 5) + 1, t + 7 * i))
        g = make_graph(rows)
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

    def test_result_round_trip(self):
        g = unanimous_block()
        result = detect(g, DetectionConfig())
        back = DetectionResult.from_dict(result.to_dict(), g)
        assert back.to_dict() == result.to_dict()


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
        g = grid_graph(["a", "b"], ["p1", "p2", "p3"])
        b = Biclique.from_graph(["a", "b"], ["p1", "p2", "p3"], g)
        rows = []
        for doc, di in quads.values():
            rep = IndicatorReport(doc, doc, doc, doc, di, di, doc, di)
            rows.append((b, rep))
        result = DetectionResult(tuple(), tuple(rows), 3, 0, DetectionConfig())
        statuses = [row.status for row in rank_report(result)]
        assert statuses == ["collusive", "dangerous", "clear"]
        assert [row.group_id for row in rank_report(result)] == [1, 2, 3]
