"""End-to-end CLI behaviour through click's test runner."""

import csv
import io
import json

import pytest
from click.testing import CliRunner

from bcscan.cli import cli


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args, **kwargs):
    result = runner.invoke(cli, args, catch_exceptions=False, **kwargs)
    return result


def seed_pipeline(runner, tmp_path, seed=21):
    """synth generate + ingest; returns paths for the later stages."""
    data = tmp_path / "data.csv"
    truth = tmp_path / "truth.json"
    graph = tmp_path / "graph.jsonl"
    gen = run(runner, "synth", "generate", "--honest", "40", "--products", "12",
              "--density", "0.2", "--seed", str(seed),
              "--attack", "size=4,targets=3,mode=promote,span=1,dup=0.3",
              "--out", str(data), "--truth", str(truth))
    assert gen.exit_code == 0, gen.output
    ing = run(runner, "ingest", "--input", str(data), "--min-reviewer", "1",
              "--min-product", "1", "--out", str(graph))
    assert ing.exit_code == 0, ing.output
    return data, truth, graph


class TestPipeline:
    def test_full_flow(self, runner, tmp_path):
        data, truth, graph = seed_pipeline(runner, tmp_path)

        cands = tmp_path / "cands.jsonl"
        mined = run(runner, "mine", "--graph", str(graph), "--out", str(cands))
        assert mined.exit_code == 0
        lines = [json.loads(l) for l in cands.read_text().splitlines()]
        assert lines and all({"reviewers", "products"} <= set(row) for row in lines)

        scored_path = tmp_path / "scored.jsonl"
        scored = run(runner, "indicators", "--graph", str(graph),
                     "--candidates", str(cands), "--out", str(scored_path))
        assert scored.exit_code == 0
        rows = [json.loads(l) for l in scored_path.read_text().splitlines()]
        assert len(rows) == len(lines)
        assert all(0.0 <= row["doc"] <= 1.0 for row in rows)

        stats = run(runner, "stats", "--scored", str(scored_path))
        assert stats.exit_code == 0
        table = list(csv.reader(io.StringIO(stats.stdout)))
        assert table[0] == ["indicator", "label", "value", "cumulative"]
        assert len(table) - 1 == 8 * len(rows)
        assert table[-1][3] == "1.0"

        result_path = tmp_path / "result.json"
        det = run(runner, "detect", "--graph", str(graph),
                  "--out", str(result_path), "--report", "csv")
        assert det.exit_code == 0
        report = list(csv.reader(io.StringIO(det.stdout)))
        assert report[0] == ["group_id", "reviewers", "products",
                             "doc", "di", "status"]
        saved = json.loads(result_path.read_text())
        assert saved["config"]["delta"] == 0.4
        assert len(report) - 1 == len(saved["scored"])

        q = run(runner, "query", "--graph", str(graph), "--result",
                str(result_path), "-e", "getbicliques();", "--json")
        assert q.exit_code == 0
        payload = json.loads(q.stdout)
        assert payload["projection"] == "bicliques"
        flagged = {tuple(g["reviewers"]) for g in saved["collusive"]}
        assert {tuple(g["reviewers"]) for g in payload["groups"]} == flagged

    def test_sweep_csv(self, runner, tmp_path):
        data, truth, graph = seed_pipeline(runner, tmp_path)
        sweep = run(runner, "synth", "eval", "--data", str(data), "--truth",
                    str(truth), "--deltas", "0.0,0.4,1.0")
        assert sweep.exit_code == 0
        rows = list(csv.reader(io.StringIO(sweep.stdout)))
        assert rows[0][:2] == ["delta", "precision"]
        assert [r[0] for r in rows[1:]] == ["0.0", "0.4", "1.0"]
        final = rows[-1]
        assert final[2] == "1" and final[3] == "0.0"  # vacuous precision, zero recall

    def test_mine_to_stdout_is_deterministic(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        a = run(runner, "mine", "--graph", str(graph))
        b = run(runner, "mine", "--graph", str(graph))
        assert a.stdout == b.stdout


class TestConfigPrecedence:
    def test_env_overrides_defaults(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        out = tmp_path / "r.json"
        res = run(runner, "detect", "--graph", str(graph), "--out", str(out),
                  "--report", "csv", env={"BCS_DELTA": "0.9"})
        assert res.exit_code == 0
        assert json.loads(out.read_text())["config"]["delta"] == 0.9

    def test_flag_overrides_env(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        out = tmp_path / "r.json"
        res = run(runner, "detect", "--graph", str(graph), "--out", str(out),
                  "--delta", "0.2", "--report", "csv", env={"BCS_DELTA": "0.9"})
        assert res.exit_code == 0
        assert json.loads(out.read_text())["config"]["delta"] == 0.2

    def test_config_file_and_result_replay(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.55, "max_tw": 10}))
        first = tmp_path / "first.json"
        res = run(runner, "detect", "--graph", str(graph), "--config", str(cfg),
                  "--out", str(first), "--report", "csv")
        assert res.exit_code == 0
        echoed = json.loads(first.read_text())["config"]
        assert echoed["delta"] == 0.55 and echoed["max_tw"] == 10
        # a saved result replays as config, flags still win
        second = tmp_path / "second.json"
        res = run(runner, "detect", "--graph", str(graph), "--config", str(first),
                  "--delta", "0.7", "--out", str(second), "--report", "csv")
        assert res.exit_code == 0
        echoed = json.loads(second.read_text())["config"]
        assert echoed["delta"] == 0.7 and echoed["max_tw"] == 10


class TestExitCodes:
    def test_query_syntax_error_is_2(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        res = runner.invoke(cli, ["query", "--graph", str(graph),
                                  "-e", "getbicliques(;"])
        assert res.exit_code == 2
        assert "query syntax" in res.output

    def test_bad_weights_is_3(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        res = runner.invoke(cli, ["detect", "--graph", str(graph),
                                  "--weights", "0.5,0.5,0.5,0.5"])
        assert res.exit_code == 3

    def test_strict_unknown_id_is_3(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        res = runner.invoke(cli, ["query", "--graph", str(graph), "--strict-ids",
                                  "-e", "getbicliques() filter{ on(ghost); };"])
        assert res.exit_code == 3
        assert "ghost" in res.output

    def test_unknown_id_warns_but_succeeds_by_default(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        res = run(runner, "query", "--graph", str(graph),
                  "-e", "getbicliques() filter{ on(ghost); };")
        assert res.exit_code == 0
        assert "warning" in res.output

    def test_missing_input_file_is_usage_error(self, runner):
        res = runner.invoke(cli, ["detect", "--graph", "nope.jsonl"])
        assert res.exit_code == 2

    def test_strict_ingest_fails_on_malformed_line(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("alice,book,5,2004-01-01\nbroken line\n")
        res = runner.invoke(cli, ["ingest", "--input", str(bad), "--strict",
                                  "--out", str(tmp_path / "g.jsonl")])
        assert res.exit_code == 1
        # without --strict the bad line is only a warning
        res = run(runner, "ingest", "--input", str(bad), "--min-reviewer", "1",
                  "--min-product", "1", "--out", str(tmp_path / "g.jsonl"))
        assert res.exit_code == 0
        assert "warning" in res.output

    def test_bad_attack_spec_is_3(self, runner, tmp_path):
        res = runner.invoke(cli, ["synth", "generate", "--attack", "size=oops",
                                  "--out", str(tmp_path / "d.csv")])
        assert res.exit_code == 3

    def test_query_without_text_or_repl_is_usage_error(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        res = runner.invoke(cli, ["query", "--graph", str(graph)])
        assert res.exit_code == 2


class TestRepl:
    def test_repl_session(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        res = run(runner, "query", "--graph", str(graph), "--repl",
                  input="getbicliques(\n);\nnot a query;\nexit;\n")
        assert res.exit_code == 0
        assert "syntax error" in res.output  # the bad statement is not fatal


class TestReports:
    def test_table_report(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        res = run(runner, "detect", "--graph", str(graph), "--report", "table")
        assert res.exit_code == 0
        header, *rows = [l for l in res.stdout.splitlines() if "->" in l or "status" in l]
        assert "doc" in header and "status" in header
        assert any("collusive" in row for row in rows)

    def test_json_report_matches_saved_result(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        out = tmp_path / "r.json"
        res = run(runner, "detect", "--graph", str(graph), "--out", str(out),
                  "--report", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout) == json.loads(out.read_text())

    def test_version_flag(self, runner):
        res = run(runner, "--version")
        assert res.exit_code == 0 and "0.1.0" in res.output
