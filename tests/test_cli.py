"""End-to-end CLI behaviour through click's test runner."""

import csv
import io
import json
import math
import random

import pytest
from click.testing import CliRunner

from bcscan.cli import _write_result, cli
from bcscan.detector import DetectionResult, detect, route
from bcscan.model import DetectionConfig, RatingGraph
from testutil import make_graph, random_graph, reference_weighted_doc


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

    def test_mine_reads_config_file_and_flags_win(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_p": 4}))
        plain = run(runner, "mine", "--graph", str(graph))
        from_file = run(runner, "mine", "--graph", str(graph), "--config", str(cfg))
        flag_wins = run(runner, "mine", "--graph", str(graph), "--config", str(cfg),
                        "--min-p", "3")
        assert plain.exit_code == from_file.exit_code == flag_wins.exit_code == 0
        assert from_file.stdout != plain.stdout
        assert all(len(json.loads(line)["products"]) >= 4
                   for line in from_file.stdout.splitlines())
        assert flag_wins.stdout == plain.stdout

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

    def test_query_result_echo_is_the_layer_under_config(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        cached = tmp_path / "r.json"
        res = run(runner, "detect", "--graph", str(graph), "--weights",
                  "0.4,0.3,0.2,0.1", "--delta", "0.75", "--out", str(cached),
                  "--report", "csv")
        assert res.exit_code == 0
        saved = json.loads(cached.read_text())

        def groups(*args):
            q = run(runner, "query", "--graph", str(graph), "--result", str(cached),
                    "--json", *args)
            assert q.exit_code == 0
            return json.loads(q.stdout)["groups"]

        # the cached weights and delta apply without repeating them
        assert (sorted(g["doc"] for g in groups("-e", "getbicliques();"))
                == sorted(g["doc"] for g in saved["collusive"]))
        floor = "getbicliques() filter{ DOC > 0.41; };"
        assert groups("-e", floor) == groups("--config", str(cached), "-e", floor)
        # flags still win over the echo
        plain = groups("--weights", "0.25,0.25,0.25,0.25", "--delta", "0.4",
                       "-e", floor)
        assert plain and plain != groups("-e", floor)

    def test_detect_echoes_the_snapshot_scale(self, runner, tmp_path):
        log = tmp_path / "ten.csv"
        log.write_text("".join(f"r{i},p{j},{7 + (i + j) % 4},2004-01-0{j + 1}\n"
                               for i in range(3) for j in range(3)))
        graph = tmp_path / "g.json"
        ing = run(runner, "ingest", "--input", str(log), "--max-value", "10",
                  "--min-reviewer", "1", "--min-product", "1", "--out", str(graph))
        assert ing.exit_code == 0
        out = tmp_path / "r.json"
        det = run(runner, "detect", "--graph", str(graph), "--out", str(out),
                  "--report", "csv")
        assert det.exit_code == 0
        echo = json.loads(out.read_text())["config"]
        assert echo["max_value"] == 10.0
        assert (echo["prune_reviewer_min"], echo["prune_product_min"]) == (1, 1)
        # a snapshot whose header records no floors echoes the config's
        header, *edges = graph.read_text().splitlines()
        header = {k: v for k, v in json.loads(header).items()
                  if not k.startswith("prune_")}
        graph.write_text("\n".join([json.dumps(header), *edges]) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prune_reviewer_min": 4, "max_value": 7}))
        det = run(runner, "detect", "--graph", str(graph), "--config", str(cfg),
                  "--out", str(out), "--report", "csv")
        assert det.exit_code == 0
        echo = json.loads(out.read_text())["config"]
        assert echo["max_value"] == 10.0
        assert (echo["prune_reviewer_min"], echo["prune_product_min"]) == (4, 10)

    def test_synth_eval_replays_the_floors_a_result_echoes(self, runner, tmp_path):
        data, truth, graph = seed_pipeline(runner, tmp_path)
        cached = tmp_path / "r.json"
        assert run(runner, "detect", "--graph", str(graph), "--out", str(cached),
                   "--report", "csv").exit_code == 0
        sweep = ["synth", "eval", "--data", str(data), "--truth", str(truth),
                 "--deltas", "0.2,0.4"]
        plain = run(runner, *sweep)
        replay = run(runner, *sweep, "--config", str(cached))
        assert plain.exit_code == replay.exit_code == 0
        assert replay.stdout == plain.stdout


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
        # reported once, on stderr; stdout holds only the answer
        assert "warning" not in res.stdout
        assert res.stdout == "no matching groups\n"
        assert res.stderr.count("warning") == 1
        assert res.stderr == "warning: unknown product id 'ghost'\n"

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

    def test_ingest_and_stats_settings_are_validated(self, runner, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("alice,book,5,2004-01-01\n")
        scored = tmp_path / "scored.jsonl"
        scored.write_text("")
        for args in (["ingest", "--input", str(log), "--min-reviewer", "-5"],
                     ["ingest", "--input", str(log), "--max-value", "1"]):
            res = runner.invoke(cli, args + ["--out", str(tmp_path / "g.json")])
            assert res.exit_code == 3, args
        res = runner.invoke(cli, ["stats", "--scored", str(scored), "--delta", "2"])
        assert res.exit_code == 3

    def test_bad_attack_spec_is_3(self, runner, tmp_path):
        res = runner.invoke(cli, ["synth", "generate", "--attack", "size=oops",
                                  "--out", str(tmp_path / "d.csv")])
        assert res.exit_code == 3

    def test_attack_with_more_targets_than_products_is_3(self, runner, tmp_path):
        res = runner.invoke(cli, ["synth", "generate", "--products", "3",
                                  "--attack", "size=4,targets=5",
                                  "--out", str(tmp_path / "d.csv")])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert "error: attack wants 5 targets, catalogue has 3" in res.stderr

    @pytest.mark.parametrize("spec,message", [
        ("size", "attack spec piece 'size' is not key=value"),
        ("size=5,colour=red", "unknown attack key 'colour' "
                              "(expected size, targets, mode, span, dup, camo)"),
        ("size=x", "invalid literal for int() with base 10: 'x'"),
        ("dup=x", "could not convert string to float: 'x'"),
        # a value is read without its padding, in an error message too
        ("size= x ", "invalid literal for int() with base 10: 'x'"),
        ("mode=sideways", "value_mode must be promote or demote, got 'sideways'"),
        ("targets=2", "target_count must be >= 3, got 2"),
    ])
    def test_bad_attack_spec_piece_is_3(self, runner, tmp_path, spec, message):
        res = runner.invoke(cli, ["synth", "generate", "--attack", spec,
                                  "--out", str(tmp_path / "d.csv")])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == f"error: {message}\n"

    # the scale is a setting like the rest, checked as a config checks it
    @pytest.mark.parametrize("value,message", [
        ("nan", "max_value must be finite, got nan"),
        ("inf", "max_value must be finite, got inf"),
        ("1", "max_value must exceed 1, got 1.0"),
        ("0.5", "max_value must exceed 1, got 0.5"),
    ])
    def test_a_bad_generate_scale_is_3(self, runner, tmp_path, value, message):
        out = tmp_path / "d.csv"
        res = runner.invoke(cli, ["synth", "generate", "--max-value", value,
                                  "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("deltas,message", [
        ("1:0:0.1", "the delta sweep '1:0:0.1' has no points"),
        ("0:nan:0.1", "the delta sweep '0:nan:0.1' has no points"),
        ("0:1:nan", "delta step must be positive, got nan"),
        ("0.5,2", "delta must lie in [0, 1], got 2.0"),
        ("0.9:1.5:0.2", "delta must lie in [0, 1], got 1.1"),
    ])
    def test_a_bad_sweep_is_3_before_any_detection(self, runner, tmp_path, monkeypatch,
                                                   deltas, message):
        data, truth, _ = seed_pipeline(runner, tmp_path)

        def detect(*args):
            raise AssertionError("a detection ran")
        monkeypatch.setattr("bcscan.synth.detect", detect)
        res = runner.invoke(cli, ["synth", "eval", "--data", str(data),
                                  "--truth", str(truth), "--deltas", deltas])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == f"error: {message}\n"

    def test_a_padded_attack_spec_reads_as_the_unpadded_one(self, runner, tmp_path):
        outputs = []
        for spec in ("size=5,mode=demote", " size = 5 , mode = demote ,"):
            out = tmp_path / f"{len(outputs)}.csv"
            assert run(runner, "synth", "generate", "--attack", spec, "--seed", "7",
                       "--out", str(out)).exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] != b""

    def test_query_weights_flag_reweights_the_cached_reports(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        cached = tmp_path / "r.json"
        assert run(runner, "detect", "--graph", str(graph), "--out", str(cached),
                   "--report", "csv").exit_code == 0
        saved = {(tuple(row["reviewers"]), tuple(row["products"])): row
                 for row in json.loads(cached.read_text())["scored"]}

        def groups(*args):
            q = run(runner, "query", "--graph", str(graph), "--result", str(cached),
                    "--json", "-e", "getbicliques() filter{ DOC > 0.0; };", *args)
            assert q.exit_code == 0
            return json.loads(q.stdout)["groups"]

        weights = (0.4, 0.3, 0.2, 0.1)
        reweighted = groups("--weights", ",".join(map(str, weights)))
        assert reweighted
        changed = 0
        for row in reweighted:
            cached_row = saved[tuple(row["reviewers"]), tuple(row["products"])]
            quadruple = tuple(cached_row[k] for k in ("gvs", "gts", "grs", "gms"))
            assert row["doc"] == reference_weighted_doc(quadruple, weights)
            assert _without(row, "doc") == _without(cached_row, "doc")
            changed += row["doc"] != cached_row["doc"]
        assert changed
        # without the flag every group shows its cached report
        assert all(row == saved[tuple(row["reviewers"]), tuple(row["products"])]
                   for row in groups())

    def test_query_rejects_settings_a_cached_result_ignores(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        cached = tmp_path / "r.json"
        assert run(runner, "detect", "--graph", str(graph), "--out", str(cached),
                   "--report", "csv").exit_code == 0
        for args in (["--min-r", "4", "--min-p", "4", "--max-tw", "1", "--cap", "1"],
                     ["--fresh"]):
            res = runner.invoke(cli, ["query", "--graph", str(graph), "--result",
                                      str(cached), *args,
                                      "-e", "getbicliques() filter{ DOC > 0.3; };"])
            assert res.exit_code == 2, args
            assert "No such option" in res.output

    def test_query_rejects_a_result_whose_flagged_list_disagrees(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        cached = tmp_path / "r.json"
        assert run(runner, "detect", "--graph", str(graph), "--out", str(cached),
                   "--report", "csv").exit_code == 0
        data = json.loads(cached.read_text())
        first = data["collusive"][0]
        assert len(first["reviewers"]) > 2
        stray = {**first, "reviewers": first["reviewers"][1:]}
        assert all(row["reviewers"] != stray["reviewers"] for row in data["scored"])
        for collusive in (data["collusive"][1:], data["collusive"] + [stray]):
            cached.write_text(json.dumps({**data, "collusive": collusive}))
            res = runner.invoke(cli, ["query", "--graph", str(graph), "--result",
                                      str(cached), "-e", "getbicliques();"])
            assert res.exit_code == 3
            assert "collusive" in res.output

    def test_query_without_result_detects_with_config_settings(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_r": 3, "min_p": 3}))
        cached = tmp_path / "r.json"
        assert run(runner, "detect", "--graph", str(graph), "--config", str(cfg),
                   "--out", str(cached), "--report", "csv").exit_code == 0
        text = "getbicliques() filter{ DOC > 0.0; };"

        def groups(*args):
            q = run(runner, "query", "--graph", str(graph), "--json", "-e", text, *args)
            assert q.exit_code == 0
            return json.loads(q.stdout)["groups"]

        fresh = groups("--config", str(cfg))
        assert fresh and all(len(g["reviewers"]) >= 3 for g in fresh)
        assert fresh == groups("--result", str(cached))
        assert fresh != groups()

    def test_query_without_text_or_repl_is_usage_error(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        res = runner.invoke(cli, ["query", "--graph", str(graph)])
        assert res.exit_code == 2


def _without(record: dict, field: str) -> dict:
    return {k: v for k, v in record.items() if k != field}


def _repeat_a_collusive_group(result: dict) -> dict:
    """The result with its first collusive group listed twice, beside itself,
    both in ``scored`` and in ``collusive``."""
    row = result["collusive"][0]
    scored = result["scored"]
    at = scored.index(row) + 1
    return {**result, "scored": scored[:at] + [row] + scored[at:],
            "collusive": [row] + result["collusive"]}


def _one_ulp_off(value: float) -> float:
    """The float next to ``value`` on the side that stays inside [0, 1]."""
    return math.nextafter(value, 0.0 if value > 0.0 else 1.0)


def _first_scored_row_off(field: str):
    """An edit of a result that moves its first scored row's ``field`` by
    one ulp."""
    def edit(result: dict) -> dict:
        first, *rest = result["scored"]
        return {**result, "scored": [{**first, field: _one_ulp_off(first[field])},
                                     *rest]}
    return edit


def _first_collusive_row(result: dict, **fields) -> dict:
    """The result with ``fields`` set in its first collusive row."""
    first, *rest = result["collusive"]
    return {**result, "collusive": [{**first, **fields}, *rest]}


class _Text(str):
    """JSON text an edit gives to be written as it is, for a document
    json.dumps cannot write."""


def _json_text(value) -> str:
    return value if isinstance(value, _Text) else json.dumps(value)


# a 401-digit integer, past the largest float, and a 20,000-deep array, past
# the JSON decoder's recursion limit
HUGE = 10 ** 400
NESTED = _Text("[" * 20_000 + "]" * 20_000)

# Each malformed input: the file, the JSONL line edited (a slice: the list of
# those lines; None: the whole JSON document), the edit, the command that
# reads the file, and the error text.
MALFORMED = {
    "snapshot-header-without-max_value":
        ("graph", 0, lambda h: _without(h, "max_value"), "detect", "'max_value'"),
    "snapshot-header-max_value-null":
        ("graph", 0, lambda h: {**h, "max_value": None}, "detect",
         "max_value must be a number, got None"),
    "snapshot-header-max_value-a-string":
        ("graph", 0, lambda h: {**h, "max_value": "5"}, "mine",
         "max_value must be a number, got '5'"),
    "snapshot-header-epoch-a-number":
        ("graph", 0, lambda h: {**h, "epoch": 5}, "detect",
         "snapshot epoch must be a date string or null, got 5"),
    "snapshot-header-epoch-a-list":
        ("graph", 0, lambda h: {**h, "epoch": ["x"]}, "mine",
         "snapshot epoch must be a date string or null, got ['x']"),
    "snapshot-edge-without-t":
        ("graph", 1, lambda e: _without(e, "t"), "mine", "'t'"),
    "snapshot-edge-t-a-fraction":
        ("graph", 1, lambda e: {**e, "t": 1.9}, "mine",
         "time must be an integer day offset, got 1.9"),
    "snapshot-edge-t-a-bool":
        ("graph", 1, lambda e: {**e, "t": True}, "mine",
         "time must be an integer day offset, got True"),
    "snapshot-edge-v-a-string":
        ("graph", 1, lambda e: {**e, "v": "5"}, "detect",
         "rating value must be a number, got '5'"),
    "snapshot-edge-s-a-bool":
        ("graph", 1, lambda e: {**e, "s": False}, "detect",
         "spamicity must be a number, got False"),
    "candidate-without-products":
        ("cands", 0, lambda row: _without(row, "products"), "indicators", "'products'"),
    "result-without-scored":
        ("result", None, lambda r: _without(r, "scored"), "query", "'scored'"),
    "result-not-an-object":
        ("result", None, lambda r: [r], "query", "JSON object"),
    "scored-row-without-gts":
        ("scored", 0, lambda row: _without(row, "gts"), "stats", "'gts'"),
    "snapshot-edge-not-an-object":
        ("graph", 1, lambda e: [1, 2], "mine", "snapshot line 2 is not a JSON object"),
    "snapshot-header-not-an-object":
        ("graph", 0, lambda h: [], "detect", "snapshot line 1 is not a JSON object"),
    "candidate-not-an-object":
        ("cands", 0, lambda row: "x", "indicators",
         "candidate file line 1 is not a JSON object"),
    "scored-row-not-an-object":
        ("scored", 0, lambda row: [0], "stats", "scored file line 1 is not a JSON object"),
    "result-scored-row-not-an-object":
        ("result", None, lambda r: {**r, "scored": [[1], *r["scored"][1:]]}, "query",
         "result scored row 1 is not a JSON object"),
    "result-scored-not-a-list":
        ("result", None, lambda r: {**r, "scored": 5}, "query",
         "result scored rows are not in a JSON list"),
    "truth-not-a-list":
        ("truth", None, lambda t: 5, "eval", "truth file rows are not in a JSON list"),
    "truth-row-not-an-object":
        ("truth", None, lambda t: [1], "eval", "truth file row 1 is not a JSON object"),
    "truth-row-without-products":
        ("truth", None, lambda t: [_without(t[0], "products")], "eval",
         "truth file has no 'products' field"),
    # neither a number nor text is taken for a set of ids
    **{f"truth-row-{side}-{name}":
       ("truth", None, lambda t, side=side, value=value: [{**t[0], side: value}, *t[1:]],
        "eval", f"truth file {side} must be a non-empty list of ids, got {value!r}")
       for side, name, value in (("reviewers", "an-int", 5), ("products", "a-string", "abc"),
                                 ("reviewers", "a-list-of-ints", [1, 2, 3]),
                                 ("products", "an-empty-list", []))},
    "config-delta-a-string":
        ("config", None, lambda c: {"delta": "0.5"}, "configured",
         "delta must be a number, got '0.5'"),
    "config-min_r-not-an-integer":
        ("config", None, lambda c: {"min_r": 2.5}, "configured",
         "min_r must be an integer, got 2.5"),
    "config-cap-a-bool":
        ("config", None, lambda c: {"candidate_cap": True}, "configured",
         "candidate_cap must be an integer, got True"),
    "config-weights-a-string":
        ("config", None, lambda c: {"weights": "0.25,0.25,0.25,0.25"}, "configured",
         "weights must be a list of numbers"),
    "config-echo-not-an-object":
        ("config", None, lambda c: {"config": [1]}, "configured",
         "is not a JSON object"),
    "result-config-not-an-object":
        ("result", None, lambda r: {**r, "config": []}, "query",
         "a config must be a JSON object"),
    "result-delta-a-string":
        ("result", None, lambda r: {**r, "config": {**r["config"], "delta": "0.5"}},
         "query", "delta must be a number, got '0.5'"),
    "result-scored-rows-reversed":
        ("result", None, lambda r: {**r, "scored": r["scored"][::-1]}, "query",
         "does not come after group 1 in canonical order"),
    "result-collusive-group-repeated":
        ("result", None, _repeat_a_collusive_group, "query", "in canonical order"),
    "scored-row-gvs-a-bool":
        ("scored", 0, lambda row: {**row, "gvs": True}, "stats",
         "gvs must be a number, got True"),
    "scored-row-gvs-a-string":
        ("scored", 0, lambda row: {**row, "gvs": "0.5"}, "stats",
         "gvs must be a number, got '0.5'"),
    "result-scored-row-gvs-a-bool":
        ("result", None, lambda r: {**r, "scored": [{**r["scored"][0], "gvs": True},
                                                    *r["scored"][1:]]},
         "query", "gvs must be a number, got True"),
    "result-scored-row-doc-a-string":
        ("result", None, lambda r: {**r, "scored": [{**r["scored"][0], "doc": "0.5"},
                                                    *r["scored"][1:]]},
         "query", "doc must be a number, got '0.5'"),
    # the first seed-21 group's members each rated 3 of the 12 products
    "result-scored-row-product-not-rated-by-all":
        ("result", None, lambda r: {**r, "scored": [
            {**r["scored"][0], "products": [f"p{i:04d}" for i in range(12)]},
            *r["scored"][1:]]}, "query", "no rating by"),
    "candidate-ids-not-in-graph":
        ("cands", 0, lambda row: {**row, "reviewers": ["ghost1", "ghost2"]},
         "indicators", "no rating by 'ghost1'"),
    "snapshot-header-floor-a-string":
        ("graph", 0, lambda h: {**h, "prune_reviewer_min": "x"}, "mine",
         "prune_reviewer_min must be an integer, got 'x'"),
    "snapshot-header-floor-negative":
        ("graph", 0, lambda h: {**h, "prune_product_min": -1}, "mine",
         "prune thresholds must be non-negative"),
    **{f"result-scored-row-{field}-one-ulp-off":
       ("result", None, _first_scored_row_off(field), "query",
        f"result scored row 1: stored {field} ")
       for field in ("gs", "gps", "di", "doc")},
    **{f"scored-row-{field}-one-ulp-off":
       ("scored", 0, lambda row, field=field: {**row, field: _one_ulp_off(row[field])},
        "stats", f"scored file row 1: stored {field} ")
       for field in ("gs", "gps", "di")},
    "scored-row-reviewers-not-a-list":
        ("scored", 0, lambda row: {**row, "reviewers": "r1"}, "stats",
         "scored file reviewers must be a non-empty list of ids, got 'r1'"),
    "result-scored-row-reviewers-a-number":
        ("result", None, lambda r: {**r, "scored": [{**r["scored"][0], "reviewers": 5},
                                                    *r["scored"][1:]]},
         "query", "result reviewers must be a non-empty list of ids, got 5"),
    "result-collusive-row-products-empty":
        ("result", None, lambda r: {**r, "collusive": [{**r["collusive"][0],
                                                        "products": []},
                                                       *r["collusive"][1:]]},
         "query", "result products must be a non-empty list of ids, got []"),
    # a collusive row gets the scored rows' checks, then must equal its scored row
    "result-collusive-row-doc-null":
        ("result", None, lambda r: _first_collusive_row(r, doc=None), "query",
         "doc must be a number, got None"),
    "result-collusive-row-gvs-a-bool":
        ("result", None, lambda r: _first_collusive_row(r, gvs=True), "query",
         "gvs must be a number, got True"),
    "result-collusive-row-doc-one-ulp-off":
        ("result", None,
         lambda r: _first_collusive_row(r, doc=_one_ulp_off(r["collusive"][0]["doc"])),
         "query", "the result's collusive list does not match its scored groups"),
    "candidate-reviewers-a-number":
        ("cands", 0, lambda row: {**row, "reviewers": 5}, "indicators",
         "candidate file reviewers must be a non-empty list of ids, got 5"),
    "candidate-products-a-string":
        ("cands", 0, lambda row: {**row, "products": "p0001"}, "indicators",
         "candidate file products must be a non-empty list of ids, got 'p0001'"),
    # the scale detect rejects; the edges above it are not read first
    "snapshot-header-max_value-one":
        ("graph", 0, lambda h: {**h, "max_value": 1.0}, "mine",
         "max_value must exceed 1, got 1.0"),
    # json reads and writes NaN and Infinity, which are not JSON
    **{f"snapshot-header-max_value-{value}":
       ("graph", 0, lambda h, value=value: {**h, "max_value": float(value)}, command,
        f"max_value must be finite, got {float(value)}")
       for value, command in (("nan", "detect"), ("inf", "mine"), ("-inf", "query"))},
    **{f"config-max_value-{value}":
       ("config", None, lambda c, value=value: {**c, "max_value": float(value)},
        "configured", f"max_value must be finite, got {float(value)}")
       for value in ("nan", "inf", "-inf")},
    "snapshot-second-edge-repeats-the-first":
        ("graph", slice(1, 2), lambda edges: edges * 2, "detect", "duplicate edge for"),
    # an id that is not a string would reach the graph's sorted id lists
    "snapshot-edge-r-a-number":
        ("graph", 1, lambda e: {**e, "r": 5}, "mine",
         "reviewer id must be a string, got 5"),
    "snapshot-edge-p-a-list":
        ("graph", 1, lambda e: {**e, "p": ["p1"]}, "detect",
         "product id must be a string, got ['p1']"),
    # the one date form every supported Python reads alike
    "snapshot-header-epoch-a-basic-format-date":
        ("graph", 0, lambda h: {**h, "epoch": "20040301"}, "detect",
         "Invalid isoformat string: '20040301'"),
    "snapshot-header-epoch-a-week-date":
        ("graph", 0, lambda h: {**h, "epoch": "2004-W10-1"}, "mine",
         "Invalid isoformat string: '2004-W10-1'"),
    **{f"result-expanded_count-{name}":
       ("result", None, lambda r, value=value: {**r, "expanded_count": value}, "query",
        "expanded_count must be an integer from 0 to its ")
       for name, value in (("a-string", "7"), ("a-fraction", 1.5), ("a-bool", True),
                           ("negative", -3), ("past-the-rows", 10 ** 6))},
    **{f"result-examined_count-{name}":
       ("result", None, lambda r, value=value: {**r, "examined_count": value}, "query",
        "examined_count must be its ")
       for name, value in (("not-the-row-count", 999), ("a-string", "1"))},
    "result-without-examined_count":
        ("result", None, lambda r: _without(r, "examined_count"), "query",
         "result has no 'examined_count' field"),
    # a JSON integer becomes a float in one place, which refuses one too large
    "snapshot-header-max_value-an-oversized-integer":
        ("graph", 0, lambda h: {**h, "max_value": HUGE}, "mine",
         "max_value is an integer too large for a float"),
    "snapshot-edge-v-an-oversized-integer":
        ("graph", 1, lambda e: {**e, "v": HUGE}, "detect",
         "rating value is an integer too large for a float"),
    "snapshot-edge-s-an-oversized-integer":
        ("graph", 1, lambda e: {**e, "s": HUGE}, "mine",
         "spamicity is an integer too large for a float"),
    "config-max_value-an-oversized-integer":
        ("config", None, lambda c: {"max_value": HUGE}, "configured",
         "max_value is an integer too large for a float"),
    "config-weights-an-oversized-integer":
        ("config", None, lambda c: {"weights": [HUGE, 0, 0, 0]}, "configured",
         "weights must be numbers, got [1000"),
    "result-config-weights-an-oversized-integer":
        ("result", None,
         lambda r: {**r, "config": {**r["config"], "weights": [HUGE, 0, 0, 0]}},
         "query", "weights must be numbers, got [1000"),
    # nesting past the decoder's limit is bad input in every JSON reader
    **{f"{kind}-nested-too-deeply":
       (kind, line, lambda _: NESTED, command, f"{name} is nested too deeply to read")
       for kind, line, command, name in (
           ("config", None, "configured", "config file"),
           ("result", None, "query", "result"),
           ("scored", 0, "stats", "scored file line 1"),
           ("cands", 0, "indicators", "candidate file line 1"),
           ("truth", None, "eval", "truth file"),
           ("graph", 1, "mine", "snapshot line 2"))},
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_file_exits_3_with_an_error_line(runner, tmp_path, case):
    data, truth, graph = seed_pipeline(runner, tmp_path)
    paths = {"graph": graph, "cands": tmp_path / "c.jsonl", "truth": truth,
             "scored": tmp_path / "s.jsonl", "result": tmp_path / "r.json",
             "config": tmp_path / "cfg.json"}
    paths["config"].write_text("{}")
    commands = {
        "mine": ["mine", "--graph", str(graph), "--out", str(paths["cands"])],
        "indicators": ["indicators", "--graph", str(graph), "--candidates",
                       str(paths["cands"]), "--out", str(paths["scored"])],
        "detect": ["detect", "--graph", str(graph), "--out", str(paths["result"]),
                   "--report", "csv"],
        "configured": ["detect", "--graph", str(graph), "--config", str(paths["config"]),
                       "--report", "csv"],
        "query": ["query", "--graph", str(graph), "--result", str(paths["result"]),
                  "-e", "getbicliques();"],
        "stats": ["stats", "--scored", str(paths["scored"])],
        "eval": ["synth", "eval", "--data", str(data), "--truth", str(truth),
                 "--deltas", "0.4"],
    }
    for name in commands:
        assert run(runner, *commands[name]).exit_code == 0, name
    kind, line, edit, command, text = MALFORMED[case]
    path = paths[kind]
    if line is None:
        path.write_text(_json_text(edit(json.loads(path.read_text()))))
    else:
        lines = path.read_text().splitlines()
        if isinstance(line, slice):
            lines[line] = map(json.dumps, edit([json.loads(l) for l in lines[line]]))
        else:
            lines[line] = _json_text(edit(json.loads(lines[line])))
        path.write_text("\n".join(lines) + "\n")
    res = runner.invoke(cli, commands[command])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert "error:" in res.output and text in res.output


class TestRepl:
    def test_repl_session(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        res = run(runner, "query", "--graph", str(graph), "--repl",
                  input="getbicliques(\n);\nnot a query;\nexit;\n")
        assert res.exit_code == 0
        assert "syntax error" in res.output  # the bad statement is not fatal

    def test_a_final_statement_without_a_semicolon_is_answered(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        result = tmp_path / "result.json"
        assert run(runner, "detect", "--graph", str(graph),
                   "--out", str(result)).exit_code == 0
        repl = ["query", "--graph", str(graph), "--result", str(result), "--repl"]
        first = run(runner, *repl, input="getbicliques();\n")
        res = run(runner, *repl, input="getbicliques();\ngetbicliques.products()")
        assert res.exit_code == 0
        assert res.stdout == first.stdout != ""
        assert "syntax error: expected ';'" in res.stderr

    def test_a_hand_edited_stored_doc_exits_3(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        result = tmp_path / "result.json"
        assert run(runner, "detect", "--graph", str(graph),
                   "--out", str(result)).exit_code == 0
        # hand-edit the stored doc of the highest- and lowest-scoring groups
        # to the opposite extremes, keeping the collusive list derived from
        # the edited values
        data = json.loads(result.read_text())
        weights, delta = data["config"]["weights"], data["config"]["delta"]
        rows = data["scored"]
        docs = [reference_weighted_doc((r["gvs"], r["gts"], r["grs"], r["gms"]),
                                       weights)
                for r in rows]
        assert docs == [r["doc"] for r in rows]
        high = max(range(len(rows)), key=docs.__getitem__)
        low = min(range(len(rows)), key=docs.__getitem__)
        assert docs[low] < docs[high]
        rows[high]["doc"], rows[low]["doc"] = 0.0, 1.0
        data["collusive"] = sorted((r for r in rows if r["doc"] > delta),
                                   key=lambda r: (-r["doc"], r["reviewers"], r["products"]))
        result.write_text(json.dumps(data))
        n = min(high, low)
        res = run(runner, "query", "--graph", str(graph), "--result", str(result),
                  "-e", "getbicliques();", "--repl", input="getbicliques();\nexit;\n")
        assert res.exit_code == 3, res.output
        assert res.stdout == ""
        assert res.stderr == (f"error: result scored row {n + 1}: stored doc "
                              f"{rows[n]['doc']!r} is not the {docs[n]!r} it "
                              "derives to\n")

    def test_piped_session_prints_what_e_prints(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        result = tmp_path / "result.json"
        assert run(runner, "detect", "--graph", str(graph),
                   "--out", str(result)).exit_code == 0
        good = ["getbicliques(0.4,0.3,0.2,0.1) filter{ DOC > 0.3; };",
                "getbicliques.products();"]
        query = ["query", "--graph", str(graph), "--result", str(result)]
        once = [run(runner, *query, "-e", text) for text in good]
        assert all(r.exit_code == 0 and r.stdout for r in once)
        res = run(runner, *query, "--repl",
                  input=f"{good[0]}\ngetbicliques(;\n{good[1]}\nexit;\n")
        assert res.exit_code == 0
        assert res.stdout == "".join(r.stdout for r in once)
        assert "syntax error:" in res.stderr and "syntax error" not in res.stdout


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
        assert res.stdout == out.read_text()

    def test_csv_report_numbers_and_routes_the_scored_groups(self, runner, tmp_path):
        _, _, graph = seed_pipeline(runner, tmp_path)
        out = tmp_path / "r.json"
        res = run(runner, "detect", "--graph", str(graph), "--out", str(out),
                  "--report", "csv")
        assert res.exit_code == 0
        result = DetectionResult.from_dict(json.loads(out.read_text()),
                                           RatingGraph.load(graph))
        header, *rows = csv.reader(io.StringIO(res.stdout))
        assert header == ["group_id", "reviewers", "products", "doc", "di", "status"]
        assert [row[0] for row in rows] == [str(i) for i in range(1, len(rows) + 1)]
        assert [(tuple(row[1].split()), tuple(row[2].split())) for row in rows] == \
            [b.key for b, _ in result.scored]
        statuses = [route(rep, result.config.delta) for _, rep in result.scored]
        assert [row[5] for row in rows] == statuses
        assert {"collusive", "dangerous"} <= set(statuses)

    def test_out_dash_means_stdout(self, runner, tmp_path, monkeypatch):
        data, _, graph = seed_pipeline(runner, tmp_path)
        saved = tmp_path / "r.json"
        csv_only = run(runner, "detect", "--graph", str(graph), "--out", str(saved),
                       "--report", "csv")
        monkeypatch.chdir(tmp_path)
        res = run(runner, "detect", "--graph", str(graph), "--out", "-",
                  "--report", "csv")
        assert csv_only.exit_code == res.exit_code == 0
        assert res.stdout == saved.read_text() + csv_only.stdout
        gen = run(runner, "synth", "generate", "--honest", "5", "--products", "3",
                  "--density", "1", "--out", "-", "--truth", "-")
        assert gen.exit_code == 0
        assert gen.stdout.startswith("u0000,p0000,") and gen.stdout.endswith("\n[]\n")
        ing = run(runner, "ingest", "--input", str(data), "--min-reviewer", "1",
                  "--min-product", "1", "--out", "-")
        assert ing.exit_code == 0
        assert ing.stdout == graph.read_text()
        assert not (tmp_path / "-").exists()

    def test_version_flag(self, runner):
        res = run(runner, "--version")
        assert res.exit_code == 0 and "0.1.0" in res.output


def _odd_id_graph() -> RatingGraph:
    """Two collusive trios whose ids hold a quote, a backslash, control
    characters, U+2028 and non-ASCII text."""
    reviewers = ['say "hi"', "back\\slash", "tab\there\x1f", "line\u2028sep", "Zoë"]
    products = ["p\x01", "p\u2028", "café", 'p"q\\r', "日本"]
    rows = [(r, p, 5, 1) for r in reviewers[:3] for p in products[:3]]
    rows += [(r, p, 3, 2) for r in reviewers[3:] for p in products[2:]]
    rows += [(reviewers[1], p, 2, 40) for p in products[3:]]
    return make_graph(rows)


def _dumped(result: DetectionResult) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


class TestResultWriter:
    """``detect`` writes a result row by row; the text must be what
    json.dumps makes of ``DetectionResult.to_dict()``."""

    def test_writes_the_text_of_to_dict(self, tmp_path):
        # seeds whose dangerous groups expand quickly
        results = [detect(random_graph(random.Random(seed), 30, 8, 0.5, days=20),
                          DetectionConfig(**settings))
                   for seed, settings in ((0, {}), (4, {}),
                                          (4, {"delta": 0.55, "max_tw": 5,
                                               "weights": (0.4, 0.3, 0.2, 0.1)}))]
        results += [detect(_odd_id_graph()), detect(make_graph([("r", "p", 5, 0)]))]
        assert all(len(r.scored) > 1 and r.collusive for r in results[:-1])
        assert results[-1].scored == ()
        path = tmp_path / "r.json"
        for result in results:
            _write_result(result, str(path))
            assert path.read_text(encoding="utf-8") == _dumped(result)

    @pytest.mark.parametrize("graph", [_odd_id_graph(), make_graph([])],
                             ids=["odd-ids", "no-groups"])
    def test_out_file_and_json_report(self, runner, tmp_path, graph):
        snapshot, out = tmp_path / "g.jsonl", tmp_path / "r.json"
        graph.save(snapshot)
        res = run(runner, "detect", "--graph", str(snapshot), "--out", str(out),
                  "--report", "json")
        assert res.exit_code == 0
        want = _dumped(detect(RatingGraph.load(snapshot)))
        assert res.stdout == out.read_text(encoding="utf-8") == want
        if not len(graph):
            assert '"collusive": [],' in want and '"scored": []' in want


CONFIG_FLAGS = {"--config", "--delta", "--weights", "--max-tw", "--min-r", "--min-p",
                "--cap", "--max-value", "--min-reviewer", "--min-product"}
DETECT_FLAGS = {"--config", "--delta", "--weights", "--max-tw", "--min-r", "--min-p",
                "--cap"}


# The config flags each command takes: the settings it reads and no others.
COMMAND_SETTINGS = {
    "ingest": {"--min-reviewer", "--min-product", "--max-value"},
    "mine": {"--config", "--min-r", "--min-p", "--cap"},
    "indicators": {"--config", "--weights", "--max-tw"},
    "detect": DETECT_FLAGS,
    "query": {"--config", "--delta", "--weights"},
    "stats": {"--delta"},
    "synth eval": CONFIG_FLAGS - {"--delta"},
    "synth generate": {"--max-value"},
}


@pytest.mark.parametrize("command", list(COMMAND_SETTINGS))
def test_each_command_takes_only_the_settings_it_reads(command):
    cmd = cli
    for name in command.split():
        cmd = cmd.commands[name]
    flags = {opt for param in cmd.params for opt in param.opts}
    assert flags & CONFIG_FLAGS == COMMAND_SETTINGS[command]
