"""A seeded boundary fuzzer over the CLI's input files.

Each case changes one field of one record of the README walkthrough's
seed-42 files to a value of another type or range, or deletes it, and runs
every command that reads that record. Bad input must exit 3 with an error
line and no traceback; a run that exits 0 must write JSON without NaN or
Infinity, which are not JSON.
"""

import json
import os
import random

import pytest
from click.testing import CliRunner

from bcscan.cli import cli

DELETE = object()
# a 10,000-deep array, spliced into the dumped text in place of this string,
# because json.dumps itself cannot nest that deep
DEEP = "<a 10,000-deep array>"
DEEP_TEXT = "[" * 10_000 + "]" * 10_000
VALUES = [None, True, 0, -1, 1.5, float("nan"), 1e308, 10 ** 400, "", "x",
          "2004-13-45", [], ["a"], {}, {"a": 1}, DEEP, DELETE]
STDOUT = "-"
FILES = ("ratings.csv", "truth.json", "graph.json", "result.json",
         "cands.jsonl", "scored.jsonl")
# the files of one JSON object per line; a snapshot is one
JSONL = ("graph.json", "cands.jsonl", "scored.jsonl")


def _walkthrough(base):
    """The README walkthrough's files, plus the candidate and scored JSONL of
    its graph."""
    f = {name: str(base / name) for name in FILES}
    for argv in (["synth", "generate", "--honest", "200", "--products", "20",
                  "--density", "0.05",
                  "--attack", "size=5,targets=4,mode=promote,span=2,dup=0.2",
                  "--seed", "42", "--out", f["ratings.csv"],
                  "--truth", f["truth.json"]],
                 ["ingest", "--input", f["ratings.csv"], "--min-reviewer", "1",
                  "--min-product", "1", "--out", f["graph.json"]],
                 ["detect", "--graph", f["graph.json"], "--out", f["result.json"]],
                 ["mine", "--graph", f["graph.json"], "--out", f["cands.jsonl"]],
                 ["indicators", "--graph", f["graph.json"],
                  "--candidates", f["cands.jsonl"], "--out", f["scored.jsonl"]]):
        res = CliRunner().invoke(cli, argv, catch_exceptions=False)
        assert res.exit_code == 0, argv
    return f


def _commands(f, out):
    """Each command that reads an input file: its arguments over the files
    ``f``, and its JSON outputs (a path, or STDOUT)."""
    mined, scored, result = (str(out / name) for name in ("m.jsonl", "s.jsonl", "r.json"))
    graph = ["--graph", f["graph.json"]]
    return {
        "mine": (["mine", *graph, "--out", mined], [mined]),
        "indicators": (["indicators", *graph, "--candidates", f["cands.jsonl"],
                        "--out", scored], [scored]),
        "detect": (["detect", *graph, "--out", result, "--report", "json"],
                   [result, STDOUT]),
        "query": (["query", *graph, "--result", f["result.json"], "--json",
                   "-e", "getbicliques();"], [STDOUT]),
        "configured": (["detect", *graph, "--config", f["result.json"],
                        "--out", result, "--report", "csv"], [result]),
        "stats": (["stats", "--scored", f["scored.jsonl"]], []),
        "eval": (["synth", "eval", "--data", f["ratings.csv"], "--truth", f["truth.json"],
                  "--config", f["result.json"], "--deltas", "0.4"], []),
    }


def _load(name, text):
    if name in JSONL:
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def _dump(name, doc):
    if name in JSONL:
        text = "".join(json.dumps(record) + "\n" for record in doc)
    else:
        text = json.dumps(doc)
    return text.replace(json.dumps(DEEP), DEEP_TEXT)


def _record(doc, path):
    for step in path:
        doc = doc[step]
    return doc


# The snapshot edge edited, drawn by a seeded generator: line 0 is the
# header, lines 1 to 213 the edges.
EDGE = random.Random(42).randrange(1, 214)
GRAPH_READERS = ("mine", "indicators", "detect", "query")
RESULT_READERS = ("query", "configured", "eval")

# Each record kind: its file, its path in the file's JSON (a JSONL file is
# the list of its lines), and the commands that read it.
RECORDS = {
    "snapshot-header": ("graph.json", (0,), GRAPH_READERS),
    "snapshot-edge": ("graph.json", (EDGE,), GRAPH_READERS),
    "result": ("result.json", (), RESULT_READERS),
    "result-config": ("result.json", ("config",), RESULT_READERS),
    "result-scored-row": ("result.json", ("scored", 0), ("query",)),
    "result-collusive-row": ("result.json", ("collusive", 0), ("query",)),
    "candidate-row": ("cands.jsonl", (0,), ("indicators",)),
    "scored-file-row": ("scored.jsonl", (0,), ("stats",)),
    "truth-row": ("truth.json", (0,), ("eval",)),
}


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


def _fault(res, outputs, must_fail: bool) -> str | None:
    """What is wrong with one command's run, or None."""
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        return f"raised {res.exception!r}"
    if res.exit_code == 3:
        return None if res.stderr.startswith("error: ") else "exited 3 without an error line"
    if must_fail or res.exit_code != 0:
        return f"exited {res.exit_code}"
    for path in outputs:
        text = res.stdout if path == STDOUT else open(path, encoding="utf-8").read()
        for doc in text.splitlines() if path.endswith(".jsonl") else [text]:
            try:
                json.loads(doc, parse_constant=_no_constants)
            except ValueError as exc:
                return f"wrote {path}: {exc}"
    return None


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    return _walkthrough(tmp_path_factory.mktemp("walkthrough"))


@pytest.mark.parametrize("kind", list(RECORDS))
def test_every_edit_of_a_field_exits_0_or_3(walkthrough, tmp_path, kind):
    name, at, readers = RECORDS[kind]
    runner = CliRunner()
    original = open(walkthrough[name], encoding="utf-8").read()
    edited = {**walkthrough, name: str(tmp_path / name)}
    commands = _commands(edited, tmp_path)
    faults = []
    for field in _record(_load(name, original), at):
        for value in VALUES:
            doc = _load(name, original)
            record = _record(doc, at)
            if value is DELETE:
                del record[field]
            else:
                record[field] = value
            with open(edited[name], "w", encoding="utf-8") as fp:
                fp.write(_dump(name, doc))
            for command in readers:
                argv, outputs = commands[command]
                for path in outputs:
                    if path != STDOUT and os.path.exists(path):
                        os.remove(path)
                # every edit of a collusive row leaves it unlike its scored row
                fault = _fault(runner.invoke(cli, argv), outputs,
                               must_fail=kind == "result-collusive-row")
                if fault:
                    shown = "deleted" if value is DELETE else repr(value)
                    faults.append(f"{command} with {field} {shown}: {fault}")
    assert not faults, "\n".join(faults)


# with the commands above, all eight show the command group's exit-code rule
@pytest.mark.parametrize("argv,message", [
    (["ingest", "--max-value", "1"], "max_value must exceed 1, got 1.0"),
    (["synth", "generate", "--density", "0"], "density must lie in (0, 1], got 0.0"),
    (["synth", "generate", "--max-value", "nan"], "max_value must be finite, got nan"),
    (["synth", "eval", "--deltas", "1:0:0.1"], "the delta sweep '1:0:0.1' has no points"),
], ids=["ingest", "synth-generate", "synth-generate-scale", "synth-eval-sweep"])
def test_the_other_commands_map_bad_input_to_3(walkthrough, tmp_path, argv, message):
    if argv[0] == "ingest":
        argv = [*argv, "--input", walkthrough["ratings.csv"]]
    elif argv[1] == "eval":
        argv = [*argv, "--data", walkthrough["ratings.csv"],
                "--truth", walkthrough["truth.json"]]
    res = CliRunner().invoke(cli, [*argv, "--out", str(tmp_path / "out")])
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    assert res.stderr == f"error: {message}\n"
