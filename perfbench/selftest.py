"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Scans two small inputs with the program, shows that every check passes on
the true output, then corrupts the output in three ways and shows that a
check catches each: a changed ``doc``, a dropped planted group and a wrong
query answer. Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout

import gen
import oracle
import run


def scan(dataset, workdir):
    """Ingest and detect one dataset with the CLI; return the result dict
    and an open query session over it."""
    import bcscan.cli
    from bcscan.detector import DetectionResult
    from bcscan.model import RatingGraph

    log, graph, result = workdir / "log.csv", workdir / "graph.json", workdir / "result.json"
    log.write_text(dataset.csv_text(), encoding="utf-8")
    for argv in (["ingest", "--input", str(log), *run.PRUNE, "--out", str(graph)],
                 ["detect", "--graph", str(graph), "--out", str(result)]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                bcscan.cli.main(argv)
            except SystemExit as exc:
                if exc.code:
                    raise RuntimeError(f"bcscan {argv[0]} exited with {exc.code}")
    data = json.loads(result.read_text(encoding="utf-8"))
    g = RatingGraph.load(graph)
    return data, (g, DetectionResult.from_dict(data, g))


def main() -> int:
    run._require_sources()
    from bcscan import query

    failures = []

    def expect(label: str, problems: list[str], should_fail: bool) -> None:
        if bool(problems) != should_fail:
            failures.append(label)
        verdict = "caught" if problems else "passed"
        print(f"{'ok  ' if bool(problems) == should_fail else 'FAIL'} {label}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))

    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        cases = {
            "catalogue": gen.catalogue(7, honest=300, products=40, mean_degree=5.0,
                                       attacks=2, size=5, targets=4),
            "crowds": gen.crowds(7, count=1, core=4, scattered=3, targets=4,
                                 honest=40, products=30),
        }
        for name, dataset in cases.items():
            result, session = scan(dataset, workdir)
            log = oracle.CollapsedLog(dataset.csv_text(), run.REVIEWER_MIN, run.PRODUCT_MIN)

            def problems(res):
                out = oracle.result_problems(log, res)
                if name == "crowds":
                    out += oracle.cores_flagged_problems(res, dataset.truth)
                return out

            expect(f"{name}: true result", problems(result), False)

            changed = copy.deepcopy(result)
            changed["scored"][0]["doc"] = min(1.0, changed["scored"][0]["doc"] + 0.01)
            expect(f"{name}: changed doc", problems(changed), True)

            planted = dataset.truth[0]
            key = (list(planted.reviewers), list(planted.products))
            dropped = copy.deepcopy(result)
            for part in ("scored", "collusive"):
                dropped[part] = [row for row in dropped[part]
                                 if (row["reviewers"], row["products"]) != key]
            expect(f"{name}: dropped planted group", problems(dropped), True)

            graph, cache = session
            config = result["config"]
            answers = []
            for spec in run.query_mix(result["scored"], dataset.truth, 7,
                                      config["weights"]):
                want = oracle.expected_answer(result["scored"], spec,
                                              config["weights"], config["delta"])
                got = run.answer_of(query.evaluate(query.parse(spec["text"]), graph,
                                                   cache.config, cache=cache))
                answers.append((spec["text"], got, want))
            expect(f"{name}: true query answers",
                   [text for text, got, want in answers if got != want], False)
            text, got, want = next(a for a in answers if a[1])
            expect(f"{name}: wrong query answer",
                   [text] if got[1:] != want else [], True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        print("self-test failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
