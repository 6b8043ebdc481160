"""Write a workload's inputs to a directory, for inspection or replay.

    python3 perfbench/inputs.py --workload NAME --seed N --out DIR

Writes the raw log (``log.csv``) and the planted truth (``truth.json``)
exactly as the benchmark generates them for that seed, then runs the
program's own ``bcscan ingest`` and ``bcscan detect`` to write the graph
snapshot (``graph.json``) and the result cache (``result.json``) that the
query-session workload opens, with the detect report in ``report.txt``.
The same commands from a shell:

    bcscan ingest --input DIR/log.csv --min-reviewer 3 --min-product 2 --out DIR/graph.json
    bcscan detect --graph DIR/graph.json --out DIR/result.json > DIR/report.txt
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import gen
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    run._require_sources()
    import bcscan.cli

    args.out.mkdir(parents=True, exist_ok=True)
    dataset = gen.WORKLOADS[args.workload](args.seed)
    log, graph = args.out / "log.csv", args.out / "graph.json"
    log.write_text(dataset.csv_text(), encoding="utf-8")
    with open(args.out / "truth.json", "w", encoding="utf-8") as fp:
        json.dump([{"reviewers": list(t.reviewers), "products": list(t.products)}
                   for t in dataset.truth], fp, indent=2)
        fp.write("\n")
    with open(args.out / "report.txt", "w", encoding="utf-8") as report, \
            redirect_stdout(report):
        for command in (["ingest", "--input", str(log), *run.PRUNE, "--out", str(graph)],
                        ["detect", "--graph", str(graph),
                         "--out", str(args.out / "result.json")]):
            try:
                bcscan.cli.main(command)
            except SystemExit as exc:
                if exc.code:
                    return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
