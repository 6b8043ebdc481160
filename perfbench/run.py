"""Benchmark for bcscan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the sources under ``src/`` and
prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The program is timed only through its public entry points: the ``bcscan``
CLI commands ``ingest`` and ``detect``, run in-process exactly as the
console script runs them (so with the default ``--threads``), and
``RatingGraph.load``, ``DetectionResult.from_dict``, ``query.parse`` and
``query.evaluate`` for queries. Work is done in closed-loop rounds, one
client, until ``--seconds`` have passed; each timing is the median of all
samples of the run (the mean for ``scan_s``, the 95th percentile for
``query_p95_ms``). Every output is checked
against ``oracle``, which recomputes it from the raw log and the planted
truth without using the program. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import gen
import oracle

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
TRACES = HERE / "_traces"

# Scans prune reviewers with fewer than 3 distinct products (they cannot
# join a group of min_p=3) and products with fewer than 2 raw ratings.
PRUNE = ("--min-reviewer", "3", "--min-product", "2")
REVIEWER_MIN, PRODUCT_MIN = 3, 2

WORKLOADS = ("scan-catalogue", "scan-crowds", "query-session")
SESSION_SCAN_EVERY = 4
# Passes over the query mix per round, so that every run has several
# hundred query samples for a steady 95th percentile. A catalogue run has
# about five rounds. Crowds queries over a four-group result take about
# 0.1 ms and their speed swings by 2x over a tenth of a second, so a crowds
# round runs 40 passes: each batch then spans a few tenths of a second,
# which smooths those swings, for about a tenth more time per round.
QUERY_PASSES = {"scan-catalogue": 2, "scan-crowds": 40, "query-session": 1}


class OperationFailed(Exception):
    pass


def _require_sources() -> None:
    if not (SRC / "bcscan" / "__init__.py").is_file():
        print(f"error: no bcscan package under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


class Run:
    """One workload run: inputs, operations, samples and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path):
        import bcscan.cli
        import bcscan.query
        from spans import Tracer

        self.cli = bcscan.cli
        self.query = bcscan.query
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = workdir
        self.tracer = Tracer()
        self.failed = 0
        self.problems: list[str] = []
        self.dataset = gen.WORKLOADS[workload](seed)
        self.log = workdir / "log.csv"
        self.log.write_text(self.dataset.csv_text(), encoding="utf-8")
        self.graph = workdir / "graph.json"
        self.result = workdir / "result.json"
        self.stderr = open(workdir / "stderr.log", "w", encoding="utf-8")
        self.digests: dict[str, str] = {}
        self.op_counts: dict[str, int] = {}
        # Each pass runs the mix in a new order, so that the collector's
        # full collections, which recur at fixed points of a repeated
        # sequence, do not keep landing on the same query.
        self.rng = random.Random(seed)
        self.peak_rss_mb = 0.0
        self.session = None
        self.mix: list[dict] = []
        self.expected: list = []

    # -- operations -------------------------------------------------------

    def _traced(self, kind: str) -> bool:
        """In a traced run every other operation of each kind is traced, so
        each kind has traced and untraced samples."""
        n = self.op_counts.get(kind, 0)
        self.op_counts[kind] = n + 1
        return self.trace and n % 2 == 1

    def _bcscan(self, argv: list[str], kind: str) -> None:
        """Run one CLI command in-process, stdout to a report file."""
        code = 0
        with open(self.dir / f"{kind}.out", "w", encoding="utf-8") as out, \
                redirect_stdout(out), redirect_stderr(self.stderr):
            with self.tracer.op(kind, self._traced(kind)):
                try:
                    self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code or 0
        if code != 0:
            self.failed += 1
            raise OperationFailed(f"bcscan {argv[0]} exited with {code}")

    def _same_output(self, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self.digests.setdefault(path.name, digest)
        if digest != first:
            self.problems.append(f"{path.name} differs between repetitions")

    def ingest(self) -> None:
        self._bcscan(["ingest", "--input", str(self.log), *PRUNE,
                      "--out", str(self.graph)], "cli.ingest")
        self._same_output(self.graph)

    def detect(self) -> None:
        self._bcscan(["detect", "--graph", str(self.graph),
                      "--out", str(self.result)], "cli.detect")
        self._same_output(self.result)

    def open_session(self) -> None:
        from bcscan.detector import DetectionResult
        from bcscan.model import RatingGraph
        with self.tracer.op("session.open", self._traced("session.open")):
            graph = RatingGraph.load(self.graph)
            with open(self.result, encoding="utf-8") as fp:
                cache = DetectionResult.from_dict(json.load(fp), graph)
        self.session = graph, cache

    def run_query(self, i: int) -> None:
        graph, cache = self.session
        spec = self.mix[i]
        with self.tracer.op("query", self._traced("query")):
            ast = self.query.parse(spec["text"])
            res = self.query.evaluate(ast, graph, cache.config, cache=cache)
        if answer_of(res) != self.expected[i]:
            self.problems.append(f"query {spec['text']!r} answered wrongly")

    def prepare_queries(self) -> None:
        """Open the session the queries run in and fix the query mix."""
        for _ in range(2 if self.trace else 1):
            self.open_session()
        rows = json.loads(self.result.read_text(encoding="utf-8"))
        config = rows["config"]
        self.mix = query_mix(rows["scored"], self.dataset.truth, self.seed,
                             config["weights"])
        self.expected = [oracle.expected_answer(rows["scored"], spec,
                                                config["weights"], config["delta"])
                         for spec in self.mix]

    # -- the loop ---------------------------------------------------------

    def execute(self) -> None:
        """Closed-loop rounds until the deadline, after the first snapshot,
        scan and session. A scan round re-ingests (a setup sample), scans
        and runs the query mix. A query-session round opens the session (a
        setup sample) and runs the query mix; every SESSION_SCAN_EVERY-th
        round first re-scans the graph, so its scan samples spread over the
        run."""
        deadline = time.perf_counter() + self.seconds
        session = self.workload == "query-session"
        # query-session has no ingest in its rounds and few scans, so a
        # traced run makes a traced one of each here.
        prep = 2 if self.trace and session else 1
        for _ in range(prep):
            self.ingest()
        for _ in range(prep):
            self.detect()
        self.prepare_queries()
        round_no = 0
        while True:
            if session:
                if round_no % SESSION_SCAN_EVERY == SESSION_SCAN_EVERY - 1:
                    self.detect()
                self.open_session()
            else:
                self.ingest()
                self.detect()
            for _ in range(QUERY_PASSES[self.workload]):
                order = list(range(len(self.mix)))
                self.rng.shuffle(order)
                for i in order:
                    self.run_query(i)
            round_no += 1
            if time.perf_counter() >= deadline:
                break
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- figures and checks -------------------------------------------------

    def samples(self, kind: str) -> list[float]:
        return [(r.end - r.start) / 1e9 for r in self.tracer.roots
                if r.kind == kind and not r.traced]

    def end_to_end(self, quality: tuple[float, float]) -> dict:
        setup_kind = "session.open" if self.workload == "query-session" else "cli.ingest"
        setup = self.samples(setup_kind)
        queries = [s * 1e3 for s in self.samples("query")]
        return {
            "setup_s": (statistics.median(setup), "s"),
            # The host alternates between speeds for tens of seconds at a
            # time; the mean time per scan follows the share of the run
            # spent slow smoothly, where the median jumps between the two.
            "scan_s": (statistics.fmean(self.samples("cli.detect")), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "query_p50_ms": (statistics.median(queries), "ms"),
            "query_p95_ms": (statistics.quantiles(queries, n=20)[-1], "ms"),
            "precision": (quality[0], "ratio"),
            "recall": (quality[1], "ratio"),
        }

    def check(self) -> tuple[float, float]:
        log = oracle.CollapsedLog(self.log.read_text(encoding="utf-8"),
                                  REVIEWER_MIN, PRODUCT_MIN)
        self.problems += log.snapshot_problems(self.graph.read_text(encoding="utf-8"))
        result = json.loads(self.result.read_text(encoding="utf-8"))
        self.problems += oracle.result_problems(log, result)
        if self.workload == "scan-crowds":
            self.problems += oracle.cores_flagged_problems(result, self.dataset.truth)
        return oracle.quality(result, self.dataset.truth)


def answer_of(res) -> tuple:
    """A query answer in the form ``oracle.expected_answer`` computes."""
    if res.projection == "bicliques":
        return tuple((b.reviewers, b.products, rep.doc) for b, rep in res.groups)
    return res.ids


def query_mix(rows: list[dict], truth, seed: int, weights) -> list[dict]:
    """The fixed query mix: four families of ten queries. A keeps the
    session's weights; B re-weights and projects products; C re-weights,
    projects reviewers and keeps groups containing one planted member; D
    re-weights and keeps groups on one product of a group drawn with the
    seed. Within a family the DOC floors are 0 and the 10%, ..., 90%
    quantiles of the groups' DOC under the family's weights.

    A query's cost grows with the groups it keeps, so these floors spread
    the costs evenly: the median and the 95th percentile then fall between
    queries of nearly equal cost, not on a step between unlike ones."""
    rng = random.Random(seed)
    member = truth[rng.randrange(len(truth))].reviewers[0]
    product = rows[rng.randrange(len(rows))]["products"][0]
    families = [
        ("bicliques", None, None, None),
        ("products", (0.4, 0.3, 0.2, 0.1), None, None),
        ("reviewers", (0.1, 0.2, 0.3, 0.4), None, (member,)),
        ("bicliques", (0.7, 0.1, 0.1, 0.1), (product,), None),
    ]
    mix = []
    for projection, family_weights, on, contains in families:
        docs = sorted(oracle.doc_of(row, family_weights or weights) for row in rows)
        for tenth in range(10):
            doc_min = round(docs[tenth * len(docs) // 10], 3) if tenth else 0.0
            head = "getbicliques" + ("" if projection == "bicliques" else "." + projection)
            text = head + "(" + (",".join(map(repr, family_weights or ())) + ")")
            clauses = [f"on('{on[0]}');"] if on else []
            clauses += [f"contains('{contains[0]}');"] if contains else []
            clauses.append(f"DOC > {doc_min!r};")
            mix.append({"text": f"{text} filter{{ {' '.join(clauses)} }};",
                        "projection": projection, "weights": family_weights, "on": on,
                        "contains": contains, "doc_min": doc_min})
    return mix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _require_sources()

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = None
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        try:
            run.execute()
        except OperationFailed as exc:
            run.problems.append(str(exc))
        attempted = len(run.tracer.roots)
        if run.failed:
            metrics = {}
        else:
            quality = run.check()
            metrics = run.tracer.per_layer() if args.trace else run.end_to_end(quality)
        if args.trace:
            TRACES.mkdir(exist_ok=True)
            run.tracer.dump(TRACES / f"{args.workload}-s{args.seed}.json")
    finally:
        if run is not None:
            run.stderr.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    out = {"correct": not run.problems, "attempted": attempted, "failed": run.failed,
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
