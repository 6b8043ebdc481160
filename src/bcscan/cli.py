"""Command-line front end.

Configuration precedence, highest first: explicit flags, environment
variables (BCS_DELTA, BCS_MAX_TW), a --config JSON file (either a bare
config object or a detection result whose "config" echo is reused), then
built-in defaults.

Exit codes: 0 success, 1 runtime failure, 2 usage or query syntax error,
3 semantic error (bad weights, bad config, unknown ids under --strict-ids).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import logging
import sys

import click

from . import __version__
from .model import (BadWeights, BcscanError, DetectionConfig, RatingGraph,
                    validate_weights)
from . import ingest as ingest_mod
from .indicators import cumulative_distribution
from .mining import CandidateSet, enumerate_candidates
from .detector import DetectionResult, detect, rank_report, score_cohort
from .query import (QuerySemanticError, QuerySyntaxError, UnknownId,
                    evaluate, parse)
from .synth import (AttackScript, LabeledDataset, TruthGroup, generate,
                    run_pipeline, threshold_sweep)
from .ingest import RawRating

log = logging.getLogger(__name__)


def _die(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Map exception families onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except QuerySyntaxError as exc:
            _die(2, f"query syntax: {exc}")
        except (BadWeights, QuerySemanticError, UnknownId, ValueError) as exc:
            _die(3, str(exc))
        except (BcscanError, OSError) as exc:
            _die(1, str(exc))

    return wrapper


def _parse_weights(text: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise BadWeights(f"weights must be comma-separated numbers, got {text!r}")
    return validate_weights(parts)


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fp:
        data = json.load(fp)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    return data


def _build_config(config_path: str | None, **overrides) -> DetectionConfig:
    values = DetectionConfig().to_dict()
    if config_path:
        file_values = _load_config_file(config_path)
        values.update({k: file_values[k] for k in values if k in file_values})
    if overrides.get("weights") is not None:
        overrides["weights"] = _parse_weights(overrides["weights"])
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return DetectionConfig.from_dict(values)


def _config_options(fn):
    """Shared detection knobs; None defaults let file/env/defaults show through."""
    options = [
        click.option("--config", "config_path", type=click.Path(exists=True),
                     default=None, help="JSON config file (or a result.json to replay)."),
        click.option("--delta", type=float, default=None, envvar="BCS_DELTA",
                     show_default="0.4", help="Collusiveness threshold."),
        click.option("--weights", type=str, default=None,
                     show_default="0.25,0.25,0.25,0.25",
                     help="Comma-separated GVS,GTS,GRS,GMS weights (sum 1)."),
        click.option("--max-tw", type=int, default=None, envvar="BCS_MAX_TW",
                     show_default="30", help="Widest suspicious posting window, days."),
        click.option("--min-r", type=int, default=None, show_default="2",
                     help="Smallest group size mined."),
        click.option("--min-p", type=int, default=None, show_default="3",
                     help="Smallest co-rated product set mined."),
        click.option("--cap", "candidate_cap", type=int, default=None,
                     show_default="100000", help="Abort past this many candidates."),
        click.option("--max-value", type=float, default=None, show_default="5.0",
                     help="Top of the rating scale."),
        click.option("--min-reviewer", "prune_reviewer_min", type=int, default=None,
                     show_default="10", help="Prune reviewers below this many distinct products."),
        click.option("--min-product", "prune_product_min", type=int, default=None,
                     show_default="10", help="Prune products below this many raw ratings."),
    ]
    for opt in reversed(options):
        fn = opt(fn)
    return fn


def _echo_out(text: str, out: str | None):
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        click.echo(text, nl=False)


def _load_candidates(path: str, graph: RatingGraph) -> CandidateSet:
    from .model import Biclique
    groups = []
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            if not line.strip():
                continue
            row = json.loads(line)
            groups.append(Biclique.from_graph(row["reviewers"], row["products"], graph))
    return CandidateSet(groups)


@click.group()
@click.version_option(version=__version__)
@click.option("-v", "--verbose", count=True, help="Log progress to stderr (-vv for debug).")
def cli(verbose: int):
    """Scan rating logs for colluding reviewer groups."""
    level = logging.WARNING - 10 * min(verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


@cli.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help="Raw rating log.")
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv",
              show_default=True, help="Log line format.")
@click.option("--min-reviewer", type=int, default=10, show_default=True,
              help="Prune reviewers below this many distinct products.")
@click.option("--min-product", type=int, default=10, show_default=True,
              help="Prune products below this many raw ratings.")
@click.option("--max-value", type=float, default=5.0, show_default=True,
              help="Top of the rating scale.")
@click.option("--strict", is_flag=True, help="Fail on the first malformed line.")
@click.option("--out", type=click.Path(), required=True, help="Graph snapshot path.")
@_guarded
def ingest(input_path, fmt, min_reviewer, min_product, max_value, strict, out):
    """Parse, prune and collapse a raw log into a graph snapshot."""
    with open(input_path, "r", encoding="utf-8") as fp:
        records, errors = ingest_mod.parse_log(fp, fmt=fmt, max_value=max_value,
                                               strict=strict)
    for err in errors:
        click.echo(f"warning: {err}", err=True)
    pruned = ingest_mod.prune(records, min_reviewer, min_product)
    graph = ingest_mod.build_graph(pruned, max_value=max_value)
    graph.save(out)
    click.echo(f"ingested {len(records)} ratings -> {len(pruned)} after pruning, "
               f"{len(graph)} edges, {len(graph.reviewers)} reviewers, "
               f"{len(graph.products)} products", err=True)


@cli.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config file (or a result.json to replay).")
@click.option("--min-r", type=int, default=None, show_default="2",
              help="Smallest group size mined.")
@click.option("--min-p", type=int, default=None, show_default="3",
              help="Smallest co-rated product set mined.")
@click.option("--cap", "candidate_cap", type=int, default=None,
              show_default="100000", help="Abort past this many candidates.")
@click.option("--out", type=click.Path(), default=None,
              help="Candidate JSONL path (default stdout).")
@_guarded
def mine(graph_path, config_path, out, **overrides):
    """Enumerate maximal candidate groups from a graph snapshot."""
    config = _build_config(config_path, **overrides)
    graph = RatingGraph.load(graph_path)
    candidates = enumerate_candidates(graph, config.min_r, config.min_p,
                                      config.candidate_cap)
    lines = [json.dumps(b.to_dict(), sort_keys=True, separators=(",", ":"))
             for b in candidates]
    _echo_out("".join(line + "\n" for line in lines), out)
    click.echo(f"mined {len(candidates)} candidate group(s)", err=True)


@cli.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--candidates", "candidates_path", type=click.Path(exists=True),
              required=True, help="Candidate JSONL from the mine step.")
@_config_options
@click.option("--out", type=click.Path(), default=None,
              help="Scored JSONL path (default stdout).")
@_guarded
def indicators(graph_path, candidates_path, config_path, out, **overrides):
    """Score candidate groups: six indicators plus DOC and DI per group."""
    config = _build_config(config_path, **overrides)
    graph = RatingGraph.load(graph_path)
    cohort = _load_candidates(candidates_path, graph)
    scored = score_cohort(graph, list(cohort), config)
    lines = [json.dumps({**b.to_dict(), **rep.to_dict()},
                        sort_keys=True, separators=(",", ":"))
             for b, rep in scored]
    _echo_out("".join(line + "\n" for line in lines), out)
    click.echo(f"scored {len(scored)} group(s)", err=True)


def _report_table(result: DetectionResult) -> str:
    rows = rank_report(result)
    out = io.StringIO()
    out.write(f"{'id':>4}  {'doc':>7}  {'di':>7}  {'status':<10}  members -> products\n")
    for row in rows:
        out.write(f"{row.group_id:>4}  {row.doc:>7.4f}  {row.di:>7.4f}  "
                  f"{row.status:<10}  {','.join(row.reviewers)} -> "
                  f"{','.join(row.products)}\n")
    return out.getvalue()


def _report_csv(result: DetectionResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["group_id", "reviewers", "products", "doc", "di", "status"])
    for row in rank_report(result):
        writer.writerow([row.group_id, " ".join(row.reviewers),
                         " ".join(row.products),
                         repr(row.doc), repr(row.di), row.status])
    return out.getvalue()


@cli.command(name="detect")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@_config_options
@click.option("--out", type=click.Path(), default=None,
              help="Full result JSON path.")
@click.option("--report", type=click.Choice(["table", "json", "csv"]),
              default="table", show_default=True, help="Stdout report format.")
@_guarded
def detect_cmd(graph_path, config_path, out, report, **overrides):
    """Run the whole detection pass and report every examined group."""
    config = _build_config(config_path, **overrides)
    graph = RatingGraph.load(graph_path)
    result = detect(graph, config)
    if out:
        with open(out, "w", encoding="utf-8") as fp:
            json.dump(result.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
    if report == "table":
        click.echo(_report_table(result), nl=False)
    elif report == "csv":
        click.echo(_report_csv(result), nl=False)
    else:
        click.echo(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    click.echo(f"examined {result.examined_count} group(s), "
               f"expanded {result.expanded_count}, "
               f"flagged {len(result.collusive)} collusive", err=True)


def _render_query_result(res, as_json: bool) -> str:
    if as_json:
        return json.dumps(res.to_dict(), indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    for warning in res.warnings:
        out.write(f"warning: {warning}\n")
    if res.projection == "bicliques":
        if not res.groups:
            out.write("no matching groups\n")
        for i, (b, rep) in enumerate(res.groups, start=1):
            out.write(f"{i:>4}  doc={rep.doc:.4f}  di={rep.di:.4f}  "
                      f"{','.join(b.reviewers)} -> {','.join(b.products)}\n")
    else:
        for ident in res.ids:
            out.write(ident + "\n")
        if not res.ids:
            out.write(f"no matching {res.projection}\n")
    return out.getvalue()


@cli.command(name="query")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--result", "result_path", type=click.Path(exists=True), default=None,
              help="Cached detection result to query (skips re-detection).")
@_config_options
@click.option("-e", "--execute", "query_text", type=str, default=None,
              help="Query text to run once.")
@click.option("--repl", is_flag=True, help="Interactive prompt.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
@click.option("--fresh", is_flag=True,
              help="Ignore the cached result and re-run detection.")
@click.option("--strict-ids", is_flag=True,
              help="Treat unknown filter ids as an error instead of a warning.")
@_guarded
def query_cmd(graph_path, result_path, config_path, query_text, repl, as_json,
              fresh, strict_ids, **overrides):
    """Query a detection result with the getbicliques language."""
    config = _build_config(config_path, **overrides)
    graph = RatingGraph.load(graph_path)
    cache = None
    if result_path and not fresh:
        with open(result_path, "r", encoding="utf-8") as fp:
            cache = DetectionResult.from_dict(json.load(fp), graph)
    if cache is None:
        cache = detect(graph, config)
    if query_text is None and not repl:
        raise click.UsageError("provide a query with -e or start --repl")
    if query_text is not None:
        res = evaluate(parse(query_text), graph, config, cache=cache,
                       strict=strict_ids)
        click.echo(_render_query_result(res, as_json), nl=False)
    if repl:
        _run_repl(graph, config, cache, as_json, strict_ids)


def _run_repl(graph, config, cache, as_json, strict_ids):
    try:
        import readline  # noqa: F401  (line editing when available)
    except ImportError:
        pass
    click.echo("bcscan query prompt; finish statements with ';', "
               "'exit;' leaves", err=True)
    buffer = ""
    while True:
        try:
            line = input("bcs> " if not buffer else "...> ")
        except EOFError:
            break
        buffer = (buffer + "\n" + line).strip()
        if not buffer:
            continue
        if not buffer.endswith(";"):
            continue
        statement, buffer = buffer, ""
        if statement in ("exit;", "quit;"):
            break
        try:
            res = evaluate(parse(statement), graph, config, cache=cache,
                           strict=strict_ids)
        except QuerySyntaxError as exc:
            click.echo(f"syntax error: {exc}", err=True)
            continue
        except (QuerySemanticError, UnknownId, BadWeights) as exc:
            click.echo(f"semantic error: {exc}", err=True)
            continue
        click.echo(_render_query_result(res, as_json), nl=False)


@cli.command()
@click.option("--scored", "scored_path", type=click.Path(exists=True), required=True,
              help="Scored JSONL from the indicators step.")
@click.option("--delta", type=float, default=0.4, show_default=True,
              envvar="BCS_DELTA", help="Split series into collusive vs rest.")
@click.option("--out", type=click.Path(), default=None,
              help="CSV path (default stdout).")
@_guarded
def stats(scored_path, delta, out):
    """Cumulative distribution of every indicator over scored groups."""
    from .model import IndicatorReport
    reports = []
    labels = []
    with open(scored_path, "r", encoding="utf-8") as fp:
        for line in fp:
            if not line.strip():
                continue
            row = json.loads(line)
            rep = IndicatorReport(row["gvs"], row["gts"], row["grs"], row["gms"],
                                  row["gs"], row["gps"], row["doc"], row["di"])
            reports.append(rep)
            labels.append("collusive" if rep.doc > delta else "other")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["indicator", "label", "value", "cumulative"])
    for point in cumulative_distribution(reports, labels):
        writer.writerow([point.indicator, point.label,
                         repr(point.value), repr(point.cumulative)])
    _echo_out(buf.getvalue(), out)


@cli.group()
def synth():
    """Synthetic benchmark datasets and evaluation sweeps."""


def _parse_attack(text: str) -> AttackScript:
    keys = {"size": "group_size", "targets": "target_count", "mode": "value_mode",
            "span": "time_span_days", "dup": "duplicate_rate",
            "camo": "camouflage_rate"}
    kwargs = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise ValueError(f"attack spec piece {part!r} is not key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"unknown attack key {key!r} "
                             f"(expected {', '.join(keys)})")
        field = keys[key]
        if field == "value_mode":
            kwargs[field] = value.strip()
        elif field in ("group_size", "target_count", "time_span_days"):
            kwargs[field] = int(value)
        else:
            kwargs[field] = float(value)
    return AttackScript(**kwargs)


@synth.command(name="generate")
@click.option("--honest", type=int, default=200, show_default=True)
@click.option("--products", type=int, default=50, show_default=True)
@click.option("--density", type=float, default=0.05, show_default=True)
@click.option("--attack", "attack_specs", multiple=True,
              help='Repeatable, e.g. "size=5,targets=4,mode=promote,span=2,dup=0.2,camo=0.3".')
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-value", type=float, default=5.0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Rating CSV path.")
@click.option("--truth", "truth_path", type=click.Path(), default=None,
              help="Ground-truth JSON path.")
@_guarded
def synth_generate(honest, products, density, attack_specs, seed, max_value,
                   out, truth_path):
    """Write a labelled synthetic rating log."""
    attacks = [_parse_attack(spec) for spec in attack_specs]
    dataset = generate(honest, products, density, attacks, seed=seed,
                       max_value=max_value)
    with open(out, "w", encoding="utf-8") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        for rr in dataset.raw:
            writer.writerow([rr.reviewer, rr.product, repr(rr.value),
                             rr.date.isoformat()])
    if truth_path:
        with open(truth_path, "w", encoding="utf-8") as fp:
            json.dump([{"reviewers": sorted(t.reviewers),
                        "products": sorted(t.products)} for t in dataset.truth],
                      fp, indent=2, sort_keys=True)
            fp.write("\n")
    click.echo(f"wrote {len(dataset.raw)} ratings, {len(dataset.truth)} planted "
               f"group(s)", err=True)


def _parse_deltas(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) == 3:
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError(f"delta step must be positive, got {step}")
        values = []
        v = start
        i = 0
        while v <= stop + 1e-9:
            values.append(round(v, 10))
            i += 1
            v = start + i * step
        return values
    return [float(p) for p in text.split(",")]


@synth.command(name="eval")
@click.option("--data", "data_path", type=click.Path(exists=True), required=True,
              help="Rating CSV from synth generate.")
@click.option("--truth", "truth_path", type=click.Path(exists=True), required=True)
@click.option("--deltas", type=str, default="0.0:1.0:0.1", show_default=True,
              help="start:stop:step sweep or comma-separated values.")
@_config_options
@click.option("--out", type=click.Path(), default=None, help="Sweep CSV (default stdout).")
@_guarded
def synth_eval(data_path, truth_path, deltas, config_path, out, **overrides):
    """Sweep delta over a labelled dataset and report precision/recall.

    Pruning defaults to 1/1 here: synthetic benchmarks are desk-scale and
    the production 10/10 activity floors would empty them.
    """
    for key, fallback in (("prune_reviewer_min", 1), ("prune_product_min", 1)):
        if overrides.get(key) is None:
            overrides[key] = fallback
    config = _build_config(config_path, **overrides)
    with open(data_path, "r", encoding="utf-8") as fp:
        records, errors = ingest_mod.parse_log(fp, fmt="csv",
                                               max_value=config.max_value)
    if errors:
        raise ValueError(f"{len(errors)} malformed line(s) in {data_path}")
    with open(truth_path, "r", encoding="utf-8") as fp:
        truth = tuple(TruthGroup(frozenset(t["reviewers"]), frozenset(t["products"]))
                      for t in json.load(fp))
    dataset = LabeledDataset(tuple(records), truth, config.max_value)
    points = threshold_sweep(dataset, config, _parse_deltas(deltas))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["delta", "precision", "precision_vacuous",
                     "recall", "recall_vacuous", "retrieved"])
    for pt in points:
        writer.writerow([repr(pt.delta), repr(pt.precision.value),
                         int(pt.precision.vacuous), repr(pt.recall.value),
                         int(pt.recall.vacuous), pt.retrieved])
    _echo_out(buf.getvalue(), out)


def main(argv=None):
    return cli(args=argv, prog_name="bcscan")


if __name__ == "__main__":
    main()
