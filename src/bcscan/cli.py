"""Command-line front end.

Each command takes flags only for the DetectionConfig fields it reads
(one table, ``_SETTINGS``) and builds its config with ``_build_config``.
Precedence, highest first: explicit flags, environment variables
(BCS_DELTA, BCS_MAX_TW), a --config JSON file (either a bare config object
or a detection result whose "config" echo is reused), for ``query`` the
config echo of its --result, then built-in defaults. DetectionConfig checks
the merged settings, each value's JSON type and then its range. ``detect``
echoes the settings its graph snapshot records, the rating scale and the
ingest pruning floors, in place of the config's.

Every --out takes a file path, or "-" for stdout. Each output format has
one writer: a detection result (``detect --out`` and ``--report json``)
goes through ``_write_result``, one scored row at a time, and every other
JSON document through ``_write_json``.

Exit codes follow one failure rule: 0 success; 2 a usage or query syntax
error; 3 bad input, which is any ValueError (every named input error, such
as BadWeights or MissingEdge, is one); 1 any other BcscanError or OSError,
a runtime failure such as a spent budget or a malformed log line under
``ingest --strict``. The rule is applied in one place, the ``invoke`` of
the ``cli`` group class ``_Commands``, which every command runs inside; a
command raises and never sets an exit code itself. A query, from -e or
the REPL, is answered by one path.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import sys
from contextlib import nullcontext
from dataclasses import replace
from itertools import repeat
from json.encoder import encode_basestring_ascii

import click

from . import __version__
from .model import (BcscanError, Biclique, DetectionConfig,
                    IndicatorReport, RatingGraph, fields_of, id_lists,
                    json_objects, read_json_lines, scored_row, validate_weights)
from . import ingest as ingest_mod
from .indicators import cumulative_distribution
from .mining import enumerate_candidates
from .detector import (DetectionResult, check_derived, detect, route,
                       score_cohort)
from .query import QuerySyntaxError, evaluate, parse
from .synth import (AttackScript, LabeledDataset, TruthGroup, generate,
                    threshold_sweep)

log = logging.getLogger(__name__)


def _read_json(path: str, kind: str):
    """The JSON document in the file at ``path``: the one way a command
    reads a JSON file. ValueError "<kind> is nested too deeply to read" for
    one that nests past the decoder's recursion limit."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except RecursionError:
            raise ValueError(f"{kind} is nested too deeply to read") from None


def _load_config_file(path: str) -> dict:
    """A --config file's settings: a bare config object, or the "config"
    echo of a saved result."""
    data = _read_json(path, "config file")
    if isinstance(data, dict) and "config" in data:
        data = data["config"]
    if not isinstance(data, dict):
        raise ValueError(f"the config in {path} is not a JSON object")
    return data


def _build_config(config_path: str | None, base: dict | None = None,
                  **overrides) -> DetectionConfig:
    """Layer the settings, lowest first: ``base`` (a command's own defaults
    or a cached result's echo), the --config file, then flags and
    environment variables (None where not given). DetectionConfig fills in
    the rest with its defaults and checks every value."""
    values = {**(base or {}), **(_load_config_file(config_path) if config_path else {})}
    if overrides.get("weights") is not None:
        overrides["weights"] = validate_weights(overrides["weights"].split(","))
    values.update((k, v) for k, v in overrides.items() if v is not None)
    return DetectionConfig.from_dict(values)


# The flag of each DetectionConfig field: name, type, environment variable, help.
_SETTINGS = {
    "delta": ("--delta", float, "BCS_DELTA", "Collusiveness threshold."),
    "weights": ("--weights", str, None,
                "Comma-separated GVS,GTS,GRS,GMS weights (sum 1)."),
    "max_tw": ("--max-tw", int, "BCS_MAX_TW", "Widest suspicious posting window, days."),
    "min_r": ("--min-r", int, None, "Smallest group size mined."),
    "min_p": ("--min-p", int, None, "Smallest co-rated product set mined."),
    "candidate_cap": ("--cap", int, None,
                      "Abort past this many mined candidates, or this many "
                      "fragments made expanding one group; not a time bound."),
    "max_value": ("--max-value", float, None, "Top of the rating scale."),
    "prune_reviewer_min": ("--min-reviewer", int, None,
                           "Prune reviewers below this many distinct products."),
    "prune_product_min": ("--min-product", int, None,
                          "Prune products below this many raw ratings."),
}


def _settings(*fields: str, config_file: bool = True, base: dict | None = None):
    """Add the flags of the named DetectionConfig fields, plus --config.

    Each flag defaults to None so that the config file, the environment and
    the defaults show through; the shown default comes from
    DetectionConfig(), updated by the command's ``base``.
    """
    shown = {**DetectionConfig().to_dict(), **(base or {})}
    shown["weights"] = ",".join(map(str, shown["weights"]))

    def decorate(fn):
        for field in reversed(fields):
            flag, kind, envvar, text = _SETTINGS[field]
            fn = click.option(flag, field, type=kind, default=None, envvar=envvar,
                              show_default=str(shown[field]), help=text)(fn)
        if config_file:
            fn = click.option("--config", "config_path", type=click.Path(exists=True),
                              default=None,
                              help="JSON config file (or a result.json to replay).")(fn)
        return fn

    return decorate


# synth eval's pruning floors: desk-scale logs would not survive 10/10.
_SYNTH_PRUNE = {"prune_reviewer_min": 1, "prune_product_min": 1}


def _echo_out(text: str, out: str | None):
    """Write text to the file ``out``, or to stdout for "-" or None."""
    with _out_file(out or "-") as fp:
        fp.write(text)


def _out_file(out: str):
    """The file ``out`` opened for writing, or stdout for "-": the one way
    every command writes its output."""
    return nullcontext(sys.stdout) if out == "-" else open(out, "w", encoding="utf-8")


def _write_json(data, out: str):
    """Write ``data`` as indented, key-sorted JSON plus a newline to the file
    ``out``, or to stdout for "-". It is streamed. A detection result goes
    through ``_write_result`` instead, which writes the same text faster."""
    with _out_file(out) as fp:
        json.dump(data, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _write_result(result: DetectionResult, out: str):
    """Write a detection result to the file ``out``, or to stdout for "-":
    the text ``_write_json(result.to_dict(), out)`` writes, without building
    that dict. This is the one writer of detection results."""
    config = json.dumps(result.config.to_dict(), indent=2, sort_keys=True)
    config = config.replace("\n", "\n  ")
    with _out_file(out) as fp:
        fp.write('{\n  "collusive": ')
        _write_rows(fp, result.collusive)
        fp.write(f',\n  "config": {config},\n'
                 f'  "examined_count": {result.examined_count!r},\n'
                 f'  "expanded_count": {result.expanded_count!r},\n  "scored": ')
        _write_rows(fp, result.scored)
        fp.write("\n}\n")


def _write_rows(fp, pairs):
    """Write one list of a result's scored rows, a row at a time, each as
    json.dump indents its ``scored_row`` at this depth: the eight report
    floats by their repr, the ids quoted by the function json.dump quotes
    with."""
    if not pairs:
        fp.write("[]")
        return
    quote = encode_basestring_ascii
    sep = ",\n        "
    before = "[\n"
    for b, rep in pairs:
        fp.write(f'{before}    {{\n'
                 f'      "di": {rep.di!r},\n      "doc": {rep.doc!r},\n'
                 f'      "gms": {rep.gms!r},\n      "gps": {rep.gps!r},\n'
                 f'      "grs": {rep.grs!r},\n      "gs": {rep.gs!r},\n'
                 f'      "gts": {rep.gts!r},\n      "gvs": {rep.gvs!r},\n'
                 f'      "products": [\n        {sep.join(map(quote, b.products))}\n'
                 f'      ],\n      "reviewers": [\n        '
                 f'{sep.join(map(quote, b.reviewers))}\n      ]\n    }}')
        before = ",\n"
    fp.write("\n  ]")


def _csv(header: list | None, rows) -> str:
    """CSV text: the header row, if any, then the rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _jsonl(records) -> str:
    """One compact, key-sorted JSON object per line."""
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


def _read_jsonl(path: str, kind: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fp:
        return list(read_json_lines(fp, kind))


def _load_candidates(path: str, graph: RatingGraph) -> list[Biclique]:
    """The groups of a candidate JSONL, one per key."""
    with fields_of("candidate file"):
        rows = _read_jsonl(path, "candidate file")
        groups = list(map(Biclique.from_graph, *id_lists(rows, "candidate file"),
                          repeat(graph)))
    return list({b.key: b for b in groups}.values())


class _Commands(click.Group):
    """The command group: every command, ``synth``'s too, runs inside its
    ``invoke``, which maps exception families onto the documented exit
    codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except QuerySyntaxError as exc:
            code, message = 2, f"query syntax: {exc}"
        except ValueError as exc:
            code, message = 3, str(exc)
        except (BcscanError, OSError) as exc:
            code, message = 1, str(exc)
        click.echo(f"error: {message}", err=True)
        ctx.exit(code)


@click.group(cls=_Commands)
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
@_settings("prune_reviewer_min", "prune_product_min", "max_value", config_file=False)
@click.option("--strict", is_flag=True, help="Fail on the first malformed line.")
@click.option("--out", type=click.Path(), required=True,
              help="Graph snapshot path (- for stdout).")
def ingest(input_path, fmt, strict, out, **overrides):
    """Parse, prune and collapse a raw log into a graph snapshot."""
    config = _build_config(None, **overrides)
    with open(input_path, "r", encoding="utf-8") as fp:
        records, errors = ingest_mod.parse_log(fp, fmt=fmt, max_value=config.max_value,
                                               strict=strict)
    for err in errors:
        click.echo(f"warning: {err}", err=True)
    graph = ingest_mod.ingest_ratings(records, config)
    _echo_out(graph.snapshot(), out)
    click.echo(f"ingested {len(records)} ratings -> {len(graph)} edges, "
               f"{len(graph.reviewers)} reviewers, {len(graph.products)} products",
               err=True)


@cli.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@_settings("min_r", "min_p", "candidate_cap")
@click.option("--out", type=click.Path(), default=None,
              help="Candidate JSONL path (default stdout).")
def mine(graph_path, config_path, out, **overrides):
    """Enumerate maximal candidate groups from a graph snapshot."""
    config = _build_config(config_path, **overrides)
    graph = RatingGraph.load(graph_path)
    candidates = enumerate_candidates(graph, config.min_r, config.min_p,
                                      config.candidate_cap)
    _echo_out(_jsonl(b.to_dict() for b in candidates), out)
    click.echo(f"mined {len(candidates)} candidate group(s)", err=True)


@cli.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--candidates", "candidates_path", type=click.Path(exists=True),
              required=True, help="Candidate JSONL from the mine step.")
@_settings("weights", "max_tw")
@click.option("--out", type=click.Path(), default=None,
              help="Scored JSONL path (default stdout).")
def indicators(graph_path, candidates_path, config_path, out, **overrides):
    """Score candidate groups: six indicators plus DOC and DI per group."""
    config = _build_config(config_path, **overrides)
    graph = RatingGraph.load(graph_path)
    cohort = _load_candidates(candidates_path, graph)
    scored = score_cohort(graph, cohort, config)
    _echo_out(_jsonl(scored_row(b, rep) for b, rep in scored), out)
    click.echo(f"scored {len(scored)} group(s)", err=True)


# The detect reports number the scored groups from 1 in canonical order and
# show each one's route: a "dangerous" group still deserves an analyst's eye.

def _report_table(result: DetectionResult) -> str:
    delta = result.config.delta
    out = io.StringIO()
    out.write(f"{'id':>4}  {'doc':>7}  {'di':>7}  {'status':<10}  members -> products\n")
    for i, (b, rep) in enumerate(result.scored, 1):
        out.write(f"{i:>4}  {rep.doc:>7.4f}  {rep.di:>7.4f}  "
                  f"{route(rep, delta):<10}  {','.join(b.reviewers)} -> "
                  f"{','.join(b.products)}\n")
    return out.getvalue()


def _report_csv(result: DetectionResult) -> str:
    delta = result.config.delta
    return _csv(["group_id", "reviewers", "products", "doc", "di", "status"],
                ([i, " ".join(b.reviewers), " ".join(b.products),
                  repr(rep.doc), repr(rep.di), route(rep, delta)]
                 for i, (b, rep) in enumerate(result.scored, 1)))


@cli.command(name="detect")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@_settings("delta", "weights", "max_tw", "min_r", "min_p", "candidate_cap")
@click.option("--out", type=click.Path(), default=None,
              help="Full result JSON path (- for stdout).")
@click.option("--report", type=click.Choice(["table", "json", "csv"]),
              default="table", show_default=True, help="Stdout report format.")
def detect_cmd(graph_path, config_path, out, report, **overrides):
    """Run the whole detection pass and report every examined group."""
    graph = RatingGraph.load(graph_path)
    result = detect(graph, _build_config(config_path, **overrides))
    if out:
        _write_result(result, out)
    if report == "json":
        _write_result(result, "-")
    elif report == "csv":
        _echo_out(_report_csv(result), None)
    else:
        _echo_out(_report_table(result), None)
    click.echo(f"examined {result.examined_count} group(s), "
               f"expanded {result.expanded_count}, "
               f"flagged {len(result.collusive)} collusive", err=True)


def _show_query_result(res, as_json: bool):
    if as_json:
        _write_json(res.to_dict(), "-")
        return
    for warning in res.warnings:
        click.echo(f"warning: {warning}", err=True)
    out = io.StringIO()
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
    _echo_out(out.getvalue(), None)


@cli.command(name="query")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--result", "result_path", type=click.Path(exists=True), default=None,
              help="Cached detection result to query (omit it to re-run "
                   "detection); its config echo is the layer under --config.")
@_settings("delta", "weights")
@click.option("-e", "--execute", "query_text", type=str, default=None,
              help="Query text to run once.")
@click.option("--repl", is_flag=True, help="Interactive prompt.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
@click.option("--strict-ids", is_flag=True,
              help="Treat unknown filter ids as an error instead of a warning.")
def query_cmd(graph_path, result_path, config_path, query_text, repl, as_json,
              strict_ids, **overrides):
    """Query a detection result with the getbicliques language.

    Without --result the graph is detected afresh, with the mining settings
    of --config.
    """
    if query_text is None and not repl:
        raise click.UsageError("provide a query with -e or start --repl")
    graph = RatingGraph.load(graph_path)
    cache = None
    if result_path:
        cache = DetectionResult.from_dict(_read_json(result_path, "result"), graph)
    config = _build_config(config_path,
                           base=cache.config.to_dict() if cache else None,
                           **overrides)
    if cache is None:
        cache = detect(graph, config)

    def answer(statement: str):
        _show_query_result(evaluate(parse(statement), graph, config, cache=cache,
                                    strict=strict_ids), as_json)

    if query_text is not None:
        answer(query_text)
    if repl:
        _run_repl(answer)


def _run_repl(answer):
    """Answer each ';'-terminated statement read from stdin, and at the end
    of input any unfinished one; a bad one is reported on stderr and the
    session goes on. The prompts show only when stdin and stdout are both
    terminals, where input() edits the line, so a piped session prints
    exactly what -e prints for each statement."""
    prompts = sys.stdin.isatty() and sys.stdout.isatty()
    if prompts:
        try:
            import readline  # noqa: F401  (line editing when available)
        except ImportError:
            pass
    click.echo("bcscan query prompt; finish statements with ';', "
               "'exit;' leaves", err=True)
    buffer = ""
    done = False
    while not done:
        try:
            line = input(("...> " if buffer else "bcs> ") if prompts else "")
        except EOFError:
            line, done = "", True
        buffer = (buffer + "\n" + line).strip()
        if not buffer or not (done or buffer.endswith(";")):
            continue
        statement, buffer = buffer, ""
        if statement in ("exit;", "quit;"):
            break
        try:
            answer(statement)
        except QuerySyntaxError as exc:
            click.echo(f"syntax error: {exc}", err=True)
        except ValueError as exc:
            click.echo(f"semantic error: {exc}", err=True)


@cli.command()
@click.option("--scored", "scored_path", type=click.Path(exists=True), required=True,
              help="Scored JSONL from the indicators step.")
@_settings("delta", config_file=False)
@click.option("--out", type=click.Path(), default=None,
              help="CSV path (default stdout).")
def stats(scored_path, out, **overrides):
    """Cumulative distribution of every indicator over scored groups.

    Each row's gs, gps and di must be what its group sizes derive to,
    relative to the file's largest group, as the indicators step scores
    them. Rows are labelled collusive or other by each row's stored doc
    against --delta: scored JSONL records no weights, so doc is neither
    checked nor recomputed.
    """
    delta = _build_config(None, **overrides).delta
    with fields_of("scored file"):
        rows = _read_jsonl(scored_path, "scored file")
        reports = [IndicatorReport.from_dict(row) for row in rows]
        reviewers, products = id_lists(rows, "scored file")
        check_derived("scored file row", [len(set(ids)) for ids in reviewers],
                      [len(set(ids)) for ids in products], reports)
    labels = ["collusive" if route(rep, delta) == "collusive" else "other"
              for rep in reports]
    _echo_out(_csv(["indicator", "label", "value", "cumulative"],
                   ([p.indicator, p.label, repr(p.value), repr(p.cumulative)]
                    for p in cumulative_distribution(reports, labels))), out)


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
        # each value is read as the type of its field's default
        field = keys[key]
        kwargs[field] = type(getattr(AttackScript, field))(value.strip())
    return AttackScript(**kwargs)


@synth.command(name="generate")
@click.option("--honest", type=int, default=200, show_default=True)
@click.option("--products", type=int, default=50, show_default=True)
@click.option("--density", type=float, default=0.05, show_default=True)
@click.option("--attack", "attack_specs", multiple=True,
              help='Repeatable, e.g. "size=5,targets=4,mode=promote,span=2,dup=0.2,camo=0.3".')
@click.option("--seed", type=int, default=0, show_default=True)
@_settings("max_value", config_file=False)
@click.option("--out", type=click.Path(), required=True,
              help="Rating CSV path (- for stdout).")
@click.option("--truth", "truth_path", type=click.Path(), default=None,
              help="Ground-truth JSON path (- for stdout).")
def synth_generate(honest, products, density, attack_specs, seed, out, truth_path,
                   **overrides):
    """Write a labelled synthetic rating log."""
    attacks = [_parse_attack(spec) for spec in attack_specs]
    dataset = generate(honest, products, density, attacks, seed=seed,
                       max_value=_build_config(None, **overrides).max_value)
    _echo_out(_csv(None, ([rr.reviewer, rr.product, repr(rr.value),
                           rr.date.isoformat()] for rr in dataset.raw)), out)
    if truth_path:
        _write_json([{"reviewers": sorted(t.reviewers), "products": sorted(t.products)}
                     for t in dataset.truth], truth_path)
    click.echo(f"wrote {len(dataset.raw)} ratings, {len(dataset.truth)} planted "
               f"group(s)", err=True)


def _parse_deltas(text: str, config: DetectionConfig) -> list[float]:
    """The points of a start:stop:step or comma-separated sweep, each checked
    as ``config``'s delta as it is read, so no detection runs before a bad
    point is found and a range stops at its first point past 1. ValueError
    for a sweep with no points."""
    def checked(delta: float) -> float:
        return replace(config, delta=delta).delta

    parts = text.split(":")
    if len(parts) == 3:
        start, stop, step = (float(p) for p in parts)
        if not step > 0:
            raise ValueError(f"delta step must be positive, got {step}")
        values = []
        v = start
        i = 0
        while v <= stop + 1e-9:
            values.append(checked(round(v, 10)))
            i += 1
            v = start + i * step
    else:
        values = [checked(float(p)) for p in text.split(",")]
    if not values:
        raise ValueError(f"the delta sweep {text!r} has no points")
    return values


@synth.command(name="eval")
@click.option("--data", "data_path", type=click.Path(exists=True), required=True,
              help="Rating CSV from synth generate.")
@click.option("--truth", "truth_path", type=click.Path(exists=True), required=True)
@click.option("--deltas", type=str, default="0.0:1.0:0.1", show_default=True,
              help="start:stop:step sweep or comma-separated values.")
@_settings(*(f for f in _SETTINGS if f != "delta"), base=_SYNTH_PRUNE)
@click.option("--out", type=click.Path(), default=None, help="Sweep CSV (default stdout).")
def synth_eval(data_path, truth_path, deltas, config_path, out, **overrides):
    """Sweep delta over a labelled dataset and report precision/recall.

    Pruning defaults to 1/1 here: synthetic benchmarks are desk-scale and
    the production 10/10 activity floors would empty them. The sweep sets
    delta itself, so there is no --delta.
    """
    config = _build_config(config_path, base=_SYNTH_PRUNE, **overrides)
    with open(data_path, "r", encoding="utf-8") as fp:
        records, errors = ingest_mod.parse_log(fp, fmt="csv",
                                               max_value=config.max_value)
    if errors:
        raise ValueError(f"{len(errors)} malformed line(s) in {data_path}")
    with fields_of("truth file"):
        rows = list(json_objects(_read_json(truth_path, "truth file"), "truth file row"))
        truth = tuple(TruthGroup(frozenset(rs), frozenset(ps))
                      for rs, ps in zip(*id_lists(rows, "truth file")))
    dataset = LabeledDataset(tuple(records), truth, config.max_value)
    points = threshold_sweep(dataset, config, _parse_deltas(deltas, config))
    _echo_out(_csv(["delta", "precision", "precision_vacuous",
                    "recall", "recall_vacuous", "retrieved"],
                   ([repr(pt.delta), repr(pt.precision.value),
                     int(pt.precision.vacuous), repr(pt.recall.value),
                     int(pt.recall.vacuous), pt.retrieved] for pt in points)), out)


def main(argv=None):
    return cli(args=argv, prog_name="bcscan")


if __name__ == "__main__":
    main()
