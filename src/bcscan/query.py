"""The getbicliques query language.

Grammar::

    query     := "getbicliques" [ "." projection ] "(" [ weights ] ")"
                 [ ";" ] [ filter ] ";"
    projection:= "products" | "product" | "reviewers" | "reviewer"
    weights   := number "," number "," number "," number
    filter    := "filter" "{" clause+ "}"
    clause    := ( "on" "(" ids ")"
                 | ("contains" | "contain") "(" ids ")"
                 | "DOC" ">" number ) ";"
    ids       := id { "," id }

Identifiers may be bare words or quoted with single or double quotes. The
optional semicolon after the weight list is tolerated because queries in
the wild write the filter block as a second line. ``on`` restricts to
groups whose product set covers the listed ids, ``contains`` to groups
whose member set covers the listed ids, and ``DOC > x`` re-aggregates each
group's cached indicators under the effective weights and keeps strict
exceeders.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from .model import (BadWeights, Biclique, DetectionConfig, IndicatorReport, RatingGraph,
                    scored_row, validate_weights)
from .detector import DetectionResult, _weighted_doc, detect

log = logging.getLogger(__name__)


class QuerySyntaxError(Exception):
    """Malformed query text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class QuerySemanticError(Exception):
    """Well-formed query with impossible semantics (weights, ranges, dupes)."""


class UnknownId(Exception):
    """A filter references an id absent from the graph (strict mode only)."""


@dataclass(frozen=True)
class QueryAst:
    projection: str = "bicliques"   # "bicliques" | "products" | "reviewers"
    weights: tuple[float, float, float, float] | None = None
    on: tuple[str, ...] | None = None         # product ids the group must cover
    contains: tuple[str, ...] | None = None   # reviewer ids the group must cover
    doc_min: float | None = None


class _Token(NamedTuple):
    kind: str   # ident | number | string | punct | end
    text: str
    pos: int


_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<number>\d+(?:\.\d+)?|\.\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>'[^']*'|"[^"]*")
    | (?P<punct>[.,(){};>])
""", re.VERBOSE)


def _lex(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            if kind == "string":
                value = value[1:-1]
            tokens.append(_Token(kind, value, pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


_PROJECTIONS = {"products": "products", "product": "products",
                "reviewers": "reviewers", "reviewer": "reviewers"}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect_punct(self, ch: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != ch:
            raise QuerySyntaxError(f"expected {ch!r}, found {tok.text or 'end of input'!r}",
                                   tok.pos)
        return tok

    def expect_ident(self, *names: str) -> _Token:
        tok = self.next()
        if tok.kind != "ident" or (names and tok.text not in names):
            want = " or ".join(repr(n) for n in names) if names else "an identifier"
            raise QuerySyntaxError(f"expected {want}, found {tok.text or 'end of input'!r}",
                                   tok.pos)
        return tok

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == ch

    # -- grammar ----------------------------------------------------------

    def parse_query(self) -> QueryAst:
        self.expect_ident("getbicliques")
        projection = "bicliques"
        if self.at_punct("."):
            self.next()
            tok = self.expect_ident(*_PROJECTIONS)
            projection = _PROJECTIONS[tok.text]
        self.expect_punct("(")
        weights = None
        if not self.at_punct(")"):
            weights = self.parse_weights()
        self.expect_punct(")")
        # tolerate one semicolon before a filter block
        if (self.at_punct(";") and self.peek(1).kind == "ident"
                and self.peek(1).text == "filter"):
            self.next()
        on = contains = doc_min = None
        if self.peek().kind == "ident" and self.peek().text == "filter":
            on, contains, doc_min = self.parse_filter()
        self.expect_punct(";")
        tail = self.peek()
        if tail.kind != "end":
            raise QuerySyntaxError(f"trailing input {tail.text!r}", tail.pos)
        return QueryAst(projection, weights, on, contains, doc_min)

    def parse_weights(self) -> tuple[float, float, float, float]:
        values = [self.parse_number()]
        while self.at_punct(","):
            self.next()
            values.append(self.parse_number())
        if len(values) != 4:
            raise QuerySyntaxError(f"expected 4 weights, found {len(values)}",
                                   self.peek().pos)
        return tuple(values)

    def parse_number(self) -> float:
        tok = self.next()
        if tok.kind != "number":
            raise QuerySyntaxError(f"expected a number, found {tok.text or 'end of input'!r}",
                                   tok.pos)
        return float(tok.text)

    def parse_filter(self):
        self.expect_ident("filter")
        self.expect_punct("{")
        on = contains = doc_min = None
        while not self.at_punct("}"):
            tok = self.next()
            if tok.kind != "ident" or tok.text not in ("on", "contains", "contain", "DOC"):
                raise QuerySyntaxError(
                    f"expected a filter clause, found {tok.text or 'end of input'!r}",
                    tok.pos)
            if tok.text == "DOC":
                self.expect_punct(">")
                value = self.parse_number()
                if doc_min is not None:
                    raise QuerySemanticError("duplicate DOC clause")
                doc_min = value
            else:
                ids = self.parse_ids()
                if tok.text == "on":
                    if on is not None:
                        raise QuerySemanticError("duplicate on(...) clause")
                    on = ids
                else:
                    if contains is not None:
                        raise QuerySemanticError("duplicate contains(...) clause")
                    contains = ids
            self.expect_punct(";")
        self.expect_punct("}")
        if on is None and contains is None and doc_min is None:
            raise QuerySyntaxError("empty filter block", self.peek().pos)
        return on, contains, doc_min

    def parse_ids(self) -> tuple[str, ...]:
        self.expect_punct("(")
        ids = [self.parse_id()]
        while self.at_punct(","):
            self.next()
            ids.append(self.parse_id())
        self.expect_punct(")")
        return tuple(ids)

    def parse_id(self) -> str:
        tok = self.next()
        if tok.kind not in ("ident", "string", "number"):
            raise QuerySyntaxError(f"expected an id, found {tok.text or 'end of input'!r}",
                                   tok.pos)
        return tok.text


def parse(text: str) -> QueryAst:
    """Parse query text into an AST, then check its semantics."""
    ast = _Parser(_lex(text)).parse_query()
    if ast.weights is not None:
        try:
            ast = replace(ast, weights=validate_weights(ast.weights))
        except BadWeights as exc:
            raise QuerySemanticError(str(exc)) from exc
    if ast.doc_min is not None and not 0.0 <= ast.doc_min <= 1.0:
        raise QuerySemanticError(f"DOC threshold {ast.doc_min} outside [0, 1]")
    return ast


def _format_number(x: float) -> str:
    return repr(float(x))


def _quote(ident: str) -> str:
    if "'" not in ident:
        return f"'{ident}'"
    if '"' not in ident:
        return f'"{ident}"'
    raise ValueError(f"id {ident!r} mixes both quote characters")


def pretty(ast: QueryAst) -> str:
    """Render an AST back to canonical query text (parses to the same AST)."""
    head = "getbicliques"
    if ast.projection != "bicliques":
        head += "." + ast.projection
    head += "("
    if ast.weights is not None:
        head += ",".join(_format_number(w) for w in ast.weights)
    head += ")"
    clauses = []
    if ast.on is not None:
        clauses.append("on(%s);" % ",".join(_quote(i) for i in ast.on))
    if ast.contains is not None:
        clauses.append("contains(%s);" % ",".join(_quote(i) for i in ast.contains))
    if ast.doc_min is not None:
        clauses.append("DOC > %s;" % _format_number(ast.doc_min))
    if clauses:
        head += " filter{ " + " ".join(clauses) + " }"
    return head + ";"


@dataclass(frozen=True)
class QueryResult:
    projection: str
    groups: tuple[tuple[Biclique, IndicatorReport], ...] = ()
    ids: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out: dict = {"projection": self.projection}
        if self.projection == "bicliques":
            out["groups"] = [scored_row(b, rep) for b, rep in self.groups]
        else:
            out["ids"] = list(self.ids)
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def evaluate(ast: QueryAst, graph: RatingGraph, config: DetectionConfig,
             cache: DetectionResult | None = None,
             strict: bool = False) -> QueryResult:
    """Run a query against a detection result.

    Without a cache a fresh detection pass is run first. Query weights
    override the config's; DOC values are re-aggregated from the cached
    indicator quadruples, never re-mined. The effective DOC floor is the
    query's threshold, or delta when the query names none; matches must
    exceed it strictly.
    """
    weights = validate_weights(ast.weights if ast.weights is not None
                               else config.weights)
    if cache is None:
        cache = detect(graph, config)
    floor = ast.doc_min if ast.doc_min is not None else config.delta

    warnings: list[str] = []
    for ids, known, side in ((ast.on or (), graph.products, "product"),
                             (ast.contains or (), graph.reviewers, "reviewer")):
        for ident in ids:
            if ident not in known:
                message = f"unknown {side} id {ident!r}"
                if strict:
                    raise UnknownId(message)
                warnings.append(message)
                log.warning("%s", message)

    on = set(ast.on) if ast.on else None
    contains = set(ast.contains) if ast.contains else None
    kept = []
    for group, rep in cache.scored:
        if on is not None and not on <= set(group.products):
            continue
        if contains is not None and not contains <= set(group.reviewers):
            continue
        doc = _weighted_doc(rep.quadruple(), weights)
        if doc > floor:
            kept.append((group, rep, doc))

    if ast.projection == "products":
        ids = sorted({p for group, _, _ in kept for p in group.products})
        return QueryResult("products", ids=tuple(ids), warnings=tuple(warnings))
    if ast.projection == "reviewers":
        ids = sorted({r for group, _, _ in kept for r in group.reviewers})
        return QueryResult("reviewers", ids=tuple(ids), warnings=tuple(warnings))
    # only the bicliques projection shows reports, re-weighted to the query
    kept.sort(key=lambda item: item[0].key)
    groups = tuple((group, replace(rep, doc=doc)) for group, rep, doc in kept)
    return QueryResult("bicliques", groups=groups, warnings=tuple(warnings))
