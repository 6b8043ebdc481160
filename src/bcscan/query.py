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

import re
from dataclasses import dataclass
from itertools import chain, compress
from typing import NamedTuple, Sequence

from .model import (BadWeights, BcscanError, Biclique, DetectionConfig,
                    IndicatorReport, RatingGraph, scored_row, validate_weights)
from .detector import DetectionResult


class QuerySyntaxError(BcscanError):
    """Malformed query text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class QuerySemanticError(BcscanError, ValueError):
    """Well-formed query with impossible semantics (weights, ranges, dupes)."""


class UnknownId(BcscanError, ValueError):
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
_ANY_PROJECTION = " or ".join(map(repr, _PROJECTIONS))
# filter clause word -> the QueryAst field it sets
_CLAUSES = {"on": "on", "contains": "contains", "contain": "contains", "DOC": "doc_min"}

_IDENT, _NUMBER, _PUNCT = ("ident",), ("number",), ("punct",)
_ID = ("ident", "string", "number")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def take(self, kinds: tuple[str, ...], want: str | None,
             texts: Sequence[str] = ()) -> _Token | None:
        """Consume the next token if its kind is in ``kinds`` and, when
        ``texts`` is given, its text is in ``texts`` (words, or a string of
        punctuation characters). Otherwise return None, or raise "expected
        <want>, found ..." when ``want`` names what belongs here."""
        tok = self.tokens[self.i]
        if tok.kind in kinds and (not texts or tok.text in texts):
            self.i += 1
            return tok
        if want is None:
            return None
        raise QuerySyntaxError(f"expected {want}, found {tok.text or 'end of input'!r}",
                               tok.pos)

    def items(self, kinds: tuple[str, ...], want: str) -> list[str]:
        """The texts of a comma-separated list of one or more tokens."""
        texts = [self.take(kinds, want).text]
        while self.take(_PUNCT, None, ","):
            texts.append(self.take(kinds, want).text)
        return texts

    # -- grammar ----------------------------------------------------------

    def parse_query(self) -> QueryAst:
        take = self.take
        take(_IDENT, "'getbicliques'", ("getbicliques",))
        projection = "bicliques"
        if take(_PUNCT, None, "."):
            tok = take(_IDENT, _ANY_PROJECTION, _PROJECTIONS)
            projection = _PROJECTIONS[tok.text]
        take(_PUNCT, "'('", "(")
        weights = None
        if not take(_PUNCT, None, ")"):
            weights = self.items(_NUMBER, "a number")
            if len(weights) != 4:
                raise QuerySyntaxError(f"expected 4 weights, found {len(weights)}",
                                       self.tokens[self.i].pos)
            take(_PUNCT, "')'", ")")
        # one semicolon is tolerated before a filter block
        semicolon = take(_PUNCT, None, ";")
        clauses = self.parse_filter() if take(_IDENT, None, ("filter",)) else {}
        if clauses or not semicolon:
            take(_PUNCT, "';'", ";")
        tail = self.tokens[self.i]
        if tail.kind != "end":
            raise QuerySyntaxError(f"trailing input {tail.text!r}", tail.pos)
        # the semantic checks follow every syntax check
        if weights is not None:
            try:
                weights = validate_weights(weights)
            except BadWeights as exc:
                raise QuerySemanticError(str(exc)) from exc
        doc_min = clauses.get("doc_min")
        if doc_min is not None and not 0.0 <= doc_min <= 1.0:
            raise QuerySemanticError(f"DOC threshold {doc_min} outside [0, 1]")
        return QueryAst(projection, weights, **clauses)

    def parse_filter(self) -> dict:
        """The clauses of a filter block, by QueryAst field."""
        take = self.take
        take(_PUNCT, "'{'", "{")
        clauses = {}
        while not take(_PUNCT, None, "}"):
            word = take(_IDENT, "a filter clause", _CLAUSES).text
            if word == "DOC":
                take(_PUNCT, "'>'", ">")
                value = float(take(_NUMBER, "a number").text)
            else:
                take(_PUNCT, "'('", "(")
                value = tuple(self.items(_ID, "an id"))
                take(_PUNCT, "')'", ")")
            field = _CLAUSES[word]
            if field in clauses:
                label = "DOC" if word == "DOC" else f"{field}(...)"
                raise QuerySemanticError(f"duplicate {label} clause")
            clauses[field] = value
            take(_PUNCT, "';'", ";")
        if not clauses:
            raise QuerySyntaxError("empty filter block", self.tokens[self.i].pos)
        return clauses


def parse(text: str) -> QueryAst:
    """Parse query text into an AST, then check its semantics."""
    return _Parser(_lex(text)).parse_query()


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
             cache: DetectionResult, strict: bool = False) -> QueryResult:
    """Run a query against the detection result ``cache``.

    A query is one pass over the cached groups, which keeps their canonical
    order. Query weights override the config's; each group's DOC is
    re-aggregated from its cached indicator quadruple, never re-mined, and
    read from ``cache.docs``, which computes a weight vector's DOC column
    in one pass over the cache's indicator columns and reuses it for later
    queries under the same weights. The effective DOC floor is the query's
    threshold, or delta when the query names none; matches must exceed it
    strictly. A kept group whose re-aggregated DOC equals the cached one, as
    it does under the weights ``detect`` scored the cache with (a loaded
    cache's stored DOC is checked on load to be that value), is returned
    as the cached ``(group, report)`` pair itself; only a group whose DOC
    changes gets a new pair and report. An unknown filter id raises
    UnknownId under ``strict``, and otherwise only adds a warning to the
    result.
    """
    docs = cache.docs(ast.weights if ast.weights is not None else config.weights)
    floor = float(ast.doc_min if ast.doc_min is not None else config.delta)

    warnings: list[str] = []
    for ids, known, side in ((ast.on or (), graph.products, "product"),
                             (ast.contains or (), graph.reviewers, "reviewer")):
        for ident in ids:
            if ident not in known:
                message = f"unknown {side} id {ident!r}"
                if strict:
                    raise UnknownId(message)
                warnings.append(message)

    # (cached pair, doc) for each strict exceeder of the floor
    kept = compress(zip(cache.scored, docs), map(floor.__lt__, docs))
    if ast.on:
        on = set(ast.on)
        kept = [(pair, doc) for pair, doc in kept if on.issubset(pair[0].products)]
    if ast.contains:
        contains = set(ast.contains)
        kept = [(pair, doc) for pair, doc in kept
                if contains.issubset(pair[0].reviewers)]

    if ast.projection == "products":
        ids = sorted(set(chain.from_iterable(group.products for (group, _), _ in kept)))
        return QueryResult("products", ids=tuple(ids), warnings=tuple(warnings))
    if ast.projection == "reviewers":
        ids = sorted(set(chain.from_iterable(group.reviewers for (group, _), _ in kept)))
        return QueryResult("reviewers", ids=tuple(ids), warnings=tuple(warnings))
    # only the bicliques projection shows reports, re-weighted to the query
    groups = tuple(pair if doc == pair[1].doc else (pair[0], pair[1]._replace(doc=doc))
                   for pair, doc in kept)
    return QueryResult("bicliques", groups=groups, warnings=tuple(warnings))
