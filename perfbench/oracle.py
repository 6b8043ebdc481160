"""Output checks computed apart from the program.

Everything here is rebuilt from the raw CSV log and the generator's truth,
following the paper's definitions, and imports nothing from ``bcscan``.
Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from datetime import date
from itertools import combinations
from math import fsum, sqrt

TOLERANCE = 1e-9


def _median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return float(s[mid]) if n % 2 else (s[mid - 1] + s[mid]) / 2


def _rms_about(values: list[float], center: float) -> float:
    return sqrt(fsum((v - center) ** 2 for v in values) / len(values))


class CollapsedLog:
    """The pruned log with one rating per (reviewer, product) pair.

    Pruning keeps reviewers with at least ``reviewer_min`` distinct products
    and products with at least ``product_min`` raw ratings, repeated to a
    fixed point. The chronologically last rating of a pair wins, a later
    line winning a tie. A pair posted more than twice carries spamicity
    (its raw count over the product's raw count), otherwise 0. Days count
    from the earliest kept rating.
    """

    def __init__(self, csv_text: str, reviewer_min: int, product_min: int):
        raw = []
        for line in csv_text.splitlines():
            if line.strip():
                r, p, v, d = line.split(",")
                raw.append((r, p, float(v), date.fromisoformat(d)))
        while True:
            distinct = defaultdict(set)
            per_product = Counter()
            for r, p, _, _ in raw:
                distinct[r].add(p)
                per_product[p] += 1
            kept = [x for x in raw if len(distinct[x[0]]) >= reviewer_min
                    and per_product[x[1]] >= product_min]
            if len(kept) == len(raw):
                break
            raw = kept
        self.raw_count = len(raw)
        pair_count = Counter((r, p) for r, p, _, _ in raw)
        epoch = min(d for _, _, _, d in raw)
        last = {}
        for r, p, v, d in raw:
            prev = last.get((r, p))
            if prev is None or d >= prev[1]:
                last[(r, p)] = (v, d)
        self.edges = {}
        for (r, p), (v, d) in last.items():
            n = pair_count[(r, p)]
            spam = n / per_product[p] if n > 2 else 0.0
            self.edges[(r, p)] = (v, (d - epoch).days, spam)
        self.raters = defaultdict(set)
        self.rated = defaultdict(set)
        for r, p in self.edges:
            self.raters[p].add(r)
            self.rated[r].add(p)
        self.suspicious = self._suspicious()

    def _suspicious(self) -> set[str]:
        """Reviewers whose L2 or worst deviation from the products' credible
        means exceeds the population median by more than one RMS distance.
        A product's credible mean averages the ratings within one RMS
        distance of its median (the median itself if none)."""
        credible_mean = {}
        for p, rs in self.raters.items():
            values = [self.edges[(r, p)][0] for r in rs]
            med = _median(values)
            dist = _rms_about(values, med)
            near = [v for v in values if med - dist <= v <= med + dist]
            credible_mean[p] = fsum(near) / len(near) if near else med
        l2, worst = {}, {}
        for r, ps in self.rated.items():
            errs = [abs(self.edges[(r, p)][0] - credible_mean[p]) for p in ps]
            l2[r] = sqrt(fsum(x * x for x in errs))
            worst[r] = max(errs)
        cut = {}
        for name, table in (("l2", l2), ("worst", worst)):
            values = list(table.values())
            med = _median(values)
            cut[name] = med + _rms_about(values, med)
        return {r for r in self.rated
                if l2[r] > cut["l2"] or worst[r] > cut["worst"]}

    def snapshot_problems(self, snapshot_text: str) -> list[str]:
        """The ingested graph snapshot holds exactly the collapsed edges."""
        lines = [ln for ln in snapshot_text.splitlines() if ln.strip()]
        seen = {}
        for ln in lines[1:]:
            rec = json.loads(ln)
            seen[(rec["r"], rec["p"])] = (rec["v"], rec["t"], rec["s"])
        if seen == self.edges:
            return []
        missing = len(self.edges.keys() - seen.keys())
        extra = len(seen.keys() - self.edges.keys())
        wrong = sum(1 for k in seen.keys() & self.edges.keys()
                    if seen[k] != self.edges[k])
        return [f"snapshot: {missing} edge(s) missing, {extra} extra, {wrong} wrong"]

    # -- indicators, from the paper's definitions -------------------------

    def indicators(self, reviewers, products, max_tw: int) -> dict[str, float]:
        vectors = [[self.edges[(r, p)][0] for p in products] for r in reviewers]
        gvs = min(_cosine(a, b) for a, b in combinations(vectors, 2))
        gts = 0.0
        for p in products:
            days = [self.edges[(r, p)][1] for r in reviewers]
            span = max(days) - min(days)
            if span <= max_tw:
                gts = max(gts, 1.0 - span / max_tw)
        cells = [self.edges[(r, p)] for r in reviewers for p in products]
        grs = fsum(v * s for v, _, s in cells) / fsum(v for v, _, _ in cells)
        gms = sum(1 for r in reviewers if r in self.suspicious) / len(reviewers)
        return {"gvs": gvs, "gts": gts, "grs": grs, "gms": gms}


def _cosine(a: list[float], b: list[float]) -> float:
    if a == b:
        return 1.0
    dot = fsum(x * y for x, y in zip(a, b))
    return min(1.0, dot / (sqrt(fsum(x * x for x in a)) * sqrt(fsum(y * y for y in b))))


def doc_of(row: dict, weights) -> float:
    """Degree of collusiveness: the weighted sum of the four behavioural
    indicators, clamped to [0, 1]."""
    value = fsum(row[k] * w for k, w in zip(("gvs", "gts", "grs", "gms"), weights))
    return min(1.0, max(0.0, value))


def _key(row: dict) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return (tuple(row["reviewers"]), tuple(row["products"]))


def result_problems(log: CollapsedLog, result: dict) -> list[str]:
    """Every check on a detection result that needs only the log."""
    problems: list[str] = []
    config = result["config"]
    min_r, min_p, max_tw = config["min_r"], config["min_p"], config["max_tw"]
    weights, delta = config["weights"], config["delta"]
    scored = result["scored"]
    if not scored:
        return ["result has no scored group"]
    max_r = max(len(row["reviewers"]) for row in scored)
    max_p = max(len(row["products"]) for row in scored)
    keys = set()
    for row in scored:
        rs, ps = _key(row)
        name = f"group {rs[:2]}..x{ps[:2]}.."
        keys.add((rs, ps))
        if len(rs) < min_r or len(ps) < min_p:
            problems.append(f"{name}: below min_r/min_p")
            continue
        holes = [(r, p) for r in rs for p in ps if (r, p) not in log.edges]
        if holes:
            problems.append(f"{name}: not a rectangle of the log, {len(holes)} hole(s)")
            continue
        expect = log.indicators(rs, ps, max_tw)
        expect["gs"] = len(rs) / max_r
        expect["gps"] = len(ps) / max_p
        expect["doc"] = doc_of(expect, weights)
        expect["di"] = (expect["gs"] + expect["gps"]) / 2
        for k, v in expect.items():
            if abs(row[k] - v) > TOLERANCE:
                problems.append(f"{name}: {k}={row[k]!r}, recomputed {v!r}")
    if len(keys) != len(scored):
        problems.append("scored list repeats a group")
    want = {_key(row) for row in scored if row["doc"] > delta}
    got = [_key(row) for row in result["collusive"]]
    if set(got) != want or len(got) != len(want):
        problems.append(f"collusive list has {len(got)} group(s), "
                        f"{len(want)} scored row(s) exceed delta")
    order = [(-row["doc"], _key(row)) for row in result["collusive"]]
    if order != sorted(order):
        problems.append("collusive list is not sorted by descending doc")
    problems += _closure_problems(log, keys, min_p)
    return problems


def _closure_problems(log: CollapsedLog, keys, min_p: int) -> list[str]:
    """Every reviewer pair sharing at least ``min_p`` products spans a
    maximal rectangle (all reviewers who rated all of those products),
    and mining must have found it."""
    common = Counter()
    for p, rs in log.raters.items():
        for a, b in combinations(sorted(rs), 2):
            common[(a, b)] += 1
    missing = 0
    done = set()
    for (a, b), n in common.items():
        if n < min_p:
            continue
        ps = tuple(sorted(log.rated[a] & log.rated[b]))
        if ps in done:
            continue
        done.add(ps)
        rs = set.intersection(*(log.raters[p] for p in ps))
        if (tuple(sorted(rs)), ps) not in keys:
            missing += 1
    return [f"{missing} pair closure(s) missing from the scored groups"] if missing else []


def _matches(row: dict, planted) -> bool:
    members = set(row["reviewers"])
    truth = set(planted.reviewers)
    jaccard = len(members & truth) / len(members | truth)
    return jaccard >= 0.5 and bool(set(row["products"]) & set(planted.products))


def quality(result: dict, truth) -> tuple[float, float]:
    """Precision (share of flagged groups matching a planted group) and
    recall (share of planted groups matched by a flagged group). A match
    shares at least half the members (Jaccard) and one target."""
    flagged = result["collusive"]
    hits = sum(1 for row in flagged if any(_matches(row, t) for t in truth))
    found = sum(1 for t in truth if any(_matches(row, t) for row in flagged))
    precision = hits / len(flagged) if flagged else 0.0
    return precision, found / len(truth)


def cores_flagged_problems(result: dict, truth) -> list[str]:
    """Each planted crowd's core, on exactly its targets, is flagged."""
    flagged = {_key(row) for row in result["collusive"]}
    missing = [t for t in truth
               if (tuple(sorted(t.reviewers)), tuple(sorted(t.products))) not in flagged]
    return [f"{len(missing)} crowd core(s) not flagged"] if missing else []


# -- queries ----------------------------------------------------------------

def expected_answer(rows: list[dict], spec: dict, session_weights, delta: float):
    """Recompute a query over the result rows: re-weighted doc strictly
    above the floor, product and member supersets, then the projection."""
    weights = spec["weights"] or session_weights
    floor = spec["doc_min"] if spec["doc_min"] is not None else delta
    on = set(spec["on"] or ())
    contains = set(spec["contains"] or ())
    kept = []
    for row in rows:
        doc = doc_of(row, weights)
        if doc > floor and on <= set(row["products"]) and contains <= set(row["reviewers"]):
            kept.append((tuple(row["reviewers"]), tuple(row["products"]), doc))
    kept.sort()
    if spec["projection"] == "products":
        return tuple(sorted({p for _, ps, _ in kept for p in ps}))
    if spec["projection"] == "reviewers":
        return tuple(sorted({r for rs, _, _ in kept for r in rs}))
    return tuple(kept)
