"""Brute-force oracles for the pipeline, built on naive per-version tables.

Everything here works from flat (version, date, path, hash) rows and
exhaustive scans, reimplementing the published definitions directly:
no signature merging, no indexes, no vectorised scans.  Library results
are compared against these bit-for-bit on small corpora.
"""

from __future__ import annotations

import datetime
import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from osscan import fingerprint
from osscan.extractor import extract_functions, normalize
from osscan.fingerprint import FuncHash, HashScheme

import tlsh_oracle


@dataclass(frozen=True)
class NaiveRow:
    ordinal: int
    version_id: str
    date: datetime.date
    path: str
    func_hash: FuncHash


@dataclass
class NaiveTable:
    oss_id: str
    versions: list[tuple[str, datetime.date]]  # ordinal-indexed
    rows: list[NaiveRow]

    def hashes(self) -> set[FuncHash]:
        return {r.func_hash for r in self.rows}

    def incidences(self) -> set[tuple[int, FuncHash]]:
        return {(r.ordinal, r.func_hash) for r in self.rows}

    def triples(self) -> set[tuple[int, FuncHash, str]]:
        return {(r.ordinal, r.func_hash, r.path) for r in self.rows}

    def birth(self, func_hash: FuncHash) -> datetime.date:
        return min(r.date for r in self.rows if r.func_hash == func_hash)

    def version_set(self, func_hash: FuncHash) -> set[int]:
        return {r.ordinal for r in self.rows if r.func_hash == func_hash}


def naive_table_for_dir(oss_dir: Path) -> NaiveTable:
    """Flat extraction of a corpus component directory (version subdirs
    plus meta.tsv), with the same ordering rule as the pipeline."""
    dates = {}
    meta = oss_dir / "meta.tsv"
    if meta.is_file():
        for line in meta.read_text().splitlines():
            vid, _, day = line.partition("\t")
            dates[vid] = datetime.date.fromisoformat(day)
    names = [p.name for p in oss_dir.iterdir() if p.is_dir()]
    ordered = sorted(
        names, key=lambda v: (dates.get(v, datetime.date(1970, 1, 1)), v)
    )
    versions = [(v, dates.get(v, datetime.date(1970, 1, 1))) for v in ordered]
    rows = []
    for ordinal, (vid, day) in enumerate(versions):
        for raw in extract_functions(oss_dir / vid):
            text = normalize(raw.body)
            if not text:
                continue
            rows.append(
                NaiveRow(ordinal, vid, day, raw.file_path, fingerprint.hash_function(text))
            )
    return NaiveTable(oss_id=oss_dir.name, versions=versions, rows=rows)


# Normalization as one callback per token, whitespace runs included: the
# rules of `extractor.normalize` written out token by token.
_REFERENCE_TOKEN_RE = re.compile(
    rb"""/[ \t\r\n]*(?:/[^\r\n]*|\*.*?(?:\*/|\Z))  # comment, opener may be split
    |[ \t\r\n]+
    |("[^"\\]*(?:\\.[^"\\]*)*"?|'[^'\\]*(?:\\.[^'\\]*)*'?)""",
    re.S | re.X,
)
# what a literal keeps: findall skips whitespace and a backslash escaping it
_REFERENCE_LITERAL_KEEP_RE = re.compile(rb"[^\\ \t\r\n]+|\\[^ \t\r\n]")


def _reference_token(match: re.Match) -> bytes:
    literal = match[1]
    if literal is None:
        return b""
    return b"".join(_REFERENCE_LITERAL_KEEP_RE.findall(literal))


def reference_normalize(body: bytes) -> bytes:
    """Comments and whitespace runs dropped, each literal kept but for its
    whitespace and a backslash escaping whitespace."""
    return _REFERENCE_TOKEN_RE.sub(_reference_token, body)


@functools.cache
def _lsh_distance(d1: str, d2: str) -> int:
    """Reference distance of a digest pair, called with d1 <= d2 so that a
    pair is computed once in either order."""
    return tlsh_oracle.reference_distance(d1, d2, False)


def _distance(a: FuncHash, b: FuncHash, cutoff: int) -> int:
    """The independent TLSH distance of two LSH hashes; otherwise 0 for
    equal exact hashes and cutoff + 1 for any other pair, which is never
    similar."""
    if a.scheme is HashScheme.LSH and b.scheme is HashScheme.LSH:
        return _lsh_distance(*sorted((a.digest, b.digest)))
    return 0 if a == b else cutoff + 1


def brute_pair(
    left: set[FuncHash], right: set[FuncHash], cutoff: int
) -> dict[FuncHash, tuple[FuncHash, int]]:
    """Exhaustive restatement of the pairing rule: digest equality first,
    then minimum distance with smaller-digest tie break."""
    matched = {}
    right_sorted = sorted(right, key=lambda h: h.digest)
    for lh in sorted(left, key=lambda h: h.digest):
        if lh in right:
            matched[lh] = (lh, 0)
            continue
        best = None
        for rh in right_sorted:
            d = _distance(lh, rh, cutoff)
            if d <= cutoff and (best is None or d < best[1]):
                best = (rh, d)
        if best is not None:
            matched[lh] = best
    return matched


def brute_phi(s: NaiveTable, x: NaiveTable, cutoff: int) -> Fraction:
    pairs = brute_pair(s.hashes(), x.hashes(), cutoff)
    g = sum(1 for sh, (xh, _) in pairs.items() if x.birth(xh) <= s.birth(sh))
    return Fraction(g, len(x.hashes()))


def brute_members(
    s: NaiveTable, tables: dict[str, NaiveTable], theta: Fraction, cutoff: int
) -> set[str]:
    return {
        x_id
        for x_id, x in tables.items()
        if x_id != s.oss_id and brute_phi(s, x, cutoff) >= theta
    }


def brute_app(
    s: NaiveTable, tables: dict[str, NaiveTable], theta: Fraction, cutoff: int
) -> set[FuncHash]:
    members = brute_members(s, tables, theta, cutoff)
    removed: set[FuncHash] = set()
    for x_id in members:
        removed |= set(brute_pair(s.hashes(), tables[x_id].hashes(), cutoff))
    return s.hashes() - removed


def brute_component_score(
    target_hashes: set[FuncHash], app: set[FuncHash], cutoff: int
) -> Fraction:
    pairs = brute_pair(app, target_hashes, cutoff)
    return Fraction(len(pairs), len(app))


def brute_version_vote(
    matched: set[FuncHash], table: NaiveTable
) -> tuple[str, dict[str, float]]:
    n = len(table.versions)
    parts: dict[int, list[float]] = {o: [] for o in range(n)}
    for func_hash in sorted(matched, key=lambda h: h.digest):
        owners = table.version_set(func_hash)
        weight = math.log(n / len(owners))
        for o in owners:
            parts[o].append(weight)
    totals = {o: math.fsum(v) for o, v in parts.items()}
    scores = {table.versions[o][0]: totals[o] for o in range(n)}
    if all(v == 0.0 for v in totals.values()):
        vid, _ = max(table.versions, key=lambda p: (p[1], p[0]))
        return vid, scores
    best = max(
        range(n), key=lambda o: (totals[o], table.versions[o][1], table.versions[o][0])
    )
    return table.versions[best][0], scores
