"""Component identification in a target tree.

Scores every segmented signature against the target's hashed function
set: the share of application-code entries matched (identically or
similarly) must reach theta for a component to be reported.  For each
reported component the reused version is voted with per-function inverse
version-frequency weights, and the reuse pattern (exact / partial /
structure-changed / code-changed) is derived from the identified
version's function set.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .extractor import extract_functions
from .fingerprint import (
    DEFAULT_CUTOFF,
    FuncHash,
    HashIndex,
    HashMemo,
    check_cutoff,
    hash_raw_functions,
    match_hashes,
)
from .segmenter import DEFAULT_THETA, check_theta, db_index
from .signature_store import ComponentDb, OssSignature, SignatureEntry

logger = logging.getLogger(__name__)

class DetectionError(RuntimeError):
    pass


@dataclass
class DetectorConfig:
    theta: Fraction = DEFAULT_THETA
    cutoff: int = DEFAULT_CUTOFF

    def __post_init__(self) -> None:
        self.theta = check_theta(self.theta)
        check_cutoff(self.cutoff)


@dataclass(frozen=True)
class TargetFingerprint:
    target_id: str
    functions: dict[FuncHash, frozenset[str]]  # hash -> paths (duplicates collapsed)


@dataclass(frozen=True)
class MatchEvidence:
    digest: str
    relation: str  # IDENTICAL | SIMILAR
    distance: int
    target_paths: tuple[str, ...]
    original_paths: tuple[str, ...]


@dataclass
class ComponentReport:
    oss_id: str
    phi: Fraction
    version_id: str
    version_scores: dict[str, float]
    patterns: tuple[str, ...]
    identical: int
    modified: int
    unused: int
    structure_changed: bool
    evidence: list[MatchEvidence] = field(default_factory=list)
    version_indistinct: bool = False


@dataclass(frozen=True)
class VersionVote:
    version_id: str
    scores: dict[str, float]
    indistinct: bool


@dataclass(frozen=True)
class ScoredComponent:
    sig: OssSignature
    phi: Fraction
    matched: dict[FuncHash, tuple[FuncHash, int]]  # scored entry -> (target hash, distance)
    # every DB entry with a target match -> (target hash, distance), from the one
    # scan of the target; shared by all components
    pairing: Mapping[FuncHash, tuple[FuncHash, int]]


def fingerprint_target(
    tree_root: str | Path, target_id: str | None = None
) -> TargetFingerprint:
    root = Path(tree_root)
    memo = HashMemo()
    hashed = hash_raw_functions(extract_functions(root, memo.files), memo)
    return TargetFingerprint(
        target_id=target_id or root.name,
        functions={h: frozenset(paths) for h, paths in hashed.items()},
    )


class _ScoringIndex:
    """What scoring needs from a DB whatever the target: the packed index
    of every distinct entry (`db_index`) and each signature's
    application-code rows (sorted, so in digest order), in oss id order.

    It keeps the objects it was built from and fits a DB only while each
    of them is still in place, compared by identity: an equal copy may be
    edited later, and an id() may be reused."""

    def __init__(self, db: ComponentDb, state: list[object]) -> None:
        self.state = state
        sigs = db.sorted_signatures()
        self.entries = db_index(sigs)
        app = [h.digest for sig in sigs for h in sig.app_entries or ()]
        k, rows = self.entries.find(np.array(app, dtype="S"))
        ends = np.cumsum([len(sig.app_entries or ()) for sig in sigs])
        self.app_rows = [np.sort(r) for r in np.split(rows, np.searchsorted(k, ends[:-1]))]

    def fits(self, state: list[object]) -> bool:
        return len(state) == len(self.state) and all(a is b for a, b in zip(state, self.state))


def _scoring_index(db: ComponentDb) -> _ScoringIndex:
    """The DB's scoring index, built again if a signature, its entries or
    its application code was replaced, added or removed since."""
    state = [obj for sig in db.sorted_signatures() for obj in (sig, sig.entries, sig.app_entries)]
    index = db.scoring_index
    if not isinstance(index, _ScoringIndex) or not index.fits(state):
        index = db.scoring_index = _ScoringIndex(db, state)
    return index


def score_components(
    t: TargetFingerprint, db: ComponentDb, cutoff: int = DEFAULT_CUTOFF
) -> list[ScoredComponent]:
    """Phi score of every scorable signature against the target.

    One scan pairs every distinct entry of the DB with the target; each
    signature's phi is read from that pairing over its application code.
    The DB side of the scan is packed once per DB (`_ScoringIndex`), so a
    call packs only the target.
    """
    check_cutoff(cutoff)
    sigs = db.sorted_signatures()
    for sig in sigs:
        if not sig.segmented:
            raise DetectionError(
                f"run segmentation first: {sig.oss_id} has no application-code set"
            )
        if not sig.app_entries:
            logger.warning("skipping %s: empty application-code set", sig.oss_id)
    index = _scoring_index(db)
    target = HashIndex(t.functions)
    m = match_hashes(index.entries, target, cutoff)
    hit = np.zeros(len(index.entries), dtype=bool)
    hit[m.left] = True
    hashes = index.entries.hashes
    pairing = {
        hashes[i]: (target.hashes[j], d)
        for i, j, d in zip(m.left.tolist(), m.right.tolist(), m.distance.tolist())
    }
    scored = []
    for sig, rows in zip(sigs, index.app_rows):
        if not sig.app_entries:
            continue
        matched = {hashes[r]: pairing[hashes[r]] for r in rows[hit[rows]].tolist()}
        scored.append(
            ScoredComponent(
                sig=sig,
                phi=Fraction(len(matched), len(sig.app_entries)),
                matched=matched,
                pairing=pairing,
            )
        )
    return scored


def identify_version(
    matched_entries: Sequence[SignatureEntry], sig: OssSignature
) -> VersionVote:
    """TF-IDF style version vote over the matched entries.

    Each entry adds ln(n / |versions containing it|) to every version it
    belongs to; the top score wins, ties broken by the later release date
    and then the larger version id.  When every matched entry lives in
    all versions the vote carries no signal and the latest version is
    returned flagged indistinct.
    """
    if not matched_entries:
        raise ValueError("version vote needs at least one matched entry")
    n = sig.n_versions
    contributions: dict[int, list[float]] = {m.ordinal: [] for m in sig.version_meta}
    for entry in sorted(matched_entries, key=lambda e: e.hash.digest):
        weight = math.log(n / len(entry.versions))
        for ordinal in entry.versions:
            contributions[ordinal].append(weight)
    totals = {o: math.fsum(parts) for o, parts in contributions.items()}
    scores = {m.version_id: totals[m.ordinal] for m in sig.version_meta}
    if all(value == 0.0 for value in totals.values()):
        latest = max(sig.version_meta, key=lambda m: (m.release_date, m.version_id))
        return VersionVote(version_id=latest.version_id, scores=scores, indistinct=True)
    best = max(
        sig.version_meta,
        key=lambda m: (totals[m.ordinal], m.release_date, m.version_id),
    )
    return VersionVote(version_id=best.version_id, scores=scores, indistinct=False)


def path_changed(original_path: str, target_path: str) -> bool:
    """Compare paths right-to-left at the original's depth.

    The target may sit under an extra prefix without counting as changed;
    any component mismatch within the original's depth, or a shallower
    target, does count.
    """
    original = original_path.split("/")
    target = target_path.split("/")
    if len(target) < len(original):
        return True
    return target[-len(original):] != original


def patterns_from_counts(
    identical: int, modified: int, unused: int, structure_changed: bool
) -> tuple[str, ...]:
    """Reuse-pattern flags: exact reuse excludes the others; partial,
    structure-changed and code-changed may co-occur."""
    if unused == 0 and modified == 0 and not structure_changed:
        return ("E",)
    patterns = []
    if unused > 0:
        patterns.append("P")
    if structure_changed:
        patterns.append("SC")
    if modified > 0:
        patterns.append("CC")
    return tuple(patterns)


@dataclass(frozen=True)
class PatternAnalysis:
    patterns: tuple[str, ...]
    identical: int
    modified: int
    unused: int
    structure_changed: bool
    evidence: list[MatchEvidence]


def analyze_reuse_pattern(
    t: TargetFingerprint,
    sig: OssSignature,
    version_id: str,
    pairing: Mapping[FuncHash, tuple[FuncHash, int]],
) -> PatternAnalysis:
    """Counts and pattern flags over the identified version's functions.

    `pairing` maps entry hashes to their target match.  It covers every
    entry of the signature, not only the application code that phi was
    scored on, so the unused tally is exact for that version.  A matched
    function counts as relocated only when none of its original paths
    suffix-matches any of its target paths.
    """
    ordinal = sig.version_by_id(version_id).ordinal
    version_entries = [e for e in sig.entries.values() if ordinal in e.versions]

    identical = 0
    modified = 0
    structure_changed = False
    evidence: list[MatchEvidence] = []
    for entry in sorted(version_entries, key=lambda e: e.hash.digest):
        hit = pairing.get(entry.hash)
        if hit is None:
            continue
        target_hash, dist = hit
        if dist == 0:
            identical += 1
            relation = "IDENTICAL"
        else:
            modified += 1
            relation = "SIMILAR"
        original_paths = sorted(entry.paths[ordinal])
        target_paths = sorted(t.functions[target_hash])
        relocated = all(
            path_changed(o, tp) for o in original_paths for tp in target_paths
        )
        if relocated:
            structure_changed = True
        evidence.append(
            MatchEvidence(
                digest=entry.hash.digest,
                relation=relation,
                distance=dist,
                target_paths=tuple(target_paths),
                original_paths=tuple(original_paths),
            )
        )
    unused = len(version_entries) - identical - modified
    return PatternAnalysis(
        patterns=patterns_from_counts(identical, modified, unused, structure_changed),
        identical=identical,
        modified=modified,
        unused=unused,
        structure_changed=structure_changed,
        evidence=evidence,
    )


def identify_components(
    t: TargetFingerprint,
    db: ComponentDb,
    cfg: DetectorConfig | None = None,
) -> list[ComponentReport]:
    """All components whose application code is reused at ratio >= theta,
    sorted by score descending (ties by oss id)."""
    cfg = cfg or DetectorConfig()
    reports = []
    for scored in score_components(t, db, cfg.cutoff):
        if scored.phi < cfg.theta:
            continue
        matched_entries = [scored.sig.entries[h] for h in scored.matched]
        vote = identify_version(matched_entries, scored.sig)
        analysis = analyze_reuse_pattern(t, scored.sig, vote.version_id, scored.pairing)
        reports.append(
            ComponentReport(
                oss_id=scored.sig.oss_id,
                phi=scored.phi,
                version_id=vote.version_id,
                version_scores=vote.scores,
                patterns=analysis.patterns,
                identical=analysis.identical,
                modified=analysis.modified,
                unused=analysis.unused,
                structure_changed=analysis.structure_changed,
                evidence=analysis.evidence,
                version_indistinct=vote.indistinct,
            )
        )
    reports.sort(key=lambda r: (-r.phi, r.oss_id))
    return reports


def _report_doc(
    reports: Sequence[ComponentReport], target_id: str, cfg: DetectorConfig
) -> dict:
    return {
        "target": target_id,
        "config": {"theta": float(cfg.theta), "cutoff": cfg.cutoff},
        "components": [
            {
                "oss": r.oss_id,
                "phi": float(r.phi),
                "version": r.version_id,
                "patterns": list(r.patterns),
                "counts": {
                    "identical": r.identical,
                    "modified": r.modified,
                    "unused": r.unused,
                },
                "structure_changed": r.structure_changed,
                "evidence": [
                    {
                        "digest": e.digest,
                        "relation": e.relation,
                        "distance": e.distance,
                        "target_paths": list(e.target_paths),
                        "original_paths": list(e.original_paths),
                    }
                    for e in r.evidence
                ],
            }
            for r in reports
        ],
    }


_TSV_COLUMNS = (
    "oss", "phi", "version", "patterns", "identical", "modified", "unused",
    "structure_changed",
)


def _report_rows(reports: Sequence[ComponentReport]) -> list[tuple[str, ...]]:
    return [
        (
            r.oss_id,
            f"{float(r.phi):.4f}",
            r.version_id,
            "+".join(r.patterns),
            str(r.identical),
            str(r.modified),
            str(r.unused),
            "yes" if r.structure_changed else "no",
        )
        for r in reports
    ]


def render_report(
    reports: Sequence[ComponentReport],
    fmt: str,
    target_id: str,
    cfg: DetectorConfig,
) -> bytes:
    """Serialize reports; byte output is deterministic per report list."""
    if fmt == "json":
        text = json.dumps(_report_doc(reports, target_id, cfg), indent=2) + "\n"
        return text.encode("utf-8")
    rows = _report_rows(reports)
    if fmt == "tsv":
        lines = ["\t".join(_TSV_COLUMNS)] + ["\t".join(row) for row in rows]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "table":
        widths = [
            max(len(_TSV_COLUMNS[i]), *(len(row[i]) for row in rows)) if rows else len(_TSV_COLUMNS[i])
            for i in range(len(_TSV_COLUMNS))
        ]
        def fmt_row(row: tuple[str, ...]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        lines = [fmt_row(_TSV_COLUMNS), fmt_row(tuple("-" * w for w in widths))]
        lines.extend(fmt_row(row) for row in rows)
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")
