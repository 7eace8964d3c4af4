"""Code segmentation: prime-component detection and application-code
extraction.

A component is prime when no other project in the database passes the
birth-time-filtered similarity score phi.  Non-prime components have the
entries matched against any possible member subtracted, leaving only the
code original to the project; detection later scores targets against that
application subset alone.  Segmentation is a single pass: members come
from one prime check and the subtraction uses each member's full entry
set, with every project segmented against the original, unsegmented
signatures of the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import signature_store
from .fingerprint import DEFAULT_CUTOFF, HashIndex, Matches, best_matches
# Unused here; kept because bench/spans.py wraps segmenter.match_hashes.
from .fingerprint import match_hashes  # noqa: F401
from .signature_store import ComponentDb, OssSignature

DEFAULT_THETA = Fraction(1, 10)


def coerce_theta(theta: object) -> Fraction:
    """Accept float/str/Fraction thresholds without binary-float surprises
    ("0.1" compares as exactly 1/10)."""
    if isinstance(theta, Fraction):
        return theta
    if isinstance(theta, float):
        return Fraction(str(theta))
    if isinstance(theta, (int, str)):
        return Fraction(theta)
    raise TypeError(f"cannot interpret theta {theta!r}")


def check_theta(theta: object) -> Fraction:
    value = coerce_theta(theta)
    if not 0 < value < 1:
        raise ValueError(f"theta must be in (0, 1), got {value}")
    return value


@dataclass
class SegmentationResult:
    oss_id: str
    is_prime: bool
    members: frozenset[str]
    app_entry_hashes: frozenset[str]  # digests


def _index(sigs: Sequence[OssSignature]) -> HashIndex:
    """Every entry of `sigs`, owned by its signature's position."""
    return HashIndex(
        (h for sig in sigs for h in sig.entries),
        (k for k, sig in enumerate(sigs) for _ in sig.entries),
    )


def _births(index: HashIndex, sigs: Sequence[OssSignature]) -> np.ndarray:
    """Day number of each row's birth in its owner."""
    return np.array(
        [
            signature_store.birth(sigs[o].entries[h], sigs[o]).toordinal()
            for o, h in zip(index.owners.tolist(), index.hashes)
        ],
        dtype=np.int64,
    )


class _PairScores(NamedTuple):
    left: HashIndex     # every entry, owned by its signature's position
    matches: Matches    # best entry of each other signature per entry
    g: np.ndarray       # (subject, other) pairs born no later in the other


def _pair_scores(sigs: Sequence[OssSignature], cutoff: int) -> _PairScores:
    """Match every entry against every other signature in one DB-wide scan
    and count, per (subject, other) pair, the numerator of phi: the
    subject's entries matched in the other and born no later there.

    Equal birth dates count: at day resolution a tie is treated as
    other-originated, which errs toward keeping the subject's application
    code clean.
    """
    left = _index(sigs)
    births = _births(left, sigs)
    m = best_matches(left, None, cutoff)
    born_no_later = births[m.right] <= births[m.left]
    pair = left.owners[m.left] * len(sigs) + m.owner
    g = np.bincount(pair[born_no_later], minlength=len(sigs) * len(sigs))
    return _PairScores(left, m, g.reshape(len(sigs), len(sigs)))


def segment_all(
    db: ComponentDb,
    theta: object = DEFAULT_THETA,
    cutoff: int = DEFAULT_CUTOFF,
) -> dict[str, SegmentationResult]:
    """Segment every signature against the unsegmented originals, in one
    DB-wide matching pass that scans each pair of entries once.

    Members of a signature are the others whose phi reaches theta; its
    application code is every entry minus those matched to any member.
    """
    theta = check_theta(theta)
    sigs = db.sorted_signatures()
    left, m, g = _pair_scores(sigs, cutoff)
    member = np.zeros(g.shape, dtype=bool)
    for k, x in zip(*np.nonzero(g)):
        member[k, x] = Fraction(int(g[k, x]), len(sigs[x].entries)) >= theta
    removed = np.zeros(len(left), dtype=bool)
    removed[m.left[member[left.owners[m.left], m.owner]]] = True
    app: list[list[str]] = [[] for _ in sigs]
    for owner, h, gone in zip(left.owners.tolist(), left.hashes, removed.tolist()):
        if not gone:
            app[owner].append(h.digest)
    return {
        s.oss_id: SegmentationResult(
            oss_id=s.oss_id,
            is_prime=not member[k].any(),
            members=frozenset(sigs[x].oss_id for x in np.flatnonzero(member[k])),
            app_entry_hashes=frozenset(app[k]),
        )
        for k, s in enumerate(sigs)
    }


def apply_segmentation(db: ComponentDb, results: dict[str, SegmentationResult]) -> None:
    """Record segmentation results on the in-memory signatures."""
    for oss_id, result in results.items():
        sig = db.signatures[oss_id]
        by_digest = {h.digest: h for h in sig.entries}
        sig.app_entries = {by_digest[d] for d in result.app_entry_hashes}
        sig.is_prime = result.is_prime
