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

The pass is one `match_hashes` self-scan of `db_index` (each distinct
digest once, owned by the signatures holding it), the index detection
scores targets against too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import signature_store
from .fingerprint import DEFAULT_CUTOFF, HashIndex, check_cutoff, match_hashes
from .signature_store import ComponentDb, OssSignature

DEFAULT_THETA = Fraction(1, 10)


def coerce_theta(theta: object) -> Fraction:
    """Accept float/str/Fraction thresholds without binary-float surprises
    ("0.1" compares as exactly 1/10).  ValueError for a string that is no
    number, or a ratio with a zero denominator ("1/0")."""
    if isinstance(theta, Fraction):
        return theta
    if isinstance(theta, float):
        return Fraction(str(theta))
    if isinstance(theta, (int, str)):
        try:
            return Fraction(theta)
        except ZeroDivisionError:
            raise ValueError(f"theta {theta!r} has a zero denominator") from None
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


def db_index(sigs: Sequence[OssSignature]) -> HashIndex:
    """Every distinct entry digest of `sigs`, owned by the positions of
    the signatures holding it."""
    return HashIndex(
        (h for sig in sigs for h in sig.entries),
        (k for k, sig in enumerate(sigs) for _ in sig.entries),
    )


class _PairScores(NamedTuple):
    index: HashIndex     # `db_index(sigs)`
    # one element per (subject incidence, other signature) with a match
    subject: np.ndarray  # incidence of the subject's entry
    other: np.ndarray    # other signature
    right: np.ndarray    # incidence of the other's best entry
    distance: np.ndarray
    g: np.ndarray        # (subject, other) pairs born no later in the other


def _pair_scores(sigs: Sequence[OssSignature], cutoff: int) -> _PairScores:
    """Match every distinct entry against every signature in one DB-wide
    self-scan, spread each match over the signatures holding the entry,
    and count, per (subject, other) pair, the numerator of phi: the
    subject's entries matched in the other and born no later there.

    Equal birth dates count: at day resolution a tie is treated as
    other-originated, which errs toward keeping the subject's application
    code clean.
    """
    index = db_index(sigs)
    births = np.array(
        [
            signature_store.birth(sigs[o].entries[index.hashes[r]], sigs[o]).toordinal()
            for r, o in zip(index.rows.tolist(), index.owners.tolist())
        ],
        dtype=np.int64,
    )
    m = match_hashes(index, None, cutoff)
    k, subject = index.incidences(m.left)
    other, right, distance = m.owner[k], m.right[k], m.distance[k]
    keep = index.owners[subject] != other
    subject, other, right, distance = subject[keep], other[keep], right[keep], distance[keep]
    born_no_later = births[right] <= births[subject]
    pair = index.owners[subject] * len(sigs) + other
    g = np.bincount(pair[born_no_later], minlength=len(sigs) * len(sigs))
    return _PairScores(index, subject, other, right, distance, g.reshape(len(sigs), len(sigs)))


def segment_all(
    db: ComponentDb,
    theta: object = DEFAULT_THETA,
    cutoff: int = DEFAULT_CUTOFF,
) -> dict[str, SegmentationResult]:
    """Segment every signature against the unsegmented originals, in one
    DB-wide matching pass that scans each pair of distinct digests once.

    Members of a signature are the others whose phi reaches theta; its
    application code is every entry minus those matched to any member.
    """
    theta = check_theta(theta)
    check_cutoff(cutoff)
    sigs = db.sorted_signatures()
    index, subject, other, _, _, g = _pair_scores(sigs, cutoff)
    member = np.zeros(g.shape, dtype=bool)
    for k, x in zip(*np.nonzero(g)):
        member[k, x] = Fraction(int(g[k, x]), len(sigs[x].entries)) >= theta
    removed = np.zeros(len(index.rows), dtype=bool)
    removed[subject[member[index.owners[subject], other]]] = True
    app: list[list[str]] = [[] for _ in sigs]
    for r, owner, gone in zip(index.rows.tolist(), index.owners.tolist(), removed.tolist()):
        if not gone:
            app[owner].append(index.hashes[r].digest)
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
