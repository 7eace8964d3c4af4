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

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import signature_store
from .fingerprint import DEFAULT_CUTOFF, HashIndex, Matches, best_matches, match_hashes
from .signature_store import ComponentDb, OssSignature, SignatureEntry

logger = logging.getLogger(__name__)

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


class MatchedPair(NamedTuple):
    s_entry: SignatureEntry
    x_entry: SignatureEntry
    distance: int


@dataclass(frozen=True)
class PhiScore:
    s_id: str
    x_id: str
    g_size: int
    x_size: int

    @property
    def phi(self) -> Fraction:
        return Fraction(self.g_size, self.x_size)


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
    and count, per (subject, other) pair, the numerator of phi."""
    left = _index(sigs)
    births = _births(left, sigs)
    m = best_matches(left, None, cutoff)
    born_no_later = births[m.right] <= births[m.left]
    pair = left.owners[m.left] * len(sigs) + m.owner
    g = np.bincount(pair[born_no_later], minlength=len(sigs) * len(sigs))
    return _PairScores(left, m, g.reshape(len(sigs), len(sigs)))


def common_functions(
    s: OssSignature, x: OssSignature, cutoff: int = DEFAULT_CUTOFF
) -> list[MatchedPair]:
    """Identical-or-similar entry pairs between two signatures.

    Each entry of `s` pairs with at most one entry of `x`: digest equality
    first, then the minimum-distance similar candidate (ties to the
    lexicographically smaller `x` digest).  Ordered by `s` digest.
    """
    matched = match_hashes(s.entries, HashIndex(x.entries), cutoff)
    return [
        MatchedPair(s.entries[sh], x.entries[xh], d) for sh, (xh, d) in matched.items()
    ]


def compute_phi(
    s: OssSignature, x: OssSignature, cutoff: int = DEFAULT_CUTOFF
) -> PhiScore:
    """Share of x's entries that are common with s and born no later in x.

    Equal birth dates count: at day resolution a tie is treated as
    x-originated, which errs toward keeping s's application code clean.
    """
    g = int(_pair_scores([s, x], cutoff).g[0, 1])
    return PhiScore(s_id=s.oss_id, x_id=x.oss_id, g_size=g, x_size=len(x.entries))


def check_prime(
    s: OssSignature,
    db: ComponentDb,
    theta: object = DEFAULT_THETA,
    cutoff: int = DEFAULT_CUTOFF,
) -> tuple[bool, frozenset[str]]:
    """Possible members of s (projects with phi >= theta) and primality."""
    result = segment(s, db, theta, cutoff)
    return result.is_prime, result.members


def _segment(
    sigs: Sequence[OssSignature], theta: Fraction, cutoff: int
) -> list[SegmentationResult]:
    """Members and application code of each signature against the others."""
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
    return [
        SegmentationResult(
            oss_id=s.oss_id,
            is_prime=not member[k].any(),
            members=frozenset(sigs[x].oss_id for x in np.flatnonzero(member[k])),
            app_entry_hashes=frozenset(app[k]),
        )
        for k, s in enumerate(sigs)
    ]


def segment(
    s: OssSignature,
    db: ComponentDb,
    theta: object = DEFAULT_THETA,
    cutoff: int = DEFAULT_CUTOFF,
) -> SegmentationResult:
    """Application code of s: all entries when prime, otherwise the
    entries minus everything matched to any possible member."""
    others = [x for x in db.sorted_signatures() if x.oss_id != s.oss_id]
    return _segment([s, *others], check_theta(theta), cutoff)[0]


def segment_all(
    db: ComponentDb,
    theta: object = DEFAULT_THETA,
    cutoff: int = DEFAULT_CUTOFF,
) -> dict[str, SegmentationResult]:
    """Segment every signature against the unsegmented originals, in one
    DB-wide matching pass that scans each pair of entries once."""
    sigs = db.sorted_signatures()
    results = _segment(sigs, check_theta(theta), cutoff)
    return {r.oss_id: r for r in results}


def apply_segmentation(db: ComponentDb, results: dict[str, SegmentationResult]) -> None:
    """Record segmentation results on the in-memory signatures."""
    for oss_id, result in results.items():
        sig = db.signatures[oss_id]
        by_digest = {h.digest: h for h in sig.entries}
        sig.app_entries = {by_digest[d] for d in result.app_entry_hashes}
        sig.is_prime = result.is_prime
