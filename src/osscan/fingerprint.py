"""Function hashing, hash distance and best-match scans.

Normalized function bodies map to a similarity digest when they are long
enough for the locality-sensitive scheme, and to an exact SHA-256 digest
otherwise.  Exact-scheme hashes can only ever be identical or different,
never similar, and any cross-scheme comparison is "different" -- both
rules are conservative against false similarity.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import tlsh
from .extractor import RawFunction, normalize

DEFAULT_CUTOFF = 30

# Scheme identifiers recorded in the DB header so stored digests are
# self-describing.
LSH_SCHEME_ID = "TLSH/128b-1cs-70h-min50"
EXACT_SCHEME_ID = "SHA256/64h"

_EXACT_DIGEST_LEN = 64


class HashScheme(enum.Enum):
    LSH = "lsh"
    EXACT = "exact"


_DIGEST_LEN = {HashScheme.LSH: tlsh.DIGEST_HEX_LEN, HashScheme.EXACT: _EXACT_DIGEST_LEN}
_HEX_CHARS = frozenset("0123456789abcdef")


@dataclass(frozen=True, order=True)
class FuncHash:
    scheme: HashScheme
    digest: str

    def __post_init__(self) -> None:
        expected = _DIGEST_LEN[self.scheme]
        if len(self.digest) != expected or not set(self.digest) <= _HEX_CHARS:
            raise ValueError(
                f"bad {self.scheme.value} digest {self.digest!r}: "
                f"want {expected} lowercase hex chars"
            )

    def token(self) -> str:
        return f"{self.scheme.value}:{self.digest}"

    @classmethod
    def from_token(cls, token: str) -> "FuncHash":
        scheme_name, _, digest = token.partition(":")
        try:
            scheme = HashScheme(scheme_name)
        except ValueError:
            raise ValueError(f"unknown hash scheme in token {token!r}") from None
        return cls(scheme, digest)


def hash_function(text: bytes) -> FuncHash:
    """Hash a normalized function body.

    Bodies at or above the LSH minimum length get a similarity digest;
    shorter or degenerate (too-uniform) bodies fall back to the exact
    scheme so exact reuse of tiny functions is still found.
    """
    if not text:
        raise ValueError("empty function body")
    if len(text) >= tlsh.MIN_INPUT_LEN:
        digest = tlsh.digest(text)
        if digest is not None:
            return FuncHash(HashScheme.LSH, digest)
    return FuncHash(HashScheme.EXACT, hashlib.sha256(text).hexdigest())


def _is_cutoff(value: object) -> bool:
    """A cutoff setting is a non-negative int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def distance(a: FuncHash, b: FuncHash, cutoff: int = DEFAULT_CUTOFF) -> int:
    """Distance between two hashes; cross-scheme and unequal exact pairs
    score cutoff+1 so they can never count as similar."""
    if a.scheme is HashScheme.LSH and b.scheme is HashScheme.LSH:
        return tlsh.diffxlen(a.digest, b.digest)
    if a.scheme is HashScheme.EXACT and b.scheme is HashScheme.EXACT:
        return 0 if a.digest == b.digest else cutoff + 1
    return cutoff + 1


def hash_raw_functions(functions: Iterable[RawFunction]) -> dict[FuncHash, set[str]]:
    """Normalize and hash extracted functions: each distinct hash with the
    paths it occurs at, in first-seen order."""
    grouped: dict[FuncHash, set[str]] = {}
    for raw in functions:
        text = normalize(raw.body)
        if text:
            grouped.setdefault(hash_function(text), set()).add(raw.file_path)
    return grouped


# Rows per side of one distance block: 128 x 128 cells, with (128, 544)
# float32 operands of 278 KiB per side.
_BLOCK = 128


class HashIndex:
    """A packed table of hash rows, each carrying an owner id (for example
    the component it came from), for `best_matches`.

    A (owner, hash) pair is stored once and rows are sorted by digest, so
    among the rows of one owner a smaller row number is a smaller digest.
    """

    def __init__(
        self, hashes: Iterable[FuncHash], owners: Iterable[int] | None = None
    ) -> None:
        hashes = list(hashes)
        digests = np.array([h.digest for h in hashes], dtype="S")
        owner_ids = np.zeros(len(hashes), dtype=np.intp)
        if owners is not None:
            owner_ids[:] = list(owners)
        order = np.lexsort((owner_ids, digests))
        digests, owner_ids = digests[order], owner_ids[order]
        first = np.ones(len(order), dtype=bool)  # a digest is one hash: scheme lengths differ
        first[1:] = (digests[1:] != digests[:-1]) | (owner_ids[1:] != owner_ids[:-1])
        self.hashes = [hashes[k] for k in order[first].tolist()]
        self.owners = owner_ids[first]
        self.digests = digests[first]
        self.lsh_rows = np.array(
            [i for i, h in enumerate(self.hashes) if h.scheme is HashScheme.LSH],
            dtype=np.intp,
        )
        self.pack = tlsh.pack_digests([self.hashes[i].digest for i in self.lsh_rows])

    def __len__(self) -> int:
        return len(self.hashes)


@dataclass(frozen=True)
class Matches:
    """Parallel arrays, one element per (left row, right owner) that has a
    match, sorted by left row and then owner."""

    left: np.ndarray      # left row
    owner: np.ndarray     # right owner
    right: np.ndarray     # best right row of that owner
    distance: np.ndarray


def _equal_digest_pairs(left: HashIndex, right: HashIndex) -> tuple[np.ndarray, np.ndarray]:
    """Every (left row, right row) pair with one digest."""
    lo = np.searchsorted(right.digests, left.digests, side="left")
    counts = np.searchsorted(right.digests, left.digests, side="right") - lo
    starts = np.cumsum(counts) - counts
    i = np.repeat(np.arange(len(left)), counts)
    j = np.repeat(lo - starts, counts) + np.arange(int(counts.sum()))
    return i, j


def _similar_pairs(
    left: HashIndex, right: HashIndex, symmetric: bool, cutoff: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left row, right row, distance) of every LSH pair within cutoff, in
    blocks.  `symmetric` (left is right) computes each unordered block
    pair once and mirrors its hits, as `diffxlen` is symmetric."""
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for a0 in range(0, len(left.lsh_rows), _BLOCK):
        block_a = left.pack[a0 : a0 + _BLOCK]
        for b0 in range(a0 if symmetric else 0, len(right.lsh_rows), _BLOCK):
            dists = tlsh.diffxlen_matrix(block_a, right.pack[b0 : b0 + _BLOCK])
            r, c = np.nonzero(dists <= cutoff)
            i, j, d = left.lsh_rows[a0 + r], right.lsh_rows[b0 + c], dists[r, c]
            found.append((i, j, d))
            if symmetric and b0 != a0:
                found.append((j, i, d))
    if not found:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, empty
    i, j, d = (np.concatenate(parts) for parts in zip(*found))
    return i, j, d


def best_matches(
    left: HashIndex, right: HashIndex | None = None, cutoff: int = DEFAULT_CUTOFF
) -> Matches:
    """For each left row and each right owner, the owner's best row.

    Digest equality wins first; otherwise the minimum-distance row within
    `cutoff`, ties broken by the smaller digest.  With `right` None, left
    is matched against itself in one pass, skipping pairs of one owner.
    """
    symmetric = right is None
    other = left if right is None else right
    ei, ej = _equal_digest_pairs(left, other)
    si, sj, sd = _similar_pairs(left, other, symmetric, cutoff)
    i = np.concatenate([ei, si])
    j = np.concatenate([ej, sj])
    d = np.concatenate([np.zeros(len(ei), dtype=np.intp), sd])
    not_equal = np.concatenate([np.zeros(len(ei), dtype=bool), np.ones(len(si), dtype=bool)])
    owner = other.owners[j]
    if symmetric:
        keep = left.owners[i] != owner
        i, j, d, not_equal, owner = i[keep], j[keep], d[keep], not_equal[keep], owner[keep]
    order = np.lexsort((j, d, not_equal, owner, i))
    i, j, d, owner = i[order], j[order], d[order], owner[order]
    first = np.ones(len(i), dtype=bool)
    first[1:] = (i[1:] != i[:-1]) | (owner[1:] != owner[:-1])
    return Matches(left=i[first], owner=owner[first], right=j[first], distance=d[first])


def match_hashes(
    left: Iterable[FuncHash], index: HashIndex, cutoff: int = DEFAULT_CUTOFF
) -> dict[FuncHash, tuple[FuncHash, int]]:
    """Pair each left hash with at most one indexed hash.

    Digest equality wins first; remaining left hashes take the
    minimum-distance similar candidate, ties broken by the smaller right
    digest.  Result insertion order follows sorted left digests.  `index`
    is one owner's hashes (built without owner ids).
    """
    query = HashIndex(left)
    m = best_matches(query, index, cutoff)
    return {
        query.hashes[i]: (index.hashes[j], d)
        for i, j, d in zip(m.left.tolist(), m.right.tolist(), m.distance.tolist())
    }
