"""Function hashing, hash distance and the best-match scan.

Normalized function bodies map to a similarity digest when they are long
enough for the locality-sensitive scheme, and to an exact SHA-256 digest
otherwise.  Exact-scheme hashes can only ever be identical or different,
never similar, and any cross-scheme comparison is "different" -- both
rules are conservative against false similarity.

`HashIndex` packs each distinct digest once, with its owners beside it.
`match_hashes` is the one scan, for segmentation (an index against
itself) and detection (the DB against a target).
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


def check_cutoff(value: object) -> int:
    """Return `value` if it is a distance cutoff: a non-negative int, and
    not a bool.  ValueError otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"cutoff must be a non-negative integer, got {value!r}")
    return value


def distance(a: FuncHash, b: FuncHash, cutoff: int = DEFAULT_CUTOFF) -> int:
    """Distance between two hashes; cross-scheme and unequal exact pairs
    score cutoff+1 so they can never count as similar."""
    if a.scheme is HashScheme.LSH and b.scheme is HashScheme.LSH:
        pack = tlsh.pack_digests([a.digest, b.digest])
        return int(tlsh.diffxlen_matrix(pack[:1], pack[1:])[0, 0])
    if a.scheme is HashScheme.EXACT and b.scheme is HashScheme.EXACT:
        return 0 if a.digest == b.digest else cutoff + 1
    return cutoff + 1


class HashMemo:
    """What one scope (one component build or one target) has extracted
    and hashed, so that it extracts each distinct file content, normalizes
    each distinct raw body and hashes each distinct normalized body once.
    A memo is never shared between scopes."""

    def __init__(self) -> None:
        self.files: dict[bytes, list[RawFunction]] = {}  # for `extract_functions`
        self.raw: dict[bytes, FuncHash | None] = {}  # None: normalizes to nothing
        self.normalized: dict[bytes, FuncHash] = {}


def hash_raw_functions(
    functions: Iterable[RawFunction], memo: HashMemo
) -> dict[FuncHash, set[str]]:
    """Normalize and hash extracted functions: each distinct hash with the
    paths it occurs at, in first-seen order.  `memo` holds what earlier
    calls of the scope hashed."""
    grouped: dict[FuncHash, set[str]] = {}
    for raw in functions:
        if raw.body not in memo.raw:
            text = normalize(raw.body)
            if text and text not in memo.normalized:
                memo.normalized[text] = hash_function(text)
            memo.raw[raw.body] = memo.normalized[text] if text else None
        func_hash = memo.raw[raw.body]
        if func_hash is not None:
            grouped.setdefault(func_hash, set()).add(raw.file_path)
    return grouped


# Rows per side of one distance block: 128 x 128 cells, with (128, 544)
# float32 operands of 278 KiB per side.
_BLOCK = 128


class HashIndex:
    """Distinct digests as packed rows, sorted by digest, and the (row,
    owner) incidences of who holds each (for example which component),
    stored once and sorted by row and then owner: row r has incidences
    `starts[r]` to `starts[r + 1]`.  Built without owners, each row has
    one incidence, owned by 0, so an incidence number is a row number."""

    def __init__(self, hashes: Iterable[FuncHash], owners: Iterable[int] | None = None) -> None:
        hashes = list(hashes)
        digests = np.array([h.digest for h in hashes], dtype="S")
        owner_ids = np.array([0] * len(hashes) if owners is None else list(owners), dtype=np.intp)
        order = np.lexsort((owner_ids, digests))  # a digest is one hash: scheme lengths differ
        digests, owner_ids = digests[order], owner_ids[order]
        first = np.ones(len(order), dtype=bool)  # first of its digest
        first[1:] = digests[1:] != digests[:-1]
        pair = first.copy()  # first of its (digest, owner)
        pair[1:] |= owner_ids[1:] != owner_ids[:-1]
        self.digests, self.hashes = digests[first], [hashes[k] for k in order[first].tolist()]
        self.rows, self.owners = np.cumsum(first)[pair] - 1, owner_ids[pair]
        self.starts = np.searchsorted(self.rows, np.arange(len(self.hashes) + 1))
        self.lsh_rows = np.flatnonzero([h.scheme is HashScheme.LSH for h in self.hashes])
        self.pack = tlsh.pack_digests([self.hashes[i].digest for i in self.lsh_rows])

    def __len__(self) -> int:
        return len(self.hashes)

    def find(self, digests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(k, r): the row r of each digest `digests[k]` held here."""
        rows = np.searchsorted(self.digests, digests)
        k = np.flatnonzero(rows < len(self))
        k = k[self.digests[rows[k]] == digests[k]]
        return k, rows[k]

    def incidences(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(k, e): every incidence e of each row `rows[k]`, by k and owner."""
        counts = self.starts[rows + 1] - self.starts[rows]
        k = np.repeat(np.arange(len(rows)), counts)
        e = np.repeat(self.starts[rows] - (np.cumsum(counts) - counts), counts)
        return k, e + np.arange(len(k))


@dataclass(frozen=True)
class Matches:
    """Parallel arrays, one element per (left row, right owner) that has a
    match, sorted by left row and then owner."""

    left: np.ndarray      # left row
    owner: np.ndarray     # right owner
    right: np.ndarray     # right incidence of the owner's best row
    distance: np.ndarray


def _similar_pairs(
    left: HashIndex, right: HashIndex, symmetric: bool, cutoff: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left row, right row, distance) of every LSH pair within cutoff, in
    blocks.  `symmetric` (left is right) computes each unordered block
    pair once and mirrors its hits, as the distance is symmetric."""
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


def match_hashes(
    left: HashIndex, right: HashIndex | None = None, cutoff: int = DEFAULT_CUTOFF
) -> Matches:
    """For each left row and each right owner, the owner's best row.

    Digest equality wins first; otherwise the minimum-distance row within
    `cutoff`, ties broken by the smaller digest.  With `right` None, left
    is matched against itself in one pass, which scans each pair of rows
    once; a row then matches its own owners too.
    """
    other = left if right is None else right
    ei, ej = other.find(left.digests)  # each side holds a digest once
    si, sj, sd = _similar_pairs(left, other, right is None, cutoff)
    k, e = other.incidences(np.concatenate([ej, sj]))
    i = np.concatenate([ei, si])[k]
    d = np.concatenate([np.zeros(len(ei), dtype=np.intp), sd])[k]
    not_equal = k >= len(ei)
    owner = other.owners[e]
    order = np.lexsort((e, d, not_equal, owner, i))
    i, e, d, owner = i[order], e[order], d[order], owner[order]
    first = np.ones(len(i), dtype=bool)
    first[1:] = (i[1:] != i[:-1]) | (owner[1:] != owner[:-1])
    return Matches(left=i[first], owner=owner[first], right=e[first], distance=d[first])
