"""TLSH locality-sensitive hashing.

This is a self-contained implementation of the classic TLSH variant with
128 buckets, a 1-byte checksum and a 70-hex-character digest, accepting
inputs of 50 bytes or more.  A digest encodes a header (checksum, length
bucket, quartile ratios) plus a 32-byte body derived from quartile-coded
Pearson bucket counts; `diffxlen` scores two digests while ignoring the
length component, so that truncated or extended variants of the same code
are not penalised for their size.

Inputs that are long enough but carry too little byte-level variation
(more than half of the buckets empty, or a zero upper quartile) cannot be
given a meaningful similarity digest; `digest` returns ``None`` for those
and for short inputs, and callers fall back to exact hashing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

MIN_INPUT_LEN = 50
DIGEST_HEX_LEN = 70

_WINDOW = 5
_EFF_BUCKETS = 128
_CODE_SIZE = 32

# Pearson permutation table used by all bucket and checksum mappings.
_PEARSON = (
    1, 87, 49, 12, 176, 178, 102, 166, 121, 193, 6, 84, 249, 230, 44, 163,
    14, 197, 213, 181, 161, 85, 218, 80, 64, 239, 24, 226, 236, 142, 38, 200,
    110, 177, 104, 103, 141, 253, 255, 50, 77, 101, 81, 18, 45, 96, 31, 222,
    25, 107, 190, 70, 86, 237, 240, 34, 72, 242, 20, 214, 244, 227, 149, 235,
    97, 234, 57, 22, 60, 250, 82, 175, 208, 5, 127, 199, 111, 62, 135, 248,
    174, 169, 211, 58, 66, 154, 106, 195, 245, 171, 17, 187, 182, 179, 0, 243,
    132, 56, 148, 75, 128, 133, 158, 100, 130, 126, 91, 13, 153, 246, 216, 219,
    119, 68, 223, 78, 83, 88, 201, 99, 122, 11, 92, 32, 136, 114, 52, 10,
    138, 30, 48, 183, 156, 35, 61, 26, 143, 74, 251, 94, 129, 162, 63, 152,
    170, 7, 115, 167, 241, 206, 3, 150, 55, 59, 151, 220, 90, 53, 23, 131,
    125, 173, 15, 238, 79, 95, 89, 16, 105, 137, 225, 224, 217, 160, 37, 123,
    118, 73, 2, 157, 46, 116, 9, 145, 134, 228, 207, 212, 202, 215, 69, 229,
    27, 188, 67, 124, 168, 252, 42, 4, 29, 108, 21, 247, 19, 205, 39, 203,
    233, 40, 186, 147, 198, 192, 155, 33, 164, 191, 98, 204, 165, 180, 117, 76,
    140, 36, 210, 172, 41, 54, 159, 8, 185, 232, 113, 196, 231, 47, 146, 120,
    51, 65, 28, 144, 254, 221, 93, 189, 194, 139, 112, 43, 71, 109, 184, 209,
)

_PEARSON_NP = np.array(_PEARSON, dtype=np.uint8)

# Distance between two 2-bit code lanes: a full 0<->3 swing costs 6, not 3.
_LANE_COST = np.array(
    [[0, 1, 2, 6], [1, 0, 1, 2], [2, 1, 0, 1], [6, 2, 1, 0]], dtype=np.float32
)
# The four lane states of every byte value, low bits first.
_BYTE_LANES = (np.arange(256)[:, None] >> np.array([0, 2, 4, 6])) & 3

# Distance contribution of one code byte pair: its four lanes compared.
_BIT_PAIRS = sum(
    _LANE_COST.astype(np.uint8)[_BYTE_LANES[:, None, k], _BYTE_LANES[None, :, k]]
    for k in range(4)
)
_BIT_PAIRS_FLAT = _BIT_PAIRS.reshape(-1).tolist()

# Cost of two 4-bit quartile ratios, which lie on a ring of 16: the first
# step between them costs 1, each further step 12.  By difference mod 16:
_RING_STEP_COST = np.array([0, 1, 12, 24, 36, 48, 60, 72, 84, 72, 60, 48, 36, 24, 12, 1])
_RING = _RING_STEP_COST[(np.arange(16)[:, None] - np.arange(16)[None, :]) % 16]
_RING_FLAT = _RING.reshape(-1).tolist()


def _symbol_tables() -> tuple[np.ndarray, np.ndarray]:
    """16 float32 columns per symbol value, for the two sides of the
    distance product.  Symbols 0-255 are code bytes: one-hot lane states on
    the left, the lane-cost rows of those states on the right.  Symbols
    256-271 and 272-287 are the q1 and q2 ratios: one-hot on the left, the
    ratio's row of `_RING` on the right."""
    one_hot = np.zeros((288, 16), dtype=np.float32)
    cost = np.zeros((288, 16), dtype=np.float32)
    one_hot[:256] = np.eye(4, dtype=np.float32)[_BYTE_LANES].reshape(256, 16)
    cost[:256] = _LANE_COST[_BYTE_LANES].reshape(256, 16)
    one_hot[256:272] = one_hot[272:] = np.eye(16, dtype=np.float32)
    cost[256:272] = cost[272:] = _RING
    return one_hot, cost


_SYMBOL_ONE_HOT, _SYMBOL_COST = _symbol_tables()


def _swap_nibbles(b: int) -> int:
    return ((b & 0x0F) << 4) | (b >> 4)


def _l_capturing(length: int) -> int:
    if length <= 656:
        i = math.floor(math.log(length) * 2.4663035)
    elif length <= 3199:
        i = math.floor(math.log(length) * 3.8093510 - 8.72777)
    else:
        i = math.floor(math.log(length) * 10.4196805 - 62.5472)
    return i & 0xFF


def _checksum(data: bytes) -> int:
    t = _PEARSON
    seed = t[0]
    checksum = 0
    for i in range(4, len(data)):
        checksum = t[t[t[seed ^ data[i]] ^ data[i - 1]] ^ checksum]
    return checksum


def _bucket_counts(data: bytes) -> np.ndarray:
    a = np.frombuffer(data, dtype=np.uint8)
    c = a[4:]
    p1 = a[3:-1]
    p2 = a[2:-2]
    p3 = a[1:-3]
    p4 = a[:-4]
    t = _PEARSON_NP

    def bm(salt: int, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return t[t[t[t[salt] ^ x] ^ y] ^ z]

    idx = np.concatenate(
        [
            bm(2, c, p1, p2),
            bm(3, c, p1, p3),
            bm(5, c, p2, p3),
            bm(7, c, p2, p4),
            bm(11, c, p1, p4),
            bm(13, c, p3, p4),
        ]
    )
    return np.bincount(idx, minlength=256)


def digest(data: bytes) -> str | None:
    """Hash `data`, returning a 70-char lowercase hex digest or None.

    None means the input is below the 50-byte minimum or too uniform to
    populate enough buckets for a stable similarity code.
    """
    n = len(data)
    if n < MIN_INPUT_LEN:
        return None

    buckets = _bucket_counts(data)[:_EFF_BUCKETS].tolist()
    ordered = sorted(buckets)
    q1, q2, q3 = ordered[31], ordered[63], ordered[95]
    if q3 == 0:
        return None
    nonzero = sum(1 for v in buckets if v > 0)
    if nonzero <= _EFF_BUCKETS // 2:
        return None

    code = bytearray(_CODE_SIZE)
    for i in range(_CODE_SIZE):
        h = 0
        for j in range(4):
            k = buckets[4 * i + j]
            if q3 < k:
                h += 3 << (j * 2)
            elif q2 < k:
                h += 2 << (j * 2)
            elif q1 < k:
                h += 1 << (j * 2)
        code[i] = h

    lvalue = _l_capturing(n)
    q1_ratio = int(q1 * 100 / q3) % 16
    q2_ratio = int(q2 * 100 / q3) % 16
    qbyte = (q1_ratio << 4) | q2_ratio

    header = bytes(
        (_swap_nibbles(_checksum(data)), _swap_nibbles(lvalue), _swap_nibbles(qbyte))
    )
    return (header + bytes(code[::-1])).hex()


@dataclass(frozen=True)
class _Parts:
    checksum: int
    lvalue: int
    q1_ratio: int
    q2_ratio: int
    code: bytes


def _decode(hexdigest: str) -> _Parts:
    if len(hexdigest) != DIGEST_HEX_LEN:
        raise ValueError(f"bad TLSH digest length {len(hexdigest)} (want {DIGEST_HEX_LEN})")
    raw = bytes.fromhex(hexdigest)
    qbyte = _swap_nibbles(raw[2])
    return _Parts(
        checksum=_swap_nibbles(raw[0]),
        lvalue=_swap_nibbles(raw[1]),
        q1_ratio=qbyte >> 4,
        q2_ratio=qbyte & 0x0F,
        code=raw[3:][::-1],
    )


def _score(a: _Parts, b: _Parts) -> int:
    ring = _RING_FLAT
    total = ring[(a.q1_ratio << 4) | b.q1_ratio] + ring[(a.q2_ratio << 4) | b.q2_ratio]
    total += a.checksum != b.checksum
    flat = _BIT_PAIRS_FLAT
    ca, cb = a.code, b.code
    total += sum(flat[(ca[i] << 8) | cb[i]] for i in range(_CODE_SIZE))
    return total


def diffxlen(d1: str, d2: str) -> int:
    """Distance between two digests, ignoring the length component."""
    return _score(_decode(d1), _decode(d2))


@dataclass(frozen=True)
class DigestPack:
    """Column-wise layout of many digests for vectorised scanning."""

    checksum: np.ndarray  # (n,) uint8
    q1_ratio: np.ndarray  # (n,) uint8
    q2_ratio: np.ndarray  # (n,) uint8
    code: np.ndarray      # (n, 32) uint8

    def __len__(self) -> int:
        return int(self.checksum.shape[0])

    def __getitem__(self, rows: slice) -> "DigestPack":
        return DigestPack(
            self.checksum[rows], self.q1_ratio[rows], self.q2_ratio[rows], self.code[rows]
        )


_HEX_RE = re.compile(r"[0-9a-fA-F]*\Z")


def pack_digests(digests: list[str]) -> DigestPack:
    for d in digests:
        if len(d) != DIGEST_HEX_LEN:
            raise ValueError(f"bad TLSH digest length {len(d)} (want {DIGEST_HEX_LEN})")
    joined = "".join(digests)
    if not _HEX_RE.match(joined):
        raise ValueError("bad TLSH digest: non-hexadecimal character")
    raw = np.frombuffer(bytes.fromhex(joined), dtype=np.uint8)
    raw = raw.reshape(len(digests), DIGEST_HEX_LEN // 2)
    qbyte = _swap_nibbles(raw[:, 2])
    return DigestPack(
        checksum=_swap_nibbles(raw[:, 0]),
        q1_ratio=qbyte >> 4,
        q2_ratio=qbyte & 0x0F,
        code=np.ascontiguousarray(raw[:, 3:][:, ::-1]),
    )


# Product tiles of 32 x 32 cells.  OpenBLAS spreads larger products over
# its threads, and two processes doing so on the same cores spin against
# each other (segmenting a 51-component DB took 0.8 s instead of 0.07 s
# with two runs at once); a product this small runs on the calling thread.
_TILE = 32


def _symbols(p: DigestPack) -> np.ndarray:
    """(n, 34) symbols per digest: its 32 code bytes, then q1 and q2."""
    return np.column_stack(
        (p.code, 256 + p.q1_ratio.astype(np.intp), 272 + p.q2_ratio.astype(np.intp))
    )


def diffxlen_matrix(a: DigestPack, b: DigestPack) -> np.ndarray:
    """All-pairs `diffxlen` distances as an (len(a), len(b)) int32 array.

    Everything but the checksum term is one float32 matrix product of
    (n, 544) rows, computed in tiles: 512 columns for the 128 code lanes
    (one-hot states of `a` against lane costs of `b`) and 32 for the two
    quartile ratios (one-hot against ring distances).  Every product and partial sum is an
    integer of at most 128 * 6 + 2 * 84 = 936, which float32 holds
    exactly, so the result is exact in any summation order.
    """
    if len(a) == 0 or len(b) == 0:
        return np.zeros((len(a), len(b)), dtype=np.int32)
    left = np.take(_SYMBOL_ONE_HOT, _symbols(a), axis=0).reshape(len(a), -1)
    right = np.take(_SYMBOL_COST, _symbols(b), axis=0).reshape(len(b), -1).T
    product = np.empty((len(a), len(b)), dtype=np.float32)
    for r in range(0, len(a), _TILE):
        for c in range(0, len(b), _TILE):
            np.matmul(
                left[r : r + _TILE],
                right[:, c : c + _TILE],
                out=product[r : r + _TILE, c : c + _TILE],
            )
    total = product.astype(np.int32)
    total += a.checksum[:, None] != b.checksum[None, :]
    return total
