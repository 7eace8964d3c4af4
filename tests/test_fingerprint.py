from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osscan.extractor import normalize
from osscan.fingerprint import (
    DEFAULT_CUTOFF,
    FuncHash,
    HashIndex,
    HashScheme,
    distance,
    hash_function,
    match_hashes,
)

import tlsh_oracle as oracle
from conftest import match_dict
from test_tlsh import FIXTURE_BODY, FIXTURE_RENAMED, PINNED_RENAME_DISTANCE


def _lsh_hash(tag: str, size: int = 40) -> FuncHash:
    rng = random.Random(tag)
    body = bytes(rng.randrange(33, 127) for _ in range(max(size, 60)))
    h = hash_function(body)
    assert h.scheme is HashScheme.LSH
    return h


def _reference(a: FuncHash, b: FuncHash) -> int:
    """The independent TLSH distance of two LSH hashes."""
    return oracle.reference_distance(a.digest, b.digest, False)


def test_identical_bodies_identical_hash():
    body = normalize(FIXTURE_BODY)
    assert hash_function(body) == hash_function(bytes(body))


def test_long_body_uses_lsh_and_matches_reference():
    body = normalize(FIXTURE_BODY) * 2
    assert len(body) >= 512
    h = hash_function(body)
    assert h.scheme is HashScheme.LSH
    assert h.digest == oracle.reference_digest(body)


def test_short_body_uses_exact_fallback():
    h = hash_function(b"int f(){;}")
    assert h.scheme is HashScheme.EXACT
    assert h.digest == hashlib.sha256(b"int f(){;}").hexdigest()


def test_degenerate_long_body_falls_back_to_exact():
    h = hash_function(b"a" * 400)
    assert h.scheme is HashScheme.EXACT


def test_empty_body_rejected():
    with pytest.raises(ValueError, match="empty function body"):
        hash_function(b"")


def test_digest_validation():
    with pytest.raises(ValueError):
        FuncHash(HashScheme.LSH, "abc")
    with pytest.raises(ValueError):
        FuncHash(HashScheme.EXACT, "G" * 64)


def test_token_roundtrip():
    h = _lsh_hash("token")
    assert FuncHash.from_token(h.token()) == h
    with pytest.raises(ValueError, match="unknown hash scheme"):
        FuncHash.from_token("md5:" + "0" * 32)


def test_self_distance_zero():
    h = _lsh_hash("self")
    assert distance(h, h) == 0


_DIGESTS = st.binary(min_size=35, max_size=35).map(bytes.hex)


@settings(max_examples=100, deadline=None)
@given(_DIGESTS, _DIGESTS)
def test_distance_equals_reference_on_lsh_pairs(x: str, y: str):
    a, b = FuncHash(HashScheme.LSH, x), FuncHash(HashScheme.LSH, y)
    assert distance(a, b) == distance(a, b, cutoff=0) == _reference(a, b)


def test_exact_mismatch_is_cutoff_plus_one():
    a = hash_function(b"tiny-a")
    b = hash_function(b"tiny-b")
    assert distance(a, b, 30) == 31
    assert distance(a, b, 7) == 8
    assert distance(a, a) == 0


def test_cross_scheme_is_cutoff_plus_one():
    a = _lsh_hash("cross")
    b = hash_function(b"tiny")
    assert distance(a, b, 30) == 31
    assert distance(b, a, 30) == 31


def test_renamed_variant_distance_pinned():
    a = hash_function(normalize(FIXTURE_BODY))
    b = hash_function(normalize(FIXTURE_RENAMED))
    d = distance(a, b)
    assert d == PINNED_RENAME_DISTANCE
    assert 0 < d <= DEFAULT_CUTOFF


def test_distance_identical_similar_different():
    a = hash_function(normalize(FIXTURE_BODY))
    b = hash_function(normalize(FIXTURE_RENAMED))
    assert distance(a, a) == 0
    assert 0 < distance(a, b) == PINNED_RENAME_DISTANCE <= 30


def test_distance_cutoff_boundaries():
    # unequal exact hashes and cross-scheme pairs score cutoff + 1
    a = hash_function(b"tiny-a")
    b = hash_function(b"tiny-b")
    lsh = hash_function(normalize(FIXTURE_BODY))
    assert distance(a, b, cutoff=30) == 31
    assert distance(a, b, cutoff=0) == 1
    assert distance(a, lsh, cutoff=30) == distance(lsh, a, cutoff=30) == 31
    assert distance(a, a, cutoff=0) == 0


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=400), st.binary(min_size=1, max_size=400))
def test_distance_symmetric_and_trichotomy(x: bytes, y: bytes):
    a, b = hash_function(x), hash_function(y)
    d = distance(a, b)
    assert d == distance(b, a)
    if a.scheme is b.scheme is HashScheme.LSH:
        assert d >= 0 and (a != b or d == 0)
    else:  # exact or cross-scheme: identical or different, never similar
        assert d == (0 if a == b else DEFAULT_CUTOFF + 1)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=30), st.binary(min_size=1, max_size=30))
def test_exact_scheme_never_similar(x: bytes, y: bytes):
    a, b = hash_function(x), hash_function(y)
    assert a.scheme is HashScheme.EXACT and b.scheme is HashScheme.EXACT
    assert distance(a, b) == (0 if a == b else DEFAULT_CUTOFF + 1)


def test_hashing_is_thread_safe():
    # hash/distance are pure; concurrent use matches serial use
    import concurrent.futures

    rng = random.Random(55)
    bodies = [bytes(rng.randrange(33, 127) for _ in range(200)) for _ in range(60)]
    serial = [hash_function(b) for b in bodies]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(hash_function, bodies))
    assert threaded == serial
    pairs = [(serial[i], serial[(i * 7 + 1) % len(serial)]) for i in range(len(serial))]
    serial_d = [distance(a, b) for a, b in pairs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        threaded_d = list(pool.map(lambda p: distance(*p), pairs))
    assert threaded_d == serial_d


# --- HashIndex / pairing ------------------------------------------------


# A digest is 35 bytes: checksum, length and quartile-ratio bytes, each
# nibble-swapped, then the 32 code bytes from last to first.
def _flip_code_dibit(digest: str, byte_idx: int, lane: int) -> str:
    """A digest at exact body-distance 1 from the input."""
    raw = bytearray.fromhex(digest)
    raw[34 - byte_idx] ^= 1 << (2 * lane)
    return raw.hex()


def _shift_q1(digest: str, by: int) -> str:
    """The digest with its q1 quartile ratio moved by `by` on its ring."""
    raw = bytearray.fromhex(digest)
    raw[2] = (raw[2] & 0xF0) | ((raw[2] + by) & 0x0F)  # q1 is the low nibble stored
    return raw.hex()


def _rows_within(query: FuncHash, hashes: list[FuncHash], cutoff: int) -> set:
    """Every indexed row within cutoff of `query`: with one owner per row,
    the best match of each owner is that owner's only row."""
    index = HashIndex(hashes, owners=range(len(hashes)))
    m = match_hashes(HashIndex([query]), index, cutoff)
    return {(index.hashes[index.rows[e]], d) for e, d in zip(m.right.tolist(), m.distance.tolist())}


def test_index_row_is_one_digest_with_its_owners():
    shared, other = _lsh_hash("owned", 300), hash_function(b"tiny")
    index = HashIndex([shared, other, shared, shared, other, shared], owners=[7, 2, 3, 7, 2, 5])
    assert len(index) == 2
    row = index.hashes.index(shared)
    assert index.hashes == sorted([shared, other], key=lambda h: h.digest)
    assert index.owners[index.starts[row] : index.starts[row + 1]].tolist() == [3, 5, 7]
    k, e = index.incidences(np.array([row, 1 - row, row]))
    assert k.tolist() == [0, 0, 0, 1, 2, 2, 2]
    assert index.rows[e].tolist() == [row] * 3 + [1 - row] + [row] * 3
    assert index.owners[e].tolist() == [3, 5, 7, 2, 3, 5, 7]
    plain = HashIndex([shared, other, shared])
    assert plain.rows.tolist() == [0, 1] and plain.owners.tolist() == [0, 0]


@pytest.mark.parametrize("size", [0, 1])
def test_scan_of_empty_or_one_row_index(size: int):
    index = HashIndex([_lsh_hash("alone", 300)][:size])
    empty = HashIndex([])
    for left, right in ((empty, index), (index, empty)):
        m = match_hashes(left, right)
        assert len(m.left) == len(m.owner) == len(m.right) == len(m.distance) == 0
    m = match_hashes(index, None)
    assert (m.left.tolist(), m.owner.tolist(), m.right.tolist(), m.distance.tolist()) == (
        [0] * size, [0] * size, [0] * size, [0] * size
    )


def test_index_exact_lookup():
    hashes = [_lsh_hash(f"ix{i}") for i in range(5)] + [hash_function(b"tiny")]
    index = HashIndex(hashes)
    assert len(index) == 6
    # a negative cutoff leaves digest equality as the only way to match
    assert match_dict(HashIndex(hashes), index, cutoff=-1) == {h: (h, 0) for h in hashes}
    assert match_dict(HashIndex([_lsh_hash("absent")]), index, cutoff=-1) == {}


def test_index_scan_matches_bruteforce():
    base = _lsh_hash("scanbase", 300)
    variants = [FuncHash(HashScheme.LSH, _flip_code_dibit(base.digest, i, i % 4)) for i in range(6)]
    noise = [_lsh_hash(f"noise{i}", 200) for i in range(20)]
    hits = _rows_within(base, variants + noise, cutoff=5)
    brute = {(h, _reference(base, h)) for h in variants + noise if _reference(base, h) <= 5}
    assert hits == brute


def test_match_finds_pairs_whose_quartile_bytes_differ_at_any_index_size():
    # A quartile-ratio difference of 2 costs 12, under the cutoff, so a scan
    # restricted to rows sharing the query's quartile byte would miss it.
    # Above 100,000 indexed digests is where such a restriction once began.
    base = _lsh_hash("quartile", 300)
    near = FuncHash(HashScheme.LSH, _shift_q1(base.digest, 2))
    assert distance(base, near) == 12
    rng = np.random.default_rng(5)
    noise = [
        FuncHash(HashScheme.LSH, row.tobytes().hex())
        for row in rng.integers(0, 256, size=(100_001, 35), dtype=np.uint8)
    ]
    index = HashIndex(noise + [near])
    assert match_dict(HashIndex([base]), index, cutoff=DEFAULT_CUTOFF) == {base: (near, 12)}


def test_single_row_index_finds_near_row():
    base = _lsh_hash("bucket", 300)
    near = FuncHash(HashScheme.LSH, _flip_code_dibit(base.digest, 3, 1))
    assert (near, 1) in _rows_within(base, [near], cutoff=5)
    assert match_dict(HashIndex([base]), HashIndex([near]), cutoff=5) == {base: (near, 1)}


def test_scan_returns_every_row_within_cutoff():
    rng = random.Random(33)
    bases = [_lsh_hash("subsetbase", 400)] + [_lsh_hash(f"subsetbase{i}", 400) for i in range(3)]
    hashes = []
    for base in bases:
        hashes.append(FuncHash(HashScheme.LSH, _flip_code_dibit(base.digest, 2, 0)))
        hashes.append(FuncHash(HashScheme.LSH, _flip_code_dibit(base.digest, 9, 3)))
        for by in (1, 2, 3, 15):
            hashes.append(FuncHash(HashScheme.LSH, _shift_q1(base.digest, by)))
        hashes.append(base)
    hashes.extend(_lsh_hash(f"sub{i}", 150 + i) for i in range(40))
    hashes.append(hash_function(b"tiny"))
    rng.shuffle(hashes)
    for query in bases:
        for cutoff in (0, 5, 30, 60):
            brute = {
                (h, _reference(query, h))
                for h in hashes
                if h.scheme is HashScheme.LSH and _reference(query, h) <= cutoff
            }
            assert _rows_within(query, hashes, cutoff) == brute


def test_match_exact_takes_precedence():
    shared = _lsh_hash("shared", 300)
    near = FuncHash(HashScheme.LSH, _flip_code_dibit(shared.digest, 0, 0))
    index = HashIndex([shared, near])
    matched = match_dict(HashIndex([shared]), index, cutoff=30)
    assert matched[shared] == (shared, 0)


def test_match_prefers_minimum_distance_then_digest():
    base = _lsh_hash("pairing", 300)
    one = FuncHash(HashScheme.LSH, _flip_code_dibit(base.digest, 0, 0))
    two = FuncHash(HashScheme.LSH, _flip_code_dibit(base.digest, 5, 2))
    far = FuncHash(
        HashScheme.LSH, _flip_code_dibit(_flip_code_dibit(base.digest, 1, 1), 2, 2)
    )
    index = HashIndex([two, far, one])
    matched = match_dict(HashIndex([base]), index, cutoff=30)
    winner, d = matched[base]
    assert d == 1
    assert winner == min([one, two], key=lambda h: h.digest)


def test_match_unmatched_left_absent():
    index = HashIndex([_lsh_hash("only", 300)])
    lone = hash_function(b"tiny")
    assert match_dict(HashIndex([lone]), index, cutoff=30) == {}


def test_match_insertion_order_sorted_by_digest():
    index_hashes = [_lsh_hash(f"d{i}", 200) for i in range(6)]
    index = HashIndex(index_hashes)
    matched = match_dict(HashIndex(reversed(index_hashes)), index, cutoff=30)
    digests = [h.digest for h in matched]
    assert digests == sorted(digests)
