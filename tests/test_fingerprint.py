from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osscan import tlsh
from osscan.extractor import normalize
from osscan.fingerprint import (
    DEFAULT_CUTOFF,
    FuncHash,
    HashIndex,
    HashScheme,
    Relation,
    best_matches,
    classify,
    distance,
    hash_function,
    match_hashes,
)

import tlsh_oracle as oracle
from test_tlsh import FIXTURE_BODY, FIXTURE_RENAMED, PINNED_RENAME_DISTANCE


def _lsh_hash(tag: str, size: int = 40) -> FuncHash:
    rng = random.Random(tag)
    body = bytes(rng.randrange(33, 127) for _ in range(max(size, 60)))
    h = hash_function(body)
    assert h.scheme is HashScheme.LSH
    return h


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


def test_classify_identical_similar_different():
    a = hash_function(normalize(FIXTURE_BODY))
    b = hash_function(normalize(FIXTURE_RENAMED))
    assert classify(a, a).kind is Relation.IDENTICAL
    decision = classify(a, b, cutoff=30)
    assert decision.kind is Relation.SIMILAR
    assert classify(a, b, cutoff=PINNED_RENAME_DISTANCE - 1).kind is Relation.DIFFERENT


def test_classify_cutoff_boundaries():
    # distance == cutoff is similar, cutoff+1 is different
    a = hash_function(b"tiny-a")
    b = hash_function(b"tiny-b")
    d = classify(a, b, cutoff=30)
    assert d.kind is Relation.DIFFERENT and d.distance == 31
    same = classify(a, a, cutoff=0)
    assert same.kind is Relation.IDENTICAL and same.distance == 0


def test_classify_rejects_negative_cutoff():
    h = hash_function(b"tiny")
    with pytest.raises(ValueError):
        classify(h, h, cutoff=-1)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=400), st.binary(min_size=1, max_size=400))
def test_distance_symmetric_and_trichotomy(x: bytes, y: bytes):
    a, b = hash_function(x), hash_function(y)
    assert distance(a, b) == distance(b, a)
    decision = classify(a, b)
    if decision.distance == 0:
        assert decision.kind is Relation.IDENTICAL
    elif decision.distance <= DEFAULT_CUTOFF:
        assert decision.kind is Relation.SIMILAR
    else:
        assert decision.kind is Relation.DIFFERENT


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=30), st.binary(min_size=1, max_size=30))
def test_exact_scheme_never_similar(x: bytes, y: bytes):
    a, b = hash_function(x), hash_function(y)
    assert a.scheme is HashScheme.EXACT and b.scheme is HashScheme.EXACT
    assert classify(a, b).kind in (Relation.IDENTICAL, Relation.DIFFERENT)


def test_hashing_is_thread_safe():
    # hash/distance/classify are pure; concurrent use matches serial use
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


def _flip_code_dibit(digest: str, byte_idx: int, lane: int) -> str:
    """A digest at exact body-distance 1 from the input."""
    parts = tlsh._decode(digest)
    code = bytearray(parts.code)
    code[byte_idx] ^= 1 << (2 * lane)
    header = bytes(
        (
            tlsh._swap_nibbles(parts.checksum),
            tlsh._swap_nibbles(parts.lvalue),
            tlsh._swap_nibbles((parts.q1_ratio << 4) | parts.q2_ratio),
        )
    )
    return (header + bytes(code[::-1])).hex()


def _shift_q1(digest: str, by: int) -> str:
    """The digest with its q1 quartile ratio moved by `by` on its ring."""
    parts = tlsh._decode(digest)
    qbyte = (((parts.q1_ratio + by) % 16) << 4) | parts.q2_ratio
    raw = bytearray(bytes.fromhex(digest))
    raw[2] = tlsh._swap_nibbles(qbyte)
    return raw.hex()


def _rows_within(query: FuncHash, hashes: list[FuncHash], cutoff: int) -> set:
    """Every indexed row within cutoff of `query`: with one owner per row,
    the best match of each owner is that owner's only row."""
    index = HashIndex(hashes, owners=range(len(hashes)))
    m = best_matches(HashIndex([query]), index, cutoff)
    return {(index.hashes[j], d) for j, d in zip(m.right.tolist(), m.distance.tolist())}


def test_index_exact_lookup():
    hashes = [_lsh_hash(f"ix{i}") for i in range(5)] + [hash_function(b"tiny")]
    index = HashIndex(hashes)
    assert len(index) == 6
    # a negative cutoff leaves digest equality as the only way to match
    assert match_hashes(hashes, index, cutoff=-1) == {h: (h, 0) for h in hashes}
    assert match_hashes([_lsh_hash("absent")], index, cutoff=-1) == {}


def test_index_scan_matches_bruteforce():
    base = _lsh_hash("scanbase", 300)
    variants = [FuncHash(HashScheme.LSH, _flip_code_dibit(base.digest, i, i % 4)) for i in range(6)]
    noise = [_lsh_hash(f"noise{i}", 200) for i in range(20)]
    hits = _rows_within(base, variants + noise, cutoff=5)
    brute = {
        (h, distance(base, h))
        for h in variants + noise
        if h.scheme is HashScheme.LSH and distance(base, h) <= 5
    }
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
    assert match_hashes([base], index, cutoff=DEFAULT_CUTOFF) == {base: (near, 12)}


def test_bucketed_index_finds_same_header_candidates():
    # The scan covers every row, so a near row sharing the query's header
    # byte is found however the index is laid out.
    base = _lsh_hash("bucket", 300)
    near = FuncHash(HashScheme.LSH, _flip_code_dibit(base.digest, 3, 1))
    assert (near, 1) in _rows_within(base, [near], cutoff=5)
    assert match_hashes([base], HashIndex([near]), cutoff=5) == {base: (near, 1)}


def test_bucketed_scan_is_subset_of_full_scan():
    hashes = []
    base = _lsh_hash("subsetbase", 400)
    hashes.append(FuncHash(HashScheme.LSH, _flip_code_dibit(base.digest, 2, 0)))
    hashes.extend(_lsh_hash(f"sub{i}", 150 + i) for i in range(40))
    full_hits = {
        (h, distance(base, h, 60))
        for h in hashes
        if distance(base, h, 60) <= 60
    }
    hits = _rows_within(base, hashes, cutoff=60)
    assert hits <= full_hits
    # candidates sharing the query's header byte are never lost
    same_header = {
        (h, d)
        for h, d in full_hits
        if tlsh._decode(h.digest).q1_ratio == tlsh._decode(base.digest).q1_ratio
        and tlsh._decode(h.digest).q2_ratio == tlsh._decode(base.digest).q2_ratio
    }
    assert same_header <= hits


def test_scan_returns_every_row_within_cutoff():
    rng = random.Random(33)
    bases = [_lsh_hash(f"subsetbase{i}", 400) for i in range(3)]
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
                (h, distance(query, h, cutoff))
                for h in hashes
                if h.scheme is HashScheme.LSH and distance(query, h, cutoff) <= cutoff
            }
            assert _rows_within(query, hashes, cutoff) == brute


def test_match_exact_takes_precedence():
    shared = _lsh_hash("shared", 300)
    near = FuncHash(HashScheme.LSH, _flip_code_dibit(shared.digest, 0, 0))
    index = HashIndex([shared, near])
    matched = match_hashes([shared], index, cutoff=30)
    assert matched[shared] == (shared, 0)


def test_match_prefers_minimum_distance_then_digest():
    base = _lsh_hash("pairing", 300)
    one = FuncHash(HashScheme.LSH, _flip_code_dibit(base.digest, 0, 0))
    two = FuncHash(HashScheme.LSH, _flip_code_dibit(base.digest, 5, 2))
    far = FuncHash(
        HashScheme.LSH, _flip_code_dibit(_flip_code_dibit(base.digest, 1, 1), 2, 2)
    )
    index = HashIndex([two, far, one])
    matched = match_hashes([base], index, cutoff=30)
    winner, d = matched[base]
    assert d == 1
    assert winner == min([one, two], key=lambda h: h.digest)


def test_match_unmatched_left_absent():
    index = HashIndex([_lsh_hash("only", 300)])
    lone = hash_function(b"tiny")
    assert match_hashes([lone], index, cutoff=30) == {}


def test_match_insertion_order_sorted_by_digest():
    index_hashes = [_lsh_hash(f"d{i}", 200) for i in range(6)]
    index = HashIndex(index_hashes)
    matched = match_hashes(list(reversed(index_hashes)), index, cutoff=30)
    digests = [h.digest for h in matched]
    assert digests == sorted(digests)
