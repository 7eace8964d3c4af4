from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from osscan import tlsh

import tlsh_oracle as oracle

# Committed fixture pair: a function-sized body and a same-length
# identifier rename ("spill" -> "spore").  Digests and distance were
# produced once by the independent reference implementation in
# tlsh_oracle.py and frozen here.
_FIXTURE_LINES = ["static long frame_digest_mix(long seed, long frame) {",
                  "    long acc = (seed * 2654435761L) ^ (frame + 40503);"]
for _k in range(14):
    _FIXTURE_LINES.append(
        f"    acc ^= (acc << {3 + (_k % 5)}) + (seed >> {1 + (_k % 7)}) + {1013904223 + _k * 7919}L;"
    )
    _FIXTURE_LINES.append(
        f"    if (acc > 0x{0x7fff0000 + _k * 255:x}L) {{ acc -= frame % {8191 - _k * 13}; }}"
    )
_FIXTURE_LINES += [
    "    long spill = (frame << 5) ^ (seed * 0x9e3779b9L);",
    "    acc += spill ^ (spill >> 11);",
    "    return acc ^ 0x1234abcd;",
    "}",
]
FIXTURE_BODY = ("".join(line.replace(" ", "") for line in _FIXTURE_LINES)).encode()
FIXTURE_RENAMED = FIXTURE_BODY.replace(b"spill", b"spore")

PINNED_DIGEST = "9421a6effa2d54dcedc22ba29359cfe8046a048471e650add52c0fa30ea42e6cb0571d"
PINNED_RENAME_DISTANCE = 7


def _random_blob(rng: random.Random, lo: int = 50, hi: int = 3000) -> bytes:
    return bytes(rng.randrange(256) for _ in range(rng.randrange(lo, hi)))


def _matrix(left: list[str], right: list[str]) -> list[list[int]]:
    return tlsh.diffxlen_matrix(tlsh.pack_digests(left), tlsh.pack_digests(right)).tolist()


def _reference(left: list[str], right: list[str]) -> list[list[int]]:
    return [[oracle.reference_distance(a, b, False) for b in right] for a in left]


def test_pearson_table_is_a_permutation():
    assert sorted(tlsh._PEARSON) == list(range(256))


def test_digest_shape_and_determinism():
    d = tlsh.digest(FIXTURE_BODY)
    assert d is not None
    assert len(d) == tlsh.DIGEST_HEX_LEN
    assert set(d) <= set("0123456789abcdef")
    assert d == tlsh.digest(FIXTURE_BODY)


def test_pinned_fixture_digest():
    assert tlsh.digest(FIXTURE_BODY) == PINNED_DIGEST
    assert oracle.reference_digest(FIXTURE_BODY) == PINNED_DIGEST


def test_pinned_rename_distance_within_cutoff():
    d1 = tlsh.digest(FIXTURE_BODY)
    d2 = tlsh.digest(FIXTURE_RENAMED)
    [[dist]] = _matrix([d1], [d2])
    assert dist == PINNED_RENAME_DISTANCE
    assert 0 < dist <= 30
    assert oracle.reference_distance(d1, d2, False) == PINNED_RENAME_DISTANCE


def test_below_minimum_returns_none():
    assert tlsh.digest(b"x" * (tlsh.MIN_INPUT_LEN - 1)) is None
    assert tlsh.digest(b"") is None


def test_uniform_input_returns_none():
    assert tlsh.digest(b"a" * 400) is None


def test_digest_matches_reference_on_random_inputs():
    rng = random.Random(99)
    checked = 0
    for _ in range(50):
        data = _random_blob(rng)
        assert tlsh.digest(data) == oracle.reference_digest(data)
        checked += 1
    assert checked == 50


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=1200),
        # two to four symbols: too-uniform inputs (None) and tied quartiles
        st.integers(2, 4).flatmap(
            lambda k: st.lists(st.integers(0, k - 1), max_size=1200).map(bytes)
        ),
    )
)
@example(bytes(range(49)))
@example(bytes(range(50)))
@example(bytes(range(51)))
@example(b"ab" * 25)
# 64 and 65 of the 128 buckets filled: the two sides of the too-uniform bound
@example(bytes.fromhex(
    "0301020003000202020303020402030004040300040002000400020004010200"
    "02020200010203030102010302030102020304"
))
@example(bytes.fromhex(
    "0202000301030302020300000003030302000200030001020000030203000000"
    "000200020201030002030003030202010302"
))
def test_digest_matches_reference_property(data: bytes):
    assert tlsh.digest(data) == oracle.reference_digest(data)


def test_distances_match_reference_on_random_pairs():
    for seed, count, hi in ((7, 10, 900), (21, 15, 1200)):
        rng = random.Random(seed)
        digests = []
        while len(digests) < count:
            d = tlsh.digest(_random_blob(rng, 60, hi))
            if d is not None:
                digests.append(d)
        assert _matrix(digests, digests) == _reference(digests, digests)


def test_self_distance_zero_and_symmetry():
    rng = random.Random(3)
    digests = []
    while len(digests) < 8:
        d = tlsh.digest(_random_blob(rng, 64, 700))
        if d is not None:
            digests.append(d)
    pack = tlsh.pack_digests(digests)
    matrix = tlsh.diffxlen_matrix(pack, pack)
    assert np.all(np.diag(matrix) == 0)
    assert np.array_equal(matrix, matrix.T)


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=50, max_size=600), st.binary(min_size=50, max_size=600))
def test_distance_symmetry_property(x: bytes, y: bytes):
    dx, dy = tlsh.digest(x), tlsh.digest(y)
    if dx is None or dy is None:
        return
    assert _matrix([dx], [dy]) == _matrix([dy], [dx])


def _digest_of(q1: int, q2: int, code_byte: int, checksum: int = 0) -> str:
    header = bytes(
        (tlsh._swap_nibbles(checksum), 0, tlsh._swap_nibbles((q1 << 4) | q2))
    )
    return (header + bytes([code_byte]) * 32).hex()


_ALL_ZERO = _digest_of(0, 0, 0x00)
_ALL_THREE = _digest_of(15, 15, 0xFF, checksum=1)


def test_matrix_edge_terms():
    # q-ratio ring wrap: 0 and 15 are neighbours, costing 1 each
    assert tlsh.diffxlen_matrix(
        tlsh.pack_digests([_digest_of(0, 0, 0x1B)]), tlsh.pack_digests([_digest_of(15, 15, 0x1B)])
    ).tolist() == [[2]]
    # every lane swings 0 <-> 3: 128 lanes at 6, plus the ring and checksum terms
    matrix = tlsh.diffxlen_matrix(
        tlsh.pack_digests([_ALL_ZERO]), tlsh.pack_digests([_ALL_THREE])
    )
    assert matrix.tolist() == [[768 + 2 + 1]]


_DIGESTS = st.binary(min_size=35, max_size=35).map(bytes.hex)


@settings(max_examples=80, deadline=None)
@given(st.lists(_DIGESTS, max_size=12), st.lists(_DIGESTS, max_size=12))
@example([_ALL_ZERO], [_ALL_THREE, _digest_of(15, 1, 0x00), _digest_of(8, 8, 0xAA)])
@example([], [_ALL_ZERO])
@example([_ALL_THREE], [])
def test_matrix_equals_reference_property(left: list[str], right: list[str]):
    matrix = tlsh.diffxlen_matrix(tlsh.pack_digests(left), tlsh.pack_digests(right))
    assert matrix.dtype == np.int32
    assert matrix.shape == (len(left), len(right))
    assert matrix.tolist() == _reference(left, right)


def test_pack_rejects_bad_digests():
    with pytest.raises(ValueError, match="length"):
        tlsh.pack_digests([PINNED_DIGEST, "ab"])
    with pytest.raises(ValueError, match="hexadecimal"):
        tlsh.pack_digests([PINNED_DIGEST[:-1] + "g"])


def test_matrix_empty_sides():
    pack = tlsh.pack_digests([])
    full = tlsh.pack_digests([PINNED_DIGEST])
    assert tlsh.diffxlen_matrix(pack, full).shape == (0, 1)
    assert tlsh.diffxlen_matrix(full, pack).shape == (1, 0)


def test_decode_rejects_bad_length():
    # the lengths add up to two digests, but neither is one
    with pytest.raises(ValueError, match="length"):
        tlsh.pack_digests([PINNED_DIGEST[:-2], PINNED_DIGEST + "ab"])


def test_encode_decode_roundtrip():
    # `pack_digests` reads back the fields the reference encoder wrote, but
    # for the length byte, which the distance ignores
    checksum, _, q1, q2, code = oracle._fields(oracle.reference_digest(FIXTURE_BODY))
    pack = tlsh.pack_digests([PINNED_DIGEST])
    assert pack.checksum.tolist() == [checksum]
    assert (pack.q1_ratio.tolist(), pack.q2_ratio.tolist()) == ([q1], [q2])
    assert pack.code.tolist() == [code]


def _one_code_byte(value: int) -> str:
    """A digest whose first code byte is `value`, everything else zero."""
    return (bytes(34) + bytes([value])).hex()


def test_matrix_code_byte_costs():
    pack = tlsh.pack_digests([_one_code_byte(x) for x in range(256)])
    matrix = tlsh.diffxlen_matrix(pack, pack)
    assert np.all(np.diag(matrix) == 0)
    assert matrix.max() == 24  # four lanes, 6 for each 0 <-> 3 swing
    # a byte whose four lanes are each 0 or 3, against its complement
    swings = [x for x in range(256) if all((x >> k) & 3 in (0, 3) for k in (0, 2, 4, 6))]
    assert len(swings) == 16
    assert all(matrix[x, x ^ 0xFF] == 24 for x in swings)
