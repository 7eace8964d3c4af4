from __future__ import annotations

import copy
import datetime
import random
from fractions import Fraction
from pathlib import Path

import pytest

from osscan import segmenter, signature_store
from osscan.fingerprint import DEFAULT_CUTOFF, FuncHash, HashIndex, HashScheme, match_hashes
from osscan.segmenter import check_theta, coerce_theta, segment_all
from osscan.signature_store import ComponentDb

from conftest import build_sig_from_specs, pair_matches, write_tree
from oracles import brute_pair


def test_coerce_theta_is_exact():
    assert coerce_theta(0.1) == Fraction(1, 10)
    assert coerce_theta("0.1") == Fraction(1, 10)
    assert coerce_theta(Fraction(3, 20)) == Fraction(3, 20)
    with pytest.raises(ValueError):
        check_theta(0)
    with pytest.raises(ValueError):
        check_theta("1.0")


def test_common_functions_disjoint_sets():
    s = build_sig_from_specs("s", [("v1", "2020-01-01", {"a.c": ["s1", "s2"]})])
    x = build_sig_from_specs("x", [("v1", "2019-01-01", {"a.c": ["x1", "x2"]})])
    pairs, _ = pair_matches([s, x], DEFAULT_CUTOFF)
    assert not pairs


def test_common_functions_shared_digests():
    s = build_sig_from_specs(
        "s", [("v1", "2020-01-01", {"a.c": ["sh1", "sh2", "sh3", "own"]})]
    )
    x = build_sig_from_specs(
        "x", [("v1", "2019-01-01", {"b.c": ["sh1", "sh2", "sh3", "other"]})]
    )
    pairs, _ = pair_matches([s, x], DEFAULT_CUTOFF)
    assert len(pairs[0, 1]) == 3
    for sh, xh, d in pairs[0, 1]:
        assert sh == xh and sh in s.entries and xh in x.entries
        assert d == 0


def test_common_functions_matches_bruteforce_with_similars(tmp_path: Path):
    from osscan import evalkit

    rng = random.Random(4)
    bodies = [evalkit.make_body(rng, f"cf{i}") for i in range(6)]
    variants = []
    for body in bodies[:3]:
        variant = evalkit.mutate_body(rng, body)
        assert variant is not None
        variants.append(variant)

    s_tree = write_tree(tmp_path / "s", {"s.c": b"\n\n".join(bodies) + b"\n"})
    x_tree = write_tree(
        tmp_path / "x",
        {"x.c": b"\n\n".join(variants + [evalkit.make_body(rng, "xonly")]) + b"\n"},
    )
    s = signature_store.build_signature(
        "s",
        [(signature_store.make_version_meta([("v1", datetime.date(2020, 1, 1))])[0], s_tree)],
    )
    x = signature_store.build_signature(
        "x",
        [(signature_store.make_version_meta([("v1", datetime.date(2019, 1, 1))])[0], x_tree)],
    )
    pairs, _ = pair_matches([s, x], 30)
    expected = brute_pair(set(s.entries), set(x.entries), cutoff=30)
    assert pairs[0, 1] == {(sh, xh, d) for sh, (xh, d) in expected.items()}
    assert len(pairs[0, 1]) == 3  # the mutated variants are found, nothing else


def test_phi_no_common_functions():
    s = build_sig_from_specs("s", [("v1", "2020-01-01", {"a.c": ["p1"]})])
    x = build_sig_from_specs("x", [("v1", "2019-01-01", {"a.c": ["q1", "q2"]})])
    assert segmenter._pair_scores([s, x], DEFAULT_CUTOFF).g[0, 1] == 0


def test_phi_full_containment_with_earlier_births():
    x = build_sig_from_specs("x", [("v1", "2015-01-01", {"a.c": ["c1", "c2", "c3"]})])
    s = build_sig_from_specs(
        "s", [("v1", "2020-01-01", {"a.c": ["c1", "c2", "c3", "own1"]})]
    )
    g = segmenter._pair_scores([s, x], DEFAULT_CUTOFF).g
    assert (g[0, 1], len(x.entries)) == (3, 3)  # phi = 1


def test_phi_hand_enumerated_fixture():
    # X has 10 entries; 3 are shared; 2 of the shared were born in X no
    # later than in S.  phi = 2/10 by hand.
    x = build_sig_from_specs(
        "x",
        [("v1", "2018-01-01", {"x.c": ["cf1", "cf2", "cf3"] + [f"xo{i}" for i in range(7)]})],
    )
    s = build_sig_from_specs(
        "s",
        [
            ("v1", "2017-06-01", {"s.c": ["cf3", "so1", "so2", "so3", "so4", "so5"]}),
            ("v2", "2019-01-01", {"s.c": ["cf1", "cf2", "so1", "so2", "so3", "so4", "so5"]}),
        ],
    )
    g = segmenter._pair_scores([s, x], DEFAULT_CUTOFF).g
    assert (g[0, 1], len(x.entries)) == (2, 10)


def test_phi_equal_birth_dates_count():
    x = build_sig_from_specs("x", [("v1", "2018-05-05", {"x.c": ["tie", "xtra"]})])
    s = build_sig_from_specs("s", [("v1", "2018-05-05", {"s.c": ["tie", "sown"]})])
    g = segmenter._pair_scores([s, x], DEFAULT_CUTOFF).g
    assert (g[0, 1], len(x.entries)) == (1, 2)  # phi = 1/2


def test_check_prime_below_theta_not_member(nested_db: ComponentDb):
    # widely-shared generic code below theta: a project sharing one of
    # wanderer's twelve entries
    db = copy.deepcopy(nested_db)
    tourist = build_sig_from_specs(
        "tourist", [("v1", "2021-01-01", {"t.c": ["wander00", "t1", "t2"]})]
    )
    db.signatures["tourist"] = tourist
    result = segment_all(db, theta="0.1")["tourist"]
    assert result.is_prime and result.members == frozenset()


def test_check_prime_exact_theta_boundary_is_member():
    x = build_sig_from_specs(
        "x", [("v1", "2015-01-01", {"x.c": [f"g{i}" for i in range(10)]})]
    )
    s = build_sig_from_specs("s", [("v1", "2020-01-01", {"s.c": ["g0", "sown"]})])
    db = ComponentDb(signatures={"x": x, "s": s})
    result = segment_all(db, theta="0.1")["s"]
    assert not result.is_prime and result.members == frozenset({"x"})  # 1/10 >= 0.1 exactly


def test_nested_fixture_membership(nested_db: ComponentDb):
    # Hand-derived: shipapp embeds riverlib which embeds rockbase.
    results = segment_all(nested_db)
    assert results["shipapp"].members == frozenset({"riverlib", "rockbase"})
    assert results["riverlib"].members == frozenset({"rockbase"})
    assert results["rockbase"].is_prime and results["rockbase"].members == frozenset()
    assert results["wanderer"].is_prime


def test_segment_set_minus():
    x = build_sig_from_specs("x", [("v1", "2015-01-01", {"x.c": ["c", "d"]})])
    s = build_sig_from_specs("s", [("v1", "2020-01-01", {"s.c": ["a", "b", "c", "d"]})])
    db = ComponentDb(signatures={"x": x, "s": s})
    result = segment_all(db)["s"]
    assert not result.is_prime and result.members == frozenset({"x"})
    pairs, _ = pair_matches([s, x], DEFAULT_CUTOFF)
    kept = {h.digest for h in s.entries} - {sh.digest for sh, _, _ in pairs[0, 1]}
    assert result.app_entry_hashes == kept
    assert len(result.app_entry_hashes) == 2


def test_segment_prime_keeps_everything(nested_db: ComponentDb):
    rock = nested_db.signatures["rockbase"]
    result = segment_all(nested_db)["rockbase"]
    assert result.is_prime
    assert result.app_entry_hashes == frozenset(h.digest for h in rock.entries)


def test_segment_nested_closure(nested_db: ComponentDb):
    # shipapp: 61 entries = 30 own + 31 borrowed via riverlib (incl.
    # rockbase); segmentation must keep exactly the 30 own.
    ship = nested_db.signatures["shipapp"]
    assert len(ship.entries) == 61
    result = segment_all(nested_db)["shipapp"]
    assert len(result.app_entry_hashes) == 30
    river_digests = {h.digest for h in nested_db.signatures["riverlib"].entries}
    rock_digests = {h.digest for h in nested_db.signatures["rockbase"].entries}
    assert not result.app_entry_hashes & river_digests
    assert not result.app_entry_hashes & rock_digests


def test_segment_all_iteration_order_independent(nested_db: ComponentDb):
    shuffled = ComponentDb(
        signatures=dict(reversed(list(nested_db.signatures.items()))),
        meta=nested_db.meta,
    )
    assert segment_all(shuffled) == segment_all(nested_db)


def test_segment_all_uses_unsegmented_signatures(nested_db: ComponentDb):
    # riverlib's application code excludes rockbase; shipapp must still
    # lose rockbase functions even though riverlib lost them too.
    db = copy.deepcopy(nested_db)
    results = segment_all(db)
    segmenter.apply_segmentation(db, results)
    ship = db.signatures["shipapp"]
    assert len(ship.app_entries) == 30
    river = db.signatures["riverlib"]
    assert len(river.app_entries) == 20


def test_unrelated_project_removal_leaves_result_unchanged(nested_db: ComponentDb):
    full = segment_all(nested_db)["shipapp"]
    smaller = ComponentDb(
        signatures={k: v for k, v in nested_db.signatures.items() if k != "wanderer"},
        meta=nested_db.meta,
    )
    assert segment_all(smaller)["shipapp"] == full


def test_antisymmetry_under_clean_nesting():
    inner = build_sig_from_specs(
        "inner", [("v1", "2014-01-01", {"i.c": [f"n{i}" for i in range(8)]})]
    )
    outer_files = {"o.c": [f"m{i}" for i in range(10)], "tp/i.c": [f"n{i}" for i in range(8)]}
    outer = build_sig_from_specs("outer", [("v1", "2018-01-01", outer_files)])
    db = ComponentDb(signatures={"inner": inner, "outer": outer})
    g = segmenter._pair_scores([outer, inner], DEFAULT_CUTOFF).g
    assert Fraction(int(g[0, 1]), len(inner.entries)) >= Fraction(1, 10)
    assert g[1, 0] == 0
    results = segment_all(db)
    assert results["outer"].members == frozenset({"inner"})
    assert results["inner"].members == frozenset()


def test_app_entries_disjoint_from_members(segmented_nested_db: ComponentDb):
    db = segmented_nested_db
    results = segment_all(db)
    for oss_id, sig in db.signatures.items():
        for member in results[oss_id].members:
            member_digests = {
                h.digest for h in db.signatures[member].entries
            }
            app_digests = {h.digest for h in sig.app_entries}
            assert not app_digests & member_digests


def _lsh(digest_bytes: bytes) -> FuncHash:
    return FuncHash(HashScheme.LSH, digest_bytes.hex())


def _collision_pool(rng: random.Random) -> list[FuncHash]:
    """Digests built to collide: equal-cost variants (ties broken by the
    digest), length-byte variants (distance 0 but unequal digests), exact
    hashes, and unrelated noise."""
    pool: list[FuncHash] = []
    for _ in range(6):
        raw = bytearray(rng.randrange(256) for _ in range(35))
        pool.append(_lsh(bytes(raw)))
        for pos in rng.sample(range(3, 35), 3):  # three variants at distance 1
            variant = bytearray(raw)
            variant[pos] ^= 1
            pool.append(_lsh(bytes(variant)))
        for lvalue in rng.sample(range(256), 2):  # diffxlen ignores the length byte
            variant = bytearray(raw)
            variant[1] = lvalue
            pool.append(_lsh(bytes(variant)))
    pool.extend(FuncHash(HashScheme.EXACT, f"{i:064x}") for i in range(6))
    pool.extend(_lsh(bytes(rng.randrange(256) for _ in range(35))) for _ in range(8))
    return sorted(set(pool), key=lambda h: h.digest)


def _synthetic_sig(
    oss_id: str, hashes: list[FuncHash], rng: random.Random
) -> signature_store.OssSignature:
    metas = signature_store.make_version_meta(
        [(f"v{k}", datetime.date(2015 + rng.randrange(4), 1 + k, 1)) for k in range(3)]
    )
    entries = {}
    for h in hashes:
        versions = set(rng.sample(range(3), rng.randrange(1, 4)))
        entries[h] = signature_store.SignatureEntry(
            hash=h, paths={o: {f"{oss_id}.c"} for o in versions}
        )
    return signature_store.OssSignature(oss_id=oss_id, version_meta=metas, entries=entries)


def _per_pair_reference(db: ComponentDb, theta: Fraction, cutoff: int) -> dict:
    """Segmentation from one `match_hashes` call per ordered pair."""
    out = {}
    for s in db.sorted_signatures():
        members, removed = set(), set()
        for x in db.sorted_signatures():
            if x.oss_id == s.oss_id:
                continue
            matched = match_hashes(s.entries, HashIndex(x.entries), cutoff)
            assert matched == brute_pair(set(s.entries), set(x.entries), cutoff)
            g = sum(
                1
                for sh, (xh, _) in matched.items()
                if signature_store.birth(x.entries[xh], x)
                <= signature_store.birth(s.entries[sh], s)
            )
            if matched and Fraction(g, len(x.entries)) >= theta:
                members.add(x.oss_id)
                removed.update(matched)
        out[s.oss_id] = segmenter.SegmentationResult(
            oss_id=s.oss_id,
            is_prime=not members,
            members=frozenset(members),
            app_entry_hashes=frozenset(h.digest for h in s.entries if h not in removed),
        )
    return out


@pytest.mark.parametrize("seed", range(4))
def test_db_wide_pass_equals_per_pair_reference(seed: int):
    rng = random.Random(seed)
    pool = _collision_pool(rng)
    db = ComponentDb(
        signatures={
            f"c{k}": _synthetic_sig(f"c{k}", rng.sample(pool, rng.randrange(8, 30)), rng)
            for k in range(6)
        }
    )
    for theta, cutoff in ((Fraction(1, 10), 30), (Fraction(1, 4), 0), (Fraction(1, 10), -1)):
        expected = _per_pair_reference(db, theta, cutoff)
        assert segment_all(db, theta, cutoff) == expected
        sigs = db.sorted_signatures()
        pairs, _ = pair_matches(sigs, cutoff)
        for k, s in enumerate(sigs):
            for x, other in enumerate(sigs):
                if x != k:
                    expected_pairs = brute_pair(set(s.entries), set(other.entries), cutoff)
                    assert pairs[k, x] == {
                        (sh, xh, d) for sh, (xh, d) in expected_pairs.items()
                    }
