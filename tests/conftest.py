from __future__ import annotations

import dataclasses
import datetime
import hashlib
import random
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest

from osscan import detector, evalkit, segmenter, signature_store
from osscan.fingerprint import FuncHash, HashIndex, match_hashes
from osscan.signature_store import ComponentDb


def c_function(tag: str) -> bytes:
    """Deterministic, unique C function body, long enough for LSH."""
    seed = int(hashlib.sha256(tag.encode()).hexdigest(), 16)
    return evalkit.make_body(random.Random(seed), f"fn_{tag}")


def c_function_renamed(tag: str) -> bytes:
    """The same function with one identifier renamed (a similar variant)."""
    body = c_function(tag)
    import re

    ident = re.search(rb"v_[a-z]+", body).group(0)
    return re.sub(rb"\b" + re.escape(ident) + rb"\b", b"v_renamed", body)


def write_tree(root: Path, files: dict[str, bytes]) -> Path:
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def source_file(tags: list[str]) -> bytes:
    return b"\n\n".join(c_function(t) for t in tags) + b"\n"


def date(text: str) -> datetime.date:
    return datetime.date.fromisoformat(text)


def build_sig_from_specs(
    oss_id: str, versions: list[tuple[str, str, dict[str, list[str]]]]
) -> signature_store.OssSignature:
    """versions: (version_id, iso date, {path: [function tags]})."""
    metas = signature_store.make_version_meta(
        [(vid, date(day)) for vid, day, _ in versions]
    )
    by_id = {vid: files for vid, _, files in versions}
    with tempfile.TemporaryDirectory() as tmp:
        trees = [
            (
                meta,
                write_tree(
                    Path(tmp) / meta.version_id,
                    {path: source_file(tags) for path, tags in by_id[meta.version_id].items()},
                ),
            )
            for meta in metas
        ]
        return signature_store.build_signature(oss_id, trees)


def fingerprint_files(
    target_id: str, files: list[tuple[str, bytes]]
) -> detector.TargetFingerprint:
    """Fingerprint a target tree made of (path, bytes) files."""
    tree = dict(files)
    assert len(tree) == len(files), "duplicate target path"
    with tempfile.TemporaryDirectory() as tmp:
        return detector.fingerprint_target(write_tree(Path(tmp), tree), target_id=target_id)


def all_prime(db: ComponentDb) -> ComponentDb:
    """A copy of `db` in which every signature is prime with all its
    entries as application code: detection on it scores full entry sets,
    the ablation of segmentation."""
    return ComponentDb(
        signatures={
            oss_id: dataclasses.replace(sig, is_prime=True, app_entries=set(sig.entries))
            for oss_id, sig in db.signatures.items()
        },
        meta=db.meta,
    )


def match_dict(
    left: HashIndex, right: HashIndex, cutoff: int
) -> dict[FuncHash, tuple[FuncHash, int]]:
    """`match_hashes` of two indexes built without owners, read as
    {left hash: (best right hash, distance)} in sorted left-digest order."""
    assert len(right.rows) == len(right), "right has a row with more than one owner"
    m = match_hashes(left, right, cutoff)
    return {
        left.hashes[i]: (right.hashes[right.rows[e]], d)
        for i, e, d in zip(m.left.tolist(), m.right.tolist(), m.distance.tolist())
    }


def pair_matches(sigs: list[signature_store.OssSignature], cutoff: int):
    """One DB-wide `segmenter._pair_scores` scan, read per ordered pair:
    {(k, x): {(entry of k, best entry of x, distance)}} over positions
    in `sigs`, and the phi numerators g[k, x]."""
    scores = segmenter._pair_scores(sigs, cutoff)
    index = scores.index
    pairs: dict[tuple[int, int], set] = defaultdict(set)
    for s, x, e, d in zip(
        *(a.tolist() for a in (scores.subject, scores.other, scores.right, scores.distance))
    ):
        pairs[int(index.owners[s]), x].add(
            (index.hashes[index.rows[s]], index.hashes[index.rows[e]], d)
        )
    return pairs, scores.g


@pytest.fixture(scope="session")
def nested_db() -> ComponentDb:
    """Three-level nesting chain plus an unrelated project.

    rockbase (2015, prime, 11 entries)
      -> vendored whole into riverlib (2017, 20 own + 11 borrowed)
      -> riverlib vendored whole into shipapp (2019, 30 own + 31 borrowed)
    wanderer (2016, 12 entries) is unrelated.
    """
    rock_tags = [f"rock{i:02d}" for i in range(10)]
    rock_files = {"src/rock.c": rock_tags[:5], "src/base.c": rock_tags[5:]}
    rock_v2 = dict(rock_files)
    rock_v2["src/late.c"] = ["rock_late"]
    rockbase = build_sig_from_specs(
        "rockbase",
        [("y1", "2015-01-01", rock_files), ("y2", "2015-06-01", rock_v2)],
    )

    river_files: dict[str, list[str]] = {}
    for i in range(20):
        river_files.setdefault(f"src/river_{i // 5}.c", []).append(f"river{i:02d}")
    river_files["third_party/rockbase/src/rock.c"] = rock_tags[:5]
    river_files["third_party/rockbase/src/base.c"] = rock_tags[5:]
    river_files["third_party/rockbase/src/late.c"] = ["rock_late"]
    riverlib = build_sig_from_specs(
        "riverlib",
        [("x1", "2017-01-01", river_files), ("x2", "2017-07-01", river_files)],
    )

    ship_files: dict[str, list[str]] = {}
    for i in range(30):
        ship_files.setdefault(f"src/ship_{i // 6}.c", []).append(f"ship{i:02d}")
    for path, tags in river_files.items():
        ship_files[f"third_party/riverlib/{path}"] = tags
    shipapp = build_sig_from_specs("shipapp", [("s1", "2019-02-01", ship_files)])

    wander_files = {"src/wander.c": [f"wander{i:02d}" for i in range(12)]}
    wanderer = build_sig_from_specs("wanderer", [("w1", "2016-03-01", wander_files)])

    return ComponentDb(
        signatures={
            "rockbase": rockbase,
            "riverlib": riverlib,
            "shipapp": shipapp,
            "wanderer": wanderer,
        }
    )


@pytest.fixture(scope="session")
def segmented_nested_db(nested_db: ComponentDb) -> ComponentDb:
    import copy

    db = copy.deepcopy(nested_db)
    segmenter.apply_segmentation(db, segmenter.segment_all(db))
    return db
