from __future__ import annotations

import dataclasses
import datetime
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from osscan import evalkit, fingerprint, segmenter, signature_store, detector
from osscan.detector import ComponentReport, MatchEvidence
from osscan.evalkit import (
    CorpusShape,
    GroundTruth,
    PlantSpec,
    generate_corpus,
    make_body,
    mutate_body,
    verify_detection,
)
from osscan.extractor import extract_from_source, normalize

from conftest import write_tree

SMALL = CorpusShape(n_standalone=6)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


def test_plant_spec_validation():
    with pytest.raises(ValueError, match="keep_ratio"):
        PlantSpec("x", "PARTIAL", "v1", keep_ratio=0.0)
    with pytest.raises(ValueError, match="mutation rate"):
        PlantSpec("x", "CODE_CHANGED", "v1", mutation_rate=0.0)
    with pytest.raises(ValueError, match="depth"):
        PlantSpec("x", "NESTED", "v1", depth=0)
    with pytest.raises(ValueError, match="unknown plant mode"):
        PlantSpec("x", "WILD", "v1")


def test_generated_bodies_are_unique_and_hashable():
    rng = random.Random(1)
    bodies = [make_body(rng, f"u{i}") for i in range(40)]
    texts = {normalize(b) for b in bodies}
    assert len(texts) == 40
    for body in bodies:
        funcs = extract_from_source("x.c", body)
        assert len(funcs) == 1
        h = fingerprint.hash_function(normalize(funcs[0].body))
        assert h.scheme is fingerprint.HashScheme.LSH


def test_mutations_stay_within_cutoff():
    rng = random.Random(2)
    for i in range(30):
        body = make_body(rng, f"m{i}")
        variant = mutate_body(rng, body)
        if variant is None:
            continue
        a = fingerprint.hash_function(normalize(body))
        b = fingerprint.hash_function(normalize(variant))
        assert 0 < fingerprint.distance(a, b) <= 30


def test_short_bodies_cannot_be_mutated():
    rng = random.Random(3)
    short = evalkit.make_short_body(rng, "tiny")
    assert mutate_body(rng, short) is None


def test_generate_corpus_deterministic(tmp_path: Path):
    a = generate_corpus(seed=11, out_dir=tmp_path / "one", shape=SMALL)
    b = generate_corpus(seed=11, out_dir=tmp_path / "two", shape=SMALL)
    assert _tree_bytes(tmp_path / "one") == _tree_bytes(tmp_path / "two")
    assert a.ground_truth.to_json() == b.ground_truth.to_json()
    c = generate_corpus(seed=12, out_dir=tmp_path / "three", shape=SMALL)
    assert _tree_bytes(tmp_path / "one") != _tree_bytes(tmp_path / "three")


def test_generated_bytes_are_pinned(tmp_path: Path):
    # The benchmark's workloads are generated trees, so a refactor of the
    # generator must not move a byte.  Same rule as bench/pipeline.tree_digest.
    generate_corpus(seed=7, out_dir=tmp_path, shape=CorpusShape(n_standalone=8))
    digest = hashlib.sha256()
    for rel, data in sorted(_tree_bytes(tmp_path).items()):
        digest.update(rel.encode() + b"\0" + data)
    assert digest.hexdigest() == (
        "3d270532f6aa998e0a148e0026773fbe515130b2880bf83eceb28378953ac4e7"
    )


# Mutates every function of every component, so that mutate_body meets
# identifiers that tie on its ranking key.
_GENERATE = """
import sys
from pathlib import Path
from osscan import evalkit

out = Path(sys.argv[1])
shape = evalkit.CorpusShape(n_standalone=6, include_chains=False)
corpus = evalkit.generate_corpus(11, out / "draw", shape, plants=[]).corpus
plan = [
    (f"t_{oss}", [evalkit.PlantSpec(
        oss, "CODE_CHANGED", corpus.projects[oss].latest_version, mutation_rate=1.0)])
    for oss in sorted(corpus.projects)
]
evalkit.generate_corpus(11, out / "gen", shape, plants=plan)
"""


def test_generated_trees_independent_of_hash_seed(tmp_path):
    src = str(Path(evalkit.__file__).resolve().parents[1])
    trees = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-c", _GENERATE, str(out)], check=True, env=env, timeout=300
        )
        trees.append(_tree_bytes(out / "gen"))
    assert trees[0] == trees[1]


def test_generated_chain_has_increasing_birth_dates(tmp_path: Path):
    bundle = generate_corpus(seed=5, out_dir=tmp_path, shape=SMALL)
    corpus = bundle.corpus
    assert ("topcrate", "midshell", "deepcore") in corpus.chains
    deep = corpus.projects["deepcore"]
    mid = corpus.projects["midshell"]
    top = corpus.projects["topcrate"]
    assert max(deep.dates.values()) < min(mid.dates.values())
    assert max(mid.dates.values()) < min(top.dates.values())
    # the vendored deepcore version's functions flow up the whole chain
    vendored = next(e for e in mid.embeds if e.oss_id == "deepcore")
    deep_fids = corpus.fids_in_version("deepcore", vendored.version_id)
    assert deep_fids <= corpus.all_fids("midshell")
    assert deep_fids <= corpus.all_fids("topcrate")


def test_ground_truth_covers_all_modes(tmp_path: Path):
    bundle = generate_corpus(seed=6, out_dir=tmp_path, shape=SMALL)
    gt = bundle.ground_truth
    modes = {p.mode for plants in gt.plants.values() for p in plants}
    assert modes == set(evalkit.PLANT_MODES)
    assert any(p.depth >= 2 for plants in gt.plants.values() for p in plants)
    assert len(gt.targets) >= 20
    assert gt.nested_targets
    assert gt.ripple_targets
    for tid in gt.ripple_targets:
        assert gt.unsegmented_fps[tid]


def test_ground_truth_json_roundtrip(tmp_path: Path):
    bundle = generate_corpus(seed=7, out_dir=tmp_path, shape=SMALL)
    text = bundle.ground_truth.to_json()
    again = GroundTruth.from_json(text)
    assert again.to_json() == text
    assert again.expected_oss("t01_exact_a") == bundle.ground_truth.expected_oss("t01_exact_a")
    on_disk = (tmp_path / "ground_truth.json").read_text()
    assert on_disk == text


def test_manifest_roundtrip(tmp_path: Path):
    bundle = generate_corpus(seed=8, out_dir=tmp_path, shape=SMALL)
    manifest = evalkit.read_manifest(tmp_path / "corpus" / "manifest.tsv")
    assert [name for name, _ in manifest] == [name for name, _ in bundle.manifest]
    for (_, path), (_, expected) in zip(manifest, bundle.manifest):
        assert path == expected.resolve()


def test_partial_plant_keeps_exact_count():
    # 100-function component, keep_ratio 0.5 -> exactly 50 functions
    rng = random.Random(9)
    bodies = {f"big.f{i:03d}": make_body(rng, f"big{i:03d}") for i in range(100)}
    project = evalkit.SynthProject(
        oss_id="bigone",
        version_ids=["v1"],
        dates={"v1": datetime.date(2016, 1, 1)},
        bodies=bodies,
        home_path={fid: f"src/mod_{i // 10}.c" for i, fid in enumerate(sorted(bodies))},
        members_by_version={"v1": sorted(bodies)},
    )
    corpus = evalkit.Corpus()
    corpus.add(project)
    build = evalkit._TargetBuild("t", [], [], set(), [])
    evalkit._realize_plant(
        rng, corpus, PlantSpec("bigone", "PARTIAL", "v1", keep_ratio=0.5), build
    )
    assert len(build.covered) == 50
    planted = [
        f for path, data in build.files for f in extract_from_source(path, data)
    ]
    assert len(planted) == 50


def test_exact_plants_are_path_verified(tmp_path: Path):
    bundle = generate_corpus(seed=13, out_dir=tmp_path, shape=SMALL)
    db = signature_store.ComponentDb()
    for oss_id, oss_dir in bundle.manifest:
        db.signatures[oss_id] = signature_store.build_component(oss_dir)
    segmenter.apply_segmentation(db, segmenter.segment_all(db))
    component_dirs = dict(bundle.manifest)
    for tid, plants in bundle.ground_truth.plants.items():
        exact = [p for p in plants if p.mode in ("EXACT", "NESTED")]
        if not exact:
            continue
        tdir = dict(bundle.target_manifest)[tid]
        t = detector.fingerprint_target(tdir, target_id=tid)
        reports = detector.identify_components(t, db)
        verdicts = verify_detection(reports, tdir, component_dirs)
        for plant in exact:
            assert verdicts[plant.oss_id].path_verified, (tid, plant.oss_id)
            assert verdicts[plant.oss_id].metadata_verified  # README copied whole


def test_verify_detection_header_and_unverified(tmp_path: Path):
    # handcrafted fixtures for the header/unverified verification flags
    component_dirs = {
        "lua": write_tree(
            tmp_path / "oss" / "lua",
            {"v1/README": b"lua readme\n", "v1/src/lapi.c": b"int lua_api(void){return 1;}"},
        ),
        "ghost": write_tree(
            tmp_path / "oss" / "ghost",
            {"v1/README": b"ghost readme\n", "v1/g.c": b"int g(void){return 2;}"},
        ),
    }
    target = write_tree(
        tmp_path / "target",
        {"deps/Lua.h": b"// lua header\n", "src/app.c": b"int app(void){return 3;}"},
    )

    def report(oss_id: str, paths: tuple[str, ...]) -> ComponentReport:
        return ComponentReport(
            oss_id=oss_id,
            phi=1,
            version_id="v1",
            version_scores={},
            patterns=("E",),
            identical=1,
            modified=0,
            unused=0,
            structure_changed=False,
            evidence=[
                MatchEvidence("0" * 70, "IDENTICAL", 0, paths, ("src/orig.c",))
            ],
        )

    verdicts = verify_detection(
        [report("lua", ("src/app.c",)), report("ghost", ("src/app.c",))],
        target,
        component_dirs,
    )
    assert verdicts["lua"].header_verified
    assert not verdicts["lua"].path_verified
    assert not any(dataclasses.astuple(verdicts["ghost"]))


def test_verify_detection_path_and_metadata(tmp_path: Path):
    component_dirs = {
        "zlib": write_tree(
            tmp_path / "oss" / "zlib",
            {"v1/README": b"zlib notes\n", "v1/inflate.c": b"int inf(void){return 9;}"},
        )
    }
    target = write_tree(
        tmp_path / "target",
        {
            "src/third_party/zlib-1.2.11/inflate.c": b"int inf(void){return 9;}",
            "docs/README": b"zlib notes\n",
        },
    )
    report = ComponentReport(
        oss_id="zlib",
        phi=1,
        version_id="v1",
        version_scores={},
        patterns=("E",),
        identical=1,
        modified=0,
        unused=0,
        structure_changed=False,
        evidence=[
            MatchEvidence(
                "0" * 70,
                "IDENTICAL",
                0,
                ("src/third_party/zlib-1.2.11/inflate.c",),
                ("inflate.c",),
            )
        ],
    )
    verdict = verify_detection([report], target, component_dirs)["zlib"]
    assert verdict.path_verified
    assert verdict.metadata_verified
    assert not verdict.header_verified


def test_mixed_version_trial_runs():
    version, pair = evalkit.run_mixed_version_trial(seed=0)
    assert version in pair
