"""Acceptance criteria, one test per criterion.

Each test prints an ``ACCEPTANCE PASS`` line when its assertions hold.
The shared environment builds one seeded corpus (>=50 components, >=3
versions each, >=20 targets covering every plant mode with nesting depth
>= 2) and runs the full pipeline once, timed.
"""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

import pytest

from osscan import detector, evalkit, segmenter
from osscan.cli import main as cli_main
from osscan.detector import DetectorConfig, patterns_from_counts
from osscan.segmenter import common_functions, compute_phi
from osscan.signature_store import (
    ComponentDb,
    birth,
    build_component,
    dedup_ratio,
    load_db,
    save_db,
)

from oracles import (
    brute_app,
    brute_component_score,
    brute_pair,
    brute_phi,
    brute_version_vote,
    naive_table_for_dir,
)

SEED = 1
THETA = Fraction(1, 10)
CUTOFF = 30
RUNTIME_BUDGET_SECONDS = 300.0


def _pass(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


@pytest.fixture(scope="module")
def env(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("acceptance")
    started = time.monotonic()
    bundle = evalkit.generate_corpus(seed=SEED, out_dir=root)
    db = ComponentDb()
    for oss_id, oss_dir in bundle.manifest:
        db.signatures[oss_id] = build_component(oss_dir)
    segmenter.apply_segmentation(db, segmenter.segment_all(db, THETA, CUTOFF))

    cfg = DetectorConfig(theta=THETA, cutoff=CUTOFF)
    fingerprints = {}
    reports = {}
    scored = {}
    for tid, tdir in bundle.target_manifest:
        t = detector.fingerprint_target(tdir, target_id=tid)
        fingerprints[tid] = t
        scored[tid] = detector.score_components(t, db, CUTOFF)
        reports[tid] = detector.identify_components(t, db, cfg)
    elapsed = time.monotonic() - started
    return {
        "root": root,
        "bundle": bundle,
        "db": db,
        "cfg": cfg,
        "fingerprints": fingerprints,
        "reports": reports,
        "scored": scored,
        "elapsed": elapsed,
    }


def test_criterion_1_synthetic_precision_and_recall(env):
    bundle = env["bundle"]
    gt = bundle.ground_truth

    assert len(bundle.manifest) >= 50
    for oss_id, _ in bundle.manifest:
        assert len(bundle.corpus.projects[oss_id].version_ids) >= 3
    assert len(bundle.target_manifest) >= 20
    modes = {p.mode for plants in gt.plants.values() for p in plants}
    assert modes == set(evalkit.PLANT_MODES)
    assert any(p.depth >= 2 for plants in gt.plants.values() for p in plants)

    tp = fp = fn = 0
    for tid, _ in bundle.target_manifest:
        got = {r.oss_id for r in env["reports"][tid]}
        want = gt.expected_oss(tid)
        tp += len(got & want)
        fp += len(got - want)
        fn += len(want - got)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    assert precision == 1.0, f"false positives: {fp}"
    assert recall == 1.0, f"false negatives: {fn}"
    assert env["elapsed"] < RUNTIME_BUDGET_SECONDS
    _pass(
        f"criterion 1: precision=1.0 recall=1.0 over {len(bundle.target_manifest)} "
        f"targets / {len(bundle.manifest)} components in {env['elapsed']:.1f}s"
    )


def test_criterion_2_segmentation_ablation(env):
    bundle, db = env["bundle"], env["db"]
    gt = bundle.ground_truth
    assert gt.nested_targets
    ripple_confirmed = 0
    for tid in sorted(gt.nested_targets):
        want = gt.expected_oss(tid)
        seg_fp = {r.oss_id for r in env["reports"][tid]} - want
        unseg = {
            r.oss_id
            for r in detector.identify_components(
                env["fingerprints"][tid], db, env["cfg"], use_segmentation=False
            )
        }
        unseg_fp = unseg - want
        assert len(unseg_fp) > len(seg_fp), (tid, unseg_fp, seg_fp)
        assert gt.unsegmented_fps[tid] <= unseg_fp
        # Ripple shape: a false positive sharing only borrowed code
        for oss in unseg_fp:
            app = bundle.corpus.app_fids(oss)
            covered = {
                fid
                for plants in (gt.plants[tid],)
                for p in plants
                for fid in bundle.corpus.fids_in_version(p.oss_id, p.source_version)
            }
            if not covered & app:
                ripple_confirmed += 1
                break
    assert ripple_confirmed >= 1
    assert gt.ripple_targets
    _pass(
        f"criterion 2: unsegmented run adds false positives on all "
        f"{len(gt.nested_targets)} nested targets; {ripple_confirmed} borrowed-code-only shapes"
    )


def test_criterion_3_redundancy_elimination(env):
    bundle, db = env["bundle"], env["db"]
    checked = 0
    for oss_id, oss_dir in bundle.manifest[:5]:
        table = naive_table_for_dir(Path(oss_dir))
        sig = db.signatures[oss_id]
        distinct = len(table.hashes())
        assert len(sig.entries) == distinct
        expected = Fraction(distinct, len(table.incidences()))
        assert dedup_ratio(db, oss_id) == expected
        checked += 1
    whole = dedup_ratio(db)
    assert 0 < whole < 1
    _pass(
        f"criterion 3: entry counts equal distinct-function counts on {checked} "
        f"components; db-wide dedup ratio {float(whole):.3f} exact"
    )


def test_criterion_4_version_identification(env):
    bundle = env["bundle"]
    gt = bundle.ground_truth

    exact_checked = exact_right = 0
    for tid, _ in bundle.target_manifest:
        by_id = {r.oss_id: r for r in env["reports"][tid]}
        for entry in gt.targets[tid]:
            if not entry.version_candidates or entry.patterns != frozenset({"E"}):
                continue
            exact_checked += 1
            if by_id[entry.oss_id].version_id in entry.version_candidates:
                exact_right += 1
    assert exact_checked >= 5
    assert exact_right == exact_checked  # 100% on exact reuse

    trials = 110
    hits = 0
    for seed in range(trials):
        version, pair = evalkit.run_mixed_version_trial(seed, cutoff=CUTOFF)
        hits += version in pair
    rate = hits / trials
    assert rate >= 0.90, f"mixed-version accuracy {rate:.3f}"
    _pass(
        f"criterion 4: exact-reuse version accuracy {exact_right}/{exact_checked}; "
        f"mixed-version accuracy {rate:.2%} over {trials} trials"
    )


def test_criterion_5_reuse_pattern_rows(env):
    assert patterns_from_counts(941, 0, 0, False) == ("E",)
    assert patterns_from_counts(2211, 26, 1, False) == ("P", "CC")
    assert patterns_from_counts(89, 0, 26, False) == ("P",)
    # and the pipeline agrees with declared plant patterns
    bundle = env["bundle"]
    verified = 0
    for tid, _ in bundle.target_manifest:
        by_id = {r.oss_id: r for r in env["reports"][tid]}
        for entry in bundle.ground_truth.targets[tid]:
            if entry.patterns is None:
                continue
            report = by_id[entry.oss_id]
            assert set(report.patterns) == set(entry.patterns), (
                tid, entry.oss_id, report.patterns, entry.patterns
            )
            verified += 1
    assert verified >= 15
    _pass(f"criterion 5: pattern rows exact; {verified} planted patterns reproduced")


def test_criterion_6_bruteforce_oracle_equivalence(tmp_path):
    shape = evalkit.CorpusShape(n_standalone=3, short_func_rate=0.5)
    bundle = evalkit.generate_corpus(seed=77, out_dir=tmp_path, shape=shape)
    db = ComponentDb()
    tables = {}
    for oss_id, oss_dir in bundle.manifest:
        db.signatures[oss_id] = build_component(oss_dir)
        tables[oss_id] = naive_table_for_dir(Path(oss_dir))
    total_functions = sum(len(t.hashes()) for t in tables.values())
    assert total_functions <= 500

    # birth times
    for oss_id, sig in db.signatures.items():
        for entry in sig.entries.values():
            assert birth(entry, sig) == tables[oss_id].birth(entry.hash)

    # pairwise common functions and phi
    ids = sorted(db.signatures)
    for s_id in ids:
        for x_id in ids:
            if s_id == x_id:
                continue
            s, x = db.signatures[s_id], db.signatures[x_id]
            pairs = common_functions(s, x, CUTOFF)
            expected = brute_pair(
                tables[s_id].hashes(), tables[x_id].hashes(), CUTOFF
            )
            assert {
                (p.s_entry.hash, p.x_entry.hash, p.distance) for p in pairs
            } == {(sh, (xh_d)[0], (xh_d)[1]) for sh, xh_d in expected.items()}
            assert compute_phi(s, x, CUTOFF).phi == brute_phi(
                tables[s_id], tables[x_id], CUTOFF
            )

    # segmentation; the brute-force app sets are reused by the checks below
    results = segmenter.segment_all(db, THETA, CUTOFF)
    segmenter.apply_segmentation(db, results)
    brute_apps = {oss_id: brute_app(tables[oss_id], tables, THETA, CUTOFF) for oss_id in ids}
    for oss_id in ids:
        assert {h for h in db.signatures[oss_id].app_entries} == brute_apps[oss_id]

    # detection scores and version argmax
    cfg = DetectorConfig(theta=THETA, cutoff=CUTOFF)
    compared_scores = compared_votes = 0
    for tid, tdir in bundle.target_manifest:
        t = detector.fingerprint_target(tdir, target_id=tid)
        target_hashes = set(t.functions)
        by_id = {
            scored.sig.oss_id: scored
            for scored in detector.score_components(t, db, CUTOFF)
        }
        for oss_id, scored in by_id.items():
            assert scored.phi == brute_component_score(target_hashes, brute_apps[oss_id], CUTOFF)
            compared_scores += 1
        for report in detector.identify_components(t, db, cfg):
            matched = set(brute_pair(brute_apps[report.oss_id], target_hashes, CUTOFF))
            vote, _ = brute_version_vote(matched, tables[report.oss_id])
            assert report.version_id == vote
            compared_votes += 1
    assert compared_scores > 0 and compared_votes > 0
    _pass(
        f"criterion 6: {total_functions} functions; common/phi/app/score/vote all "
        f"match brute force ({compared_scores} scores, {compared_votes} votes)"
    )


def test_criterion_7_determinism_and_roundtrip(env):
    root = env["root"]
    corpus = root / "corpus"
    for name in ("det_a", "det_b"):
        assert cli_main(["preprocess", "--corpus", str(corpus), "--db", str(root / name)]) == 0
        assert cli_main(["segment", "--db", str(root / name)]) == 0

    def tree(path: Path) -> dict[str, bytes]:
        return {
            p.relative_to(path).as_posix(): p.read_bytes()
            for p in path.rglob("*")
            if p.is_file()
        }

    assert tree(root / "det_a") == tree(root / "det_b")

    loaded = load_db(root / "det_a")
    save_db(loaded, root / "det_c")
    assert tree(root / "det_c") == tree(root / "det_a")
    _pass("criterion 7: repeated preprocess+segment byte-identical; save/load/save fixpoint")


def test_criterion_8_theta_sweep_shape(env):
    bundle = env["bundle"]
    gt = bundle.ground_truth
    grid = [Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(3, 20), Fraction(1, 5)]
    detected_totals = []
    proportions = []
    for theta in grid:
        detected = correct = 0
        for tid, _ in bundle.target_manifest:
            hits = [s.sig.oss_id for s in env["scored"][tid] if s.phi >= theta]
            detected += len(hits)
            expected = gt.expected_oss(tid)
            correct += sum(1 for oss in hits if oss in expected)
        detected_totals.append(detected)
        proportions.append(correct / detected if detected else 1.0)

    assert detected_totals == sorted(detected_totals, reverse=True)
    assert proportions[0] < proportions[1] < proportions[2]
    assert proportions[2] >= 0.95
    assert proportions[2] - proportions[0] >= 0.3
    _pass(
        "criterion 8: detections non-increasing "
        f"{detected_totals}; correct proportion {['%.2f' % p for p in proportions]} "
        "rises sharply to theta=0.1"
    )
