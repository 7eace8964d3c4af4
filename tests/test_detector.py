from __future__ import annotations

import copy
import json
import math
import random
from fractions import Fraction

import pytest

from osscan import detector, evalkit, segmenter
from osscan.detector import (
    DetectionError,
    DetectorConfig,
    MatchEvidence,
    identify_components,
    identify_version,
    patterns_from_counts,
    path_changed,
    render_report,
    score_components,
)
from osscan.fingerprint import HashIndex, match_hashes
from osscan.signature_store import ComponentDb

from conftest import all_prime, build_sig_from_specs, c_function, fingerprint_files, source_file


def _segmented(db: ComponentDb) -> ComponentDb:
    db = copy.deepcopy(db)
    segmenter.apply_segmentation(db, segmenter.segment_all(db))
    return db


def _target(tags: list[str], path: str = "app/code.c", target_id: str = "t") -> detector.TargetFingerprint:
    return fingerprint_files(target_id, [(path, source_file(tags))])


# --- path_changed -------------------------------------------------------


def test_path_changed_suffix_match_is_unchanged():
    assert path_changed("zlib-1.2.11/inflate.c", "src/third_party/zlib-1.2.11/inflate.c") is False


def test_path_changed_amalgamation_detected():
    assert path_changed("jpeg/jdcolor.c", "src/core/u-jpg.c") is True


def test_path_changed_identical_paths():
    assert path_changed("src/a.c", "src/a.c") is False


def test_path_changed_shallower_target():
    assert path_changed("lib/deep/file.c", "file.c") is True


def test_path_changed_component_mismatch_within_depth():
    assert path_changed("lib/file.c", "prefix/lib2/file.c") is True


# --- fingerprints -------------------------------------------------------


def test_fingerprint_collapses_duplicate_hashes():
    body = source_file(["dup"])
    t = fingerprint_files("t", [("a/one.c", body), ("b/two.c", body)])
    assert len(t.functions) == 1
    paths = next(iter(t.functions.values()))
    assert paths == frozenset({"a/one.c", "b/two.c"})


# --- identify_components ------------------------------------------------


def test_verbatim_copy_scores_one(nested_db):
    db = _segmented(nested_db)
    rock_tags = [f"rock{i:02d}" for i in range(10)] + ["rock_late"]
    t = fingerprint_files(
        "copy", [("third_party/rockbase/src/all.c", source_file(rock_tags))]
    )
    reports = identify_components(t, db)
    assert [r.oss_id for r in reports] == ["rockbase"]
    assert reports[0].phi == 1


def test_borrowed_only_target_does_not_report_embedder(nested_db):
    # The false-positive shape: target reuses only the vendored
    # sub-component; the projects embedding it must not be reported.
    db = _segmented(nested_db)
    rock_tags = [f"rock{i:02d}" for i in range(10)] + ["rock_late"]
    t = fingerprint_files("borrow", [("vendor/rock.c", source_file(rock_tags))])
    with_seg = {r.oss_id for r in identify_components(t, db)}
    assert with_seg == {"rockbase"}
    without_seg = {r.oss_id for r in identify_components(t, all_prime(db))}
    assert without_seg == {"rockbase", "riverlib", "shipapp"}


def test_application_ratio_detects_what_raw_ratio_misses():
    # Component with 250 entries, 75 of them application code; the target
    # reuses 9 app functions: 3.6% of the whole but 12% of the app code.
    x_tags = [f"vx{i:03d}" for i in range(175)]
    s_files = {
        "src/own.c": [f"vs{i:03d}" for i in range(75)],
        "third_party/xdep/x.c": x_tags,
    }
    x = build_sig_from_specs("xdep", [("v1", "2015-01-01", {"x.c": x_tags})])
    s = build_sig_from_specs("sbig", [("v1", "2019-01-01", s_files)])
    db = _segmented(ComponentDb(signatures={"xdep": x, "sbig": s}))
    assert len(db.signatures["sbig"].entries) == 250
    assert len(db.signatures["sbig"].app_entries) == 75

    t = _target([f"vs{i:03d}" for i in range(9)] + [f"junk{i}" for i in range(6)])
    reports = identify_components(t, db)
    assert [r.oss_id for r in reports] == ["sbig"]
    assert reports[0].phi == Fraction(9, 75)
    raw = {r.oss_id for r in identify_components(t, all_prime(db))}
    assert "sbig" not in raw  # 9/250 is below theta


def test_unsegmented_db_is_an_error(nested_db):
    t = _target(["whatever"])
    with pytest.raises(DetectionError, match="run segmentation first"):
        identify_components(t, nested_db)


def test_fully_borrowed_signature_skipped_with_warning(caplog):
    inner = build_sig_from_specs("inner", [("v1", "2014-01-01", {"i.c": ["f1", "f2", "f3"]})])
    shell = build_sig_from_specs("shell", [("v1", "2018-01-01", {"s.c": ["f1", "f2", "f3"]})])
    db = _segmented(ComponentDb(signatures={"inner": inner, "shell": shell}))
    assert db.signatures["shell"].app_entries == set()
    t = _target(["f1", "f2", "f3"])
    with caplog.at_level("WARNING", logger="osscan.detector"):
        reports = identify_components(t, db)
    assert [r.oss_id for r in reports] == ["inner"]
    assert any("shell" in rec.getMessage() for rec in caplog.records)


def test_reports_sorted_by_phi_then_id():
    a = build_sig_from_specs("aaa", [("v1", "2015-01-01", {"a.c": ["a1", "a2"]})])
    b = build_sig_from_specs("bbb", [("v1", "2016-01-01", {"b.c": ["b1", "b2"]})])
    c = build_sig_from_specs("ccc", [("v1", "2017-01-01", {"c.c": ["c1", "c2", "c3", "c4"]})])
    db = _segmented(ComponentDb(signatures={"ccc": c, "bbb": b, "aaa": a}))
    t = _target(["a1", "a2", "b1", "b2", "c1", "c2"])
    reports = identify_components(t, db)
    assert [(r.oss_id, r.phi) for r in reports] == [
        ("aaa", Fraction(1)), ("bbb", Fraction(1)), ("ccc", Fraction(1, 2))
    ]


def test_phi_monotonicity():
    s = build_sig_from_specs(
        "mono", [("v1", "2015-01-01", {"s.c": [f"m{i}" for i in range(10)]})]
    )
    db = _segmented(ComponentDb(signatures={"mono": s}))
    base = score_components(_target(["m0", "m1"]), db, 30)[0].phi
    more_matches = score_components(_target(["m0", "m1", "m2"]), db, 30)[0].phi
    more_junk = score_components(_target(["m0", "m1", "zz1", "zz2"]), db, 30)[0].phi
    assert more_matches > base
    assert more_junk == base


# --- identify_version ---------------------------------------------------


def _versioned_sig():
    files = lambda tags: {"src/code.c": tags}
    return build_sig_from_specs(
        "verlib",
        [
            ("v1", "2019-01-01", files(["base", "only1", "both12"])),
            ("v2", "2019-06-01", files(["base", "both12", "both23"])),
            ("v3", "2020-01-01", files(["base", "both23", "only3"])),
            ("v4", "2020-07-01", files(["base", "only4"])),
        ],
    )


def _entries_by_tag(sig):
    out = {}
    for tag in ("base", "only1", "both12", "both23", "only3", "only4"):
        h = fingerprint_files("x", [("src/code.c", source_file([tag]))])
        (func_hash,) = h.functions
        if func_hash in sig.entries:
            out[tag] = sig.entries[func_hash]
    return out


def test_version_vote_hand_computed():
    sig = _versioned_sig()
    entries = _entries_by_tag(sig)
    vote = identify_version([entries["only1"], entries["both12"]], sig)
    assert vote.version_id == "v1"
    assert not vote.indistinct
    assert math.isclose(vote.scores["v1"], math.log(4) + math.log(2))
    assert math.isclose(vote.scores["v2"], math.log(2))
    assert vote.scores["v3"] == 0.0 and vote.scores["v4"] == 0.0


def test_version_vote_verbatim_copy_wins():
    sig = _versioned_sig()
    entries = _entries_by_tag(sig)
    v3_entries = [entries["base"], entries["both23"], entries["only3"]]
    vote = identify_version(v3_entries, sig)
    assert vote.version_id == "v3"


def test_version_vote_everywhere_entry_contributes_nothing():
    sig = _versioned_sig()
    entries = _entries_by_tag(sig)
    vote = identify_version([entries["base"], entries["only4"]], sig)
    assert math.isclose(vote.scores["v4"], math.log(4))
    assert vote.version_id == "v4"


def test_version_vote_indistinct_returns_latest():
    sig = _versioned_sig()
    entries = _entries_by_tag(sig)
    vote = identify_version([entries["base"]], sig)
    assert vote.indistinct
    assert vote.version_id == "v4"


def test_version_vote_tie_breaks_to_later_release():
    sig = _versioned_sig()
    entries = _entries_by_tag(sig)
    vote = identify_version([entries["both23"]], sig)
    assert vote.version_id == "v3"  # v2 and v3 tie on score; v3 is later
    assert math.isclose(vote.scores["v2"], vote.scores["v3"])


def test_version_vote_requires_matches():
    sig = _versioned_sig()
    with pytest.raises(ValueError):
        identify_version([], sig)


# --- reuse patterns -----------------------------------------------------


def test_patterns_from_counts_rows():
    assert patterns_from_counts(941, 0, 0, False) == ("E",)
    assert patterns_from_counts(2211, 26, 1, False) == ("P", "CC")
    assert patterns_from_counts(89, 0, 26, False) == ("P",)


def test_patterns_exact_excludes_others():
    assert patterns_from_counts(10, 0, 0, True) == ("SC",)
    assert patterns_from_counts(10, 1, 0, False) == ("CC",)
    assert patterns_from_counts(10, 1, 2, True) == ("P", "SC", "CC")


def _pattern_base_db():
    tags = [f"pat{i:02d}" for i in range(12)]
    files = {"src/f0.c": tags[:6], "src/f1.c": tags[6:]}
    sig = build_sig_from_specs("patterns", [("v1", "2018-01-01", files)])
    return _segmented(ComponentDb(signatures={"patterns": sig})), tags


def _report_for(db, files: list[tuple[str, bytes]]):
    t = fingerprint_files("t", files)
    reports = identify_components(t, db)
    assert [r.oss_id for r in reports] == ["patterns"]
    return reports[0]


def test_exact_reuse_pattern_end_to_end():
    db, tags = _pattern_base_db()
    report = _report_for(
        db,
        [
            ("third_party/patterns/src/f0.c", source_file(tags[:6])),
            ("third_party/patterns/src/f1.c", source_file(tags[6:])),
        ],
    )
    assert report.patterns == ("E",)
    assert (report.identical, report.modified, report.unused) == (12, 0, 0)
    assert report.structure_changed is False
    assert report.version_id == "v1"
    assert report.phi == 1


def test_partial_reuse_pattern_end_to_end():
    db, tags = _pattern_base_db()
    report = _report_for(
        db, [("third_party/patterns/src/f0.c", source_file(tags[:6]))]
    )
    assert report.patterns == ("P",)
    assert (report.identical, report.modified, report.unused) == (6, 0, 6)


def test_code_changed_pattern_end_to_end():
    db, tags = _pattern_base_db()
    rng = random.Random(9)
    mutated = evalkit.mutate_body(rng, c_function(tags[0]))
    assert mutated is not None
    files = [
        ("third_party/patterns/src/f0.c", mutated + b"\n\n" + source_file(tags[1:6])),
        ("third_party/patterns/src/f1.c", source_file(tags[6:])),
    ]
    report = _report_for(db, files)
    assert report.patterns == ("CC",)
    assert (report.identical, report.modified, report.unused) == (11, 1, 0)
    similar = [e for e in report.evidence if e.relation == "SIMILAR"]
    assert len(similar) == 1 and 0 < similar[0].distance <= 30


def test_structure_changed_pattern_end_to_end():
    db, tags = _pattern_base_db()
    report = _report_for(db, [("src/everything.c", source_file(tags))])
    assert report.patterns == ("SC",)
    assert report.structure_changed is True
    assert (report.identical, report.modified, report.unused) == (12, 0, 0)


def test_multiple_paths_use_most_charitable_pairing():
    db, tags = _pattern_base_db()
    # every function also appears at a suffix-preserving path, so no
    # structure change is reported even though a copy moved
    report = _report_for(
        db,
        [
            ("third_party/patterns/src/f0.c", source_file(tags[:6])),
            ("third_party/patterns/src/f1.c", source_file(tags[6:])),
            ("flat/all.c", source_file(tags)),
        ],
    )
    assert report.structure_changed is False
    assert report.patterns == ("E",)


def test_analyze_counts_cover_whole_version(nested_db):
    # shipapp's identified version set includes borrowed entries: a target
    # holding only shipapp's own code leaves the borrowed third of the
    # version unused.
    db = _segmented(nested_db)
    ship_tags = [f"ship{i:02d}" for i in range(30)]
    files = [
        (f"third_party/shipapp/src/ship_{i // 6}.c", source_file(ship_tags[i : i + 6]))
        for i in range(0, 30, 6)
    ]
    report = _report_for_named(db, files, "shipapp")
    assert report.unused == 31
    assert report.identical == 30
    assert report.patterns == ("P",)


def _report_for_named(db, files, oss_id):
    t = fingerprint_files("t", files)
    reports = identify_components(t, db)
    by_id = {r.oss_id: r for r in reports}
    assert oss_id in by_id
    return by_id[oss_id]


# --- render_report ------------------------------------------------------


def test_render_json_schema_and_determinism():
    db, tags = _pattern_base_db()
    t = fingerprint_files(
        "demo-target", [("third_party/patterns/src/f0.c", source_file(tags[:6]))]
    )
    cfg = DetectorConfig()
    reports = identify_components(t, db, cfg)
    blob = render_report(reports, "json", t.target_id, cfg)
    assert blob == render_report(reports, "json", t.target_id, cfg)
    doc = json.loads(blob)
    assert list(doc.keys()) == ["target", "config", "components"]
    assert doc["target"] == "demo-target"
    assert doc["config"] == {"theta": 0.1, "cutoff": 30}
    component = doc["components"][0]
    assert list(component.keys()) == [
        "oss", "phi", "version", "patterns", "counts", "structure_changed", "evidence"
    ]
    assert component["oss"] == "patterns"
    assert component["counts"] == {"identical": 6, "modified": 0, "unused": 6}
    evidence = component["evidence"][0]
    assert list(evidence.keys()) == [
        "digest", "relation", "distance", "target_paths", "original_paths"
    ]
    digests = [e["digest"] for e in component["evidence"]]
    assert digests == sorted(digests)


def test_render_tsv_and_table():
    db, tags = _pattern_base_db()
    t = fingerprint_files("demo", [("third_party/patterns/src/f0.c", source_file(tags[:6]))])
    cfg = DetectorConfig()
    reports = identify_components(t, db, cfg)
    tsv = render_report(reports, "tsv", "demo", cfg).decode()
    lines = tsv.splitlines()
    assert lines[0].split("\t") == [
        "oss", "phi", "version", "patterns", "identical", "modified", "unused",
        "structure_changed",
    ]
    assert lines[1].startswith("patterns\t0.5000\tv1\tP\t")
    table = render_report(reports, "table", "demo", cfg).decode()
    assert "patterns" in table and "0.5000" in table
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(reports, "xml", "demo", cfg)


def test_exact_reuse_completeness_single_version_projects():
    # Verbatim copies of single-version projects score exactly 1 and
    # classify as pure exact reuse, across seeds.
    for seed in range(4):
        rng = random.Random(seed)
        tags = [f"er{seed}_{i}" for i in range(rng.randint(6, 14))]
        sig = build_sig_from_specs("solo", [("v1", "2019-04-01", {"src/all.c": tags})])
        db = _segmented(ComponentDb(signatures={"solo": sig}))
        t = fingerprint_files(
            "t", [("third_party/solo/src/all.c", source_file(tags))]
        )
        (report,) = identify_components(t, db)
        assert report.phi == 1
        assert report.patterns == ("E",)
        assert report.version_id == "v1"


def test_exact_reuse_of_one_version_with_churned_history():
    # With per-version churn the copied version cannot cover application
    # entries exclusive to other versions: the score stays below 1 while
    # the version vote and the pattern are still exact.
    sig = _versioned_sig()
    db = _segmented(ComponentDb(signatures={"verlib": sig}))
    v2_tags = ["base", "both12", "both23"]
    t = fingerprint_files("t", [("third_party/verlib/src/code.c", source_file(v2_tags))])
    (report,) = identify_components(t, db)
    assert report.version_id == "v2"
    assert report.patterns == ("E",)
    assert report.phi == Fraction(3, 6)
    assert report.unused == 0


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(theta=0)
    with pytest.raises(ValueError):
        DetectorConfig(theta=1)
    with pytest.raises(ValueError):
        DetectorConfig(cutoff=-1)
    with pytest.raises(ValueError):
        DetectorConfig(cutoff=True)
    cfg = DetectorConfig(theta="0.15", cutoff=10)
    assert cfg.theta == Fraction(3, 20)


def _reference_evidence(t, sig, version_id, index, cutoff):
    """Evidence from a per-signature `match_hashes` call over the version."""
    ordinal = sig.version_by_id(version_id).ordinal
    entries = [e for e in sig.entries.values() if ordinal in e.versions]
    paired = match_hashes((e.hash for e in entries), index, cutoff)
    return [
        MatchEvidence(
            digest=e.hash.digest,
            relation="IDENTICAL" if paired[e.hash][1] == 0 else "SIMILAR",
            distance=paired[e.hash][1],
            target_paths=tuple(sorted(t.functions[paired[e.hash][0]])),
            original_paths=tuple(sorted(e.paths[ordinal])),
        )
        for e in sorted(entries, key=lambda e: e.hash.digest)
        if e.hash in paired
    ]


def test_single_scan_equals_per_signature_reference(nested_db):
    db = _segmented(nested_db)
    rng = random.Random(12)

    def mutated(tags):
        variants = [evalkit.mutate_body(rng, c_function(tag)) for tag in tags]
        return b"\n\n".join(v for v in variants if v is not None)

    river = [f"river{i:02d}" for i in range(20)]
    rock = [f"rock{i:02d}" for i in range(10)]
    files = [
        ("vendor/river/a.c", source_file(river[:8])),
        ("vendor/river/b.c", mutated(river[8:14])),
        ("lib/rock.c", source_file(rock[:7])),
        ("lib/wander.c", mutated([f"wander{i:02d}" for i in range(3)])),
        ("own/main.c", source_file([f"target_own{i}" for i in range(5)])),
    ]
    t = fingerprint_files("t", files)
    index = HashIndex(t.functions)
    cfg = DetectorConfig()
    scored = {s.sig.oss_id: s for s in score_components(t, db, cfg.cutoff)}
    assert sorted(scored) == sorted(db.signatures)
    for oss_id, sig in db.signatures.items():
        matched = match_hashes(sig.app_entries, index, cfg.cutoff)
        assert scored[oss_id].matched == matched
        assert list(scored[oss_id].matched) == list(matched)
        assert scored[oss_id].phi == Fraction(len(matched), len(sig.app_entries))
    reports = identify_components(t, db, cfg)
    assert {r.oss_id for r in reports} >= {"riverlib", "rockbase"}
    assert any(e.relation == "SIMILAR" for r in reports for e in r.evidence)
    for report in reports:
        sig = db.signatures[report.oss_id]
        expected = _reference_evidence(t, sig, report.version_id, index, cfg.cutoff)
        assert report.evidence == expected
        assert report.identical + report.modified == len(expected)
