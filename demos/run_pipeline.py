"""Walkthrough: build a component database and detect reuse in targets.

Generates a small synthetic corpus with planted reuse, then runs the
whole pipeline in-process and prints what each stage produced.  Run from
the repository root:

    python demos/run_pipeline.py [workdir]
"""

import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from osscan import evalkit, detector, segmenter, signature_store
from osscan.detector import DetectorConfig


def main(workdir: Path) -> None:
    print("== 1. synthetic corpus with planted reuse ==")
    shape = evalkit.CorpusShape(n_standalone=8)
    bundle = evalkit.generate_corpus(seed=7, out_dir=workdir, shape=shape)
    print(f"components: {len(bundle.manifest)}, targets: {len(bundle.target_manifest)}")
    print(f"corpus layout under {bundle.corpus_dir}")

    print("\n== 2. signatures with redundancy elimination ==")
    db = signature_store.ComponentDb()
    for oss_id, oss_dir in bundle.manifest:
        db.signatures[oss_id] = signature_store.build_component(oss_dir)
    ratio = signature_store.dedup_ratio(db)
    total_entries = sum(len(s.entries) for s in db.signatures.values())
    total_incidences = sum(s.total_incidences() for s in db.signatures.values())
    print(f"{total_entries} distinct functions for {total_incidences} "
          f"function-version incidences (ratio {float(ratio):.2%})")
    signature_store.save_db(db, workdir / "db")

    print("\n== 3. code segmentation ==")
    results = segmenter.segment_all(db, theta=Fraction(1, 10), cutoff=30)
    segmenter.apply_segmentation(db, results)
    for oss_id in ("topcrate", "midshell", "deepcore"):
        r = results[oss_id]
        status = "prime" if r.is_prime else f"members: {', '.join(sorted(r.members))}"
        print(f"{oss_id:10s} {status}; application code "
              f"{len(r.app_entry_hashes)}/{len(db.signatures[oss_id].entries)} entries")

    print("\n== 4. detection ==")
    cfg = DetectorConfig()
    for tid in ("t01_exact_a", "t12_code_a", "t18_nested_exact", "t20_nested_ripple"):
        tdir = dict(bundle.target_manifest)[tid]
        t = detector.fingerprint_target(tdir, target_id=tid)
        reports = detector.identify_components(t, db, cfg)
        found = ", ".join(
            f"{r.oss_id}@{r.version_id} ({'+'.join(r.patterns)}, {float(r.phi):.0%})"
            for r in reports
        )
        print(f"{tid:18s} -> {found or 'nothing'}")

    print("\n== 5. why segmentation matters ==")
    tid = "t20_nested_ripple"  # reuses only the vendored middle of a chain
    t = detector.fingerprint_target(dict(bundle.target_manifest)[tid], target_id=tid)
    seg = [r.oss_id for r in detector.identify_components(t, db, cfg)]
    raw = [r.oss_id for r in detector.identify_components(t, db, cfg, use_segmentation=False)]
    print(f"with segmentation:    {seg}")
    print(f"without segmentation: {raw}  (siblings sharing the same vendored code)")

    print("\n== 6. verification oracle ==")
    reports = detector.identify_components(t, db, cfg)
    verdicts = evalkit.verify_detection(
        reports, dict(bundle.target_manifest)[tid], dict(bundle.manifest)
    )
    for oss_id, verdict in sorted(verdicts.items()):
        flags = [
            name
            for name, ok in (
                ("path", verdict.path_verified),
                ("header", verdict.header_verified),
                ("metadata", verdict.metadata_verified),
            )
            if ok
        ]
        print(f"{oss_id:10s} verified by: {', '.join(flags) or 'nothing (manual review)'}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory(prefix="osscan-demo-") as tmp:
            main(Path(tmp))
