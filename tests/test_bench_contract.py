"""The benchmark's tracer must find every name it wraps in osscan.

`bench/spans.py` replaces public functions at the module attributes their
callers look up (for example `segmenter.match_hashes`) and runs counter
hooks on what they return.  A wrap point that is renamed or no longer
imported does not fail a traced benchmark run; it only reports the
per-layer metrics that depend on it as absent, and one that callers
bypass reads 0.  This test runs the pipeline under the tracer and
requires that nothing is missing or absent, that the matching, scoring and
segmentation counters saw the work, and that the extraction and hashing
counters equal the distinct work of each scope (one component build, one
target), counted here from the trees themselves.
"""

from __future__ import annotations

from pathlib import Path

from osscan import cli, detector, evalkit, extractor, signature_store

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _distinct_work(scopes: list[list[Path]]) -> dict[str, int]:
    """What hashing each scope's distinct file contents, raw bodies and
    normalized bodies once costs, summed over scopes (lists of trees)."""
    count = dict.fromkeys(("files", "functions", "normalize", "hashes", "digests"), 0)
    for trees in scopes:
        contents = {
            p.read_bytes() for tree in trees for _, p in extractor.list_source_files(tree)
        }
        functions = [f for data in contents for f in extractor.extract_from_source("x.c", data)]
        texts = {extractor.normalize(f.body) for f in functions} - {b""}
        count["files"] += len(contents)
        count["functions"] += len(functions)
        count["normalize"] += len({f.body for f in functions})
        count["hashes"] += len(texts)
        count["digests"] += sum(len(t) >= 50 for t in texts)
    return count


def test_traced_pipeline_finds_every_wrap_point(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    bundle = evalkit.generate_corpus(
        seed=5, out_dir=tmp_path, shape=evalkit.CorpusShape(n_standalone=3)
    )
    db_dir = tmp_path / "db"
    targets = bundle.target_manifest[:3]
    components = [c for c in sorted(bundle.corpus_dir.iterdir()) if c.is_dir()]
    want = _distinct_work(
        [[v for v in c.iterdir() if v.is_dir()] for c in components]
        + [[tree] for _, tree in targets]
    )
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.main(["preprocess", "--corpus", str(bundle.corpus_dir), "--db", str(db_dir)]) == 0
        # stage spans with the benchmark's groups, which segmenter.pair_scans reads
        with tracer.span("stage.segment", "segment"):
            assert cli.main(["segment", "--db", str(db_dir)]) == 0
        db = signature_store.load_db(db_dir)
        cfg = detector.DetectorConfig(cutoff=db.meta.cutoff)
        for tid, tree in targets:
            with tracer.span("stage.detect", f"target:{tid}"):
                t = detector.fingerprint_target(tree, target_id=tid)
                detector.render_report(detector.identify_components(t, db, cfg), "json", tid, cfg)
    assert tracer.missing == []
    values, absent = spans.layer_metrics(tracer)
    assert absent == []
    # a wrap point that is found but bypassed reads 0
    count = {name: value for name, (value, _) in values.items()}
    for name in (
        "extractor.files",
        "extractor.functions",
        "tlsh.digest_calls",
        "fingerprint.index_builds",
        "fingerprint.match_calls",
        "tlsh.distance_cells",
        "fingerprint.lsh_hashes",
        "detector.signatures_scored",
        "segmenter.app_entries",
        "segmenter.pair_scans",
    ):
        assert count[name] > 0, name
    assert count["segmenter.pair_scans"] == 1  # one self-scan per segmentation
    assert count["extractor.files"] == want["files"]
    assert count["extractor.functions"] == want["functions"]
    assert count["extractor.normalize_calls"] == want["normalize"]
    assert count["fingerprint.lsh_hashes"] + count["fingerprint.exact_hashes"] == want["hashes"]
    assert count["tlsh.digest_calls"] == want["digests"]
