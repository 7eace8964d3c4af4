"""The benchmark's tracer must find every name it wraps in osscan.

`bench/spans.py` replaces public functions at the module attributes their
callers look up (for example `segmenter.match_hashes`) and runs counter
hooks on what they return.  A wrap point that is renamed or no longer
imported does not fail a traced benchmark run; it only reports the
per-layer metrics that depend on it as absent, and one that callers
bypass reads 0.  This test runs the pipeline under the tracer and
requires that nothing is missing or absent and that the extraction and
hashing counters saw the work.
"""

from __future__ import annotations

from pathlib import Path

from osscan import cli, detector, evalkit, signature_store

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_pipeline_finds_every_wrap_point(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    bundle = evalkit.generate_corpus(
        seed=5, out_dir=tmp_path, shape=evalkit.CorpusShape(n_standalone=3)
    )
    db_dir = tmp_path / "db"
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.main(["preprocess", "--corpus", str(bundle.corpus_dir), "--db", str(db_dir)]) == 0
        assert cli.main(["segment", "--db", str(db_dir)]) == 0
        db = signature_store.load_db(db_dir)
        cfg = detector.DetectorConfig(cutoff=db.meta.cutoff)
        for tid, tree in bundle.target_manifest[:3]:
            t = detector.fingerprint_target(tree, target_id=tid)
            detector.render_report(detector.identify_components(t, db, cfg), "json", tid, cfg)
    assert tracer.missing == []
    values, absent = spans.layer_metrics(tracer)
    assert absent == []
    # a wrap point that is found but bypassed reads 0
    count = {name: value for name, (value, _) in values.items()}
    assert count["extractor.files"] > 0
    assert count["extractor.functions"] > 0
    assert count["tlsh.digest_calls"] > 0
    assert count["extractor.normalize_calls"] == count["extractor.functions"]
