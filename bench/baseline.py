"""Unscored stage table (`run.py --baseline`): the ROADMAP baseline.

For each size N, one run on `evalkit.CorpusShape(n_standalone=N)` with the
evalkit default 22-target plan: components, signature entries, preprocess
and segment wall time, and the mean detection time per target.  It is not
a workload and feeds no BENCHMARK.json metric.
"""

from __future__ import annotations

import shutil
import statistics

import pipeline
from generate import write_inputs
from measure import WORK
from osscan import evalkit

SIZES = (44, 200)  # the ROADMAP table's corpus sizes


def main(seed: int) -> int:
    work = WORK / "baseline"
    rows = []
    for n in SIZES:
        shutil.rmtree(work, ignore_errors=True)
        write_inputs(seed, work / "inputs", evalkit.CorpusShape(n_standalone=n), None)
        inputs = pipeline.Inputs.read(work / "inputs")
        ops = pipeline.Ops()
        pipe = pipeline.Pipeline(inputs, ops)
        db_dir = work / "db"
        pre = pipe.preprocess(db_dir)
        seg = pipe.segment(db_dir)
        _, db = pipe.load(db_dir)
        det = pipe.detect(db)
        entries = sum(len(sig.entries) for sig in db.signatures.values())
        rows.append((n, len(inputs.components), entries, pre, seg,
                     statistics.mean(det.latency_s.values()) * 1000,
                     f"{ops.failed}/{ops.attempted}"))
    shutil.rmtree(work, ignore_errors=True)
    print(f"seed {seed}, one run each")
    print("| N | components | entries | preprocess | segment | detect/target | failed ops |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for n, comps, entries, pre, seg, det_ms, failed in rows:
        print(f"| {n} | {comps} | {entries:,} | {pre:.2f} s | {seg:.2f} s | {det_ms:.0f} ms "
              f"| {failed} |")
    return 0
