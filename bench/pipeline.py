"""The user pipeline, stage by stage, through osscan's public entry points,
and the correctness gate that checks its outputs against ground truth.

preprocess and segment run `osscan.cli.main` as `osscan preprocess` and
`osscan segment` would; detection runs fingerprint_target ->
identify_components -> render_report on an already loaded DB, as
`osscan detect` does.  An op is one component build, one segmentation or
one detection; `Ops` counts those attempted and failed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from osscan import cli, detector, evalkit, segmenter, signature_store


@dataclass(frozen=True)
class Inputs:
    corpus_dir: Path
    components: tuple[str, ...]
    nonprime: frozenset[str]  # components designed with possible members
    targets: tuple[tuple[str, Path], ...]
    truth: evalkit.GroundTruth

    @classmethod
    def read(cls, out_dir: Path) -> "Inputs":
        """The inputs `generate.py` wrote under out_dir."""
        corpus_dir = out_dir / "corpus"
        return cls(
            corpus_dir=corpus_dir,
            components=tuple(oss for oss, _ in evalkit.read_manifest(corpus_dir / "manifest.tsv")),
            nonprime=frozenset(json.loads((out_dir / "nonprime.json").read_text(encoding="utf-8"))),
            targets=tuple(evalkit.read_manifest(out_dir / "targets" / "manifest.tsv")),
            truth=evalkit.GroundTruth.from_json(
                (out_dir / "ground_truth.json").read_text(encoding="utf-8")),
        )


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(problems)


@dataclass
class Verdict:
    problem: str | None
    asserted_patterns: int  # reported components whose plant declares a pattern
    pattern_agree: int      # ... and whose reported flags equal it


def check_report(payload: bytes, target_id: str, truth: evalkit.GroundTruth) -> Verdict:
    """A detection fails when its reported component set differs from the
    ground truth, or when it picks a version the ground truth excludes.
    Pattern agreement is counted, not failed: multi-plant targets share
    generic code, so the detector's flags may legitimately differ."""
    doc = json.loads(payload)
    got = {c["oss"]: c for c in doc["components"]}
    expected = truth.expected_oss(target_id)
    asserted = agree = 0
    if set(got) != expected:
        missing = sorted(expected - set(got))
        extra = sorted(set(got) - expected)
        return Verdict(f"{target_id}: missing {missing} extra {extra}", 0, 0)
    for entry in truth.targets.get(target_id, ()):
        report = got[entry.oss_id]
        if entry.version_candidates and report["version"] not in entry.version_candidates:
            return Verdict(
                f"{target_id}: {entry.oss_id} version {report['version']} "
                f"not in {list(entry.version_candidates)}", 0, 0,
            )
        if entry.patterns is not None:
            asserted += 1
            agree += set(report["patterns"]) == set(entry.patterns)
    return Verdict(None, asserted, agree)


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def reports_digest(payloads: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for tid in sorted(payloads):
        h.update(tid.encode() + b"\0" + payloads[tid])
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def settle() -> None:
    """Collect garbage left by earlier steps, so a timed step does not pay
    for collections of objects it did not allocate."""
    gc.collect()


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class Detection:
    latency_s: dict[str, float] = field(default_factory=dict)
    payloads: dict[str, bytes] = field(default_factory=dict)
    asserted_patterns: int = 0
    pattern_agree: int = 0


class Pipeline:
    """Runs and checks the stages on one set of inputs.  With a tracer,
    each stage is wrapped in a `stage.<name>` root span, and a stage's time
    is taken inside that span, so that it and the span cover one interval."""

    def __init__(self, inputs: Inputs, ops: Ops, tracer=None) -> None:
        self.inputs = inputs
        self.ops = ops
        self.tracer = tracer

    def _stage(self, name: str, group: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(f"stage.{name}", group)

    def preprocess(self, db_dir: Path) -> float:
        settle()
        with self._stage("preprocess", "preprocess"):
            t0 = perf_counter()
            rc = _run_cli(["preprocess", "--corpus", str(self.inputs.corpus_dir),
                           "--db", str(db_dir)])
            seconds = perf_counter() - t0
        built = {p.name for p in db_dir.iterdir() if (p / "sig.jsonl").is_file()}
        problems = [f"build {oss}: no signature" for oss in self.inputs.components
                    if oss not in built]
        if rc != 0 and not problems:
            problems = [f"preprocess exited {rc}"]
        self.ops.record(len(self.inputs.components), problems)
        return seconds

    def segment(self, db_dir: Path) -> float:
        settle()
        with self._stage("segment", "segment"):
            t0 = perf_counter()
            rc = _run_cli(["segment", "--db", str(db_dir)])
            seconds = perf_counter() - t0
        problems = []
        for oss in self.inputs.components:
            app = db_dir / oss / "app.txt"
            if rc != 0 or not app.is_file():
                problems.append(f"segment {oss}: no application code (exit {rc})")
                continue
            prime = app.read_text(encoding="utf-8").split("\n", 1)[0] == "prime:true"
            if prime == (oss in self.inputs.nonprime):
                problems.append(f"segment {oss}: prime={prime} against the corpus design")
        self.ops.record(len(self.inputs.components), problems)
        return seconds

    def load(self, db_dir: Path) -> tuple[float, signature_store.ComponentDb]:
        settle()
        with self._stage("load", "load"):
            t0 = perf_counter()
            db = signature_store.load_db(db_dir)
            seconds = perf_counter() - t0
        return seconds, db

    def detect(self, db: signature_store.ComponentDb, targets=None,
               out: Detection | None = None) -> Detection:
        """Detect each of `targets` (all by default), adding to `out`."""
        cfg = detector.DetectorConfig(theta=segmenter.DEFAULT_THETA, cutoff=db.meta.cutoff)
        targets = self.inputs.targets if targets is None else targets
        out = Detection() if out is None else out
        problems = []
        for tid, tree in targets:
            settle()
            try:
                with self._stage("detect", f"target:{tid}"):
                    t0 = perf_counter()
                    t = detector.fingerprint_target(tree, target_id=tid)
                    reports = detector.identify_components(t, db, cfg)
                    payload = detector.render_report(reports, "json", t.target_id, cfg)
                    seconds = perf_counter() - t0
            except Exception:  # a failed detection is counted, and the run goes on
                traceback.print_exc(file=sys.stderr)
                problems.append(f"{tid}: detection raised")
                continue
            out.latency_s[tid] = seconds
            out.payloads[tid] = payload
            verdict = check_report(payload, tid, self.inputs.truth)
            if verdict.problem:
                problems.append(verdict.problem)
            out.asserted_patterns += verdict.asserted_patterns
            out.pattern_agree += verdict.pattern_agree
        self.ops.record(len(targets), problems)
        return out
