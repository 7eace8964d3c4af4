"""One benchmark run of a workload: set-up, measured rounds, output checks
and metrics.  `run.py` puts the checkout's src/ on the path first."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

import pipeline
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Rounds per run; each round generates the inputs afresh (one setup_s
# sample), runs every stage on them and detects every target.  Metrics are
# medians over rounds, and a target's latency is the median of its
# detections, one per round: the host's speed drifts over seconds, and
# samples spread over the whole run average that out.  Generating the
# inputs is costly in system time, so a run makes two rounds unless
# --seconds leaves room for more.
MIN_ROUNDS = 2
MAX_ROUNDS = 9
# Each round's detections run in this many chunks, each on a DB freshly
# loaded with load_db; the timed loads spread over the detections likewise.
LOADS_PER_ROUND = 8
# A short segmentation is repeated within a round (on the same preprocessed
# DB, its app.txt files removed in between) until a round spends about this
# long in it, so that its median rests on more than two short samples.
SEGMENT_SECONDS = 1.0
MAX_SEGMENTS = 3


def _code_id() -> str:
    """Digest of the program and benchmark sources: runs of the same code
    and seed must produce the same DB and report bytes."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _check_digest_record(key: str, digests: dict[str, str]) -> str | None:
    """Compare with digests an earlier run of the same code and seed left
    in the checkout, then record these."""
    record_path = WORK / "digests.json"
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    earlier = record.get(key)
    record[key] = digests
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, record_path)
    if earlier is not None and earlier != digests:
        return f"digests differ from an earlier run of the same code and seed: {earlier}"
    return None


def _env() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Run:
    """One workload run: set-up, measured rounds, checks, metrics."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.ops = pipeline.Ops()
        self.errors: list[str] = []  # correctness failures that are not ops
        self.lines: list[str] = []   # human-readable summary

    def setup(self, k: int) -> dict[str, float]:
        """Generate the inputs of round k into a fresh directory and make
        them `self.inputs`; the generator's wall, user and system seconds.
        It runs in a child process, so that its memory stays out of this
        process's peak RSS.  Earlier rounds' inputs stay until the run
        ends, so that no deletion runs alongside a set-up."""
        inputs_dir = self.work / f"inputs{k}"
        done = subprocess.run(
            [sys.executable, str(BENCH / "generate.py"), "--workload", self.workload.name,
             "--seed", str(self.seed), "--out", str(inputs_dir),
             "--plan", str(self.work / "plan.json")],
            stdout=subprocess.PIPE, text=True, timeout=150, check=True,
            # evalkit.mutate_body breaks ties between identifiers in set
            # order, so the target trees it writes depend on the string hash
            # seed; a fixed one makes the inputs a function of --seed alone
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        self.inputs = pipeline.Inputs.read(inputs_dir)
        if k == 0:
            self.lines.append(f"inputs: {len(self.inputs.components)} components, "
                              f"{len(self.inputs.targets)} targets")
        return json.loads(done.stdout.splitlines()[-1])

    def pipeline_round(self, db_dir: Path, segments: int, targets) -> dict:
        """preprocess and `segments` segmentations into db_dir, then
        LOADS_PER_ROUND times a load_db call and the detection of the next
        chunk of `targets` on that DB: the stage times, the DB digest and
        the round's Detection under "det"."""
        pipe = pipeline.Pipeline(self.inputs, self.ops)
        out = {"preprocess": pipe.preprocess(db_dir), "segment": [], "loads": [],
               "det": pipeline.Detection()}
        for i in range(segments):
            if i:
                for app in db_dir.glob("*/app.txt"):
                    app.unlink()
            out["segment"].append(pipe.segment(db_dir))
        for i in range(LOADS_PER_ROUND):
            db = None  # the previous DB is freed before the next load
            seconds, db = pipe.load(db_dir)
            out["loads"].append(seconds)
            chunk = targets[i * len(targets) // LOADS_PER_ROUND:
                            (i + 1) * len(targets) // LOADS_PER_ROUND]
            pipe.detect(db, chunk, out["det"])
        out["digest"] = pipeline.tree_digest(db_dir)
        return out

    def check_digests(self, db_digests: list[str], reports: list[str]) -> None:
        if len(set(db_digests)) != 1:
            self.errors.append(f"DB bytes differ between rounds: {db_digests}")
        if len(set(reports)) != 1:
            self.errors.append(f"report bytes differ between passes: {reports}")
        digests = {"db": db_digests[0], "reports": reports[0]}
        self.lines.append(f"sha256 db={digests['db']} reports={digests['reports']}")
        key = f"{self.workload.name}|{self.seed}|{_code_id()}"
        problem = _check_digest_record(key, digests)
        if problem:
            self.errors.append(problem)

    def pattern_line(self, dets: list[pipeline.Detection]) -> None:
        self.lines.append(
            f"pattern agreement: {sum(d.pattern_agree for d in dets)}/"
            f"{sum(d.asserted_patterns for d in dets)} reported components "
            f"with a declared plant pattern, over {len(dets)} detection passes"
        )

    def measure(self, seconds: float) -> dict[str, tuple[float, str]]:
        """Untraced rounds for about `seconds`; end-to-end metrics."""
        started = perf_counter()
        rounds = []
        setups = []
        segments = 1
        while len(rounds) < MAX_ROUNDS:
            k = len(rounds)
            t0 = perf_counter()
            setups.append(self.setup(k))
            db_dir = self.work / f"db{k}"
            rounds.append(self.pipeline_round(db_dir, segments, self.inputs.targets))
            if k == 0:
                first = rounds[0]["segment"][0]
                segments = min(MAX_SEGMENTS, max(1, math.ceil(SEGMENT_SECONDS / first)))
            shutil.rmtree(db_dir)
            last = perf_counter() - t0
            if len(rounds) >= MIN_ROUNDS and perf_counter() - started + last > seconds:
                break
        dets = [r["det"] for r in rounds]
        samples: dict[str, list[float]] = {}
        payloads: dict[str, bytes] = {}
        for det in dets:
            for tid, latency in det.latency_s.items():
                samples.setdefault(tid, []).append(latency)
                if payloads.setdefault(tid, det.payloads[tid]) != det.payloads[tid]:
                    self.errors.append(f"{tid}: report bytes differ between rounds")
        latencies_ms = [statistics.median(v) * 1000 for v in samples.values()]
        detect_total = sum(latencies_ms) / 1000
        self.check_digests([r["digest"] for r in rounds], [pipeline.reports_digest(payloads)])
        self.pattern_line(dets)

        pre = statistics.median(r["preprocess"] for r in rounds)
        seg = statistics.median(s for r in rounds for s in r["segment"])
        loads = [s for r in rounds for s in r["loads"]]
        self.lines.append(
            f"rounds={len(rounds)} setup wall/user/sys: "
            + " ".join(f"{s['wall_s']:.3f}/{s['user_s']:.3f}/{s['sys_s']:.3f}" for s in setups)
            + " preprocess: "
            + " ".join(f"{r['preprocess']:.3f}" for r in rounds)
            + " segment: " + " ".join("/".join(f"{s:.3f}" for s in r["segment"]) for r in rounds)
            + f" loads={len(loads)}"
        )
        self.lines.append(
            f"detect: {sum(map(len, samples.values()))} detections of {len(samples)} "
            f"targets; p50/p90 over targets of each target's median; their sum "
            f"{detect_total:.3f}s"
        )
        ok = self.ops.attempted - self.ops.failed
        # setup_s is the generator's user CPU time: its system time, spent
        # creating thousands of directories and files, varies many times
        # over between minutes on the same machine (wall and system time
        # are printed above)
        return {
            "setup_s": (statistics.median(s["user_s"] for s in setups), "s"),
            "preprocess_s": (pre, "s"),
            "segment_s": (seg, "s"),
            "load_s": (statistics.median(loads), "s"),
            "detect_p50_ms": (statistics.median(latencies_ms), "ms"),
            "detect_p90_ms": (_p90(latencies_ms), "ms"),
            "pipeline_s": (pre + seg + detect_total, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": (ok / self.ops.attempted, "1"),
        }

    def traced(self) -> tuple[dict[str, tuple[float, str]], dict]:
        """Each step twice, untraced and then traced, so that the two sides
        of a pair run close in time; per-layer metrics come from the traced
        side, the tracing overhead is the difference of the two sides."""
        self.setup(0)
        tracer = spans.Tracer()
        sides = {"untraced": pipeline.Pipeline(self.inputs, self.ops),
                 "traced": pipeline.Pipeline(self.inputs, self.ops, tracer)}
        walls = {mode: dict.fromkeys(("preprocess", "segment", "load", "detect"), 0.0)
                 for mode in sides}
        dbs, dets = {}, {mode: pipeline.Detection() for mode in sides}

        def both(stage: str, step) -> None:
            for mode, pipe in sides.items():
                with tracer.installed() if mode == "traced" else contextlib.nullcontext():
                    walls[mode][stage] += step(mode, pipe)

        def load(mode, pipe) -> float:
            seconds, dbs[mode] = pipe.load(self.work / f"db_{mode}")
            return seconds

        def detect_one(target):
            def step(mode, pipe) -> float:
                pipe.detect(dbs[mode], [target], dets[mode])
                return dets[mode].latency_s.get(target[0], 0.0)
            return step

        both("preprocess", lambda mode, pipe: pipe.preprocess(self.work / f"db_{mode}"))
        both("segment", lambda mode, pipe: pipe.segment(self.work / f"db_{mode}"))
        both("load", load)
        for target in self.inputs.targets:
            both("detect", detect_one(target))
        for wall in walls.values():
            wall["pipeline"] = wall["preprocess"] + wall["segment"] + wall["detect"]
        digests = [pipeline.tree_digest(self.work / f"db_{mode}") for mode in sides]
        reports = [pipeline.reports_digest(dets[mode].payloads) for mode in sides]
        det = dets["traced"]
        self.check_digests(digests, reports)
        self.pattern_line([det])
        tracer.write(self.work / "spans.jsonl")

        metrics, absent = spans.layer_metrics(tracer)
        metrics["signature_store.db_bytes"] = (pipeline.tree_bytes(self.work / "db_traced"), "B")
        metrics["detector.pattern_agree"] = (det.pattern_agree, "count")
        overhead = walls["traced"]["pipeline"] - walls["untraced"]["pipeline"]
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        for stage in ("preprocess", "segment", "load", "detect"):
            self.lines.append(
                f"{stage}: untraced {walls['untraced'][stage]:.3f}s traced "
                f"{walls['traced'][stage]:.3f}s self-sum {tracer.stage_self_sum(stage):.3f}s"
            )
        self.lines.append(f"tracing overhead (traced - untraced pipeline_s): {overhead:.3f}s")
        if tracer.missing:
            self.lines.append("wrap points gone: " + " ".join(tracer.missing))
        self.lines.append("absent per-layer metrics: " + (" ".join(absent) or "none"))
        return metrics, {"walls": walls, "tracer": tracer, "detection": det, "absent": absent}

    def cleanup(self) -> None:
        """Remove generated inputs and DBs; keep the span file."""
        for path in self.work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        for problem in self.ops.problems[:20]:
            self.lines.append(f"FAILED {problem}")
        for error in self.errors:
            self.lines.append(f"ERROR {error}")
        self.lines.append(
            f"ops: attempted={self.ops.attempted} failed={self.ops.failed} "
            f"fail_ratio={self.ops.failed / self.ops.attempted:.6f}"
        )
        return {
            "correct": self.ops.failed == 0 and not self.errors,
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    """Print the run's summary, its environment and, last, the result JSON."""
    env = _env()
    env["loadavg_before"] = list(os.getloadavg())
    run = Run(workloads.WORKLOADS[name], seed, WORK / name)
    if traced:
        metrics, _ = run.traced()
    else:
        metrics = run.measure(seconds)
    result = run.result(metrics)
    env["loadavg_after"] = list(os.getloadavg())
    run.cleanup()
    for line in run.lines:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0
