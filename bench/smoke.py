"""Self-check of the benchmark on a tiny corpus (`run.py --smoke`).

Checks these and exits 1 if any fails:

1. every metric BENCHMARK.json names is printed, with the unit it declares,
   or (per-layer only) reported absent because its wrap point is gone;
2. the correctness gate flags deliberately corrupted reports;
3. in the traced pass, the self times of each stage's spans add up to that
   stage's wall time, within the tracing overhead measured for the stage;
4. the plan builder rejects two plants that write the same target path.
"""

from __future__ import annotations

import json

import pipeline
import workloads
from measure import BENCH, WORK, Run
from osscan import evalkit
from osscan.evalkit import PlantSpec



def _check_metrics(kind: str, printed: dict, declared: list[dict], absent: set[str]) -> list[str]:
    problems = []
    for metric in declared:
        got = printed.get(metric["name"])
        if got is None:
            if metric["name"] not in absent:
                problems.append(f"{kind} metric {metric['name']} not printed")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{kind} metric {metric['name']} unit {got['unit']} "
                            f"!= {metric['unit']}")
    extra = set(printed) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{kind} metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def _corruptions(payload: bytes) -> list[tuple[str, bytes]]:
    """Reports that must fail the gate: one component dropped, one version
    replaced by a version that does not exist."""
    doc = json.loads(payload)
    dropped = dict(doc, components=doc["components"][1:])
    renamed = dict(doc, components=[dict(doc["components"][0], version="v0.bogus")]
                   + doc["components"][1:])
    return [("component dropped", json.dumps(dropped).encode()),
            ("version replaced", json.dumps(renamed).encode())]


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = WORK / "smoke"
    problems: list[str] = []

    measured = Run(workloads.SMOKE, 1, work)
    result = measured.result(measured.measure(seconds=0))
    print("\n".join(measured.lines))
    if not result["correct"]:
        problems.append("untraced run not correct")
    problems += _check_metrics("end-to-end", result["metrics"], spec["end_to_end"], set())

    traced = Run(workloads.SMOKE, 1, work)
    metrics, info = traced.traced()
    layer = traced.result(metrics)
    print("\n".join(traced.lines))
    if not layer["correct"]:
        problems.append("traced run not correct")
    problems += _check_metrics("per-layer", layer["metrics"], spec["per_layer"],
                               set(info["absent"]))

    det = info["detection"]
    truth = traced.inputs.truth
    target = next(tid for tid, _ in traced.inputs.targets if truth.targets.get(tid))
    if pipeline.check_report(det.payloads[target], target, truth).problem:
        problems.append(f"gate rejects the genuine report of {target}")
    for what, bad in _corruptions(det.payloads[target]):
        if pipeline.check_report(bad, target, truth).problem is None:
            problems.append(f"gate accepts a corrupted report ({what})")

    walls, tracer = info["walls"], info["tracer"]
    for stage in ("preprocess", "segment", "load", "detect"):
        wall = walls["traced"][stage]
        self_sum = tracer.stage_self_sum(stage)
        tolerance = max(abs(wall - walls["untraced"][stage]), 0.001)
        if abs(self_sum - wall) > tolerance:
            problems.append(f"{stage}: self times sum to {self_sum:.4f}s, wall {wall:.4f}s, "
                            f"overhead {tolerance:.4f}s")
    if any(s < -1e-6 for s in tracer.self_times()):
        problems.append("negative self time in the span tree")

    corpus = evalkit.generate_corpus(1, work / "plan_check", workloads.SMOKE.shape, plants=[]).corpus
    a, b = sorted(traced.inputs.components)[:2]
    va, vb = corpus.projects[a].latest_version, corpus.projects[b].latest_version
    plans = {
        "two relocations": [PlantSpec(a, "STRUCT_CHANGED", va), PlantSpec(b, "STRUCT_CHANGED", vb)],
        "one component twice": [PlantSpec(a, "EXACT", va),
                                PlantSpec(a, "PARTIAL", va, keep_ratio=0.5)],
    }
    for what, specs in plans.items():
        try:
            workloads.check_plan(corpus, [("clash", specs)])
        except ValueError:
            continue
        problems.append(f"plan check accepts {what}")
    try:
        workloads.check_plan(corpus, [("fine", [PlantSpec(a, "EXACT", va),
                                                PlantSpec(b, "STRUCT_CHANGED", vb)])])
    except ValueError as exc:
        problems.append(f"plan check rejects a valid plan: {exc}")

    traced.cleanup()
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("SMOKE OK" if not problems else f"SMOKE FAILED ({len(problems)})")
    return 1 if problems else 0
