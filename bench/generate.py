#!/usr/bin/env python3
"""Generate one workload's inputs in a process of their own.

    python3 bench/generate.py --workload segment-wide --seed 1 --out DIR --plan PLAN.json

Writes the corpus, the targets and the ground truth under DIR (which must
not exist yet), plus DIR/nonprime.json, the components designed with
possible members.  The target plan is read from PLAN.json; if that file
does not exist yet, the plan is drawn first (outside the timed part, from
a corpus written to PLAN.draw/) and written there, so that later set-ups
of the same run skip the draw.  The last stdout line gives the wall,
user-CPU and system-CPU seconds of the evalkit.generate_corpus call:
{"wall_s": ..., "user_s": ..., "sys_s": ...}.

The measuring process runs this as a child so that the generator's memory
never counts in its peak RSS.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import run


def _write_plan(path: Path, plan) -> None:
    doc = [[tid, [dataclasses.asdict(spec) for spec in specs]] for tid, specs in plan]
    path.write_text(json.dumps(doc), encoding="utf-8")


def _read_plan(path: Path):
    from osscan.evalkit import PlantSpec

    def spec(fields: dict) -> PlantSpec:
        if fields["relocation"] is not None:
            fields["relocation"] = tuple(tuple(pair) for pair in fields["relocation"])
        return PlantSpec(**fields)

    return [(tid, [spec(f) for f in specs])
            for tid, specs in json.loads(path.read_text(encoding="utf-8"))]


def write_inputs(seed: int, out: Path, shape, plan) -> dict[str, float]:
    """Generate into out (plan None: evalkit's default plan) and write
    out/nonprime.json; the wall and CPU seconds of evalkit.generate_corpus."""
    from osscan import evalkit

    before, t0 = resource.getrusage(resource.RUSAGE_SELF), perf_counter()
    bundle = evalkit.generate_corpus(seed, out, shape, plants=plan)
    after, t1 = resource.getrusage(resource.RUSAGE_SELF), perf_counter()
    times = {"wall_s": t1 - t0, "user_s": after.ru_utime - before.ru_utime,
             "sys_s": after.ru_stime - before.ru_stime}
    nonprime = sorted(oss for oss, members in bundle.corpus.designed_members.items() if members)
    (out / "nonprime.json").write_text(json.dumps(nonprime), encoding="utf-8")
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--plan", type=Path, required=True)
    args = parser.parse_args(argv)
    run.import_program()
    import workloads

    workload = workloads.ALL[args.workload]
    if args.out.exists():
        parser.error(f"{args.out} exists; set-up writes into a fresh directory")
    if not args.plan.is_file():
        # the draw's corpus is left for the caller to delete: a deletion
        # right before the timed generation would slow it down
        draw_dir = args.plan.with_suffix(".draw")
        _write_plan(args.plan, workloads.plan_for(workload, args.seed, draw_dir))
    times = write_inputs(args.seed, args.out, workload.shape, _read_plan(args.plan))
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
