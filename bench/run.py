#!/usr/bin/env python3
"""End-to-end benchmark of the osscan pipeline.

Run from the repository root:

    python3 bench/run.py --workload ingest-deep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload detect-large --seed 1 --trace 1
    python3 bench/run.py --smoke      # self-check of the benchmark on a tiny corpus
    python3 bench/run.py --baseline   # unscored N=44/200 stage table (seed 7)

A workload run makes at least two rounds.  Each round generates the
inputs from the seed with `osscan.evalkit` in a child process (set-up,
timed separately), runs preprocess -> segment on them, then loads the DB
and detects every target, in chunks that each load the DB afresh; the outputs are checked against the ground truth
and every metric is printed with its unit.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 a
separate traced run gives the per-layer ones.  The program is imported
from the checkout's own `src/`; everything is written under
`.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program() -> None:
    """Put the checkout's src/ first on the path; refuse any other osscan."""
    package = SRC / "osscan"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import osscan

    if Path(osscan.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported osscan from {osscan.__file__}, not {package}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (the baseline defaults to 7)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of an untraced run (at least two rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the benchmark itself on a tiny corpus")
    parser.add_argument("--baseline", action="store_true",
                        help="print the unscored N=44/200 stage table")
    args = parser.parse_args(argv)
    import_program()
    import measure

    if args.smoke:
        import smoke

        return smoke.main()
    if args.baseline:
        import baseline

        return baseline.main(7 if args.seed is None else args.seed)
    if args.workload not in measure.workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(measure.workloads.WORKLOADS)}")
    if args.seed is None:
        parser.error("--seed is required with --workload")
    return measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
