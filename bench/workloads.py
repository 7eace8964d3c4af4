"""Benchmark workloads: seeded corpus shapes and target plans.

Inputs are built only through `osscan.evalkit`'s public API, so the ground
truth that comes with every target is exact.  Two target sets exist:

* small -- repeated rounds of the evalkit default plan (every plant mode,
  nesting depth 2, the ripple case, single- and dual-plant targets), each
  round with fresh component picks;
* large -- 2 to 4 standalone components per target in mixed modes.

Both sets hold at least 110 targets, so a p90 over them has at least ten
samples beyond it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from osscan import evalkit
from osscan.evalkit import CorpusShape, PlantSpec

MIN_TARGETS = 110

Plan = list[tuple[str, list[PlantSpec]]]


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CorpusShape
    target_set: str  # "small" or "large"
    n_targets: int = MIN_TARGETS


def _shape(n_standalone: int, versions: int) -> CorpusShape:
    """Every standalone component gets the same number of versions and core
    functions, so that a workload's amount of work hardly depends on the
    seed: the seed varies the contents, not the size."""
    return CorpusShape(n_standalone=n_standalone, versions_min=versions,
                       versions_max=versions, core_funcs_min=18, core_funcs_max=18)


# What each workload stresses is said, with measured figures, in
# BENCHMARK.json.  The shapes are sized so that one run (two rounds of
# set-up, preprocess, segment, loads and every detection) stays within
# about 40 seconds on a 2-core machine.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ingest-deep", _shape(10, versions=14), "small"),
        Workload("segment-wide", _shape(44, versions=4), "small"),
        Workload("detect-large", _shape(24, versions=4), "large"),
    )
}
# the tiny corpus of `run.py --smoke`; not a workload of BENCHMARK.json
SMOKE = Workload("smoke", CorpusShape(n_standalone=3), "small", n_targets=22)
ALL = {**WORKLOADS, SMOKE.name: SMOKE}


def _standalone(corpus: evalkit.Corpus) -> list[str]:
    chained = {oss for chain in corpus.chains for oss in chain}
    return sorted(
        oss for oss, members in corpus.designed_members.items()
        if not members and oss not in chained
    )


def _versions(corpus: evalkit.Corpus, oss: str) -> list[str]:
    return corpus.projects[oss].version_ids


def _latest(corpus: evalkit.Corpus, oss: str) -> str:
    return corpus.projects[oss].latest_version


def _small_round(rng: random.Random, corpus: evalkit.Corpus, tag: str) -> Plan:
    """One copy of the evalkit default plan with fresh component picks."""
    standalone = _standalone(corpus)
    sampled = rng.sample(standalone, min(14, len(standalone)))
    pick = [sampled[i % len(sampled)] for i in range(14)]
    first = lambda oss: _versions(corpus, oss)[0]
    latest = lambda oss: _latest(corpus, oss)
    mid = lambda oss: _versions(corpus, oss)[len(_versions(corpus, oss)) // 2]
    # the dual target needs two distinct components
    partner = next((p for p in pick[5:] + pick if p != pick[2]), pick[2])
    plan: Plan = [
        ("t01_exact_a", [PlantSpec(pick[0], "EXACT", latest(pick[0]))]),
        ("t02_exact_b", [PlantSpec(pick[1], "EXACT", first(pick[1]))]),
        ("t03_exact_c", [PlantSpec(pick[2], "EXACT", mid(pick[2]))]),
        ("t04_exact_d", [PlantSpec(pick[3], "EXACT", latest(pick[3]))]),
        ("t05_partial_a", [PlantSpec(pick[4], "PARTIAL", latest(pick[4]), keep_ratio=0.5)]),
        ("t06_partial_b", [PlantSpec(pick[5], "PARTIAL", latest(pick[5]), keep_ratio=0.35)]),
        ("t07_partial_c", [PlantSpec(pick[6], "PARTIAL", mid(pick[6]), keep_ratio=0.7)]),
        ("t08_partial_d", [PlantSpec(pick[7], "PARTIAL", latest(pick[7]), keep_ratio=0.6)]),
        ("t09_struct_a", [PlantSpec(pick[8], "STRUCT_CHANGED", latest(pick[8]))]),
        ("t10_struct_b", [PlantSpec(pick[9], "STRUCT_CHANGED", first(pick[9]))]),
        ("t11_struct_c", [PlantSpec(pick[10], "STRUCT_CHANGED", latest(pick[10]))]),
        ("t12_code_a", [PlantSpec(pick[11], "CODE_CHANGED", latest(pick[11]), mutation_rate=0.1)]),
        ("t13_code_b", [PlantSpec(pick[12], "CODE_CHANGED", first(pick[12]), mutation_rate=0.15)]),
        ("t14_codemix_a", [PlantSpec(pick[11], "CODE_CHANGED", first(pick[11]),
                                     mutation_rate=0.1, mix_adjacent=2)]),
        ("t15_codemix_b", [PlantSpec(pick[13], "CODE_CHANGED", mid(pick[13]),
                                     mutation_rate=0.12, mix_adjacent=2)]),
        ("t16_dual", [
            PlantSpec(pick[2], "EXACT", latest(pick[2])),
            PlantSpec(partner, "PARTIAL", latest(partner), keep_ratio=0.5),
        ]),
        ("t17_junk_only", []),
    ]
    if corpus.chains:
        plan += [
            ("t18_nested_exact", [PlantSpec("topcrate", "NESTED", latest("topcrate"), depth=2)]),
            ("t19_nested_partial", [PlantSpec("topcrate", "PARTIAL", latest("topcrate"),
                                              keep_ratio=0.55)]),
            ("t20_nested_ripple", [PlantSpec("midshell", "NESTED", latest("midshell"), depth=1)]),
            ("t21_nested_b", [PlantSpec("outerring", "NESTED", latest("outerring"), depth=1)]),
            ("t22_nested_twin", [PlantSpec("twincrate", "PARTIAL", latest("twincrate"),
                                           keep_ratio=0.6)]),
        ]
    return [(f"{tag}_{tid}", specs) for tid, specs in plan]


def small_plan(rng: random.Random, corpus: evalkit.Corpus, n_targets: int) -> Plan:
    plan: Plan = []
    while len(plan) < n_targets:
        plan += _small_round(rng, corpus, f"r{len(plan) // 22:02d}")
    return plan


def _large_target(rng: random.Random, corpus: evalkit.Corpus) -> list[PlantSpec]:
    standalone = _standalone(corpus)
    chosen = rng.sample(standalone, min(len(standalone), rng.randint(2, 4)))
    specs = []
    struct_used = False
    for oss in chosen:
        versions = _versions(corpus, oss)
        version = rng.choice(versions)
        mode = rng.choice(("EXACT", "PARTIAL", "STRUCT_CHANGED", "CODE_CHANGED"))
        if mode == "STRUCT_CHANGED" and struct_used:
            mode = "EXACT"  # a second relocation would overwrite src/bundle_*.c
        if mode == "EXACT":
            specs.append(PlantSpec(oss, "EXACT", version))
        elif mode == "PARTIAL":
            specs.append(PlantSpec(oss, "PARTIAL", version,
                                   keep_ratio=rng.choice((0.4, 0.5, 0.6, 0.7, 0.8))))
        elif mode == "STRUCT_CHANGED":
            struct_used = True
            specs.append(PlantSpec(oss, "STRUCT_CHANGED", version))
        else:
            specs.append(PlantSpec(oss, "CODE_CHANGED", version,
                                   mutation_rate=rng.choice((0.1, 0.12, 0.15)),
                                   mix_adjacent=rng.choice((1, 2))))
    return specs


def large_plan(rng: random.Random, corpus: evalkit.Corpus, n_targets: int) -> Plan:
    return [(f"L{i:03d}", _large_target(rng, corpus)) for i in range(n_targets)]


def plant_paths(corpus: evalkit.Corpus, spec: PlantSpec) -> set[str]:
    """Every target path a plant may write, following evalkit's layout:
    whole-tree plants under third_party/<oss>/, function-level plants at
    each function's path there, relocations into src/bundle_<i>.c."""
    prefix = f"third_party/{spec.oss_id}"
    if spec.mode in ("EXACT", "NESTED"):
        return {f"{prefix}/{path}" for path, _ in corpus.render_version(spec.oss_id,
                                                                         spec.source_version)}
    fids = corpus.fids_in_version(spec.oss_id, spec.source_version)
    if spec.mode == "STRUCT_CHANGED":
        return {f"src/bundle_{i // 12}.c" for i in range(len(fids))}
    if spec.mode == "CODE_CHANGED" and spec.mix_adjacent >= 2:
        versions = _versions(corpus, spec.oss_id)
        idx = versions.index(spec.source_version)
        fids |= corpus.fids_in_version(spec.oss_id, versions[min(idx + 1, len(versions) - 1)])
    return {f"{prefix}/{corpus.path_of(spec.oss_id, fid)}" for fid in fids}


def check_plan(corpus: evalkit.Corpus, plan: Plan) -> None:
    """Reject a plan where two plants of one target write the same path."""
    ids = [tid for tid, _ in plan]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate target ids in plan")
    for tid, specs in plan:
        seen: dict[str, int] = {}
        for i, spec in enumerate(specs):
            for path in plant_paths(corpus, spec):
                if path in seen:
                    raise ValueError(
                        f"{tid}: plants {seen[path]} and {i} both write {path}"
                    )
                seen[path] = i


def build_plan(workload: Workload, seed: int, corpus: evalkit.Corpus) -> Plan:
    rng = random.Random(f"{workload.name}:{seed}")
    maker = small_plan if workload.target_set == "small" else large_plan
    plan = maker(rng, corpus, workload.n_targets)
    check_plan(corpus, plan)
    return plan


def plan_for(workload: Workload, seed: int, out_dir: Path) -> Plan:
    """The workload's target plan.  The corpus depends only on seed and
    shape, so generating it without plants yields the components the plan
    is drawn from."""
    corpus = evalkit.generate_corpus(seed, out_dir, workload.shape, plants=[]).corpus
    return build_plan(workload, seed, corpus)
