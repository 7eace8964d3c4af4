"""Synthetic corpora with planted ground truth, and the automated
verification oracle.

The generator emits a deterministic (seeded) collection of fake C
projects: multi-version trees with staged release dates, vendored
sub-projects nested to a requested depth, a small pool of generic
functions shared between unrelated projects, and target trees realising
reuse plants (exact, partial, structure-changed, code-changed, nested).
Every planted mutation is validated against the fingerprint module at
generation time so code-changed functions stay within the similarity
cutoff.  Bookkeeping of which function identities land in which target
yields component-level ground truth with deliberate margins around the
detection threshold.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import logging
import random
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from . import fingerprint
from .detector import ComponentReport
from .extractor import normalize

logger = logging.getLogger(__name__)

PLANT_MODES = ("EXACT", "PARTIAL", "STRUCT_CHANGED", "CODE_CHANGED", "NESTED")

_EPOCH = datetime.date(2012, 1, 3)
_C_KEYWORDS = frozenset(
    "static long int char void const return for if else while unsigned".split()
)


class GeneratorError(RuntimeError):
    """Raised when a generated corpus violates its own design margins."""


@dataclass(frozen=True)
class PlantSpec:
    """One way a component is placed into a target tree."""

    oss_id: str
    mode: str
    source_version: str
    keep_ratio: float = 1.0
    mutation_rate: float = 0.0
    relocation: tuple[tuple[str, str], ...] | None = None
    depth: int = 1
    mix_adjacent: int = 1

    def __post_init__(self) -> None:
        if self.mode not in PLANT_MODES:
            raise ValueError(f"unknown plant mode {self.mode!r}")
        if not 0 < self.keep_ratio <= 1:
            raise ValueError(f"keep_ratio must be in (0, 1], got {self.keep_ratio}")
        if self.mode == "CODE_CHANGED" and not 0 < self.mutation_rate <= 1:
            raise ValueError(f"mutation rate must be in (0, 1], got {self.mutation_rate}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.mix_adjacent < 1:
            raise ValueError(f"mix_adjacent must be >= 1, got {self.mix_adjacent}")


def _plant_doc(plant: PlantSpec) -> dict:
    doc = dataclasses.asdict(plant)
    doc["oss"] = doc.pop("oss_id")
    return doc


def _plant_from_doc(doc: dict) -> PlantSpec:
    fields = dict(doc, relocation=tuple(map(tuple, doc["relocation"])) if doc["relocation"] else None)
    fields["oss_id"] = fields.pop("oss")
    return PlantSpec(**fields)


# The shape of a ground-truth document: a type is a JSON scalar (a float
# also takes an integer), [shape] an array of shape, {str: shape} an
# object of any keys, another dict an object of exactly its members, and
# (None, shape) null or shape.
_PLANT_SHAPE = {
    "oss": str, "mode": str, "source_version": str, "keep_ratio": float, "mutation_rate": float,
    "relocation": (None, [[str]]), "depth": int, "mix_adjacent": int,
}
_GROUND_TRUTH_SHAPE = {
    "targets": {str: [{"oss": str, "versions": [str], "patterns": (None, [str])}]},
    "plants": {str: [_PLANT_SHAPE]},
    "nested_targets": [str],
    "unsegmented_fps": {str: [str]},
    "ripple_targets": [str],
}
_JSON_KIND = {dict: "object", list: "array", str: "string", bool: "boolean", int: "number",
              float: "number", type(None): "null"}


def _check_shape(value: object, shape: object, where: str) -> None:
    """ValueError naming `where` unless `value` (from `json.loads`) has
    `shape` (see `_GROUND_TRUTH_SHAPE`)."""
    if isinstance(shape, tuple):
        if value is None:
            return
        shape = shape[1]
    kind = type(shape) if isinstance(shape, (list, dict)) else shape
    if type(value) is not kind and (kind, type(value)) != (float, int):
        raise ValueError(f"{where} is a JSON {_JSON_KIND[type(value)]}, not a JSON {_JSON_KIND[kind]}")
    if kind is list:
        for n, item in enumerate(value):
            _check_shape(item, shape[0], f"{where}[{n}]")
    elif kind is dict:
        members = dict.fromkeys(value, shape[str]) if str in shape else shape
        for key, member in members.items():
            if key not in value:
                raise ValueError(f"{where} has no {key!r} member")
            _check_shape(value[key], member, f"{where} {key!r}")
        unknown = sorted(value.keys() - members.keys())
        if unknown:
            raise ValueError(f"{where} has an unknown member {unknown[0]!r}")


@dataclass(frozen=True)
class GroundTruthEntry:
    oss_id: str
    version_candidates: tuple[str, ...]  # empty = version not asserted
    patterns: frozenset[str] | None      # None = patterns not asserted


@dataclass
class GroundTruth:
    """Expected detections per target, plus corpus structure used by
    ablation tests."""

    targets: dict[str, tuple[GroundTruthEntry, ...]] = field(default_factory=dict)
    plants: dict[str, tuple[PlantSpec, ...]] = field(default_factory=dict)
    nested_targets: frozenset[str] = frozenset()
    # target -> components sharing only borrowed code with it (the
    # false positives an unsegmented run is expected to add)
    unsegmented_fps: dict[str, frozenset[str]] = field(default_factory=dict)
    ripple_targets: frozenset[str] = frozenset()

    def expected_oss(self, target_id: str) -> frozenset[str]:
        return frozenset(e.oss_id for e in self.targets.get(target_id, ()))

    def to_json(self) -> str:
        doc = {
            "targets": {
                tid: [
                    {
                        "oss": e.oss_id,
                        "versions": list(e.version_candidates),
                        "patterns": sorted(e.patterns) if e.patterns is not None else None,
                    }
                    for e in entries
                ]
                for tid, entries in sorted(self.targets.items())
            },
            "plants": {
                tid: [_plant_doc(p) for p in plants] for tid, plants in sorted(self.plants.items())
            },
            "nested_targets": sorted(self.nested_targets),
            "unsegmented_fps": {
                tid: sorted(fps) for tid, fps in sorted(self.unsegmented_fps.items())
            },
            "ripple_targets": sorted(self.ripple_targets),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        """Read what `to_json` writes; ValueError for any other shape."""
        doc = json.loads(text)
        _check_shape(doc, _GROUND_TRUTH_SHAPE, "ground truth")
        return cls(
            targets={
                tid: tuple(
                    GroundTruthEntry(
                        e["oss"], tuple(e["versions"]),
                        None if e["patterns"] is None else frozenset(e["patterns"]),
                    )
                    for e in entries
                )
                for tid, entries in doc["targets"].items()
            },
            plants={tid: tuple(map(_plant_from_doc, ps)) for tid, ps in doc["plants"].items()},
            nested_targets=frozenset(doc["nested_targets"]),
            unsegmented_fps={tid: frozenset(fps) for tid, fps in doc["unsegmented_fps"].items()},
            ripple_targets=frozenset(doc["ripple_targets"]),
        )


# ---------------------------------------------------------------------------
# Function body grammar


_SYLLABLES = (
    "al", "ban", "cor", "dex", "el", "fan", "gor", "hul", "ind", "jar",
    "kel", "lor", "mund", "nex", "oss", "pal", "quon", "rov", "sil", "tor",
    "ur", "vex", "wol", "xan", "yor", "zur",
)


def _ident(rng: random.Random, parts: int = 2) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(parts))


def _statements(rng: random.Random, vars_: list[str]) -> list[str]:
    a, b, acc = vars_
    lines = []
    for _ in range(rng.randint(4, 7)):
        kind = rng.randrange(5)
        k = rng.randint(3, 9973)
        if kind == 0:
            lines.append(f"    {acc} += ({a} << {rng.randint(1, 7)}) + {k};")
        elif kind == 1:
            lines.append(f"    if ({acc} > {k}) {{ {acc} -= {a} % {rng.randint(3, 97)}; }}")
        elif kind == 2:
            i = f"i{rng.randint(0, 9)}"
            lines.append(
                f"    for (long {i} = 0; {i} < {rng.randint(2, 19)}; ++{i}) "
                f"{{ {acc} ^= {i} * {k}; }}"
            )
        elif kind == 3:
            lines.append(f"    {b} = ({b} + {acc}) & 0x{rng.randint(16, 65535):x};")
        else:
            lines.append(f"    {acc} = ({acc} ^ {b}) + ({a} * {k});")
    return lines


def make_body(rng: random.Random, name: str) -> bytes:
    """A unique, realistic C function definition, long enough for LSH."""
    vars_ = [f"v_{_ident(rng)}", f"v_{_ident(rng)}", f"v_{_ident(rng, 3)}"]
    while len(set(vars_)) < 3:  # identifiers must be distinct for renames
        vars_ = [f"v_{_ident(rng)}", f"v_{_ident(rng)}", f"v_{_ident(rng, 3)}"]
    a, b, acc = vars_
    lines = [
        f"static long {name}(long {a}, long {b}) {{",
        f"    long {acc} = ({a} * {rng.randint(3, 9973)}) ^ ({b} + {rng.randint(1, 997)});",
        *_statements(rng, vars_),
        f"    return {acc} ^ 0x{rng.getrandbits(32):08x};",
        "}",
    ]
    return "\n".join(lines).encode()


def make_short_body(rng: random.Random, name: str) -> bytes:
    """A function whose normalized text stays below the LSH minimum."""
    return f"int {name}(void){{return {rng.randint(0, 99)};}}".encode()


_IDENT_RE = re.compile(rb"v_[a-z]+")
_HEX_CONST_RE = re.compile(rb"0x[0-9a-f]{8}")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _same_length_ident(rng: random.Random, length: int) -> bytes:
    return ("v_" + "".join(rng.choice(_LETTERS) for _ in range(max(1, length - 2)))).encode()


def mutate_body(rng: random.Random, body: bytes) -> bytes | None:
    """A variant of `body` within (0, DEFAULT_CUTOFF] fingerprint distance.

    Candidate edits, cheapest churn first: rename a rarely-used identifier
    to a same-length one, tweak a hex constant, insert one statement.
    Returns None when nothing validates (short or degenerate bodies)."""
    base_hash = fingerprint.hash_function(normalize(body))
    if base_hash.scheme is not fingerprint.HashScheme.LSH:
        return None
    candidates: list[bytes] = []
    idents = sorted(set(_IDENT_RE.findall(body)), key=lambda s: (body.count(s), len(s), s))
    for old in idents[:3]:
        new = _same_length_ident(rng, len(old))
        if new != old and new not in body:
            candidates.append(re.sub(rb"\b" + re.escape(old) + rb"\b", new, body))
    const = _HEX_CONST_RE.search(body)
    if const is not None:
        old_const = const.group(0)
        digit = old_const[-1:]
        new_digit = b"7" if digit != b"7" else b"2"
        candidates.append(body.replace(old_const, old_const[:-1] + new_digit, 1))
    if idents:
        var = idents[0]
        insert = f"    {var.decode()} += {rng.randint(3, 997)};\n".encode()
        candidates.append(body.replace(b"    return", insert + b"    return", 1))
    for variant in candidates:
        variant_hash = fingerprint.hash_function(normalize(variant))
        if 0 < fingerprint.distance(base_hash, variant_hash) <= fingerprint.DEFAULT_CUTOFF:
            return variant
    return None


# ---------------------------------------------------------------------------
# Synthetic projects


def _files(
    fids: Iterable[str], path_of: Callable[[str], str], body_of: Callable[[str], bytes]
) -> list[tuple[str, bytes]]:
    """(path, bytes) of the files holding `fids`, in path order; a file's
    functions come in fid order, separated by blank lines."""
    grouped: dict[str, list[str]] = {}
    for fid in sorted(fids):
        grouped.setdefault(path_of(fid), []).append(fid)
    return [
        (path, b"\n\n".join(body_of(f) for f in group) + b"\n")
        for path, group in sorted(grouped.items())
    ]


@dataclass(frozen=True)
class Embed:
    oss_id: str
    version_id: str


@dataclass
class SynthProject:
    oss_id: str
    version_ids: list[str]
    dates: dict[str, datetime.date]
    bodies: dict[str, bytes]              # fid -> definition text
    home_path: dict[str, str]             # fid -> path inside this project
    members_by_version: dict[str, list[str]]  # version -> own fids present
    embeds: list[Embed] = field(default_factory=list)

    @property
    def latest_version(self) -> str:
        return max(self.version_ids, key=lambda v: (self.dates[v], v))


class Corpus:
    """In-memory registry of generated projects and the generic pool."""

    def __init__(self) -> None:
        self.projects: dict[str, SynthProject] = {}
        self.designed_members: dict[str, frozenset[str]] = {}
        self.chains: list[tuple[str, ...]] = []  # top-first chains

    def add(self, project: SynthProject, members: Iterable[str] = ()) -> None:
        self.projects[project.oss_id] = project
        self.designed_members[project.oss_id] = frozenset(members)

    def fids_in_version(self, oss_id: str, version_id: str) -> set[str]:
        """Distinct function identities of one version, embeds included."""
        project = self.projects[oss_id]
        fids = set(project.members_by_version[version_id])
        for embed in project.embeds:
            fids |= self.fids_in_version(embed.oss_id, embed.version_id)
        return fids

    def all_fids(self, oss_id: str) -> set[str]:
        project = self.projects[oss_id]
        fids: set[str] = set()
        for version_id in project.version_ids:
            fids |= self.fids_in_version(oss_id, version_id)
        return fids

    def app_fids(self, oss_id: str) -> set[str]:
        """Function identities that survive segmentation by design."""
        fids = self.all_fids(oss_id)
        for member in self.designed_members[oss_id]:
            fids -= self.all_fids(member)
        return fids

    def body_of(self, fid: str) -> bytes:
        for project in self.projects.values():
            if fid in project.bodies:
                return project.bodies[fid]
        raise KeyError(fid)

    def path_of(self, oss_id: str, fid: str) -> str:
        """Path of a fid inside one project's tree (through embeds)."""
        project = self.projects[oss_id]
        if fid in project.home_path:
            return project.home_path[fid]
        for embed in self.projects[oss_id].embeds:
            try:
                sub = self.path_of(embed.oss_id, fid)
            except KeyError:
                continue
            return f"third_party/{embed.oss_id}/{sub}"
        raise KeyError(f"{fid} not in {oss_id}")

    def render_version(self, oss_id: str, version_id: str) -> list[tuple[str, bytes]]:
        """(path, bytes) listing of one version tree, embeds vendored."""
        project = self.projects[oss_id]
        files = _files(
            project.members_by_version[version_id],
            project.home_path.__getitem__,
            project.bodies.__getitem__,
        )
        files.append(("README", f"{oss_id} reference notes rev-{version_id}\n".encode()))
        files.append(("LICENSE", f"{oss_id} permissive license text\n".encode()))
        for embed in project.embeds:
            for sub_path, data in self.render_version(embed.oss_id, embed.version_id):
                files.append((f"third_party/{embed.oss_id}/{sub_path}", data))
        files.sort()
        return files


def _gen_project(
    rng: random.Random,
    oss_id: str,
    base_date: datetime.date,
    n_versions: int,
    core_funcs: int,
    generic: Sequence[tuple[str, bytes]] = (),
    short_funcs: int = 0,
) -> SynthProject:
    """One multi-version project: a persistent core, functions added over
    time, and per-version exclusive (churned) functions."""
    version_ids = [f"v{1 + i}.{rng.randint(0, 9)}" for i in range(n_versions)]
    dates = {}
    day = base_date
    for vid in version_ids:
        dates[vid] = day
        day += datetime.timedelta(days=rng.randint(60, 150))

    bodies: dict[str, bytes] = {}
    home: dict[str, str] = {}
    serial = 0

    def new_fid(prefix: str) -> str:
        nonlocal serial
        serial += 1
        return f"{oss_id}.{prefix}{serial:03d}"

    core: list[str] = []
    for i in range(core_funcs):
        fid = new_fid("c")
        bodies[fid] = make_body(rng, f"fn_{oss_id}_{serial:03d}_{_ident(rng)}")
        home[fid] = f"{oss_id}.h" if i == 0 else f"src/{_ident(rng)}_{i // 4}.c"
        core.append(fid)
    for _ in range(short_funcs):
        fid = new_fid("s")
        bodies[fid] = make_short_body(rng, f"tiny_{oss_id}_{serial:03d}")
        home[fid] = "src/tiny.c"
        core.append(fid)

    bodies.update(generic)
    home.update((gid, "src/common.c") for gid, _ in generic)

    members: dict[str, list[str]] = {}
    carried = core + [gid for gid, _ in generic]
    for i, vid in enumerate(version_ids):
        if i > 0:
            for _ in range(2):  # functions added in this release and kept
                fid = new_fid("p")
                bodies[fid] = make_body(rng, f"fn_{oss_id}_{serial:03d}_{_ident(rng)}")
                home[fid] = f"src/added_{i}.c"
                carried = carried + [fid]
        exclusive = []
        for _ in range(2):  # functions only this release ships
            fid = new_fid("x")
            bodies[fid] = make_body(rng, f"fn_{oss_id}_{serial:03d}_{_ident(rng)}")
            home[fid] = f"src/staging_{i}.c"
            exclusive.append(fid)
        members[vid] = list(carried) + exclusive
    return SynthProject(
        oss_id=oss_id,
        version_ids=version_ids,
        dates=dates,
        bodies=bodies,
        home_path=home,
        members_by_version=members,
    )


# ---------------------------------------------------------------------------
# Corpus + target generation


@dataclass
class CorpusShape:
    n_standalone: int = 44
    versions_min: int = 3
    versions_max: int = 5
    core_funcs_min: int = 14
    core_funcs_max: int = 22
    short_func_rate: float = 0.25
    include_chains: bool = True


# Generic functions shared between unrelated projects, how many of them
# each standalone project takes, and each target's own functions.
_GENERIC_POOL = 8
_GENERIC_PER_PROJECT = 2
_JUNK_FUNCS = 8


@dataclass
class CorpusBundle:
    corpus_dir: Path
    targets_dir: Path
    manifest: list[tuple[str, Path]]
    target_manifest: list[tuple[str, Path]]
    ground_truth: GroundTruth
    corpus: Corpus


def _build_corpus(rng: random.Random, shape: CorpusShape) -> Corpus:
    corpus = Corpus()
    pool = []
    pool_rng = random.Random(rng.getrandbits(64))
    for i in range(_GENERIC_POOL):
        gid = f"generic.g{i:02d}"
        pool.append((gid, make_body(pool_rng, f"fn_generic_{i:02d}_{_ident(pool_rng)}")))

    used_ids = set()
    for i in range(shape.n_standalone):
        oss_id = f"{_ident(rng)}{i:02d}"
        while oss_id in used_ids:
            oss_id = f"{_ident(rng)}{i:02d}"
        used_ids.add(oss_id)
        sub = random.Random(rng.getrandbits(64))
        offset = sub.randrange(0, 1400)
        generic = pool[sub.randrange(len(pool)) :][:_GENERIC_PER_PROJECT]
        corpus.add(
            _gen_project(
                sub,
                oss_id,
                _EPOCH + datetime.timedelta(days=offset),
                n_versions=sub.randint(shape.versions_min, shape.versions_max),
                core_funcs=sub.randint(shape.core_funcs_min, shape.core_funcs_max),
                generic=generic,
                short_funcs=1 if sub.random() < shape.short_func_rate else 0,
            )
        )

    if shape.include_chains:
        def chained(oss_id: str, year: int, embeds: list[Embed], members: list[str],
                    core: int) -> SynthProject:
            sub = random.Random(rng.getrandbits(64))
            project = _gen_project(
                sub, oss_id, datetime.date(year, 2 + sub.randrange(6), 5),
                n_versions=3, core_funcs=core,
            )
            project.embeds = embeds
            corpus.add(project, members)
            return project

        deep = chained("deepcore", 2013, [], [], core=14)
        mid = chained(
            "midshell", 2015, [Embed("deepcore", deep.latest_version)], ["deepcore"],
            core=16,
        )
        chained(
            "topcrate", 2018, [Embed("midshell", mid.latest_version)],
            ["midshell", "deepcore"], core=18,
        )
        chained(
            "twincrate", 2019, [Embed("midshell", mid.latest_version)],
            ["midshell", "deepcore"], core=18,
        )
        corpus.chains.append(("topcrate", "midshell", "deepcore"))
        corpus.chains.append(("twincrate", "midshell", "deepcore"))

        b_inner = chained("basering", 2014, [], [], core=14)
        chained(
            "outerring", 2017, [Embed("basering", b_inner.latest_version)],
            ["basering"], core=16,
        )
        chained(
            "secondring", 2018, [Embed("basering", b_inner.latest_version)],
            ["basering"], core=16,
        )
        corpus.chains.append(("outerring", "basering"))
        corpus.chains.append(("secondring", "basering"))
    return corpus


@dataclass
class _TargetBuild:
    target_id: str
    plants: list[PlantSpec]
    files: list[tuple[str, bytes]]
    covered: set[str]  # fids planted exactly or as validated-similar variants
    entries: list[GroundTruthEntry]
    nested: bool = False
    ripple: bool = False


def _junk_files(rng: random.Random, target_id: str) -> list[tuple[str, bytes]]:
    bodies = [
        make_body(rng, f"fn_{target_id}_own{i:02d}_{_ident(rng)}") for i in range(_JUNK_FUNCS)
    ]
    half = max(1, len(bodies) // 2)
    return [
        ("app/main.c", b"\n\n".join(bodies[:half]) + b"\n"),
        ("app/util.c", b"\n\n".join(bodies[half:]) + b"\n"),
    ]


def _chain_entries(
    corpus: Corpus, oss_id: str, version_id: str, patterns: frozenset[str] | None
) -> list[GroundTruthEntry]:
    """Ground-truth rows for the embedded sub-projects of a full copy."""
    rows = []
    for embed in corpus.projects[oss_id].embeds:
        rows.append(
            GroundTruthEntry(
                oss_id=embed.oss_id,
                version_candidates=(embed.version_id,),
                patterns=patterns,
            )
        )
        rows.extend(_chain_entries(corpus, embed.oss_id, embed.version_id, patterns))
    return rows


def _mutate_some(
    rng: random.Random, corpus: Corpus, oss_id: str, fids: list[str], want: int
) -> dict[str, bytes]:
    """fid -> validated variant for up to `want` of the sorted `fids`, trying
    the functions of every version first so the mutation lands in each."""
    versions = corpus.projects[oss_id].version_ids
    everywhere = set.intersection(*(corpus.fids_in_version(oss_id, v) for v in versions))
    mutated: dict[str, bytes] = {}
    for fid in sorted(fids, key=lambda f: f not in everywhere):
        if len(mutated) >= want:
            break
        variant = mutate_body(rng, corpus.body_of(fid))
        if variant is not None:
            mutated[fid] = variant
    return mutated


def _realize_plant(
    rng: random.Random, corpus: Corpus, plant: PlantSpec, build: _TargetBuild
) -> None:
    project = corpus.projects[plant.oss_id]
    version = plant.source_version
    prefix = f"third_party/{plant.oss_id}"

    def vendored(fid: str) -> str:
        return f"{prefix}/{corpus.path_of(plant.oss_id, fid)}"

    if plant.mode in ("EXACT", "NESTED"):
        for path, data in corpus.render_version(plant.oss_id, version):
            build.files.append((f"{prefix}/{path}", data))
        build.covered.update(corpus.fids_in_version(plant.oss_id, version))
        build.entries.append(GroundTruthEntry(plant.oss_id, (version,), frozenset({"E"})))
        build.entries.extend(_chain_entries(corpus, plant.oss_id, version, frozenset({"E"})))
        return

    fids = sorted(corpus.fids_in_version(plant.oss_id, version))

    if plant.mode == "PARTIAL":
        k = min(round(len(fids) * plant.keep_ratio), len(fids) - 1)
        kept = rng.sample(fids, k)
        build.covered.update(kept)
        build.files.extend(_files(kept, vendored, corpus.body_of))
        build.entries.append(GroundTruthEntry(plant.oss_id, (), frozenset({"P"})))
        return

    if plant.mode == "STRUCT_CHANGED":
        bundle = {fid: f"src/bundle_{i // 12}.c" for i, fid in enumerate(fids)}
        build.covered.update(fids)
        build.files.extend(_files(fids, bundle.__getitem__, corpus.body_of))
        build.entries.append(GroundTruthEntry(plant.oss_id, (version,), frozenset({"SC"})))
        return

    if plant.mode == "CODE_CHANGED":
        pool = set(fids)
        candidates: tuple[str, ...] = (version,)
        if plant.mix_adjacent >= 2:
            idx = project.version_ids.index(version)
            nxt = project.version_ids[min(idx + 1, len(project.version_ids) - 1)]
            pool |= corpus.fids_in_version(plant.oss_id, nxt)
            candidates = (version, nxt)
        ordered = sorted(pool)
        want = max(1, round(len(ordered) * plant.mutation_rate))
        mutated = _mutate_some(rng, corpus, plant.oss_id, ordered, want)
        if not mutated:
            raise GeneratorError(f"could not mutate any function of {plant.oss_id}")
        build.covered.update(ordered)
        build.files.extend(_files(ordered, vendored, lambda f: mutated.get(f) or corpus.body_of(f)))
        build.entries.append(GroundTruthEntry(plant.oss_id, candidates, frozenset({"CC"})))
        return

    raise AssertionError(plant.mode)


def _default_plants(rng: random.Random, corpus: Corpus) -> list[tuple[str, list[PlantSpec]]]:
    chain_ids = {oss for chain in corpus.chains for oss in chain}
    standalone = sorted(
        oss for oss, members in corpus.designed_members.items()
        if not members and oss not in chain_ids
    )
    count = min(14, len(standalone))
    sampled = rng.sample(standalone, count)
    pick = [sampled[i % count] for i in range(14)]
    latest = lambda oss: corpus.projects[oss].latest_version
    first = lambda oss: corpus.projects[oss].version_ids[0]
    mid_version = lambda oss: corpus.projects[oss].version_ids[
        len(corpus.projects[oss].version_ids) // 2
    ]

    plan: list[tuple[str, list[PlantSpec]]] = [
        ("t01_exact_a", [PlantSpec(pick[0], "EXACT", latest(pick[0]))]),
        ("t02_exact_b", [PlantSpec(pick[1], "EXACT", first(pick[1]))]),
        ("t03_exact_c", [PlantSpec(pick[2], "EXACT", mid_version(pick[2]))]),
        ("t04_exact_d", [PlantSpec(pick[3], "EXACT", latest(pick[3]))]),
        ("t05_partial_a", [PlantSpec(pick[4], "PARTIAL", latest(pick[4]), keep_ratio=0.5)]),
        ("t06_partial_b", [PlantSpec(pick[5], "PARTIAL", latest(pick[5]), keep_ratio=0.35)]),
        ("t07_partial_c", [PlantSpec(pick[6], "PARTIAL", mid_version(pick[6]), keep_ratio=0.7)]),
        ("t08_partial_d", [PlantSpec(pick[7], "PARTIAL", latest(pick[7]), keep_ratio=0.6)]),
        ("t09_struct_a", [PlantSpec(pick[8], "STRUCT_CHANGED", latest(pick[8]))]),
        ("t10_struct_b", [PlantSpec(pick[9], "STRUCT_CHANGED", first(pick[9]))]),
        ("t11_struct_c", [PlantSpec(pick[10], "STRUCT_CHANGED", latest(pick[10]))]),
        ("t12_code_a", [PlantSpec(pick[11], "CODE_CHANGED", latest(pick[11]), mutation_rate=0.1)]),
        ("t13_code_b", [PlantSpec(pick[12], "CODE_CHANGED", first(pick[12]), mutation_rate=0.15)]),
        ("t14_codemix_a", [PlantSpec(pick[11], "CODE_CHANGED", first(pick[11]), mutation_rate=0.1, mix_adjacent=2)]),
        ("t15_codemix_b", [PlantSpec(pick[13], "CODE_CHANGED", mid_version(pick[13]), mutation_rate=0.12, mix_adjacent=2)]),
        ("t16_dual", [
            PlantSpec(pick[2], "EXACT", latest(pick[2])),
            PlantSpec(pick[5], "PARTIAL", latest(pick[5]), keep_ratio=0.5),
        ]),
        ("t17_junk_only", []),
    ]
    if corpus.chains:
        plan.extend(
            [
                ("t18_nested_exact", [PlantSpec("topcrate", "NESTED", latest("topcrate"), depth=2)]),
                ("t19_nested_partial", [PlantSpec("topcrate", "PARTIAL", latest("topcrate"), keep_ratio=0.55)]),
                ("t20_nested_ripple", [PlantSpec("midshell", "NESTED", latest("midshell"), depth=1)]),
                ("t21_nested_b", [PlantSpec("outerring", "NESTED", latest("outerring"), depth=1)]),
                ("t22_nested_twin", [PlantSpec("twincrate", "PARTIAL", latest("twincrate"), keep_ratio=0.6)]),
            ]
        )
    return plan


_THETA_DESIGN = 0.1
# Design ratios must stay clear of theta; the worst generic-pool overlap
# between unrelated projects is 2 entries over a >=26-entry app set.
_MARGIN_LOW = 0.08
_MARGIN_HIGH = 0.125


def _ground_truth_for(
    corpus: Corpus, builds: list[_TargetBuild]
) -> GroundTruth:
    gt = GroundTruth()
    app_fids = {oss: corpus.app_fids(oss) for oss in corpus.projects}
    all_fids = {oss: corpus.all_fids(oss) for oss in corpus.projects}
    chain_members = {oss for chain in corpus.chains for oss in chain}

    for build in builds:
        declared: dict[str, GroundTruthEntry] = {}
        for entry in build.entries:
            declared.setdefault(entry.oss_id, entry)
        expected: set[str] = set()
        unseg_extra: set[str] = set()
        for oss in corpus.projects:
            app = app_fids[oss]
            ratio = len(build.covered & app) / len(app) if app else 0.0
            if _MARGIN_LOW < ratio < _MARGIN_HIGH:
                raise GeneratorError(
                    f"{build.target_id}: ratio {ratio:.3f} for {oss} too close to theta"
                )
            if ratio >= _THETA_DESIGN:
                expected.add(oss)
            else:
                full = all_fids[oss]
                unseg_ratio = len(build.covered & full) / len(full)
                if unseg_ratio >= _THETA_DESIGN:
                    unseg_extra.add(oss)
        for oss in declared:
            if oss not in expected:
                raise GeneratorError(
                    f"{build.target_id}: planted component {oss} below theta"
                )
        gt.targets[build.target_id] = tuple(
            declared.get(oss, GroundTruthEntry(oss, (), None)) for oss in sorted(expected)
        )
        gt.plants[build.target_id] = tuple(build.plants)
        gt.unsegmented_fps[build.target_id] = frozenset(unseg_extra)
        if build.plants and any(p.oss_id in chain_members for p in build.plants):
            build.nested = True
        if build.nested and unseg_extra:
            share_only_borrowed = {
                oss for oss in unseg_extra if not (build.covered & app_fids[oss])
            }
            if share_only_borrowed:
                build.ripple = True
    gt.nested_targets = frozenset(b.target_id for b in builds if b.nested)
    gt.ripple_targets = frozenset(b.target_id for b in builds if b.ripple)
    return gt


def write_manifest(path: Path, entries: list[tuple[str, Path]]) -> None:
    base = path.parent
    lines = [f"{name}\t{p.relative_to(base).as_posix()}" for name, p in entries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_manifest(path: Path) -> list[tuple[str, Path]]:
    entries = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'id<TAB>path'")
        entries.append((parts[0], (path.parent / parts[1]).resolve()))
    return entries


def _write_tree(root: Path, files: Iterable[tuple[str, bytes]]) -> None:
    files = sorted(files)
    for parent in sorted({(root / rel).parent for rel, _ in files}):
        parent.mkdir(parents=True, exist_ok=True)
    for rel, data in files:
        (root / rel).write_bytes(data)


def generate_corpus(
    seed: int,
    out_dir: str | Path,
    shape: CorpusShape | None = None,
    plants: list[tuple[str, list[PlantSpec]]] | None = None,
) -> CorpusBundle:
    """Write a seeded corpus, target trees and ground truth under out_dir.

    Fixed seed and shape give byte-identical output.
    """
    shape = shape or CorpusShape()
    out = Path(out_dir)
    rng = random.Random(seed)
    corpus = _build_corpus(rng, shape)

    plan = plants if plants is not None else _default_plants(rng, corpus)
    builds: list[_TargetBuild] = []
    for target_id, specs in plan:
        t_rng = random.Random(rng.getrandbits(64))
        build = _TargetBuild(target_id, list(specs), files=[], covered=set(), entries=[])
        build.files.extend(_junk_files(t_rng, target_id))
        for spec in specs:
            _realize_plant(t_rng, corpus, spec, build)
        builds.append(build)

    ground_truth = _ground_truth_for(corpus, builds)

    corpus_dir = out / "corpus"
    targets_dir = out / "targets"
    manifest = []
    for oss_id in sorted(corpus.projects):
        project = corpus.projects[oss_id]
        oss_dir = corpus_dir / oss_id
        for version_id in project.version_ids:
            _write_tree(oss_dir / version_id, corpus.render_version(oss_id, version_id))
        meta_lines = [
            f"{vid}\t{project.dates[vid].isoformat()}" for vid in project.version_ids
        ]
        oss_dir.mkdir(parents=True, exist_ok=True)
        (oss_dir / "meta.tsv").write_text(
            "\n".join(meta_lines) + "\n", encoding="utf-8", newline="\n"
        )
        manifest.append((oss_id, oss_dir))
    write_manifest(corpus_dir / "manifest.tsv", manifest)

    target_manifest = []
    for build in builds:
        t_dir = targets_dir / build.target_id
        _write_tree(t_dir, build.files)
        target_manifest.append((build.target_id, t_dir))
    targets_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(targets_dir / "manifest.tsv", target_manifest)

    (out / "ground_truth.json").write_text(
        ground_truth.to_json(), encoding="utf-8", newline="\n"
    )
    return CorpusBundle(
        corpus_dir=corpus_dir,
        targets_dir=targets_dir,
        manifest=manifest,
        target_manifest=target_manifest,
        ground_truth=ground_truth,
        corpus=corpus,
    )


# ---------------------------------------------------------------------------
# Automated detection verification


@dataclass(frozen=True)
class VerificationVerdict:
    path_verified: bool
    header_verified: bool
    metadata_verified: bool


_METADATA_STEMS = frozenset({"readme", "license", "copying"})
_HEADER_SUFFIXES = frozenset({".h", ".hh", ".hpp"})


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_detection(
    reports: Sequence[ComponentReport],
    target_root: str | Path,
    component_dirs: Mapping[str, Path],
) -> dict[str, VerificationVerdict]:
    """Independent flags per detected component: its name in a reused
    path, a header file named after it, or one of its top-level metadata
    files reused byte-identically."""
    target_root = Path(target_root)
    target_files = [p for p in target_root.rglob("*") if p.is_file()]
    target_digests = {_file_digest(p) for p in target_files}
    header_stems = {
        p.stem.lower() for p in target_files if p.suffix.lower() in _HEADER_SUFFIXES
    }

    verdicts = {}
    for report in reports:
        needle = report.oss_id.lower()
        path_ok = any(
            needle in path.lower()
            for evidence in report.evidence
            for path in evidence.target_paths
        )
        header_ok = needle in header_stems
        metadata_ok = False
        oss_dir = component_dirs.get(report.oss_id)
        if oss_dir is not None:
            for version_dir in sorted(p for p in Path(oss_dir).iterdir() if p.is_dir()):
                for item in version_dir.iterdir():
                    if item.is_file() and item.stem.lower() in _METADATA_STEMS:
                        if _file_digest(item) in target_digests:
                            metadata_ok = True
        verdicts[report.oss_id] = VerificationVerdict(
            path_verified=path_ok,
            header_verified=header_ok,
            metadata_verified=metadata_ok,
        )
    return verdicts


# ---------------------------------------------------------------------------
# Lightweight single-project trials (version identification accuracy)


def run_mixed_version_trial(seed: int) -> tuple[str, tuple[str, str]]:
    """Plant a two-adjacent-version, code-changed reuse of one project and
    report (identified version, the mixed pair).  The version trees and the
    target are written to a temporary directory and removed afterwards."""
    from . import detector, segmenter, signature_store

    rng = random.Random(seed)
    oss_id = f"trial{seed % 1000:03d}"
    project = _gen_project(
        rng, oss_id, _EPOCH + datetime.timedelta(days=rng.randrange(1000)),
        n_versions=5, core_funcs=16,
    )
    corpus = Corpus()
    corpus.add(project)

    idx = rng.randrange(len(project.version_ids) - 1)
    v_lo, v_hi = project.version_ids[idx], project.version_ids[idx + 1]
    pool = sorted(corpus.fids_in_version(oss_id, v_lo) | corpus.fids_in_version(oss_id, v_hi))
    mutated = _mutate_some(rng, corpus, oss_id, pool, max(1, len(pool) // 10))
    target_files = _files(
        pool,
        lambda f: f"third_party/{oss_id}/{project.home_path[f]}",
        lambda f: mutated.get(f) or project.bodies[f],
    )

    metas = signature_store.make_version_meta(
        [(v, project.dates[v]) for v in project.version_ids]
    )
    with tempfile.TemporaryDirectory(prefix="osscan-trial-") as tmp:
        versions = []
        for meta in metas:
            tree = Path(tmp) / oss_id / meta.version_id
            _write_tree(tree, corpus.render_version(oss_id, meta.version_id))
            versions.append((meta, tree))
        sig = signature_store.build_signature(oss_id, versions)
        target = Path(tmp) / "target"
        _write_tree(target, target_files)
        t = detector.fingerprint_target(target, target_id=f"trial_target_{seed}")
    db = signature_store.ComponentDb(signatures={oss_id: sig})
    segmenter.apply_segmentation(db, segmenter.segment_all(db))
    reports = detector.identify_components(t, db)
    if not reports:
        raise GeneratorError(f"trial {seed}: component not detected")
    return reports[0].version_id, (v_lo, v_hi)
