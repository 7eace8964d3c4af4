"""Redundancy-eliminated component signatures and their on-disk database.

An OSS signature stores each distinct normalized function exactly once,
recording every path it occupies in each version it appears in; the
versions are the keys of that map, and their number is the entry's
conceptual bin.  This is lossless with respect to the naive per-version
table: expanding entries back to (version, hash, path) triples reproduces
the plain extraction exactly.

Database layout (UTF-8, LF line endings, one directory per component):

    <root>/db_meta.json        {"format":1,"hash":...,"exact":...,"cutoff":30}
    <root>/<oss_id>/meta.tsv   ordinal<TAB>version_id<TAB>YYYY-MM-DD
    <root>/<oss_id>/sig.jsonl  one entry per line, sorted by digest
    <root>/<oss_id>/app.txt    after segmentation: "prime:true|false",
                               then one application-entry digest per line

Entries are written sorted by digest, so identical inputs always produce
identical bytes and save -> load -> save is a fixpoint.
"""

from __future__ import annotations

import datetime
import json
import logging
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, KeysView, Sequence

from . import fingerprint
from .extractor import extract_functions
from .fingerprint import FuncHash

logger = logging.getLogger(__name__)

DB_FORMAT_VERSION = 1
EPOCH_DATE = datetime.date(1970, 1, 1)

_OSS_ID_RE = re.compile(r"[A-Za-z0-9._+-]+\Z")
# ASCII digits only: `\d` and `str.isdigit` also accept digits such as "²"
_ORDINAL_RE = re.compile(r"[0-9]+\Z")
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}\Z")


class SignatureError(ValueError):
    """Raised for invalid signature-building inputs."""


class DbFormatError(ValueError):
    """Raised when a stored database cannot be read back."""


@dataclass(frozen=True)
class VersionMeta:
    version_id: str
    release_date: datetime.date
    ordinal: int


@dataclass
class SignatureEntry:
    hash: FuncHash
    paths: dict[int, set[str]]  # version ordinal -> the entry's paths in that version

    @property
    def versions(self) -> KeysView[int]:
        """Ordinals of the versions containing the entry."""
        return self.paths.keys()


@dataclass
class OssSignature:
    oss_id: str
    version_meta: list[VersionMeta]
    entries: dict[FuncHash, SignatureEntry]
    app_entries: set[FuncHash] | None = None
    is_prime: bool | None = None

    @property
    def n_versions(self) -> int:
        return len(self.version_meta)

    @property
    def segmented(self) -> bool:
        return self.is_prime is not None

    def total_incidences(self) -> int:
        return sum(len(e.versions) for e in self.entries.values())

    def version_by_id(self, version_id: str) -> VersionMeta:
        for meta in self.version_meta:
            if meta.version_id == version_id:
                return meta
        raise KeyError(f"{self.oss_id} has no version {version_id!r}")


@dataclass
class DbMeta:
    """The header's one setting; its format and scheme ids are constants."""

    cutoff: int = fingerprint.DEFAULT_CUTOFF


@dataclass
class ComponentDb:
    signatures: dict[str, OssSignature] = field(default_factory=dict)
    meta: DbMeta = field(default_factory=DbMeta)
    # detection's index of the signatures, built on the first scoring call
    # and rebuilt when a signature or its entry sets are replaced
    scoring_index: object = field(default=None, init=False, repr=False, compare=False)

    def sorted_signatures(self) -> list[OssSignature]:
        return [self.signatures[k] for k in sorted(self.signatures)]


def make_version_meta(pairs: Iterable[tuple[str, datetime.date]]) -> list[VersionMeta]:
    """Assign ordinals in release order, date ties broken by version id."""
    metas = [
        VersionMeta(version_id=v, release_date=d, ordinal=i)
        for i, (v, d) in enumerate(sorted(pairs, key=lambda p: (p[1], p[0])))
    ]
    _check_version_order(metas)
    return metas


def _check_version_order(versions: Sequence[VersionMeta]) -> None:
    ids = set()
    for i, meta in enumerate(versions):
        if meta.ordinal != i:
            raise SignatureError(
                f"version ordinals must be 0..n-1 in order, got {meta.ordinal} at {i}"
            )
        if meta.version_id in ids:
            raise SignatureError(f"duplicate version_id {meta.version_id!r}")
        ids.add(meta.version_id)
    keys = [(m.release_date, m.version_id) for m in versions]
    if keys != sorted(keys):
        raise SignatureError("versions must be ordered by release date then version id")


def build_signature(
    oss_id: str,
    versions: Sequence[tuple[VersionMeta, str | Path]],
) -> OssSignature:
    """Extract, normalize and hash every version tree, merging identical
    functions across versions into single entries."""
    if not _OSS_ID_RE.match(oss_id):
        raise SignatureError(f"invalid oss_id {oss_id!r}")
    if not versions:
        raise SignatureError(f"empty OSS: {oss_id} has no versions")
    metas = [meta for meta, _ in versions]
    _check_version_order(metas)

    memo = fingerprint.HashMemo()  # a file or body repeated across versions is hashed once
    entries: dict[FuncHash, SignatureEntry] = {}
    for meta, tree in versions:
        functions = extract_functions(tree, memo.files)
        for func_hash, paths in fingerprint.hash_raw_functions(functions, memo).items():
            entry = entries.get(func_hash)
            if entry is None:
                entry = entries[func_hash] = SignatureEntry(hash=func_hash, paths={})
            entry.paths[meta.ordinal] = paths
    if not entries:
        raise SignatureError(f"empty OSS: {oss_id} has no extractable functions")
    return OssSignature(oss_id=oss_id, version_meta=list(metas), entries=entries)


def _parse_date(text: str) -> datetime.date | None:
    """The date `text` spells as YYYY-MM-DD, else None.  Depending on the
    Python version, `date.fromisoformat` alone also reads other ISO 8601
    forms, such as `2020-W01-1` and `20200101`."""
    if not _DATE_RE.match(text):
        return None
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:  # no such day, e.g. month 13
        return None


def _read_corpus_meta(oss_dir: Path) -> dict[str, datetime.date]:
    dates: dict[str, datetime.date] = {}
    meta_path = oss_dir / "meta.tsv"
    if not meta_path.is_file():
        return dates
    for lineno, line in enumerate(meta_path.read_text(encoding="utf-8").splitlines(), 1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{meta_path}:{lineno}: expected 'version_id<TAB>date'")
        if parts[0] in dates:
            raise ValueError(f"{meta_path}:{lineno}: repeated version {parts[0]!r}")
        release = _parse_date(parts[1])
        if release is None:
            raise ValueError(f"{meta_path}:{lineno}: release date {parts[1]!r} is not YYYY-MM-DD")
        dates[parts[0]] = release
    return dates


def build_component(oss_dir: str | Path) -> OssSignature:
    """Build the signature of one corpus component: `oss_dir` holds one
    directory per version and an optional `meta.tsv` of
    `version_id<TAB>YYYY-MM-DD` release dates.  A version without a date
    is dated EPOCH_DATE, with a warning."""
    oss_dir = Path(oss_dir)
    dates = _read_corpus_meta(oss_dir)
    version_dirs = sorted(p for p in oss_dir.iterdir() if p.is_dir())
    if not version_dirs:
        raise SignatureError(f"empty OSS: {oss_dir.name} has no version directories")
    pairs = []
    for version_dir in version_dirs:
        if version_dir.name in dates:
            release = dates[version_dir.name]
        else:
            logger.warning(
                "%s: no release date for %s, using %s",
                oss_dir.name, version_dir.name, EPOCH_DATE.isoformat(),
            )
            release = EPOCH_DATE
        pairs.append((version_dir.name, release))
    by_id = {p.name: p for p in version_dirs}
    versions = [(meta, by_id[meta.version_id]) for meta in make_version_meta(pairs)]
    return build_signature(oss_dir.name, versions)


def birth(entry: SignatureEntry, sig: OssSignature) -> datetime.date:
    """Release date of the earliest version containing the entry."""
    return min(sig.version_meta[o].release_date for o in entry.versions)


def dedup_ratio(db: ComponentDb, oss_id: str | None = None) -> Fraction:
    """Distinct entries over total function-version incidences, exactly."""
    if oss_id is not None:
        sigs = [db.signatures[oss_id]]
    else:
        sigs = list(db.signatures.values())
    entries = sum(len(s.entries) for s in sigs)
    incidences = sum(s.total_incidences() for s in sigs)
    if incidences == 0:
        raise SignatureError("no incidences recorded")
    return Fraction(entries, incidences)


def _meta_json(meta: DbMeta) -> str:
    doc = {
        "format": DB_FORMAT_VERSION,
        "hash": fingerprint.LSH_SCHEME_ID,
        "exact": fingerprint.EXACT_SCHEME_ID,
        "cutoff": meta.cutoff,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _entry_line(entry: SignatureEntry) -> str:
    versions = [
        {"o": o, "p": sorted(entry.paths[o])} for o in sorted(entry.versions)
    ]
    return json.dumps({"h": entry.hash.token(), "v": versions}, separators=(",", ":"))


def write_app_file(root: str | Path, sig: OssSignature) -> None:
    """Persist segmentation output (app.txt) for one signature."""
    if sig.is_prime is None or sig.app_entries is None:
        raise SignatureError(f"{sig.oss_id} has no segmentation result to save")
    path = Path(root) / sig.oss_id / "app.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["prime:true" if sig.is_prime else "prime:false"]
    lines.extend(sorted(h.digest for h in sig.app_entries))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def save_db(db: ComponentDb, root: str | Path) -> None:
    """Write `db` under `root`; a header `load_db` would reject writes nothing."""
    fingerprint.check_cutoff(db.meta.cutoff)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "db_meta.json").write_text(_meta_json(db.meta), encoding="utf-8", newline="\n")
    for sig in db.sorted_signatures():
        oss_dir = root / sig.oss_id
        oss_dir.mkdir(parents=True, exist_ok=True)
        meta_lines = [
            f"{m.ordinal}\t{m.version_id}\t{m.release_date.isoformat()}"
            for m in sig.version_meta
        ]
        (oss_dir / "meta.tsv").write_text(
            "\n".join(meta_lines) + "\n", encoding="utf-8", newline="\n"
        )
        entries = sorted(sig.entries.values(), key=lambda e: e.hash.digest)
        (oss_dir / "sig.jsonl").write_text(
            "".join(_entry_line(e) + "\n" for e in entries), encoding="utf-8", newline="\n"
        )
        if sig.is_prime is not None:
            write_app_file(root, sig)


def _load_meta(path: Path) -> DbMeta:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DbFormatError(f"{path}: unreadable db header: {exc}") from exc
    if not isinstance(doc, dict):
        raise DbFormatError(f"{path}: db header is not a JSON object")
    for key, want in (
        ("format", DB_FORMAT_VERSION),
        ("hash", fingerprint.LSH_SCHEME_ID),
        ("exact", fingerprint.EXACT_SCHEME_ID),
    ):
        got = doc.get(key)
        if type(got) is not type(want) or got != want:  # 1.0 and true equal 1
            raise DbFormatError(
                f"{path}: db {key} {got!r} incompatible with this build's {want!r}"
            )
    cutoff = doc.get("cutoff", fingerprint.DEFAULT_CUTOFF)
    try:
        return DbMeta(cutoff=fingerprint.check_cutoff(cutoff))
    except ValueError:
        raise DbFormatError(f"{path}: bad cutoff {cutoff!r}") from None


def _load_versions(path: Path) -> list[VersionMeta]:
    versions: list[VersionMeta] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        parts = line.split("\t")
        release = _parse_date(parts[2]) if len(parts) == 3 else None
        if release is None or not _ORDINAL_RE.match(parts[0]):
            raise DbFormatError(f"{path}:{lineno}: bad version line {line!r}")
        versions.append(
            VersionMeta(version_id=parts[1], release_date=release, ordinal=int(parts[0]))
        )
    try:
        _check_version_order(versions)
    except SignatureError as exc:
        raise DbFormatError(f"{path}: {exc}") from exc
    return versions


def _load_entries(path: Path, n_versions: int) -> dict[FuncHash, SignatureEntry]:
    entries: dict[FuncHash, SignatureEntry] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        try:
            doc = json.loads(line)
            func_hash = FuncHash.from_token(doc["h"])
            paths = {}
            for v in doc["v"]:
                o, p = v["o"], v["p"]
                if type(o) is not int or type(p) is not list or "" in p:
                    raise TypeError(f"bad version record {v!r}")
                "".join(p)  # TypeError on a path that is not a string
                paths[o] = set(p)
        except (ValueError, KeyError, TypeError) as exc:
            raise DbFormatError(f"{path}:{lineno}: corrupted entry: {exc}") from exc
        if len(paths) != len(doc["v"]):
            raise DbFormatError(f"{path}:{lineno}: repeated version ordinal")
        if not paths or not all(0 <= o < n_versions for o in paths):
            raise DbFormatError(f"{path}:{lineno}: version ordinal out of range")
        if any(not p for p in paths.values()):
            raise DbFormatError(f"{path}:{lineno}: empty path set")
        if func_hash in entries:
            raise DbFormatError(f"{path}:{lineno}: duplicate entry {doc['h']}")
        entries[func_hash] = SignatureEntry(hash=func_hash, paths=paths)
    return entries


def _load_app(path: Path, entries: dict[FuncHash, SignatureEntry]) -> tuple[bool, set[FuncHash]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] not in ("prime:true", "prime:false"):
        raise DbFormatError(f"{path}:1: expected 'prime:true' or 'prime:false'")
    is_prime = lines[0] == "prime:true"
    by_digest = {e.hash.digest: e.hash for e in entries.values()}
    app: set[FuncHash] = set()
    for lineno, digest in enumerate(lines[1:], 2):
        func_hash = by_digest.get(digest)
        if func_hash is None:
            raise DbFormatError(f"{path}:{lineno}: digest not in signature: {digest}")
        app.add(func_hash)
    return is_prime, app


def load_db(root: str | Path) -> ComponentDb:
    root = Path(root)
    meta = _load_meta(root / "db_meta.json")
    db = ComponentDb(meta=meta)
    for oss_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        sig_path = oss_dir / "sig.jsonl"
        meta_path = oss_dir / "meta.tsv"
        if not sig_path.is_file() or not meta_path.is_file():
            continue
        if not _OSS_ID_RE.match(oss_dir.name):
            raise DbFormatError(f"{oss_dir}: invalid oss_id {oss_dir.name!r}")
        versions = _load_versions(meta_path)
        entries = _load_entries(sig_path, len(versions))
        sig = OssSignature(oss_id=oss_dir.name, version_meta=versions, entries=entries)
        app_path = oss_dir / "app.txt"
        if app_path.is_file():
            sig.is_prime, sig.app_entries = _load_app(app_path, entries)
        db.signatures[sig.oss_id] = sig
    return db
