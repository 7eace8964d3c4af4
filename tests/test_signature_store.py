from __future__ import annotations

import datetime
import random
from fractions import Fraction
from pathlib import Path

import pytest

from osscan import extractor, fingerprint, signature_store
from osscan.signature_store import (
    ComponentDb,
    DbFormatError,
    SignatureError,
    birth,
    build_signature,
    dedup_ratio,
    load_db,
    make_version_meta,
    save_db,
    write_app_file,
)

from conftest import build_sig_from_specs, c_function, date, source_file, write_tree
from oracles import naive_table_for_dir

GOLDEN_DB = Path(__file__).parent / "data" / "golden_db"


def test_make_version_meta_orders_by_date_then_id():
    metas = make_version_meta(
        [("v2", date("2020-01-01")), ("v1", date("2019-06-01")), ("v1.5", date("2020-01-01"))]
    )
    assert [(m.ordinal, m.version_id) for m in metas] == [
        (0, "v1"), (1, "v1.5"), (2, "v2")
    ]


def test_make_version_meta_rejects_duplicates():
    with pytest.raises(SignatureError, match="duplicate version_id"):
        make_version_meta([("v1", date("2019-01-01")), ("v1", date("2020-01-01"))])


def test_build_single_version_two_functions():
    sig = build_sig_from_specs("solo", [("v1", "2020-01-01", {"a.c": ["one", "two"]})])
    assert len(sig.entries) == 2
    assert all(e.versions == {0} for e in sig.entries.values())
    assert sig.app_entries is None and sig.is_prime is None


def test_build_merges_identical_functions_across_versions():
    sig = build_sig_from_specs(
        "merge",
        [
            ("v1", "2020-01-01", {"a.c": ["keep", "gone"]}),
            ("v2", "2020-06-01", {"a.c": ["keep", "new"]}),
        ],
    )
    assert len(sig.entries) == 3
    by_versions = sorted(tuple(sorted(e.versions)) for e in sig.entries.values())
    assert by_versions == [(0,), (0, 1), (1,)]
    assert sig.total_incidences() == 4


def test_duplicate_paths_within_version_recorded_once_per_version():
    sig = build_sig_from_specs(
        "dupe", [("v1", "2020-01-01", {"a.c": ["same"], "b.c": ["same"]})]
    )
    entry = next(iter(sig.entries.values()))
    assert entry.versions == {0}
    assert entry.paths[0] == {"a.c", "b.c"}
    assert sig.total_incidences() == 1


def test_build_hashes_each_distinct_file_and_body_once(tmp_path: Path, monkeypatch):
    kept = source_file(["one", "two"])  # copied under two paths, unchanged in v2
    spaced = c_function("one").replace(b";", b"; ")  # another raw form of "one"
    versions = {
        "v1": {"a.c": kept, "copy/a.c": kept, "b.c": source_file(["three", "shared"])},
        "v2": {"a.c": kept, "c.c": source_file(["shared", "four"]), "d.c": spaced + b"\n"},
    }
    metas = make_version_meta([("v1", date("2020-01-01")), ("v2", date("2020-06-01"))])
    trees = [(m, write_tree(tmp_path / m.version_id, versions[m.version_id])) for m in metas]
    alone = [
        build_signature("memo", [(make_version_meta([(m.version_id, m.release_date)])[0], tree)])
        for m, tree in trees
    ]
    contents = {data for files in versions.values() for data in files.values()}
    raw = {f.body for data in contents for f in extractor.extract_from_source("x.c", data)}
    texts = {extractor.normalize(body) for body in raw}
    assert (len(contents), len(raw), len(texts)) == (4, 6, 5)
    one = fingerprint.hash_function(extractor.normalize(c_function("one")))

    calls: list[tuple[str, bytes]] = []
    for module, name in (
        (extractor, "extract_from_source"),
        (fingerprint, "normalize"),
        (fingerprint, "hash_function"),
    ):
        def wrapper(*args, _name=name, _original=getattr(module, name)):
            calls.append((_name, args[-1]))
            return _original(*args)

        monkeypatch.setattr(module, name, wrapper)

    sig = build_signature("memo", trees)
    want = {"extract_from_source": contents, "normalize": raw, "hash_function": texts}
    for name, inputs in want.items():
        assert sorted(arg for n, arg in calls if n == name) == sorted(inputs), name

    # the entries and paths of building each version alone
    for (meta, _), single in zip(trees, alone):
        here = {h: e.paths[meta.ordinal] for h, e in sig.entries.items() if meta.ordinal in e.paths}
        assert here == {h: e.paths[0] for h, e in single.entries.items()}
    assert sig.entries[one].paths == {0: {"a.c", "copy/a.c"}, 1: {"a.c", "d.c"}}

    # the memo lives for one call: a second build extracts every content again
    calls.clear()
    build_signature("memo", trees)
    assert sorted(arg for n, arg in calls if n == "extract_from_source") == sorted(contents)


def test_empty_oss_rejected(tmp_path: Path):
    write_tree(tmp_path / "v1", {"notes.txt": b"no code"})
    metas = make_version_meta([("v1", date("2020-01-01"))])
    with pytest.raises(SignatureError, match="empty OSS"):
        build_signature("hollow", [(metas[0], tmp_path / "v1")])


def test_bad_ordinals_rejected(tmp_path: Path):
    tree = write_tree(tmp_path / "v1", {"a.c": source_file(["x"])})
    meta = signature_store.VersionMeta("v1", date("2020-01-01"), ordinal=1)
    with pytest.raises(SignatureError, match="ordinals"):
        build_signature("bad", [(meta, tree)])


def test_invalid_oss_id_rejected(tmp_path: Path):
    tree = write_tree(tmp_path / "v1", {"a.c": source_file(["x"])})
    metas = make_version_meta([("v1", date("2020-01-01"))])
    with pytest.raises(SignatureError, match="invalid oss_id"):
        build_signature("no/slash", [(metas[0], tree)])


def test_five_version_signature_matches_naive_oracle(tmp_path: Path):
    # Oracle: flat per-version table built independently of the merging path.
    rng = random.Random(17)
    oss_dir = tmp_path / "proj"
    core = [f"core{i:02d}" for i in range(16)]
    meta_lines = []
    day = date("2018-03-01")
    for v in range(5):
        tags = list(core)
        for extra in range(rng.randint(1, 3)):
            tags.append(f"extra_v{v}_{extra}")
        files = {f"src/m{i // 6}.c": [] for i in range(len(tags))}
        for i, tag in enumerate(tags):
            files[f"src/m{i // 6}.c"].append(tag)
        write_tree(
            oss_dir / f"v{v}", {p: source_file(ts) for p, ts in files.items()}
        )
        meta_lines.append(f"v{v}\t{day.isoformat()}")
        day += datetime.timedelta(days=90)
    (oss_dir / "meta.tsv").write_text("\n".join(meta_lines) + "\n")

    table = naive_table_for_dir(oss_dir)
    metas = make_version_meta(
        [(v, d) for v, d in table.versions]
    )
    sig = build_signature("proj", [(m, oss_dir / m.version_id) for m in metas])

    assert len(sig.entries) == len(table.hashes())
    assert sig.total_incidences() == len(table.incidences())
    expanded = {
        (o, e.hash, p)
        for e in sig.entries.values()
        for o in e.versions
        for p in e.paths[o]
    }
    assert expanded == table.triples()  # losslessness
    for e in sig.entries.values():
        assert birth(e, sig) == table.birth(e.hash)
    assert dedup_ratio(ComponentDb(signatures={"proj": sig})) == Fraction(
        len(table.hashes()), len(table.incidences())
    )


def test_birth_minimum_and_single():
    sig = build_sig_from_specs(
        "birth",
        [
            ("v1", "2019-01-01", {"a.c": ["old", "both"]}),
            ("v2", "2020-06-01", {"a.c": ["both", "young"]}),
        ],
    )
    by_tag = {}
    for e in sig.entries.values():
        if e.versions == {0, 1}:
            by_tag["both"] = e
        elif e.versions == {0}:
            by_tag["old"] = e
        else:
            by_tag["young"] = e
    assert birth(by_tag["both"], sig) == date("2019-01-01")
    assert birth(by_tag["old"], sig) == date("2019-01-01")
    assert birth(by_tag["young"], sig) == date("2020-06-01")


def test_dedup_ratio_exact_fraction():
    sig = build_sig_from_specs(
        "ratio",
        [
            ("v1", "2020-01-01", {"a.c": ["a", "b"]}),
            ("v2", "2020-02-01", {"a.c": ["a", "b"]}),
            ("v3", "2020-03-01", {"a.c": ["a", "c"]}),
        ],
    )
    db = ComponentDb(signatures={"ratio": sig})
    assert dedup_ratio(db) == Fraction(3, 6)
    assert dedup_ratio(db, "ratio") == Fraction(1, 2)


def _two_sig_db() -> ComponentDb:
    alpha = build_sig_from_specs(
        "alpha",
        [
            ("v1", "2019-01-01", {"src/a.c": ["a1", "a2"], "src/b.c": ["a3"]}),
            ("v2", "2019-09-01", {"src/a.c": ["a1", "a2"], "src/b.c": ["a4"]}),
        ],
    )
    beta = build_sig_from_specs(
        "beta", [("r1", "2020-05-05", {"lib/x.c": ["b1", "b2", "tiny"]})]
    )
    return ComponentDb(signatures={"alpha": alpha, "beta": beta})


def test_save_load_roundtrip_structural(tmp_path: Path):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    loaded = load_db(tmp_path / "db")
    assert set(loaded.signatures) == {"alpha", "beta"}
    assert loaded.meta == db.meta
    for oss_id, sig in db.signatures.items():
        other = loaded.signatures[oss_id]
        assert other.version_meta == sig.version_meta
        assert set(other.entries) == set(sig.entries)
        for h, entry in sig.entries.items():
            assert other.entries[h].versions == entry.versions
            assert other.entries[h].paths == entry.paths
        assert other.is_prime is None and other.app_entries is None


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


def test_save_load_save_fixpoint(tmp_path: Path):
    db = _two_sig_db()
    db.signatures["alpha"].is_prime = True
    db.signatures["alpha"].app_entries = set(db.signatures["alpha"].entries)
    save_db(db, tmp_path / "one")
    reloaded = load_db(tmp_path / "one")
    save_db(reloaded, tmp_path / "two")
    assert _tree_bytes(tmp_path / "one") == _tree_bytes(tmp_path / "two")


def test_entries_sorted_by_digest_on_disk(tmp_path: Path):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    for oss in ("alpha", "beta"):
        lines = (tmp_path / "db" / oss / "sig.jsonl").read_text().splitlines()
        digests = [line.split('"')[3].split(":")[1] for line in lines]
        assert digests == sorted(digests)


def test_load_rejects_future_format(tmp_path: Path):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    meta = tmp_path / "db" / "db_meta.json"
    meta.write_text(meta.read_text().replace('"format":1', '"format":2'))
    with pytest.raises(DbFormatError) as err:
        load_db(tmp_path / "db")
    assert "2" in str(err.value) and "1" in str(err.value)


@pytest.mark.parametrize("cutoff", [-1, True, 2.0])
def test_save_rejects_cutoff_that_load_rejects(tmp_path: Path, cutoff):
    db = _two_sig_db()
    db.meta.cutoff = cutoff
    with pytest.raises(ValueError, match="cutoff"):
        save_db(db, tmp_path / "db")
    assert not (tmp_path / "db").exists()


def test_load_rejects_non_integer_cutoff(tmp_path: Path):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    meta = tmp_path / "db" / "db_meta.json"
    meta.write_text(meta.read_text().replace('"cutoff":30', '"cutoff":true'))
    with pytest.raises(DbFormatError, match="bad cutoff"):
        load_db(tmp_path / "db")


@pytest.mark.parametrize("value", ["true", "1.0"])
def test_load_rejects_format_of_wrong_type(tmp_path: Path, value: str):
    # both equal 1 under ==, but a JSON bool or float is not format 1
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    meta = tmp_path / "db" / "db_meta.json"
    meta.write_text(meta.read_text().replace('"format":1', f'"format":{value}'))
    with pytest.raises(DbFormatError, match="incompatible"):
        load_db(tmp_path / "db")


def test_load_rejects_wrong_hash_scheme(tmp_path: Path):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    meta = tmp_path / "db" / "db_meta.json"
    meta.write_text(meta.read_text().replace("TLSH/128b-1cs-70h-min50", "TLSH/other"))
    with pytest.raises(DbFormatError, match="incompatible"):
        load_db(tmp_path / "db")


def test_load_rejects_wrong_exact_scheme(tmp_path: Path):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    meta = tmp_path / "db" / "db_meta.json"
    meta.write_text(meta.read_text().replace("SHA256/64h", "SHA1/40h"))
    with pytest.raises(DbFormatError, match="exact 'SHA1/40h' incompatible"):
        load_db(tmp_path / "db")


@pytest.mark.parametrize("header", ["[]", "30", '"db"', "null"])
def test_load_rejects_header_that_is_not_an_object(tmp_path: Path, header: str):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    (tmp_path / "db" / "db_meta.json").write_text(header + "\n")
    with pytest.raises(DbFormatError, match="not a JSON object"):
        load_db(tmp_path / "db")


def test_load_reports_corrupted_line_with_location(tmp_path: Path):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    sig_file = tmp_path / "db" / "alpha" / "sig.jsonl"
    lines = sig_file.read_text().splitlines()
    lines[1] = '{"h":"lsh:zz"}'
    sig_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(DbFormatError, match=r"sig\.jsonl:2"):
        load_db(tmp_path / "db")


def test_load_rejects_repeated_version_ordinal(tmp_path: Path):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    sig_file = tmp_path / "db" / "alpha" / "sig.jsonl"
    lines = sig_file.read_text().splitlines()
    digest = lines[0].split('"')[3]
    lines[0] = f'{{"h":"{digest}","v":[{{"o":0,"p":["a.c"]}},{{"o":0,"p":["b.c"]}}]}}'
    sig_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(DbFormatError, match=r"sig\.jsonl:1: repeated version ordinal"):
        load_db(tmp_path / "db")


@pytest.mark.parametrize(
    "record",
    [
        '{"o":0,"p":"src/a.c"}',
        '{"o":true,"p":["src/a.c"]}',
        '{"o":0.9,"p":["src/a.c"]}',
        '{"o":"1","p":["src/a.c"]}',
        '{"o":0,"p":["src/a.c",7]}',
        '{"o":0,"p":[""]}',
    ],
    ids=["path-string", "ordinal-bool", "ordinal-float", "ordinal-string", "path-int",
         "path-empty"],
)
def test_load_rejects_mistyped_version_record(tmp_path: Path, record: str):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    sig_file = tmp_path / "db" / "alpha" / "sig.jsonl"
    lines = sig_file.read_text().splitlines()
    token = lines[0].split('"')[3]
    lines[0] = f'{{"h":"{token}","v":[{record}]}}'
    sig_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(DbFormatError, match=r"sig\.jsonl:1: "):
        load_db(tmp_path / "db")


@pytest.mark.parametrize(
    "line",
    ["\u00b2\tv1\t2019-01-01", "0\tv1\t\uff12019-01-01", "0\tv1\t2019-13-01"],
    ids=["superscript-ordinal", "fullwidth-date", "no-such-month"],
)
def test_load_rejects_non_ascii_digits_in_version_line(tmp_path: Path, line: str):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    meta_file = tmp_path / "db" / "alpha" / "meta.tsv"
    lines = meta_file.read_text().splitlines()
    assert lines[0] == "0\tv1\t2019-01-01"
    meta_file.write_text("\n".join([line] + lines[1:]) + "\n", encoding="utf-8")
    with pytest.raises(DbFormatError, match=r"meta\.tsv:1: bad version line"):
        load_db(tmp_path / "db")


def test_load_rejects_directory_that_is_not_an_oss_id(tmp_path: Path):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    (tmp_path / "db" / "alpha").rename(tmp_path / "db" / "bad name")
    with pytest.raises(DbFormatError, match="invalid oss_id 'bad name'"):
        load_db(tmp_path / "db")


def test_load_rejects_unknown_app_digest(tmp_path: Path):
    db = _two_sig_db()
    save_db(db, tmp_path / "db")
    (tmp_path / "db" / "alpha" / "app.txt").write_text("prime:true\n" + "0" * 70 + "\n")
    with pytest.raises(DbFormatError, match=r"app\.txt:2"):
        load_db(tmp_path / "db")


def test_write_app_file_requires_segmentation(tmp_path: Path):
    db = _two_sig_db()
    with pytest.raises(SignatureError, match="no segmentation result"):
        write_app_file(tmp_path, db.signatures["alpha"])


def test_golden_db_fixture_loads_with_known_counts():
    # Golden fixture generated once by the implementation and reviewed;
    # guards the on-disk format against accidental drift.
    db = load_db(GOLDEN_DB)
    assert set(db.signatures) == {"brook", "pebble"}
    brook = db.signatures["brook"]
    assert [m.version_id for m in brook.version_meta] == ["v1", "v2"]
    assert len(brook.entries) == 4
    assert brook.total_incidences() == 6
    assert brook.is_prime is True
    assert brook.app_entries is not None and len(brook.app_entries) == 4
    pebble = db.signatures["pebble"]
    assert len(pebble.entries) == 3
    assert pebble.is_prime is None
    assert db.meta.cutoff == 30


def test_golden_db_resave_is_byte_identical(tmp_path: Path):
    db = load_db(GOLDEN_DB)
    save_db(db, tmp_path / "copy")
    assert _tree_bytes(tmp_path / "copy") == _tree_bytes(GOLDEN_DB)
