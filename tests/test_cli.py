from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from osscan import evalkit
from osscan.cli import main

SMALL = evalkit.CorpusShape(n_standalone=6)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("cli")
    bundle = evalkit.generate_corpus(seed=31, out_dir=root, shape=SMALL)
    return {"root": root, "bundle": bundle}


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


def test_preprocess_segment_detect_roundtrip(workspace, capsys):
    root, bundle = workspace["root"], workspace["bundle"]
    db_dir = root / "db"
    assert main(["preprocess", "--corpus", str(root / "corpus"), "--db", str(db_dir)]) == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out and "dedup=" in out
    assert (db_dir / "db_meta.json").is_file()

    assert main(["segment", "--db", str(db_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("prime=")
    app_files = list(db_dir.glob("*/app.txt"))
    assert len(app_files) == len(bundle.manifest)

    target = dict(bundle.target_manifest)["t01_exact_a"]
    report_path = root / "report.json"
    assert main(
        ["detect", "--db", str(db_dir), "--target", str(target), "--out", str(report_path)]
    ) == 0
    doc = json.loads(report_path.read_text())
    expected = bundle.ground_truth.expected_oss("t01_exact_a")
    assert {c["oss"] for c in doc["components"]} == expected
    assert doc["config"] == {"theta": 0.1, "cutoff": 30}


def test_detect_empty_result_is_success(workspace, capsys):
    root, bundle = workspace["root"], workspace["bundle"]
    target = dict(bundle.target_manifest)["t17_junk_only"]
    assert main(["detect", "--db", str(root / "db"), "--target", str(target)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"] == []


def test_detect_table_and_tsv_formats(workspace, capsys):
    root, bundle = workspace["root"], workspace["bundle"]
    target = dict(bundle.target_manifest)["t05_partial_a"]
    assert main(
        ["detect", "--db", str(root / "db"), "--target", str(target), "--format", "tsv"]
    ) == 0
    tsv = capsys.readouterr().out
    assert tsv.splitlines()[0].startswith("oss\tphi\t")
    assert main(
        ["detect", "--db", str(root / "db"), "--target", str(target), "--format", "table"]
    ) == 0
    assert "oss" in capsys.readouterr().out


def test_pipeline_idempotent_byte_identical(workspace, capsys):
    root = workspace["root"]
    for name in ("db_a", "db_b"):
        assert main(["preprocess", "--corpus", str(root / "corpus"), "--db", str(root / name)]) == 0
        assert main(["segment", "--db", str(root / name)]) == 0
    capsys.readouterr()
    assert _tree_bytes(root / "db_a") == _tree_bytes(root / "db_b")


def test_preprocess_partial_failure_exit_2(workspace, tmp_path, capsys):
    root = workspace["root"]
    corpus_copy = tmp_path / "corpus"
    shutil.copytree(root / "corpus", corpus_copy)
    (corpus_copy / "hollow").mkdir()
    assert main(["preprocess", "--corpus", str(corpus_copy), "--db", str(tmp_path / "db")]) == 2
    captured = capsys.readouterr()
    assert "hollow" in captured.err
    assert "TOTAL" in captured.out  # the rest was still processed


def test_preprocess_rejects_negative_cutoff(workspace, tmp_path, capsys):
    root = workspace["root"]
    db_dir = tmp_path / "db"
    args = ["preprocess", "--corpus", str(root / "corpus"), "--db", str(db_dir), "--cutoff", "-1"]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (db_dir / "db_meta.json").exists()


def test_detect_on_unsegmented_db_fails(workspace, tmp_path, capsys):
    root, bundle = workspace["root"], workspace["bundle"]
    assert main(["preprocess", "--corpus", str(root / "corpus"), "--db", str(tmp_path / "db")]) == 0
    capsys.readouterr()
    target = dict(bundle.target_manifest)["t01_exact_a"]
    assert main(["detect", "--db", str(tmp_path / "db"), "--target", str(target)]) == 1
    assert "run segmentation first" in capsys.readouterr().err


def test_segment_reports_header_that_is_not_an_object(tmp_path, capsys):
    (tmp_path / "db").mkdir()
    (tmp_path / "db" / "db_meta.json").write_text("[]\n")
    assert main(["segment", "--db", str(tmp_path / "db")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_detect_rejects_bad_theta(workspace, capsys):
    root, bundle = workspace["root"], workspace["bundle"]
    target = dict(bundle.target_manifest)["t01_exact_a"]
    assert main(
        ["detect", "--db", str(root / "db"), "--target", str(target), "--theta", "1.5"]
    ) == 1
    assert "theta" in capsys.readouterr().err


def test_detect_missing_db_fails(workspace, tmp_path, capsys):
    assert main(["detect", "--db", str(tmp_path / "no_db"), "--target", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_theta_sweep_table(workspace, capsys):
    root = workspace["root"]
    code = main(
        [
            "theta-sweep",
            "--db", str(root / "db"),
            "--targets", str(root / "targets" / "manifest.tsv"),
            "--grid", "0,0.05,0.1,0.2",
            "--ground-truth", str(root / "ground_truth.json"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta\tdetected\tcorrect\tproportion"
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0.00", "0.05", "0.10", "0.20"]
    detected = [int(r[1]) for r in rows]
    assert detected == sorted(detected, reverse=True)
    proportions = [float(r[3]) for r in rows]
    assert proportions[2] > proportions[0]


def test_missing_release_date_uses_epoch_with_warning(tmp_path, capsys, caplog):
    corpus = tmp_path / "corpus" / "nodates"
    corpus.mkdir(parents=True)
    (corpus / "v1" / "src").mkdir(parents=True)
    (corpus / "v1" / "src" / "a.c").write_bytes(b"int f(void){return 1;}")
    # no meta.tsv at all
    with caplog.at_level("WARNING"):
        assert main(["preprocess", "--corpus", str(tmp_path / "corpus"), "--db", str(tmp_path / "db")]) == 0
    capsys.readouterr()
    assert any("1970-01-01" in rec.getMessage() for rec in caplog.records)
    meta = (tmp_path / "db" / "nodates" / "meta.tsv").read_text()
    assert meta == "0\tv1\t1970-01-01\n"


def test_detect_never_mutates_db(workspace, capsys):
    root, bundle = workspace["root"], workspace["bundle"]
    before = _tree_bytes(root / "db")
    target = dict(bundle.target_manifest)["t09_struct_a"]
    assert main(["detect", "--db", str(root / "db"), "--target", str(target)]) == 0
    capsys.readouterr()
    assert _tree_bytes(root / "db") == before


def test_theta_sweep_without_ground_truth(workspace, capsys):
    root = workspace["root"]
    assert main(
        ["theta-sweep", "--db", str(root / "db"), "--targets",
         str(root / "targets" / "manifest.tsv"), "--grid", "0.1,0.2"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta\tdetected"
    assert len(lines) == 3


def test_theta_sweep_rejects_bad_grid(workspace, capsys):
    root = workspace["root"]
    assert main(
        ["theta-sweep", "--db", str(root / "db"), "--targets",
         str(root / "targets" / "manifest.tsv"), "--grid", "0.2,1.5"]
    ) == 1
    assert "grid" in capsys.readouterr().err


# --- collect ------------------------------------------------------------


def _make_git_repo(path: Path) -> None:
    env_args = ["-c", "user.name=tester", "-c", "user.email=t@example.org"]
    subprocess.run(["git", "init", "-q", str(path)], check=True)
    (path / "lib.c").write_bytes(b"int one(void){return 1;}\n")
    subprocess.run(["git", "-C", str(path), "add", "."], check=True)
    subprocess.run(
        ["git", "-C", str(path), *env_args, "commit", "-q", "-m", "first"],
        check=True,
        env={"GIT_AUTHOR_DATE": "2020-01-05T10:00:00", "GIT_COMMITTER_DATE": "2020-01-05T10:00:00", "PATH": "/usr/bin:/bin"},
    )
    subprocess.run(["git", "-C", str(path), "tag", "v1.0"], check=True)
    (path / "lib.c").write_bytes(b"int one(void){return 1;}\nint two(void){return 2;}\n")
    subprocess.run(["git", "-C", str(path), "add", "."], check=True)
    subprocess.run(
        ["git", "-C", str(path), *env_args, "commit", "-q", "-m", "second"],
        check=True,
        env={"GIT_AUTHOR_DATE": "2021-03-09T10:00:00", "GIT_COMMITTER_DATE": "2021-03-09T10:00:00", "PATH": "/usr/bin:/bin"},
    )
    subprocess.run(["git", "-C", str(path), "tag", "v2.0"], check=True)


needs_git = pytest.mark.skipif(shutil.which("git") is None, reason="git unavailable")


@needs_git
def test_collect_exports_tagged_versions(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _make_git_repo(repo)
    out = tmp_path / "collected"
    assert main(["collect", "--git", str(repo), "--out", str(out)]) == 0
    oss_dir = out / "repo"
    assert (oss_dir / "v1.0" / "lib.c").is_file()
    assert (oss_dir / "v2.0" / "lib.c").is_file()
    meta = (oss_dir / "meta.tsv").read_text().splitlines()
    assert meta == ["v1.0\t2020-01-05", "v2.0\t2021-03-09"]


@needs_git
def test_collect_sanitizes_slash_tags(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _make_git_repo(repo)
    subprocess.run(["git", "-C", str(repo), "tag", "release/3.0"], check=True)
    out = tmp_path / "collected"
    assert main(["collect", "--git", str(repo), "--out", str(out)]) == 0
    assert (out / "repo" / "release_3.0" / "lib.c").is_file()
    meta = (out / "repo" / "meta.tsv").read_text()
    assert "release_3.0\t" in meta


@needs_git
def test_collect_min_tag_count(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _make_git_repo(repo)
    assert main(
        ["collect", "--git", str(repo), "--out", str(tmp_path / "o"), "--min-tag-count", "5"]
    ) == 1
    assert "need at least 5" in capsys.readouterr().err


@needs_git
def test_collect_refuses_symlink_out_of_output_dir(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _make_git_repo(repo)
    (repo / "escape").symlink_to("../../../outside.c")
    subprocess.run(["git", "-C", str(repo), "add", "."], check=True)
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=tester", "-c", "user.email=t@example.org",
         "commit", "-q", "-m", "link"],
        check=True,
    )
    subprocess.run(["git", "-C", str(repo), "tag", "v3.0"], check=True)
    out = tmp_path / "collected"
    assert main(["collect", "--git", str(repo), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tag v3.0:")
    assert "escape" in err
    assert not (tmp_path / "outside.c").exists()
    assert not (out / "repo").exists()


def test_collect_without_git_is_clear_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(shutil, "which", lambda _: None)
    assert main(["collect", "--git", "https://example.org/x.git", "--out", str(tmp_path)]) == 1
    assert "git executable not found" in capsys.readouterr().err
