"""Command-line frontend: preprocess -> segment -> detect, plus the
threshold sweep and a tag-collection helper.

Exit codes: 0 success (an empty detection list is a success), 1 on
I/O or configuration errors, 2 when preprocess failed for some component
but processed the rest.
"""

from __future__ import annotations

import argparse
import io
import logging
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from . import detector, evalkit, fingerprint, segmenter, signature_store
from .detector import DetectorConfig, DetectionError
from .signature_store import (
    ComponentDb,
    DbFormatError,
    DbMeta,
    SignatureError,
)

def cmd_preprocess(args: argparse.Namespace) -> int:
    if not fingerprint._is_cutoff(args.cutoff):
        print(f"error: cutoff must be a non-negative integer, got {args.cutoff}", file=sys.stderr)
        return 1
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        print(f"error: corpus directory not found: {corpus}", file=sys.stderr)
        return 1
    oss_dirs = sorted(p for p in corpus.iterdir() if p.is_dir())
    if not oss_dirs:
        print(f"error: no component directories under {corpus}", file=sys.stderr)
        return 1

    db = ComponentDb(meta=DbMeta(cutoff=args.cutoff))
    failures = 0
    for oss_dir in oss_dirs:
        try:
            db.signatures[oss_dir.name] = signature_store.build_component(oss_dir)
        except (SignatureError, OSError, ValueError) as exc:
            print(f"error: {oss_dir.name}: {exc}", file=sys.stderr)
            failures += 1

    if not db.signatures:
        print("error: no signatures built", file=sys.stderr)
        return 2 if failures else 1
    signature_store.save_db(db, args.db)
    for sig in db.sorted_signatures():
        ratio = signature_store.dedup_ratio(db, sig.oss_id)
        print(
            f"{sig.oss_id}\tversions={sig.n_versions}\tentries={len(sig.entries)}"
            f"\tincidences={sig.total_incidences()}\tdedup={float(ratio):.4f}"
        )
    total = signature_store.dedup_ratio(db)
    print(f"TOTAL\tsignatures={len(db.signatures)}\tdedup={float(total):.4f}")
    return 2 if failures else 0


def cmd_segment(args: argparse.Namespace) -> int:
    try:
        db = signature_store.load_db(args.db)
        cutoff = args.cutoff if args.cutoff is not None else db.meta.cutoff
        results = segmenter.segment_all(db, theta=args.theta, cutoff=cutoff)
    except (DbFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    segmenter.apply_segmentation(db, results)
    for sig in db.sorted_signatures():
        signature_store.write_app_file(args.db, sig)
    primes = sum(1 for r in results.values() if r.is_prime)
    print(f"prime={primes}\tnon-prime={len(results) - primes}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    try:
        db = signature_store.load_db(args.db)
        cutoff = args.cutoff if args.cutoff is not None else db.meta.cutoff
        cfg = DetectorConfig(theta=args.theta, cutoff=cutoff)
        t = detector.fingerprint_target(args.target)
        reports = detector.identify_components(t, db, cfg)
        payload = detector.render_report(reports, args.format, t.target_id, cfg)
    except (DbFormatError, DetectionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 0


def cmd_theta_sweep(args: argparse.Namespace) -> int:
    try:
        grid = [segmenter.coerce_theta(v.strip()) for v in args.grid.split(",") if v.strip()]
        if not grid or any(not 0 <= g < 1 for g in grid):
            raise ValueError(f"grid thresholds must be in [0, 1): {args.grid}")
        db = signature_store.load_db(args.db)
        cutoff = args.cutoff if args.cutoff is not None else db.meta.cutoff
        targets = evalkit.read_manifest(Path(args.targets))
        truth = None
        if args.ground_truth:
            truth = evalkit.GroundTruth.from_json(
                Path(args.ground_truth).read_text(encoding="utf-8")
            )
        scored = {}
        for target_id, tree in targets:
            t = detector.fingerprint_target(tree, target_id=target_id)
            scored[target_id] = detector.score_components(t, db, cutoff)
    except (DbFormatError, DetectionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    header = ["theta", "detected"]
    if truth is not None:
        header += ["correct", "proportion"]
    print("\t".join(header))
    for theta in grid:
        detected = 0
        correct = 0
        for target_id, components in scored.items():
            hits = [c.sig.oss_id for c in components if c.phi >= theta]
            detected += len(hits)
            if truth is not None:
                expected = truth.expected_oss(target_id)
                correct += sum(1 for oss in hits if oss in expected)
        row = [f"{float(theta):.2f}", str(detected)]
        if truth is not None:
            proportion = correct / detected if detected else 0.0
            row += [str(correct), f"{proportion:.3f}"]
        print("\t".join(row))
    return 0


def _git_tag_dates(repo: Path) -> list[tuple[str, str]]:
    out = subprocess.run(
        ["git", "-C", str(repo), "for-each-ref", "refs/tags",
         "--format=%(refname:short)\t%(creatordate:short)"],
        capture_output=True, text=True, check=True,
    )
    tags = []
    for line in out.stdout.splitlines():
        name, _, date = line.partition("\t")
        if name and date:
            tags.append((name, date))
    return tags


def cmd_collect(args: argparse.Namespace) -> int:
    if shutil.which("git") is None:
        print(
            "error: git executable not found; the collect helper needs git "
            "(the rest of the pipeline does not)",
            file=sys.stderr,
        )
        return 1
    out_root = Path(args.out)
    with tempfile.TemporaryDirectory(prefix="osscan-collect-") as tmp:
        clone = Path(tmp) / "repo"
        try:
            subprocess.run(
                ["git", "clone", "--quiet", args.git, str(clone)],
                check=True, capture_output=True, text=True,
            )
            tags = _git_tag_dates(clone)
        except subprocess.CalledProcessError as exc:
            print(f"error: git failed: {exc.stderr.strip()}", file=sys.stderr)
            return 1
        if len(tags) < args.min_tag_count:
            print(
                f"error: {args.git} has {len(tags)} tags, need at least "
                f"{args.min_tag_count}",
                file=sys.stderr,
            )
            return 1
        repo_name = clone_name(args.git)
        staged = Path(tmp) / "out" / repo_name
        staged.mkdir(parents=True)
        meta_lines = []
        for tag, date in sorted(tags):
            safe = tag.replace("/", "_")
            version_dir = staged / safe
            version_dir.mkdir(parents=True, exist_ok=True)
            archive = subprocess.run(
                ["git", "-C", str(clone), "archive", "--format=tar", tag],
                check=True, capture_output=True,
            )
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tf:
                try:
                    tf.extractall(version_dir, filter="data")
                except tarfile.FilterError as exc:
                    print(f"error: tag {tag}: refusing archive entry: {exc}", file=sys.stderr)
                    return 1
            meta_lines.append(f"{safe}\t{date}")
        (staged / "meta.tsv").write_text(
            "\n".join(meta_lines) + "\n", encoding="utf-8", newline="\n"
        )
        # only a fully exported component reaches --out; an earlier export
        # of the same repository is merged into, as before
        oss_dir = out_root / repo_name
        shutil.copytree(staged, oss_dir, symlinks=True, dirs_exist_ok=True)
        print(f"{repo_name}\tversions={len(tags)}\tout={oss_dir}")
    return 0


def clone_name(url: str) -> str:
    name = url.rstrip("/").rsplit("/", 1)[-1]
    return name[:-4] if name.endswith(".git") else name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osscan",
        description="Build component signature databases and identify reused "
        "open-source components in a target source tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="build the signature database from a corpus")
    p.add_argument("--corpus", required=True, help="directory of <oss_id>/<version>/ trees")
    p.add_argument("--db", required=True, help="output database directory")
    p.add_argument("--cutoff", type=int, default=30)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("segment", help="extract application code for every signature")
    p.add_argument("--db", required=True)
    p.add_argument("--theta", default="0.1")
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("detect", help="identify components reused in a target tree")
    p.add_argument("--db", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--theta", default="0.1")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--format", choices=("json", "tsv", "table"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("theta-sweep", help="detection counts over a threshold grid")
    p.add_argument("--db", required=True)
    p.add_argument("--targets", required=True, help="TSV manifest: target_id<TAB>path")
    p.add_argument("--grid", default="0,0.05,0.1,0.15,0.2")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--ground-truth", default=None)
    p.set_defaults(func=cmd_theta_sweep)

    p = sub.add_parser("collect", help="export the tagged versions of a git repository")
    p.add_argument("--git", required=True, help="repository URL or local path")
    p.add_argument("--out", required=True)
    p.add_argument("--min-tag-count", type=int, default=1)
    p.set_defaults(func=cmd_collect)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
