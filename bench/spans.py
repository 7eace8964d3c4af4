"""Span tracing around osscan's layers, installed from outside the program.

Each wrap point replaces a public function at the module attribute its
callers look up at call time (for example `segmenter.match_hashes`), and
records a span: name, start, end, parent span and a group id shared by
the spans of one component build or one target.  A wrap point that no
longer exists is skipped, and every layer metric that depends on it is
reported as absent instead of failing the run.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

from osscan import fingerprint


def _count_file(t: "Tracer", args: tuple, result) -> None:
    data = args[1]
    t.counters["files"] += 1
    t.counters["bytes"] += len(data)
    t.counters["functions"] += len(result)
    t.contents.add(hash(data))


def _count_scheme(t: "Tracer", args: tuple, result) -> None:
    t.counters["exact_hashes" if result.scheme.value == "exact" else "lsh_hashes"] += 1


def _count_pack(t: "Tracer", args: tuple, result) -> None:
    t.counters["pack_rows"] += len(args[0])


def _count_cells(t: "Tracer", args: tuple, result) -> None:
    t.counters["distance_cells"] += int(result.size)
    # a cell is a hit at or below the cutoff; the benchmark runs osscan with its default
    t.counters["distance_hits"] += int((result <= fingerprint.DEFAULT_CUTOFF).sum())


def _count_build(t: "Tracer", args: tuple, result) -> None:
    t.counters["entries"] += len(result.entries)
    t.counters["incidences"] += result.total_incidences()


def _count_segments(t: "Tracer", args: tuple, result) -> None:
    t.counters["nonprime"] += sum(1 for r in result.values() if not r.is_prime)
    t.counters["app_entries"] += sum(len(r.app_entry_hashes) for r in result.values())


def _count_target(t: "Tracer", args: tuple, result) -> None:
    t.counters["target_functions"] += len(result.functions)


def _count_scored(t: "Tracer", args: tuple, result) -> None:
    t.counters["signatures_scored"] += len(result)


def _count_reports(t: "Tracer", args: tuple, result) -> None:
    t.counters["reports"] += len(result)


def _build_group(args: tuple) -> str:
    return f"build:{args[0]}"


# (module, attribute the callers use, span name, counter hook, group of the call)
WRAP_POINTS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("osscan.signature_store", "extract_functions", "extractor.extract_functions", None, None),
    ("osscan.detector", "extract_functions", "extractor.extract_functions", None, None),
    ("osscan.extractor", "extract_from_source", "extractor.extract_from_source", _count_file, None),
    ("osscan.fingerprint", "normalize", "extractor.normalize", None, None),
    ("osscan.fingerprint", "hash_raw_functions", "fingerprint.hash_raw_functions", None, None),
    ("osscan.detector", "hash_raw_functions", "fingerprint.hash_raw_functions", None, None),
    ("osscan.fingerprint", "hash_function", "fingerprint.hash_function", _count_scheme, None),
    ("osscan.tlsh", "digest", "tlsh.digest", None, None),
    ("osscan.tlsh", "pack_digests", "tlsh.pack_digests", _count_pack, None),
    ("osscan.tlsh", "diffxlen_matrix", "tlsh.diffxlen_matrix", _count_cells, None),
    ("osscan.segmenter", "HashIndex", "fingerprint.HashIndex", None, None),
    ("osscan.detector", "HashIndex", "fingerprint.HashIndex", None, None),
    ("osscan.segmenter", "match_hashes", "fingerprint.match_hashes", None, None),
    ("osscan.detector", "match_hashes", "fingerprint.match_hashes", None, None),
    ("osscan.signature_store", "build_signature", "signature_store.build_signature",
     _count_build, _build_group),
    ("osscan.signature_store", "save_db", "signature_store.save", None, None),
    ("osscan.signature_store", "write_app_file", "signature_store.save", None, None),
    ("osscan.signature_store", "load_db", "signature_store.load_db", None, None),
    ("osscan.segmenter", "segment_all", "segmenter.segment_all", _count_segments, None),
    ("osscan.segmenter", "apply_segmentation", "segmenter.apply_segmentation", None, None),
    ("osscan.detector", "fingerprint_target", "detector.fingerprint_target", _count_target, None),
    ("osscan.detector", "identify_components", "detector.identify_components",
     _count_reports, None),
    ("osscan.detector", "score_components", "detector.score_components", _count_scored, None),
    ("osscan.detector", "identify_version", "detector.identify_version", None, None),
    ("osscan.detector", "analyze_reuse_pattern", "detector.analyze_reuse_pattern", None, None),
    ("osscan.detector", "render_report", "detector.render_report", None, None),
)


class Tracer:
    """Collects spans as [name, start, end, parent index, group] while
    installed (`with tracer.installed():`)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.contents: set[int] = set()  # hashes of distinct extracted file contents
        self.missing: list[str] = []      # "module.attr" wrap points not found
        self.gone: set[str] = set()       # span names with a wrap point not found
        self.broken: set[str] = set()     # span names whose counter hook failed
        self.group = ""
        self._stack: list[int] = []
        # (module, attribute, original, wrapper) of every wrap point found
        self._points: list[tuple[object, str, object, object]] = []
        for module_name, attr, name, hook, group_of in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                self.gone.add(name)
                continue
            self._points.append(
                (module, attr, original, self._wrapper(original, name, hook, group_of))
            )

    def _open(self, name: str, group: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, group])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, group: str | None = None):
        if group is not None:
            self.group = group
        idx = self._open(name, self.group)
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, original, name: str, hook, group_of):
        def traced(*args, **kwargs):
            outer = self.group
            if group_of is not None:
                self.group = group_of(args)
            idx = self._open(name, self.group)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
                self.group = outer
            if hook is not None and name not in self.broken:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.broken.add(name)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        for module, attr, _, wrapper in self._points:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._points:
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def stage_self_sum(self, stage: str) -> float:
        """Self time summed over every span under the `stage.<stage>` roots."""
        selfs = self.self_times()
        inside: list[bool] = []
        total = 0.0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            flag = name == f"stage.{stage}" or (parent >= 0 and inside[parent])
            inside.append(flag)
            if flag:
                total += selfs[i]
        return total

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, group in self.spans:
                fh.write(json.dumps([name, start, end, parent, group]) + "\n")


class Summary:
    """Per span name: call count, total and self time; plus counters."""

    def __init__(self, tracer: Tracer) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.calls_in_group: Counter = Counter()
        for (name, start, end, _, group), own in zip(tracer.spans, tracer.self_times()):
            self.total[name] += end - start
            self.own[name] += own
            self.calls[name] += 1
            self.calls_in_group[(name, group)] += 1
        self.counter = Counter(tracer.counters)
        self.counter["unique_files"] = len(tracer.contents)
        cells = self.counter["distance_cells"]
        self.counter["hit_ratio"] = self.counter["distance_hits"] / cells if cells else 0.0

    def value(self, span: str, kind: str, key: str | None) -> float:
        if kind == "counter":
            return self.counter[key]
        if kind == "calls":
            return self.calls[span] if key is None else self.calls_in_group[(span, key)]
        return self.total[span] if kind == "total" else self.own[span]


# metric -> (unit, span it needs, kind, counter key or group).  Kinds:
# total / self time of the span, its calls (in one group), or a counter
# that the span's hook fills.  Self time is total time minus child spans.
LAYER_METRICS: dict[str, tuple[str, str, str, str | None]] = {
    "extractor.files": ("count", "extractor.extract_from_source", "counter", "files"),
    "extractor.unique_files": ("count", "extractor.extract_from_source", "counter",
                               "unique_files"),
    "extractor.bytes": ("B", "extractor.extract_from_source", "counter", "bytes"),
    "extractor.functions": ("count", "extractor.extract_from_source", "counter", "functions"),
    "extractor.extract_s": ("s", "extractor.extract_functions", "total", None),
    "extractor.normalize_calls": ("count", "extractor.normalize", "calls", None),
    "extractor.normalize_s": ("s", "extractor.normalize", "total", None),
    "tlsh.digest_calls": ("count", "tlsh.digest", "calls", None),
    "tlsh.digest_s": ("s", "tlsh.digest", "total", None),
    "tlsh.pack_rows": ("count", "tlsh.pack_digests", "counter", "pack_rows"),
    "tlsh.pack_s": ("s", "tlsh.pack_digests", "total", None),
    "tlsh.distance_cells": ("count", "tlsh.diffxlen_matrix", "counter", "distance_cells"),
    "tlsh.distance_hits": ("count", "tlsh.diffxlen_matrix", "counter", "distance_hits"),
    "tlsh.hit_ratio": ("1", "tlsh.diffxlen_matrix", "counter", "hit_ratio"),
    "tlsh.matrix_s": ("s", "tlsh.diffxlen_matrix", "total", None),
    "fingerprint.lsh_hashes": ("count", "fingerprint.hash_function", "counter", "lsh_hashes"),
    "fingerprint.exact_hashes": ("count", "fingerprint.hash_function", "counter",
                                 "exact_hashes"),
    "fingerprint.index_builds": ("count", "fingerprint.HashIndex", "calls", None),
    "fingerprint.index_s": ("s", "fingerprint.HashIndex", "total", None),
    "fingerprint.match_calls": ("count", "fingerprint.match_hashes", "calls", None),
    "fingerprint.match_self_s": ("s", "fingerprint.match_hashes", "self", None),
    "signature_store.entries": ("count", "signature_store.build_signature", "counter",
                                "entries"),
    "signature_store.incidences": ("count", "signature_store.build_signature", "counter",
                                   "incidences"),
    "signature_store.build_self_s": ("s", "signature_store.build_signature", "self", None),
    "signature_store.save_s": ("s", "signature_store.save", "self", None),
    "signature_store.load_s": ("s", "signature_store.load_db", "total", None),
    "segmenter.pair_scans": ("count", "fingerprint.match_hashes", "calls", "segment"),
    "segmenter.nonprime": ("count", "segmenter.segment_all", "counter", "nonprime"),
    "segmenter.app_entries": ("count", "segmenter.segment_all", "counter", "app_entries"),
    "segmenter.self_s": ("s", "segmenter.segment_all", "self", None),
    "detector.fingerprint_s": ("s", "detector.fingerprint_target", "total", None),
    "detector.target_functions": ("count", "detector.fingerprint_target", "counter",
                                  "target_functions"),
    "detector.score_s": ("s", "detector.score_components", "total", None),
    "detector.signatures_scored": ("count", "detector.score_components", "counter",
                                   "signatures_scored"),
    "detector.vote_s": ("s", "detector.identify_version", "total", None),
    "detector.pattern_s": ("s", "detector.analyze_reuse_pattern", "total", None),
    "detector.reports": ("count", "detector.identify_components", "counter", "reports"),
    "detector.render_s": ("s", "detector.render_report", "total", None),
}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of a traced run, and the names reported absent: a
    metric is absent when one of its span's wrap points is gone (a partial
    count would mislead) or its counter hook no longer fits the result."""
    summary = Summary(tracer)
    values: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    for name, (unit, span, kind, key) in LAYER_METRICS.items():
        if span in tracer.gone or (kind == "counter" and span in tracer.broken):
            absent.append(name)
        else:
            values[name] = (summary.value(span, kind, key), unit)
    return values, absent
