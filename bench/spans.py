"""In-memory span tracer that wraps refh's public functions from outside.

`Tracer.install` replaces each target function with a timing wrapper in
every refh module that holds it under any name, because callers look
functions up in their own module: `refh.cli` imports `group_metrics` by
name and `refh.metrics` imports `filter_documents` by name.  A target that
no longer exists is recorded as absent and its metrics read 0.
`uninstall` restores the originals, so untraced replays run unwrapped code.

Spans are kept in memory (name, start, end, parent, workload, repetition)
and written out once the traced run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _scanned(tracer, args, kwargs, result):
    corpus = args[0] if args else kwargs["corpus"]
    tracer.count("metrics.records_scanned", len(corpus.publications))
    tracer.count("metrics.records_matched", len(result))


def _rank_entries(tracer, args, kwargs, result):
    tracer.count("ranking.rank_entries", len(args[0] if args else kwargs["values"]))


def _bytes_written(tracer, args, kwargs, result):
    tracer.count("corpus.bytes_written", sum(Path(p).stat().st_size for p in result.values()))


def _rows_read(tracer, args, kwargs, result):
    for path in list(args) + list(kwargs.values()):
        tracer.count("corpus.rows_read", tracer.rows_by_path[str(Path(path).resolve())])


# (module, attribute, span name, count hook); span names are the metric stems
TARGETS = (
    ("refh.synth", "generate", "synth.generate", None),
    ("refh.corpus", "write_corpus", "corpus.write", _bytes_written),
    ("refh.corpus", "ingest_corpus", "corpus.ingest", None),
    ("refh.corpus", "load_publications", "corpus.load_publications", _rows_read),
    ("refh.corpus", "load_profiles", "corpus.load_profiles", _rows_read),
    ("refh.corpus", "load_discipline_maps", "corpus.load_discipline_maps", _rows_read),
    ("refh.corpus", "Corpus.__post_init__", "corpus.build", None),
    ("refh.corpus", "filter_documents", "corpus.filter_documents", _scanned),
    ("refh.metrics", "matching_publications", "metrics.matching_publications", _scanned),
    ("refh.metrics", "group_metrics", "metrics.group_metrics", None),
    ("refh.metrics", "h_series", "metrics.h_series", None),
    ("refh.metrics", "departmental_h", "metrics.departmental_h", None),
    ("refh.metrics", "compute_h", "metrics.compute_h", None),
    ("refh.metrics", "score_profile", "metrics.score_profile", None),
    ("refh.metrics", "write_scores_csv", "metrics.write_scores", None),
    ("refh.metrics", "write_hseries_csv", "metrics.write_hseries", None),
    ("refh.stats", "correlation_table", "stats.correlation_table", None),
    ("refh.stats", "correlation_series", "stats.correlation_series", None),
    ("refh.stats", "significance", "stats.significance", None),
    ("refh.stats", "write_correlations_csv", "stats.write", None),
    ("refh.stats", "write_corr_series_csv", "stats.write", None),
    ("refh.stats", "write_fig_points_csv", "stats.write", None),
    ("refh.ranking", "rank_table", "ranking.rank_table", _rank_entries),
    ("refh.ranking", "movement", "ranking.movement", None),
    ("refh.ranking", "render_table", "ranking.render", None),
    ("refh.ranking", "render_comparison_markdown", "ranking.render", None),
)
LAYERS = ("cli", "synth", "corpus", "metrics", "stats", "ranking")
CALL_COUNTS = {"metrics.departmental_h_calls": "metrics.departmental_h",
               "stats.significance_calls": "stats.significance"}
EXACT_COUNTS = ("metrics.records_scanned", "metrics.records_matched", "ranking.rank_entries",
                "corpus.rows_read", "corpus.bytes_written", *CALL_COUNTS)


class Tracer:
    def __init__(self, workload: str, rows_by_path: dict[str, int]):
        self.workload = workload
        self.rows_by_path = rows_by_path
        self.rep: int | None = None
        self.spans: list[dict] = []
        self._counts: dict[int | None, Counter] = defaultdict(Counter)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "rep": self.rep}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "refh" or n.startswith("refh.")]
        names = {name for _, _, name, _ in TARGETS}
        present = set()
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                continue
            present.add(name)
            traced = self._wrap(name, fn, hook)
            if path:  # a method: the class attribute is the only lookup
                self._patch(owner, leaf, fn, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, fn, traced)
        self.absent = names - present

    def _patch(self, owner, key, original, traced) -> None:
        setattr(owner, key, traced)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def count(self, name: str, n: int) -> None:
        self._counts[self.rep][name] += n

    def rep_counts(self, rep: int) -> dict[str, int]:
        """Counts of one repetition; each must repeat exactly between repetitions."""
        counts = {k: self._counts[rep][k] for k in EXACT_COUNTS if k not in CALL_COUNTS}
        for metric, span in CALL_COUNTS.items():
            counts[metric] = sum(1 for s in self.spans if s["rep"] == rep and s["name"] == span)
        return counts

    def layer_times(self, rep: int) -> dict[str, float]:
        """Inclusive time per span name and self time per layer, for one repetition.

        A span's self time is its duration minus the time its child spans
        cover; children run one after another in this single thread, so
        that is the sum of their durations.
        """
        spans = [s for s in self.spans if s["rep"] == rep]
        by_id = {s["id"]: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            duration = s["end"] - s["start"]
            parent = by_id.get(s["parent"])
            while parent is not None and parent["name"] != s["name"]:
                parent = by_id.get(parent["parent"])
            if parent is None:  # count a name once when it nests inside itself
                out[f"{s['name']}_s"] += duration
            out[f"{s['name'].split('.')[0]}.self_s"] += duration - child_time[s["id"]]
        for _, _, name, _ in TARGETS:
            out.setdefault(f"{name}_s", 0.0)
        for layer in LAYERS:
            out.setdefault(f"{layer}.self_s", 0.0)
        return dict(out)

    def by_command(self, rep: int) -> dict[str, dict[str, float]]:
        """Inclusive time of every span name under each command's root span."""
        spans = [s for s in self.spans if s["rep"] == rep]
        root_of: dict[int, dict] = {}
        out: dict[str, dict[str, float]] = {}
        for s in spans:  # parents precede their children
            root = root_of[s["parent"]] if s["parent"] is not None else s
            root_of[s["id"]] = root
            times = out.setdefault(root["name"], defaultdict(float))
            if s is not root:
                times[f"{s['name']}_s"] += s["end"] - s["start"]
            else:
                times["total_s"] += s["end"] - s["start"]
        return {k: dict(v) for k, v in out.items()}

    def write(self, path: Path, seed: int) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload, "seed": seed,
                                    "absent": sorted(self.absent), "spans": self.spans}))
