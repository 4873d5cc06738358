"""Traced `coinclust report`: spans around the calls into each module.

Run as a script, this is the traced child of ``run.py``::

    python3 perfbench/spans.py <trace.json> <peaks 0|1> report --data-dir ... --out ...

It wraps the module attributes listed in ``WRAPPED`` at the place where
the caller looks them up, runs ``coinclust.cli.main`` inside the root span
``cli.main``, and writes every span to ``<trace.json>`` when the run ends.
Nothing under ``src/`` changes.  Span names are ``<module>.<function>``.
With ``peaks`` 1 the spans in ``PEAK_SPANS`` also record tracemalloc
high-water marks; tracemalloc slows every allocation while it runs, so
span times come from runs with ``peaks`` 0.

``layer_metrics`` turns one trace file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import tracemalloc

# (module, attribute looked up by the caller, span name)
WRAPPED = (
    ("coinclust.cli", "build_dataset", "ingest.build_dataset"),
    ("coinclust.cli", "report_run", "report.report_run"),
    ("coinclust.cli", "emit_plots", "report.emit_plots"),
    ("coinclust.report", "assemble_features", "clustering.assemble_features"),
    ("coinclust.report", "standardize", "clustering.standardize"),
    ("coinclust.report", "select_k_and_cluster", "clustering.select_k_and_cluster"),
    ("coinclust.report", "crosstab", "report.crosstab"),
    ("coinclust.report", "pca3", "projection.pca3"),
    ("coinclust.report", "RunReport.to_json", "report.RunReport.to_json"),
    ("coinclust.report", "RunReport.to_markdown", "report.RunReport.to_markdown"),
    ("coinclust.clustering", "compute_characteristics", "characteristics.compute_characteristics"),
    ("coinclust.clustering", "spectrum_feature", "spectrum.spectrum_feature"),
    ("coinclust.clustering", "similarity_matrix", "clustering.similarity_matrix"),
    ("coinclust.clustering", "laplacian_eigendecomposition", "clustering.laplacian_eigendecomposition"),
    ("coinclust.clustering", "kmeans", "clustering.kmeans"),
    ("coinclust.characteristics", "chaos_lyapunov", "characteristics.chaos_lyapunov"),
    ("coinclust.characteristics", "self_similarity_dfa", "characteristics.self_similarity_dfa"),
    ("coinclust.characteristics", "ols_line", "characteristics.ols_line"),
)

# Spans that record the tracemalloc high-water mark.  Tracing runs only
# while one of them is open.
PEAK_SPANS = ("characteristics.chaos_lyapunov", "clustering.similarity_matrix")


def _counts(name: str, result) -> dict[str, int]:
    """Exact work counts taken from a layer's return value."""
    if name == "ingest.build_dataset":
        return {"ingest.files": len(result.series),
                "ingest.rows": sum(len(s) for s in result.series.values())}
    if name == "clustering.assemble_features":
        return {"clustering.excluded_coins": len(result.excluded)}
    return {}


class Tracer:
    """Spans kept in memory: name, start, end, parent index, thread id.

    A span opened on a thread with no open span of its own (a worker of the
    feature pool) takes as parent the innermost open span of the thread
    that created the tracer, which is the call that handed out the work.
    """

    def __init__(self, peaks: bool):
        self.peaks = peaks
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._peak_open = 0

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        outer = stack or self._stacks.get(self._main) or [-1]
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": outer[-1], "thread": tid}
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
            if self.peaks and name in PEAK_SPANS:
                if self._peak_open == 0:
                    tracemalloc.start()
                self._peak_open += 1
        stack.append(index)
        record["start"] = time.perf_counter()
        return index

    def _close(self, index: int, result=None) -> None:
        record = self.spans[index]
        record["end"] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()
        with self._lock:
            if self.peaks and record["name"] in PEAK_SPANS:
                record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                self._peak_open -= 1
                if self._peak_open == 0:
                    tracemalloc.stop()
            counts = _counts(record["name"], result) if result is not None else {}
            for key, value in counts.items():
                self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index)
                raise
            self._close(index, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), name))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


# per-layer metric -> span names whose durations it sums
SUMMED = {
    "ingest.build_dataset_s": ("ingest.build_dataset",),
    "characteristics.compute_characteristics_s": ("characteristics.compute_characteristics",),
    "characteristics.chaos_lyapunov_s": ("characteristics.chaos_lyapunov",),
    "characteristics.self_similarity_dfa_s": ("characteristics.self_similarity_dfa",),
    "spectrum.spectrum_feature_s": ("spectrum.spectrum_feature",),
    "clustering.assemble_features_s": ("clustering.assemble_features",),
    "clustering.standardize_s": ("clustering.standardize",),
    "clustering.similarity_matrix_s": ("clustering.similarity_matrix",),
    "clustering.laplacian_eigendecomposition_s": ("clustering.laplacian_eigendecomposition",),
    "clustering.kmeans_s": ("clustering.kmeans",),
    "clustering.select_k_and_cluster_s": ("clustering.select_k_and_cluster",),
    "projection.pca3_s": ("projection.pca3",),
    "report.report_run_s": ("report.report_run",),
    "report.crosstab_s": ("report.crosstab",),
    "report.emit_plots_s": ("report.emit_plots",),
    "report.serialize_s": ("report.RunReport.to_json", "report.RunReport.to_markdown"),
}
CALLS = {
    "characteristics.ols_line_calls": "characteristics.ols_line",
    "clustering.laplacian_eigendecomposition_calls": "clustering.laplacian_eigendecomposition",
    "clustering.kmeans_calls": "clustering.kmeans",
}
PEAKS = {
    "characteristics.chaos_lyapunov_peak_mb": "characteristics.chaos_lyapunov",
    "clustering.similarity_matrix_peak_mb": "clustering.similarity_matrix",
}


def layer_metrics(trace: dict, launched: float, exited: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``launched`` and ``exited`` are the parent's ``time.perf_counter()``
    readings around the child; the clock is system-wide on Linux, so they
    compare directly with the span times.
    """
    spans = trace["spans"]
    duration: dict[str, float] = {}
    calls: dict[str, int] = {}
    peak: dict[str, int] = {}
    for s in spans:
        duration[s["name"]] = duration.get(s["name"], 0.0) + s["end"] - s["start"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        peak[s["name"]] = max(peak.get(s["name"], 0), s.get("peak_bytes", 0))
    root = next(i for i, s in enumerate(spans) if s["parent"] == -1)
    metrics = {key: sum(duration.get(n, 0.0) for n in names) for key, names in SUMMED.items()}
    metrics.update({key: calls.get(name, 0) for key, name in CALLS.items()})
    metrics.update({key: peak.get(name, 0) / 1e6 for key, name in PEAKS.items()})
    metrics.update({key: trace["counters"].get(key, 0)
                    for key in ("ingest.files", "ingest.rows", "clustering.excluded_coins")})
    metrics["cli.main_self_s"] = self_times(spans)[root]
    metrics["cli.startup_s"] = spans[root]["start"] - launched
    metrics["cli.exit_s"] = exited - spans[root]["end"]
    return metrics


def main(argv: list[str]) -> int:
    tracer = Tracer(peaks=argv[1] == "1")
    import coinclust.cli

    tracer.install()
    try:
        return tracer.wrap(coinclust.cli.main, "cli.main")(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
