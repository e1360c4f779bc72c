"""Span and counter recorder for the traced benchmark run.

The tracer replaces public ``robustvario`` functions at the module
attributes their callers look up (``robustvario.study.fast_mcd``,
``robustvario.mcd.chisq_quantile``, ...) with wrappers that record one span
per call.  Spans nest through the wrappers: a span's parent is the span that
was open when it started, and a layer's self time is its span durations
minus the parts covered by its child spans.  Nothing inside the package is
edited; :meth:`Tracer.uninstall` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

# Spans that stand for the operation the benchmark times.  An exception that
# leaves a span whose parent is one of these reached the orchestration code,
# which turns it into a failed estimate (the study) or an exit code (the CLI).
ROOT_LAYERS = ("cli", "study")

# Exception classes reported by name as ``study.failed.<class>``; any other
# class is counted as ``study.failed.other``.
FAILURE_CLASSES = (
    "NotPositiveDefiniteError",
    "EmptySampleError",
    "SampleTooSmallError",
    "SingularDataError",
    "NoValidPartitionError",
    "EstimatorUnusableError",
    "TooManyFailuresError",
)

# (module, attribute, layer): every call site the operations go through.
SITES = (
    ("cli", "load_asc", "ascio.load_asc"),
    ("cli", "apply_quality_mask", "ascio.apply_quality_mask"),
    ("cli", "matheron", "estimators.matheron"),
    ("cli", "genton", "estimators.genton"),
    ("cli", "mcd_org", "estimators.mcd_org"),
    ("cli", "mcd_diff", "estimators.mcd_diff"),
    ("cli", "mcd_mod", "estimators.mcd_mod"),
    ("study", "matheron", "estimators.matheron"),
    ("study", "genton", "estimators.genton"),
    ("study", "mcd_mod", "estimators.mcd_mod"),
    ("study", "extract_org_vectors", "grid.extract"),
    ("study", "extract_diff_vectors", "grid.extract"),
    ("study", "fast_mcd", "mcd.fast_mcd"),
    ("study", "reweight_mcd", "mcd.reweight_mcd"),
    ("study", "simulate_field", "simfield.simulate_field"),
    ("study", "field_cholesky", "simfield.field_cholesky"),
    ("study", "contaminate", "contamination.contaminate"),
    ("estimators", "extract_org_vectors", "grid.extract"),
    ("estimators", "extract_diff_vectors", "grid.extract"),
    ("estimators", "lag_differences", "grid.lag_differences"),
    ("estimators", "qn", "scale.qn"),
    ("estimators", "fast_mcd", "mcd.fast_mcd"),
    ("estimators", "reweight_mcd", "mcd.reweight_mcd"),
    ("mcd", "chisq_quantile", "numerics.chisq"),
    ("mcd", "chisq_cdf", "numerics.chisq"),
)

# Wrapped for a call count only: a span here would take its time out of the
# self time of the MCD function that called it.
COUNT_SITES = (("mcd", "mcd_consistency_factor", "mcd.consistency_factor"),)


def _rows(data) -> np.ndarray:
    return np.asarray(getattr(data, "rows", data))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or None]
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.fast_mcd_rows: list[int] = []
        self.fast_mcd_bytes = 0
        self.singular_fits = 0
        self.mcd_mod_partitions = 0
        self.reweight_kept = 0
        self.reweight_rows = 0
        self.qn_pairs = 0
        self.rows_extracted = 0
        self.missing: list[str] = []
        # largest call of each memory-heavy layer: (size, function, args, kwargs)
        self.largest: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``layer``."""
        parent = self._stack[-1] if self._stack else None
        record = [layer, 0.0, 0.0, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if parent is not None and self.spans[parent][0] in ROOT_LAYERS:
                self.count_failure(type(exc).__name__)
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count_failure(self, class_name: str):
        key = class_name if class_name in FAILURE_CLASSES else "other"
        self.failures[key] += 1

    def _observe(self, layer: str, parent_layer, fn, args, kwargs, result):
        if layer == "mcd.fast_mcd":
            n, p = _rows(args[0]).shape
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
            candidates = cfg.n_initial_subsets if cfg is not None else 500
            self.fast_mcd_rows.append(n)
            # two C-step passes over every candidate, each computing an
            # (n, p) float64 block per candidate; computed, not measured
            self.fast_mcd_bytes += 2 * candidates * n * p * 8
            self.singular_fits += bool(result.singular)
            if parent_layer == "estimators.mcd_mod":
                self.mcd_mod_partitions += 1
            self._keep_largest(layer, n * p, fn, args, kwargs)
        elif layer == "mcd.reweight_mcd":
            self.reweight_kept += int(np.sum(result.weights))
            self.reweight_rows += result.weights.size
        elif layer == "scale.qn":
            n = np.size(args[0])
            self.qn_pairs += n * (n - 1) // 2
            self._keep_largest(layer, n, fn, args, kwargs)
        elif layer == "grid.extract":
            self.rows_extracted += result.n

    def _keep_largest(self, layer, size, fn, args, kwargs):
        if layer not in self.largest or size > self.largest[layer][0]:
            self.largest[layer] = (size, fn, args, kwargs)

    # -- installing wrappers -----------------------------------------------

    def _wrapper(self, fn, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.spans[tracer._stack[-1]][0] if tracer._stack else None
            result = tracer.call(layer, fn, *args, **kwargs)
            tracer._observe(layer, parent, fn, args, kwargs, result)
            return result

        return traced

    def _counter(self, fn, layer):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.calls[layer] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for sites, make in ((SITES, self._wrapper), (COUNT_SITES, self._counter)):
            for module_name, attr, layer in sites:
                module = importlib.import_module(f"robustvario.{module_name}")
                if not hasattr(module, attr):
                    self.missing.append(f"robustvario.{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, make(original, layer))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        """Per-layer self seconds and span counts."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: dict = defaultdict(float)
        counts: Counter = Counter()
        for (layer, start, end, _), child in zip(self.spans, covered):
            self_s[layer] += (end - start) - child
            counts[layer] += 1
        return self_s, counts

    def peak_mb(self, layer: str) -> float:
        """tracemalloc peak of the layer's largest recorded call, run again
        outside the traced operation so that the trace timings carry no
        tracemalloc cost."""
        if layer not in self.largest:
            return 0.0
        _, fn, args, kwargs = self.largest[layer]
        return traced_peak_mb(fn, *args, **kwargs)


def traced_peak_mb(fn, *args, **kwargs) -> float:
    """Run ``fn`` under tracemalloc; returns the peak MB allocated during
    the call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
