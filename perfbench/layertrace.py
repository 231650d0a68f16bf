"""Outside-in layer trace for diffcorr.

The program is not changed. Instead every module-level name, module-level
dict value and class attribute under ``diffcorr`` that holds one of the
traced functions is replaced by a wrapper that records one span per call:
name, start, end and parent. A layer's self time is its span's duration
minus the time its child spans cover. The program runs single-threaded
(``DIFFCORR_THREADS`` at its default of 1), so the children of a span never
overlap and the time they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute, layer name). Every public estimator is folded into the
# one layer "estimators". crossval._draw_folds is the only private name: it
# is the one boundary where a fold draw and its redraws can be counted.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("dataset", "read_sample_csv", "dataset.read_sample_csv"),
    ("dataset", "write_matrix_csv", "dataset.write_matrix_csv"),
    ("moments", "moment_set", "moments.moment_set"),
    ("moments", "correlation_variance", "moments.correlation_variance"),
    ("thresholding", "apply_rule", "thresholding.apply_rule"),
    ("thresholding", "apply_threshold", "thresholding.apply_threshold"),
    ("thresholding", "diff_corr_thresholds", "thresholding.diff_corr_thresholds"),
    ("crossval", "cv_select_tau", "crossval.cv_select_tau"),
    ("crossval", "cv_select_tau_single", "crossval.cv_select_tau_single"),
    ("crossval", "_draw_folds", "crossval.draw_folds"),
    ("estimators", "estimate_diff_corr", "estimators"),
    ("estimators", "estimate_single_corr", "estimators"),
    ("estimators", "estimate_diff_cov", "estimators"),
    ("estimators", "estimate_cross_corr", "estimators"),
    ("estimators", "baseline_cov_then_normalize", "estimators"),
    ("estimators", "baseline_separate_corr", "estimators"),
    ("estimators", "baseline_sample_difference", "estimators"),
    ("equality_test", "test_statistic", "equality_test.test_statistic"),
    ("equality_test", "TestResult.top_pairs", "equality_test.top_pairs"),
    ("norms", "spectral_norm", "norms.spectral_norm"),
    ("norms", "matrix_l1_norm", "norms.matrix_l1_norm"),
    ("norms", "frobenius_norm", "norms.frobenius_norm"),
    ("simulation", "run_benchmark", "simulation.run_benchmark"),
    ("simulation", "generate_pair", "simulation.generate_pair"),
    ("simulation", "mvn_sample", "simulation.mvn_sample"),
    ("simulation", "scale_to_covariance", "simulation.scale_to_covariance"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))

# The layers that call other traced layers. Only these have an inclusive
# time that differs from their self time, so only these report it.
NESTING = (
    "cli.main", "estimators", "crossval.cv_select_tau", "crossval.cv_select_tau_single",
    "crossval.draw_folds", "thresholding.apply_threshold", "equality_test.test_statistic",
    "simulation.run_benchmark",
)


def _note(layer, result):
    """Work a call did, read from its result: cells parsed for a CSV read,
    fold draws that feed a loss curve (groups x repetitions) for CV."""
    if layer == "dataset.read_sample_csv":
        return result.n * result.p
    if layer == "crossval.cv_select_tau":
        return 2 * result.splits_used
    if layer == "crossval.cv_select_tau_single":
        return result.splits_used
    return 0


class Span:
    __slots__ = ("name", "start", "end", "parent", "failed", "note")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.failed = False
        self.note = 0
        self.start = perf_counter()
        self.end = self.start


class Tracer:
    """Holds the spans of one operation in memory; ``install`` patches the
    program, ``uninstall`` restores every patched reference."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(layer, stack[-1] if stack else -1)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span.note = _note(layer, result)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "diffcorr" or name.startswith("diffcorr.")]
        for mod_name, attr, layer in TARGETS:
            mod = importlib.import_module(f"diffcorr.{mod_name}")
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(layer, getattr(cls, meth)))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(layer, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, name, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is orig:
                                self._set(value, key, wrapper)

    def _set(self, holder, key, value):
        if isinstance(holder, dict):
            self._patched.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._patched.append((holder, key, getattr(holder, key)))
            setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patched):
            if isinstance(holder, dict):
                holder[key] = orig
            else:
                setattr(holder, key, orig)
        self._patched.clear()

    def _inside(self, span, name) -> bool:
        """Whether an ancestor of span belongs to the layer name."""
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: self and total seconds, calls, failed calls, and the
        summed note. Total time counts a recursive layer's outermost span only."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals = {layer: {"s": 0.0, "total_s": 0.0, "calls": 0, "failed": 0, "note": 0}
                  for layer in LAYERS}
        for span, covered in zip(self.spans, child_time):
            t = totals[span.name]
            duration = span.end - span.start
            t["s"] += duration - covered
            if not self._inside(span, span.name):
                t["total_s"] += duration
            t["calls"] += 1
            t["failed"] += span.failed
            t["note"] += span.note
        # fits attempted by the simulation harness: estimator calls made
        # directly by run_benchmark
        fits = [s for s in self.spans if s.name == "estimators" and s.parent >= 0
                and self.spans[s.parent].name == "simulation.run_benchmark"]
        totals["simulation.run_benchmark"]["fits"] = len(fits)
        totals["simulation.run_benchmark"]["fits_failed"] = sum(s.failed for s in fits)
        return totals
