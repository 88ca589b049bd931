"""Outside-in layer tracing for one replay.

:class:`LayerTracer` replaces public entry points of the program's layers
with timing wrappers, at class or module level, from this file alone:
nothing under ``src/`` knows it is being measured.  Install it before any
policy is built.  The LHR span kernel binds ``hro.process_scalar``,
``features.observe_scalar`` and ``backend.score_block`` to locals when a
span starts, so a wrapper installed later would be missed.

Each wrapper accumulates ``[calls, total_s, self_s, units]`` under its
key.  Self time is a call's duration minus the time of wrapped calls
nested directly inside it, tracked with one stack, so the self times of
all wrappers partition the traced wall time.  ``units`` is the work the
call did (requests replayed, rows gathered, samples shadow-replayed).

Coarse entry points (chunks, block gathers, refits, window closes) are
also recorded as :class:`~repro.obs.spans.SpanRecorder` spans for a
Chrome trace.  Per-request entry points (``process_scalar``,
``observe_scalar``, ``IndexedSet.sample``) are only aggregated.
``CachePolicy.request`` is never wrapped: the shim tier calls it once per
request, so a wrapper there would add per-request cost to the very tier it
measures.  Shim request counts come from the span bounds of
``CachePolicy.replay_span`` instead.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

from repro.core import detection, features, gbm, hro, lhr, model_backends, threshold
from repro.obs.spans import SpanRecorder
from repro.policies.base import CachePolicy
from repro.sim import engine
from repro.traces import packed
from repro.util import indexed_set


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _span_rows(args, kwargs, result):
    return _arg(args, kwargs, 5, "end") - _arg(args, kwargs, 4, "begin")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def kernel_classes() -> list[type]:
    """Policy classes with their own native ``replay_span`` (not LHR's)."""
    return sorted(
        (
            cls
            for cls in set(_subclasses(CachePolicy))
            if "replay_span" in vars(cls) and not issubclass(cls, lhr.LhrCache)
        ),
        key=lambda cls: cls.__name__,
    )


def backend_classes() -> list[type]:
    """Model backends with their own ``score_block``."""
    return sorted(
        (
            cls
            for cls in _subclasses(model_backends.ModelBackend)
            if "score_block" in vars(cls)
        ),
        key=lambda cls: cls.__name__,
    )


#: Wrapper groups by where their calls run.  A sweep replays its cells in
#: forked workers, whose accumulators never return, so sweeps install
#: only the parent-side group.
PARENT_SIDE = ("sim.parallel",)


class LayerTracer:
    """Timing wrappers over the program's layer entry points."""

    def __init__(self) -> None:
        self.spans = SpanRecorder(role="bench")
        #: key -> [calls, total_s, self_s, units]
        self.stats: dict[str, list] = {}
        #: policy name -> seconds inside its ``replay_span``
        self.replay_by_policy: dict[str, float] = {}
        #: (owner, attribute, original) in install order
        self.installed: list[tuple[object, str, object]] = []
        self._stack: list[float] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def targets(self) -> list[tuple]:
        """``(group, owner, attribute, key, span, units)`` for every entry
        point, in install order.  ``span`` is the span category for coarse
        entry points and None for per-request ones."""
        targets = [
            ("sim.engine", engine, "simulate", "simulate", "sim.engine", None),
            (
                "policies", CachePolicy, "replay_span", "replay_span.shim",
                "policies", _span_rows,
            ),
        ]
        targets += [
            (
                "policies", cls, "replay_span", f"replay_span.kernel.{cls.__name__}",
                "policies", _span_rows,
            )
            for cls in kernel_classes()
        ]
        targets += [
            ("core.lhr", lhr.LhrCache, "replay_span", "replay_span.lhr", "core.lhr", _span_rows),
            ("core.lhr", indexed_set.IndexedSet, "sample", "evict_sample", None, None),
            (
                "core.hro", lhr.LhrCache, "_window_closed", "window_close",
                "core.hro", None,
            ),
            (
                "core.features", features.FeatureStore, "feature_matrix",
                "feature_matrix", "core.features", _span_rows,
            ),
            ("core.features", features.FeatureStore, "observe_scalar", "observe", None, None),
            ("core.features", features.FeatureStore, "prune", "prune", "core.features", None),
        ]
        targets += [
            (
                "core.model_backends", cls, "score_block",
                f"score_block.{cls.__name__}", "core.model_backends",
                lambda a, k, r: len(_arg(a, k, 2, "rows")),
            )
            for cls in backend_classes()
        ]
        targets += [
            ("core.hro", hro.HroBound, "process_scalar", "hro_process", None, None),
            (
                "core.hro", hro, "window_labels_for_ids", "window_labels",
                "core.hro", None,
            ),
            (
                "core.threshold", threshold.ThresholdEstimator, "update",
                "threshold_update", "core.threshold", None,
            ),
            (
                "core.threshold", threshold, "shadow_hit_ratio", "shadow_replay", None,
                lambda a, k, r: len(_arg(a, k, 0, "samples")),
            ),
            (
                "core.gbm", gbm.GradientBoostingRegressor, "fit", "gbm_fit",
                "core.gbm", lambda a, k, r: len(_arg(a, k, 1, "features")),
            ),
            (
                "core.detection", detection.DriftDetector, "observe_window",
                "drift_check", "core.detection", lambda a, k, r: 1 if r else 0,
            ),
            (
                "sim.parallel", packed.SharedTraceBuffers, "create", "scatter",
                "sim.parallel", None,
            ),
        ]
        return targets

    def install(self, groups=None) -> "LayerTracer":
        """Wrap every target (or those whose group is in ``groups``)."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for group, owner, attr, key, span, units in self.targets():
            if groups is not None and group not in groups:
                continue
            self.stats[key] = [0, 0.0, 0.0, 0]
            if isinstance(owner, type):
                self._wrap_attr(owner, attr, key, span, units)
            else:
                self._wrap_function(owner, attr, key, span, units)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def _wrap_attr(self, owner: type, attr: str, key: str, span, units) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, key, span, units))
        else:
            wrapped = self._wrapper(raw, key, span, units)
        self.installed.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _wrap_function(self, module, name: str, key: str, span, units) -> None:
        """Wrap a module-level function everywhere it was imported by name,
        so callers that did ``from module import name`` see it too."""
        original = getattr(module, name)
        wrapped = self._wrapper(original, key, span, units)
        for other in list(sys.modules.values()):
            if (
                getattr(other, "__name__", "").startswith("repro")
                and getattr(other, name, None) is original
            ):
                self.installed.append((other, name, original))
                setattr(other, name, wrapped)

    def _wrapper(self, func, key: str, span_cat, units):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        spans = self.spans if span_cat is not None else None
        span_name = func.__qualname__
        by_policy = self.replay_by_policy if key.startswith("replay_span") else None

        @wraps(func)
        def wrapper(*args, **kwargs):
            handle = None
            if spans is not None:
                if by_policy is not None:
                    handle = spans.begin(span_name, cat=span_cat, policy=args[0].name)
                else:
                    handle = spans.begin(span_name, cat=span_cat)
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                if handle is not None:
                    spans.end(handle)
            if units is not None:
                stat[3] += units(args, kwargs, result)
            if by_policy is not None:
                name = args[0].name
                by_policy[name] = by_policy.get(name, 0.0) + elapsed
            return result

        wrapper.__layer_key__ = key
        return wrapper

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------

    def _sum(self, prefix: str, field: int) -> float:
        return sum(s[field] for k, s in self.stats.items() if k.startswith(prefix))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the accumulated stats.

        Keys of groups that were not installed read 0.
        """
        stat = lambda key: self.stats.get(key, [0, 0.0, 0.0, 0])  # noqa: E731
        calls, total, self_s, units = 0, 1, 2, 3
        lhr_requests = stat("replay_span.lhr")[units]
        matrix_rows = stat("feature_matrix")[units]
        out = {
            "sim.engine.self_s": stat("simulate")[self_s],
            "sim.engine.chunks": self._sum("replay_span", calls),
            "policies.kernel_s": self._sum("replay_span.kernel", total),
            "policies.shim_s": stat("replay_span.shim")[total],
            "policies.shim_requests": stat("replay_span.shim")[units],
            "core.lhr.kernel_self_s": stat("replay_span.lhr")[self_s],
            "core.lhr.evict_sample_s": stat("evict_sample")[total],
            "core.lhr.evict_samples": stat("evict_sample")[calls],
            "core.features.matrix_s": stat("feature_matrix")[total],
            "core.features.matrix_rows": matrix_rows,
            "core.features.rows_regathered": matrix_rows - lhr_requests,
            "core.features.observe_s": stat("observe")[total],
            "core.features.prune_s": stat("prune")[total],
            "core.model_backends.score_s": self._sum("score_block", total),
            "core.model_backends.rows_scored": self._sum("score_block", units),
            "core.hro.process_self_s": stat("hro_process")[self_s],
            "core.hro.windows": stat("window_close")[calls],
            "core.hro.labels_s": stat("window_labels")[total],
            "core.threshold.update_s": stat("threshold_update")[total],
            "core.threshold.updates": stat("threshold_update")[calls],
            "core.threshold.shadow_replays": stat("shadow_replay")[calls],
            "core.threshold.shadow_samples": stat("shadow_replay")[units],
            "core.gbm.fit_s": stat("gbm_fit")[total],
            "core.gbm.fits": stat("gbm_fit")[calls],
            "core.gbm.rows_trained": stat("gbm_fit")[units],
            "core.detection.observe_s": stat("drift_check")[total],
            "core.detection.detections": stat("drift_check")[units],
            "sim.parallel.scatter_s": stat("scatter")[total],
        }
        for policy, seconds in self.replay_by_policy.items():
            out[f"policies.replay_s.{policy}"] = seconds
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds per wrapper key (they sum to the traced time)."""
        return {key: s[2] for key, s in self.stats.items() if s[0]}
