"""The observation handle threaded through the simulator and policies.

An :class:`Observation` bundles the two sinks instrumentation writes to —
a structured-event recorder and a metrics registry — behind one object
that is cheap to carry and cheap to ignore:

* ``obs.emit("lhr.retrain", ...)`` records a structured event,
* ``obs.registry.counter(...)`` etc. for direct metric access.

A third sink, ``obs.spans``, carries the timeline recorder
(:mod:`repro.obs.spans`) — the one channel that times phases.  It
defaults to the no-op :data:`NULL_SPANS` and is deliberately *not*
covered by ``enabled``: ``enabled`` keeps meaning "events and metrics
flow", while span recording has its own ``obs.spans.enabled`` flag.

A fourth sink, ``obs.learner``, carries the per-window learner-health
telemetry (:mod:`repro.obs.learner`).  It follows the same contract as
spans: defaults to the no-op :data:`NULL_LEARNER` and has its own
``obs.learner.enabled`` flag outside ``enabled``.
:meth:`Observation.sidecars_only` builds a handle carrying only these
two sinks, with events and metrics off.

No sink changes which code runs.  The engine records at chunk edges
(``sim.*`` spans, ``sim.window`` events) and once per replay (the
``sim_*`` metrics); LHR's pipeline records its events, spans, metrics
and learner rows at window closes.  The native policy span kernels and
the per-request walker share both, so only a decision tracer pins the
walker, and only over the four inlined classic kernels
(``CachePolicy._pin_span_kernel``); LHR's and (W-)TinyLFU's kernels
walk ``request``, so they run traced or not.

The module-level :data:`NULL_OBS` singleton is the disabled handle:
``enabled`` is False and ``emit`` does nothing, so code holding it pays
one attribute check per instrumentation site.  Everything defaults to
:data:`NULL_OBS`; observation is strictly opt-in.
"""

from __future__ import annotations

from repro.obs.events import NullRecorder
from repro.obs.learner import NULL_LEARNER
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import NULL_SPANS


class Observation:
    """Live observation: events go to ``recorder``, metrics to ``registry``.

    ``recorder`` may stay a :class:`NullRecorder` when only metrics are
    wanted (the CLI's ``--metrics-out`` without ``--log-json``).
    """

    enabled = True

    def __init__(
        self,
        recorder=None,
        registry: MetricsRegistry | None = None,
        spans=None,
        learner=None,
    ):
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans = spans if spans is not None else NULL_SPANS
        self.learner = learner if learner is not None else NULL_LEARNER

    @classmethod
    def sidecars_only(cls, spans=None, learner=None) -> "Observation":
        """An observation carrying only sidecar sinks (spans and/or the
        learner telemetry), with ``enabled`` forced False — event
        emission and metrics behave exactly as with :data:`NULL_OBS`
        while the sidecars still record."""
        obs = cls(spans=spans, learner=learner)
        obs.enabled = False
        return obs

    def emit(self, event: str, **fields) -> None:
        self.recorder.emit(event, **fields)

    def flush(self) -> None:
        self.recorder.flush()

    def close(self) -> None:
        self.recorder.close()

    def __enter__(self) -> "Observation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _NullObservation(Observation):
    """The disabled handle — safe to share, impossible to observe with."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def emit(self, event: str, **fields) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared disabled observation; the default everywhere.
NULL_OBS = _NullObservation()
