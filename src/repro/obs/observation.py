"""The observation handle threaded through the simulator and policies.

An :class:`Observation` bundles the two sinks instrumentation writes to —
a structured-event recorder and a metrics registry — behind one object
that is cheap to carry and cheap to ignore:

* ``obs.emit("lhr.retrain", ...)`` records a structured event,
* ``obs.timer("lhr_train_seconds")`` returns a scoped timer whose
  duration aggregates into a registry histogram,
* ``obs.registry.counter(...)`` etc. for direct metric access.

A third sink, ``obs.spans``, carries the timeline recorder
(:mod:`repro.obs.spans`); it defaults to the no-op :data:`NULL_SPANS`
and is deliberately *not* covered by ``enabled`` — ``enabled`` keeps
meaning "events and metrics flow", while span recording has its own
``obs.spans.enabled`` flag.  That split is what lets
:meth:`Observation.spans_only` record a timeline while native policy
span kernels (pinned to the base walker only while ``obs.enabled``)
stay engaged.

A fourth sink, ``obs.learner``, carries the per-window learner-health
telemetry (:mod:`repro.obs.learner`).  It follows the same contract as
spans: defaults to the no-op :data:`NULL_LEARNER`, has its own
``obs.learner.enabled`` flag outside ``enabled``, and — because it only
collects at window close from buffers LHR already keeps — leaves the
native span kernels and the per-request accounting bit-identical.

The module-level :data:`NULL_OBS` singleton is the disabled handle:
``enabled`` is False, ``emit`` does nothing and ``timer`` returns a
shared no-op, so code holding it pays one attribute check per
instrumentation site.  Everything defaults to :data:`NULL_OBS`;
observation is strictly opt-in.
"""

from __future__ import annotations

from repro.obs.events import NullRecorder
from repro.obs.learner import NULL_LEARNER
from repro.obs.registry import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.obs.spans import NULL_SPANS
from repro.obs.timers import NULL_TIMER, ScopedTimer


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
    def spans_only(cls, spans) -> "Observation":
        """An observation that records *only* the span timeline.

        ``enabled`` is forced False on the instance, so event emission,
        metrics and native policy span kernels all behave exactly as
        with :data:`NULL_OBS` — ``--trace-out`` without other
        observability flags must not change what executes, only record
        when it ran.
        """
        obs = cls(spans=spans)
        obs.enabled = False
        return obs

    @classmethod
    def sidecars_only(cls, spans=None, learner=None) -> "Observation":
        """An observation carrying only sidecar sinks (spans and/or the
        learner telemetry), with ``enabled`` forced False — native span
        kernels, event emission and metrics behave exactly as with
        :data:`NULL_OBS` while the sidecars still record."""
        obs = cls(spans=spans, learner=learner)
        obs.enabled = False
        return obs

    def emit(self, event: str, **fields) -> None:
        self.recorder.emit(event, **fields)

    def timer(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> ScopedTimer:
        """A scoped timer aggregating into histogram ``name``."""
        return ScopedTimer(self.registry.histogram(name, help=help, buckets=buckets))

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

    def timer(self, name, help="", buckets=DEFAULT_TIME_BUCKETS):
        return NULL_TIMER

    def close(self) -> None:
        pass


#: Shared disabled observation; the default everywhere.
NULL_OBS = _NullObservation()
