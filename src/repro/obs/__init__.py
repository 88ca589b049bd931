"""Observability substrate: metrics registry, structured events,
span-based timeline tracing (cross-process spans, Perfetto export,
critical-path/straggler analysis), learner telemetry and the persistent
run ledger (cross-run experiment tracking and SLO checks).

The package binds each public name on first access, so the replay path
(``Observation``, the registry, events, spans, learner telemetry and the
decision tracer) loads without the ledger or the SLO checker;
``from repro.obs import name`` loads only the module that defines
``name``.

See ``docs/OBSERVABILITY.md`` for the event catalog, metric naming and
CLI usage (``--log-json``, ``--metrics-out``, ``--verbose``,
``--trace-out``, ``--learner``, ``repro timeline``, ``repro learner``,
``repro runs``).
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.obs.events": (
            "EVENT_TYPES", "FanoutRecorder", "JsonlRecorder", "MemoryRecorder",
            "NullRecorder", "TextRecorder", "read_events_jsonl", "register_event_type",
        ),
        "repro.obs.learner": (
            "CAL_BINS", "NULL_LEARNER", "RETRAIN_CAUSES", "CalibrationStats",
            "LearnerCellReport", "LearnerReport", "LearnerSeries", "LearnerTelemetry",
            "analyze_learner", "kendall_tau", "rank_overlap", "realized_reuse",
        ),
        "repro.obs.observation": ("NULL_OBS", "Observation"),
        "repro.obs.registry": (
            "DEFAULT_TIME_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        ),
        "repro.obs.runs": (
            "RunDiff", "RunLedger", "RunRecord", "config_digest", "current_git_rev",
            "default_ledger_root", "diff_records", "digest_events",
            "record_from_results",
        ),
        "repro.obs.slo": ("SloReport", "SloRule", "SloSpec", "evaluate_slo"),
        "repro.obs.spans": (
            "NULL_SPANS", "Span", "SpanRecorder", "chrome_trace", "write_chrome_trace",
        ),
        "repro.obs.timeline": (
            "CriticalHop", "PhaseStat", "StragglerStats", "TimelineReport",
            "WorkerLane", "analyze_spans",
        ),
        "repro.obs.trace": (
            "MISS_CLASSES", "DecisionRecord", "DecisionTracer", "MissTaxonomy",
            "TraceConfig",
        ),
    },
)

__all__ = list(_EXPORTS)
