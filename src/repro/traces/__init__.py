"""Trace substrate: request records, synthetic workloads, production-trace
stand-ins, trace I/O and trace characterization.

The paper evaluates on four proprietary CDN traces (Table 1).  Those traces
are not public, so :mod:`repro.traces.production` generates synthetic
stand-ins calibrated to the published per-trace statistics; see DESIGN.md
for the substitution rationale.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.traces.loader": ("load_trace_csv", "save_trace_csv"),
        "repro.traces.packed": (
            "PackedTrace", "SharedTraceBuffers", "SharedTraceDescriptor",
            "attach_shared_trace",
        ),
        "repro.traces.production": (
            "PRODUCTION_SPECS", "TraceSpec", "generate_production_trace",
        ),
        "repro.traces.request": ("Request", "Trace"),
        "repro.traces.stats": ("TraceSummary", "summarize_trace"),
        "repro.traces.synthetic": (
            "MarkovModulatedGenerator", "irm_trace", "syn_one_trace", "syn_two_trace",
        ),
    },
)

__all__ = list(_EXPORTS)
