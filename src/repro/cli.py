"""Command-line interface: ``python -m repro <command> ...``.

Subcommands cover the everyday workflows:

* ``trace generate|summarize|convert`` — create stand-in traces, inspect
  them (Table-1 columns), convert between CSV and webcachesim formats.
* ``simulate`` — run one policy over a trace.
* ``compare`` — run several policies across several cache sizes.
* ``analyze`` — decision-trace a policy and HRO over the same trace and
  report the miss taxonomy plus the per-window divergence between the
  policy's admission decisions and the oracle it imitates.
* ``bounds`` — compute offline/online bounds for a trace and cache size.
* ``curve`` — the exact LRU hit-rate curve over a capacity grid
  (reuse-distance analysis; no simulation sweep needed).
* ``prototype`` — replay a trace through the emulated ATS or Caffeine
  deployment (LHR vs the stock baseline).
* ``workload list|describe|generate|run`` — the non-stationary workload
  lab: enumerate the scenario registry, inspect a scenario's parameters,
  materialize a scenario trace, or sweep a policy grid over a scenario
  matrix and report hit ratios plus drift/retrain activity
  (``docs/WORKLOADS.md``).

* ``timeline`` — phase self-time breakdown, critical path, per-worker
  utilization and straggler cells of a run recorded with
  ``--trace-out`` (see ``docs/OBSERVABILITY.md``).
* ``learner`` — per-window learner-health report (calibration against
  realized reuse, Zipf alpha +/- stderr, shadow drift statistics,
  retrain-cause attribution) of a run recorded with ``--learner``
  (see ``docs/OBSERVABILITY.md``).

``simulate``, ``compare`` and ``workload run`` additionally take
``--trace-out PATH`` to record a cross-process span timeline and export
it as Chrome trace-event JSON (see ``docs/OBSERVABILITY.md``).

Capacities accept human-readable suffixes: ``512MB``, ``4GB``, ``1TB``,
or a plain byte count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bounds import belady_size, infinite_cap, pfoo_lower, pfoo_upper
from repro.core import hro_bound
from repro.core.lhr import LhrCache
from repro.obs import (
    NULL_OBS,
    FanoutRecorder,
    JsonlRecorder,
    LearnerTelemetry,
    MemoryRecorder,
    NullRecorder,
    Observation,
    RunLedger,
    SloSpec,
    SpanRecorder,
    TextRecorder,
    analyze_learner,
    analyze_spans,
    diff_records,
    evaluate_slo,
    record_from_results,
)
from repro.obs.learner import columns_to_series
from repro.proto import (
    AtsServer,
    make_ats_baseline,
    make_caffeine_baseline,
    make_caffeine_lhr,
    run_prototype,
)
from repro.sim import (
    build_policy,
    format_table,
    known_policies,
    run_comparison,
    simulate,
)
from repro.traces import generate_production_trace, summarize_trace
from repro.traces.loader import (
    load_trace_csv,
    load_trace_webcachesim,
    save_trace_csv,
    save_trace_webcachesim,
)
from repro.traces.production import PRODUCTION_SPECS
from repro.traces.request import Trace
from repro.workloads import (
    ScenarioConfig,
    generate_trace,
    get_scenario,
    known_scenarios,
    run_workload_lab,
)

_SIZE_SUFFIXES = {
    "kb": 1 << 10,
    "mb": 1 << 20,
    "gb": 1 << 30,
    "tb": 1 << 40,
    "b": 1,
}


def parse_size(text: str) -> int:
    """Parse ``"4GB"``/``"512mb"``/``"1048576"`` into bytes.

    Non-positive sizes are rejected rather than silently clamped: a
    ``"-1GB"`` cache is a typo, not a one-byte cache.
    """
    raw = text.strip().lower()
    value: float | None = None
    for suffix, multiplier in _SIZE_SUFFIXES.items():
        if raw.endswith(suffix):
            number = raw[: -len(suffix)].strip()
            try:
                value = float(number) * multiplier
            except ValueError:
                value = None
            break
    if value is None:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse size {text!r}"
            ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive, got {text!r}")
    # Sub-byte fractions like "0.5b" round up to the 1-byte minimum.
    return max(int(value), 1)


def load_any_trace(path: str) -> Trace:
    """Load a trace, dispatching on extension (.csv vs anything else)."""
    file_path = Path(path)
    if not file_path.exists():
        raise SystemExit(f"error: trace file {path!r} does not exist")
    is_csv = file_path.suffix.lower() == ".csv"
    load = load_trace_csv if is_csv else load_trace_webcachesim
    try:
        return load(file_path)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _save_any_trace(trace: Trace, path: str, fmt: str) -> None:
    if fmt == "csv":
        save_trace_csv(trace, path)
    else:
        save_trace_webcachesim(trace, path)


# ----------------------------------------------------------------------
# Observability plumbing (--log-json / --metrics-out / --verbose)
# ----------------------------------------------------------------------


def _build_observation(
    args: argparse.Namespace,
    spans: SpanRecorder | None = None,
    learner: LearnerTelemetry | None = None,
) -> Observation:
    """Assemble the observation handle the flags ask for.

    Returns :data:`NULL_OBS` (the zero-overhead disabled handle) when no
    observability flag is set.  A ``spans`` recorder (``--trace-out``)
    and a ``learner`` telemetry hub (``--learner``) ride the handle as
    extra sinks; when they are the *only* things asked for, the handle
    stays disabled (``Observation.sidecars_only``), so no events or
    metrics are built or shipped.  No handle changes which code replays
    the trace.  If a later recorder constructor fails, the ones already
    built are closed — no leaked file handles on bad flags.
    """
    recorders = []
    try:
        if getattr(args, "log_json", None):
            recorders.append(JsonlRecorder(args.log_json))
        if getattr(args, "verbose", False):
            recorders.append(TextRecorder(sys.stderr))
    except Exception:
        for recorder in recorders:
            recorder.close()
        raise
    if not recorders and not getattr(args, "metrics_out", None):
        if spans is not None or learner is not None:
            return Observation.sidecars_only(spans=spans, learner=learner)
        return NULL_OBS
    recorder = None
    if len(recorders) == 1:
        recorder = recorders[0]
    elif recorders:
        recorder = FanoutRecorder(*recorders)
    return Observation(recorder=recorder, spans=spans, learner=learner)


def _finish_observation(obs: Observation, args: argparse.Namespace) -> None:
    """Flush/close the recorder and write the metrics snapshot, if any."""
    if not obs.enabled:
        return
    obs.close()
    if getattr(args, "log_json", None):
        print(f"wrote event log to {args.log_json}", file=sys.stderr)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        obs.registry.write(metrics_out)
        print(f"wrote metrics snapshot to {metrics_out}", file=sys.stderr)


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-json", metavar="PATH", default=None,
        help="write structured JSONL events (sim.window, lhr.*, sweep.*) here",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a metrics-registry snapshot here (.prom/.txt = "
        "Prometheus text, anything else = JSON)",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="print each structured event to stderr as it happens",
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="record a span timeline of this run and write it here as "
        "Chrome trace-event JSON (loadable in Perfetto / chrome://tracing); "
        "the spans also land in the run ledger for `repro timeline`",
    )


def _span_recorder_for(args: argparse.Namespace) -> SpanRecorder | None:
    """A driver-side span recorder when ``--trace-out`` asked for one."""
    if getattr(args, "trace_out", None):
        return SpanRecorder(role="driver")
    return None


def _write_trace(spans: SpanRecorder | None, args: argparse.Namespace) -> None:
    """Write the recorded timeline as Chrome trace-event JSON, if asked."""
    if spans is None:
        return
    spans.write_chrome_trace(args.trace_out)
    print(
        f"wrote timeline trace ({len(spans)} spans) to {args.trace_out}",
        file=sys.stderr,
    )


def _add_learner_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--learner", action="store_true",
        help="record per-window learner-health telemetry (calibration, "
        "Zipf alpha +/- stderr, shadow drift statistics, retrain causes); "
        "the series lands in the run ledger for `repro learner`",
    )


def _learner_for(args: argparse.Namespace) -> LearnerTelemetry | None:
    """A driver-side learner telemetry hub when ``--learner`` asked."""
    if getattr(args, "learner", False):
        return LearnerTelemetry()
    return None


# ----------------------------------------------------------------------
# Run-ledger plumbing (--ledger / --no-ledger, `repro runs ...`)
# ----------------------------------------------------------------------


def _add_ledger_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger", metavar="DIR", default=None,
        help="run-ledger directory (default: $REPRO_LEDGER_DIR or "
        ".repro/runs); every run appends a RunRecord there",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not persist a RunRecord for this invocation",
    )


def _ledger_for(args: argparse.Namespace) -> RunLedger | None:
    """The ledger this invocation records to, or None with ``--no-ledger``."""
    if getattr(args, "no_ledger", False):
        return None
    return RunLedger(getattr(args, "ledger", None))


def _capture_events(obs: Observation) -> MemoryRecorder | None:
    """Splice a :class:`MemoryRecorder` into an enabled observation so
    the ledger can digest the event stream; returns the recorder, or
    None when ``obs`` is disabled (an undigested run is better than
    making every run emit, buffer and ship events it never asked for)."""
    if not obs.enabled:
        return None
    capture = MemoryRecorder()
    base = obs.recorder
    if type(base) is NullRecorder:
        obs.recorder = capture
    else:
        obs.recorder = FanoutRecorder(base, capture)
    return capture


def _record_run(
    ledger: RunLedger | None,
    command: str,
    config: dict,
    results,
    name: str = "",
    capture: MemoryRecorder | None = None,
    cell_tags=None,
    spans: SpanRecorder | None = None,
) -> None:
    """Persist one RunRecord; a ledger failure warns, never kills a run
    whose results are already in hand."""
    if ledger is None:
        return
    try:
        record = record_from_results(
            command,
            config,
            results,
            name=name,
            events=capture.events if capture is not None else None,
            cell_tags=cell_tags,
            spans=spans.as_dicts() if spans is not None else None,
        )
        run_id = ledger.record(record)
    except Exception as exc:  # noqa: BLE001 — bookkeeping must not fail the run
        print(f"warning: run ledger write failed: {exc}", file=sys.stderr)
        return
    print(f"run ledger: recorded {run_id} in {ledger.root}", file=sys.stderr)


def _open_ledger(args: argparse.Namespace) -> RunLedger:
    """The ledger a ``repro runs`` subcommand operates on."""
    return RunLedger(getattr(args, "ledger", None))


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------


def cmd_trace_generate(args: argparse.Namespace) -> int:
    """Generate a stand-in trace and write it to disk."""
    trace = generate_production_trace(args.spec, scale=args.scale, seed=args.seed)
    _save_any_trace(trace, args.output, args.format)
    print(
        f"wrote {len(trace)} requests "
        f"({trace.unique_bytes() / (1 << 30):.2f} GB unique) to {args.output}",
        file=sys.stderr,
    )
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Print the Table-1 style summary of a trace file."""
    trace = load_any_trace(args.trace)
    for key, value in summarize_trace(trace).as_table_row().items():
        print(f"{key:<30} {value}")
    return 0


def cmd_trace_convert(args: argparse.Namespace) -> int:
    """Convert a trace between CSV and webcachesim formats."""
    trace = load_any_trace(args.input)
    fmt = "csv" if Path(args.output).suffix.lower() == ".csv" else "webcachesim"
    _save_any_trace(trace, args.output, fmt)
    print(f"converted {len(trace)} requests -> {args.output} ({fmt})")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one policy over a trace and print the result row."""
    trace = load_any_trace(args.trace)
    policy = build_policy(args.policy, args.capacity)
    spans = _span_recorder_for(args)
    learner = _learner_for(args)
    obs = _build_observation(args, spans=spans, learner=learner)
    ledger = _ledger_for(args)
    capture = _capture_events(obs) if ledger is not None else None
    try:
        with obs:
            with obs.spans.span("cli.simulate", cat="cli", trace=args.trace):
                result = simulate(
                    policy,
                    trace,
                    window_requests=args.window,
                    warmup_requests=args.warmup,
                    obs=obs,
                )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    finally:
        _finish_observation(obs, args)
    _record_run(
        ledger,
        "simulate",
        {
            "trace": args.trace,
            "policy": args.policy,
            "capacity": args.capacity,
            "window": args.window,
            "warmup": args.warmup,
        },
        [result],
        name=Path(args.trace).name,
        capture=capture,
        spans=spans,
    )
    _write_trace(spans, args)
    print(format_table([result]))
    if args.window and result.windows:
        series = "  ".join(f"{w.hit_ratio:.3f}" for w in result.windows)
        print(f"per-window hit ratio: {series}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run several policies across several capacities."""
    trace = load_any_trace(args.trace)
    names = [name.strip() for name in args.policies.split(",") if name.strip()]
    spans = _span_recorder_for(args)
    learner = _learner_for(args)
    obs = _build_observation(args, spans=spans, learner=learner)
    ledger = _ledger_for(args)
    capture = _capture_events(obs) if ledger is not None else None
    try:
        with obs:
            with obs.spans.span("cli.compare", cat="cli", trace=args.trace):
                results = run_comparison(
                    trace,
                    names,
                    args.capacities,
                    window_requests=args.window,
                    warmup_requests=args.warmup,
                    parallel=args.jobs,
                    obs=obs,
                )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    finally:
        _finish_observation(obs, args)
    _record_run(
        ledger,
        "compare",
        {
            "trace": args.trace,
            "policies": names,
            "capacities": list(args.capacities),
            "window": args.window,
            "warmup": args.warmup,
            "jobs": args.jobs,
        },
        results,
        name=Path(args.trace).name,
        capture=capture,
        spans=spans,
    )
    _write_trace(spans, args)
    print(format_table(results))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Miss taxonomy + policy↔HRO divergence report for one trace."""
    from repro.obs.analyze import analyze_trace

    trace = load_any_trace(args.trace)
    try:
        report = analyze_trace(
            trace,
            args.capacity,
            policy=args.policy,
            window_requests=args.window,
            window_multiple=args.window_multiple,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    if args.csv:
        report.divergence.write_csv(args.csv)
        print(f"wrote per-window divergence series to {args.csv}", file=sys.stderr)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    """Print offline/online bounds for a trace and capacity."""
    trace = load_any_trace(args.trace)
    requests = trace.requests
    rows = [
        infinite_cap(requests),
        pfoo_upper(requests, args.capacity),
        hro_bound(trace, args.capacity, min_window_requests=512),
        belady_size(requests, args.capacity),
        pfoo_lower(requests, args.capacity),
    ]
    print(f"{'bound':<14}{'hit ratio':>10}{'byte hit':>10}")
    for row in rows:
        print(f"{row.name:<14}{row.hit_ratio:>10.4f}{row.byte_hit_ratio:>10.4f}")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    """Print the exact LRU hit-rate curve (and an optional target query)."""
    from repro.sim import lru_hit_rate_curve

    trace = load_any_trace(args.trace)
    curve = lru_hit_rate_curve(trace, num_points=args.points)
    print(f"{'capacity':>14}{'object hit':>12}{'byte hit':>10}")
    for capacity, object_hit, byte_hit in zip(
        curve.capacities, curve.object_hit_ratios, curve.byte_hit_ratios
    ):
        print(f"{int(capacity):>14}{object_hit:>12.4f}{byte_hit:>10.4f}")
    if args.target is not None:
        needed = curve.capacity_for_hit_ratio(args.target)
        if needed == float("inf"):
            print(f"target {args.target:.0%} object hits: unreachable")
        else:
            print(f"target {args.target:.0%} object hits: {int(needed)} bytes")
    return 0


def cmd_prototype(args: argparse.Namespace) -> int:
    """Replay a stand-in trace through the emulated ATS or Caffeine node."""
    spec = PRODUCTION_SPECS[args.spec]
    trace = generate_production_trace(spec, scale=args.scale, seed=args.seed)
    obs = _build_observation(args)
    try:
        if args.system == "ats":
            capacity = spec.scaled_cache_bytes(spec.prototype_cache_gb, args.scale)
            lhr_server = AtsServer(LhrCache(capacity, seed=0))
            baseline = make_ats_baseline(capacity)
        else:
            capacity = spec.scaled_cache_bytes(spec.caffeine_cache_gb, args.scale)
            lhr_server = make_caffeine_lhr(capacity)
            baseline = make_caffeine_baseline(capacity)
        if obs.enabled:
            lhr_server.policy.attach_observation(obs)
            baseline.policy.attach_observation(obs)
        reports = [
            run_prototype(lhr_server, trace, "lhr"),
            run_prototype(baseline, trace, args.system),
        ]
    finally:
        _finish_observation(obs, args)
    rows = [report.as_row() for report in reports]
    columns = list(rows[0])
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in columns))
    return 0


# ----------------------------------------------------------------------
# Run ledger (repro runs ...)
# ----------------------------------------------------------------------


def cmd_runs_list(args: argparse.Namespace) -> int:
    """One line per recorded run, oldest first."""
    ledger = _open_ledger(args)
    rows = ledger.summaries(limit=args.limit)
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if not rows:
        print(f"run ledger {ledger.root}: no runs recorded")
        return 0
    header = (
        f"{'run id':<34}{'created (utc)':<22}{'command':<10}"
        f"{'cells':>6}{'windows':>9}  name"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['run_id']:<34}{row['created_utc']:<22}"
            f"{row['command']:<10}{row['cells']:>6}{row['windows']:>9}"
            f"  {row['name']}"
        )
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    """Full manifest (and per-cell table) of one run."""
    ledger = _open_ledger(args)
    try:
        record = ledger.load(args.run)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.format == "json":
        print(json.dumps(record.manifest(), indent=2, sort_keys=True))
        return 0
    print(f"run {record.run_id}  ({record.command}: {record.name})")
    print(f"  created  {record.created_utc}")
    print(f"  git rev  {record.git_rev}")
    print(f"  config   {record.config_digest}")
    for key, value in sorted(record.metrics.items()):
        print(f"  {key:<22} {value}")
    for key, value in sorted(record.events.items()):
        print(f"  events.{key:<15} {value}")
    if record.span_count():
        print(
            f"  spans    {record.span_count()} recorded  "
            f"(view: repro timeline {record.run_id})"
        )
    else:
        print("  spans    none recorded (capture with --trace-out)")
    if record.learner_window_count():
        print(
            f"  learner  {record.learner_window_count()} windows recorded  "
            f"(view: repro learner {record.run_id})"
        )
    else:
        print("  learner  none recorded (capture with --learner)")
    if not record.series:
        print("  series   none recorded (per-window series need --window N)")
    if record.cells:
        header = (
            f"  {'policy':<14}{'capacity':>12}{'hit':>8}{'byte-hit':>10}"
            f"{'evict':>8}{'windows':>9}"
        )
        print(header)
        print("  " + "-" * (len(header) - 2))
        for cell in record.cells:
            label = cell.get("policy", "?")
            if cell.get("scenario"):
                label = f"{cell['scenario']}/{label}"
            print(
                f"  {label:<14}{cell.get('capacity', 0):>12}"
                f"{cell.get('object_hit_ratio', 0.0):>8.4f}"
                f"{cell.get('byte_hit_ratio', 0.0):>10.4f}"
                f"{cell.get('evictions', 0):>8}{cell.get('windows', 0):>9}"
            )
    return 0


def cmd_runs_diff(args: argparse.Namespace) -> int:
    """Per-cell and per-window deltas between two runs."""
    ledger = _open_ledger(args)
    try:
        diff = diff_records(ledger.load(args.run_a), ledger.load(args.run_b))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.format == "json":
        print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(diff.render_text())
    return 0


def cmd_runs_export(args: argparse.Namespace) -> int:
    """Flatten one run's window series to CSV."""
    ledger = _open_ledger(args)
    try:
        rows = ledger.export_csv(args.run, args.csv)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"wrote {rows} window rows to {args.csv}", file=sys.stderr)
    if rows == 0:
        print(
            "note: this run has no per-window series (run with --window N "
            "to record one)"
        )
    return 0


def cmd_runs_check(args: argparse.Namespace) -> int:
    """Evaluate an SLO spec against one run; exit 1 on violation, or 0
    with ``--warn-only``."""
    ledger = _open_ledger(args)
    try:
        spec = SloSpec.from_file(args.slo)
        record = ledger.load(args.run, series=False)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {args.slo}: {exc}") from None
    report = evaluate_slo(spec, record)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    if not report.ok and args.warn_only:
        print("warn-only: SLO violated but exiting 0", file=sys.stderr)
        return 0
    return 0 if report.ok else 1


def cmd_timeline(args: argparse.Namespace) -> int:
    """Phase breakdown, critical path and straggler stats of one traced
    run (recorded with ``--trace-out``)."""
    ledger = _open_ledger(args)
    try:
        record = ledger.load(args.run, series=False)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    if not record.spans:
        # A run without a spans sidecar is a normal state (recorded
        # without --trace-out), not a broken invocation: say so clearly
        # and exit cleanly.
        if args.format == "json":
            print(json.dumps({"run": record.run_id, "spans": 0}, indent=2))
        else:
            print(
                f"run {record.run_id} recorded no spans; re-run with "
                "--trace-out to capture a timeline"
            )
        return 0
    report = analyze_spans(record.spans)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"timeline of run {record.run_id}  ({record.command}: "
              f"{record.name})")
        print(report.render_text())
    return 0


def cmd_learner(args: argparse.Namespace) -> int:
    """Per-window learner-health report (calibration, drift evidence,
    retrain causes) of one run recorded with ``--learner``."""
    ledger = _open_ledger(args)
    try:
        record = ledger.load(args.run, series=False, spans=False, learner=True)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    if not record.learner:
        # Like `repro timeline` on an untraced run: absence of the
        # sidecar is a normal state, reported clearly with exit 0.
        if args.format == "json":
            print(
                json.dumps(
                    {"run": record.run_id, "cells": [], "thrash": []},
                    indent=2,
                )
            )
        else:
            print(
                f"run {record.run_id} recorded no learner telemetry; "
                "re-run with --learner to capture it"
            )
        return 0
    cells = columns_to_series(record.learner, record.cells)
    report = analyze_learner(record.run_id, cells)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"({record.command}: {record.name})")
        print(report.render_text(timeline=not args.no_timeline))
    return 0


def cmd_runs_gc(args: argparse.Namespace) -> int:
    """Prune all but the newest ``--keep`` runs."""
    ledger = _open_ledger(args)
    try:
        doomed = ledger.gc(args.keep, dry_run=args.dry_run)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    verb = "would prune" if args.dry_run else "pruned"
    print(
        f"{verb} {len(doomed)} run(s), kept {len(ledger.run_ids())} "
        f"in {ledger.root}"
    )
    for run_id in doomed:
        print(f"  {run_id}")
    return 0


# ----------------------------------------------------------------------
# Workload lab (repro workload ...)
# ----------------------------------------------------------------------


def _parse_scenario_params(pairs: list[str] | None) -> dict:
    """Parse repeated ``--param key=value`` overrides (numbers only)."""
    params: dict = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: --param expects key=value, got {pair!r}")
        try:
            value: float = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise SystemExit(
                    f"error: --param {key} expects a number, got {raw!r}"
                ) from None
        params[key] = value
    return params


def _scenario_configs(args: argparse.Namespace) -> list[ScenarioConfig]:
    """Resolve ``--scenario`` (name, comma list or ``all``) into configs."""
    names = [name.strip() for name in args.scenario.split(",") if name.strip()]
    if "all" in names:
        names = known_scenarios()
    params = _parse_scenario_params(getattr(args, "param", None))
    try:
        return [
            ScenarioConfig.make(name, args.requests, args.seed, **params)
            for name in names
        ]
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def cmd_workload_list(args: argparse.Namespace) -> int:
    """One line per registered scenario."""
    for name in known_scenarios():
        print(f"{name:<16} {get_scenario(name).description}")
    return 0


def cmd_workload_describe(args: argparse.Namespace) -> int:
    """Parameters and defaults for one scenario."""
    try:
        scenario = get_scenario(args.scenario)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"{scenario.name}: {scenario.description}")
    print("parameters (name = default):")
    for key, value in sorted(scenario.defaults.items()):
        print(f"  {key} = {value}")
    return 0


def cmd_workload_generate(args: argparse.Namespace) -> int:
    """Materialize one scenario trace and write it to disk."""
    configs = _scenario_configs(args)
    if len(configs) != 1:
        raise SystemExit("error: generate takes exactly one --scenario")
    trace = generate_trace(configs[0])
    _save_any_trace(trace, args.output, args.format)
    print(
        f"wrote {len(trace)} requests ({configs[0].describe()}) to {args.output}",
        file=sys.stderr,
    )
    return 0


def cmd_workload_run(args: argparse.Namespace) -> int:
    """Sweep the policy grid over a scenario matrix; print the lab report."""
    configs = _scenario_configs(args)
    policies = [name.strip() for name in args.policies.split(",") if name.strip()]
    ledger = _ledger_for(args)
    recorder = MemoryRecorder()
    spans = _span_recorder_for(args)
    root_span = (
        spans.begin("cli.workload-run", cat="cli", scenarios=len(configs))
        if spans is not None
        else None
    )
    try:
        report = run_workload_lab(
            configs,
            policies,
            capacity_fraction=args.capacity_fraction,
            jobs=args.jobs,
            window_requests=args.window,
            analyze=args.analyze,
            recorder=recorder,
            spans=spans,
            learner=args.learner,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    if root_span is not None:
        spans.end(root_span)
    if ledger is not None:
        # Flatten the scenario × policy matrix into one cell grid; each
        # cell carries its scenario tag so diffs/SLOs can select on it.
        results = []
        tags = []
        for scenario_report in report.reports:
            for cell in scenario_report.cells:
                if cell.result is None:
                    continue
                results.append(cell.result)
                tags.append(
                    {
                        "scenario": scenario_report.scenario,
                        "drift_windows": cell.drift_windows,
                        "drift_detections": cell.drift_detections,
                        "retrains": cell.retrains,
                    }
                )
        _record_run(
            ledger,
            "workload",
            {
                "scenarios": [config.as_dict() for config in configs],
                "policies": policies,
                "capacity_fraction": args.capacity_fraction,
                "window": args.window,
            },
            results,
            name=",".join(config.scenario for config in configs),
            capture=recorder,
            cell_tags=tags,
            spans=spans,
        )
    _write_trace(spans, args)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    if args.json_out:
        Path(args.json_out).write_text(report.to_json() + "\n")
        print(f"wrote lab report to {args.json_out}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Learning from Optimal Caching for "
        "Content Delivery' (CoNEXT 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="generate / summarize / convert traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    gen = trace_sub.add_parser("generate", help="generate a stand-in trace")
    gen.add_argument("--spec", choices=sorted(PRODUCTION_SPECS), default="cdn-a")
    gen.add_argument("--scale", type=float, default=0.01)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=("csv", "webcachesim"), default="csv")
    gen.add_argument("--output", "-o", required=True)
    gen.set_defaults(func=cmd_trace_generate)

    summ = trace_sub.add_parser("summarize", help="Table-1 style summary")
    summ.add_argument("trace")
    summ.set_defaults(func=cmd_trace_summarize)

    conv = trace_sub.add_parser("convert", help="convert between formats")
    conv.add_argument("input")
    conv.add_argument("output")
    conv.set_defaults(func=cmd_trace_convert)

    sim = sub.add_parser("simulate", help="run one policy over a trace")
    sim.add_argument("--trace", required=True)
    sim.add_argument("--policy", choices=known_policies(), default="lhr")
    sim.add_argument("--capacity", type=parse_size, required=True)
    sim.add_argument("--window", type=int, default=0, help="per-window series")
    sim.add_argument(
        "--warmup", type=int, default=0,
        help="requests replayed before metrics start counting",
    )
    _add_observability_flags(sim)
    _add_trace_flag(sim)
    _add_learner_flag(sim)
    _add_ledger_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    comp = sub.add_parser("compare", help="sweep policies x cache sizes")
    comp.add_argument("--trace", required=True)
    comp.add_argument(
        "--policies", default="lhr,lru,w-tinylfu", help="comma-separated names"
    )
    comp.add_argument(
        "--capacities", type=parse_size, nargs="+", required=True
    )
    comp.add_argument(
        "--jobs", "-j", type=int, default=0,
        help="worker processes for the sweep (0/1 = serial; results are "
        "bit-identical either way)",
    )
    comp.add_argument("--window", type=int, default=0, help="sliding window size")
    comp.add_argument(
        "--warmup", type=int, default=0,
        help="requests replayed before metrics start counting",
    )
    _add_observability_flags(comp)
    _add_trace_flag(comp)
    _add_learner_flag(comp)
    _add_ledger_flags(comp)
    comp.set_defaults(func=cmd_compare)

    analyze = sub.add_parser(
        "analyze",
        help="miss taxonomy + policy-vs-HRO divergence report",
    )
    analyze.add_argument("--trace", required=True)
    analyze.add_argument("--policy", choices=known_policies(), default="lhr")
    analyze.add_argument("--capacity", type=parse_size, required=True)
    analyze.add_argument(
        "--window", type=int, default=1000,
        help="requests per divergence-report window",
    )
    analyze.add_argument(
        "--window-multiple", type=float, default=4.0,
        help="HRO sliding-window size as a multiple of the cache size",
    )
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout report format",
    )
    analyze.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the per-window divergence time series as CSV",
    )
    analyze.set_defaults(func=cmd_analyze)

    bounds = sub.add_parser("bounds", help="offline/online bounds for a trace")
    bounds.add_argument("--trace", required=True)
    bounds.add_argument("--capacity", type=parse_size, required=True)
    bounds.set_defaults(func=cmd_bounds)

    curve = sub.add_parser("curve", help="exact LRU hit-rate curve")
    curve.add_argument("--trace", required=True)
    curve.add_argument("--points", type=int, default=16)
    curve.add_argument("--target", type=float, default=None,
                       help="also report the capacity for this hit ratio")
    curve.set_defaults(func=cmd_curve)

    proto = sub.add_parser("prototype", help="emulated ATS/Caffeine deployment")
    proto.add_argument("--spec", choices=sorted(PRODUCTION_SPECS), default="cdn-a")
    proto.add_argument("--system", choices=("ats", "caffeine"), default="ats")
    proto.add_argument("--scale", type=float, default=0.01)
    proto.add_argument("--seed", type=int, default=0)
    _add_observability_flags(proto)
    proto.set_defaults(func=cmd_prototype)

    workload = sub.add_parser(
        "workload",
        help="non-stationary scenario lab: list / describe / generate / run",
    )
    workload_sub = workload.add_subparsers(dest="workload_command", required=True)

    wl_list = workload_sub.add_parser("list", help="registered scenarios")
    wl_list.set_defaults(func=cmd_workload_list)

    wl_desc = workload_sub.add_parser(
        "describe", help="parameters and defaults for one scenario"
    )
    wl_desc.add_argument("--scenario", required=True)
    wl_desc.set_defaults(func=cmd_workload_describe)

    wl_gen = workload_sub.add_parser(
        "generate", help="materialize one scenario trace to a file"
    )
    wl_gen.add_argument("--scenario", required=True)
    wl_gen.add_argument("--requests", type=int, default=4000)
    wl_gen.add_argument("--seed", type=int, default=0)
    wl_gen.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    wl_gen.add_argument("--format", choices=("csv", "webcachesim"), default="csv")
    wl_gen.add_argument("--output", "-o", required=True)
    wl_gen.set_defaults(func=cmd_workload_generate)

    wl_run = workload_sub.add_parser(
        "run", help="policy grid over a scenario matrix (the drift stress grid)"
    )
    wl_run.add_argument(
        "--scenario", default="all",
        help="scenario name, comma-separated list, or 'all'",
    )
    wl_run.add_argument(
        "--policies", default="lhr,lru,w-tinylfu", help="comma-separated names"
    )
    wl_run.add_argument("--requests", type=int, default=4000)
    wl_run.add_argument("--seed", type=int, default=0)
    wl_run.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="override a scenario parameter for every scenario (repeatable)",
    )
    wl_run.add_argument(
        "--capacity-fraction", type=float, default=0.1,
        help="cache capacity as a fraction of each scenario's unique bytes",
    )
    wl_run.add_argument(
        "--jobs", "-j", type=int, default=0,
        help="worker processes per sweep (0/1 = serial; bit-identical)",
    )
    wl_run.add_argument("--window", type=int, default=0, help="sliding window size")
    wl_run.add_argument(
        "--analyze", action="store_true",
        help="also run the LHR-vs-HRO divergence audit per scenario",
    )
    wl_run.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout report format",
    )
    wl_run.add_argument(
        "--json", dest="json_out", metavar="PATH", default=None,
        help="also write the full report as JSON here",
    )
    _add_trace_flag(wl_run)
    _add_learner_flag(wl_run)
    _add_ledger_flags(wl_run)
    wl_run.set_defaults(func=cmd_workload_run)

    runs = sub.add_parser(
        "runs",
        help="run ledger: list / show / diff / export / check / gc",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _runs_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger", metavar="DIR", default=None,
            help="ledger directory (default $REPRO_LEDGER_DIR or .repro/runs)",
        )

    r_list = runs_sub.add_parser("list", help="one line per recorded run")
    _runs_common(r_list)
    r_list.add_argument(
        "--limit", type=int, default=0, metavar="N",
        help="only the newest N runs (0 = all)",
    )
    r_list.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    r_list.set_defaults(func=cmd_runs_list)

    r_show = runs_sub.add_parser("show", help="full manifest of one run")
    _runs_common(r_show)
    r_show.add_argument(
        "run", help="run id, unique prefix, 'latest', or 'latest~N'"
    )
    r_show.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    r_show.set_defaults(func=cmd_runs_show)

    r_diff = runs_sub.add_parser(
        "diff", help="per-cell and per-window deltas between two runs"
    )
    _runs_common(r_diff)
    r_diff.add_argument("run_a", help="baseline run ref")
    r_diff.add_argument("run_b", help="candidate run ref")
    r_diff.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    r_diff.set_defaults(func=cmd_runs_diff)

    r_export = runs_sub.add_parser(
        "export", help="flatten one run's window series to CSV"
    )
    _runs_common(r_export)
    r_export.add_argument("run", help="run ref (see 'runs show')")
    r_export.add_argument(
        "--csv", metavar="PATH", required=True, help="output CSV path"
    )
    r_export.set_defaults(func=cmd_runs_export)

    r_check = runs_sub.add_parser(
        "check", help="evaluate an SLO spec against one run (exit 1 on "
        "violation)"
    )
    _runs_common(r_check)
    r_check.add_argument("run", help="run ref (see 'runs show')")
    r_check.add_argument(
        "--slo", metavar="PATH", required=True,
        help="repro-slo/1 JSON spec file",
    )
    r_check.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    r_check.add_argument(
        "--warn-only", action="store_true",
        help="report violations but exit 0 (CI advisory mode)",
    )
    r_check.set_defaults(func=cmd_runs_check)

    r_gc = runs_sub.add_parser(
        "gc", help="prune all but the newest --keep runs"
    )
    _runs_common(r_gc)
    r_gc.add_argument(
        "--keep", type=int, required=True, metavar="N",
        help="number of newest runs to keep",
    )
    r_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be pruned without deleting",
    )
    r_gc.set_defaults(func=cmd_runs_gc)

    timeline = sub.add_parser(
        "timeline",
        help="phase breakdown, critical path and stragglers of a traced run",
    )
    timeline.add_argument(
        "run", nargs="?", default="latest",
        help="run ref (id, unique prefix, 'latest', 'latest~N'); "
        "default latest",
    )
    timeline.add_argument(
        "--ledger", metavar="DIR", default=None,
        help="ledger directory (default $REPRO_LEDGER_DIR or .repro/runs)",
    )
    timeline.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    timeline.set_defaults(func=cmd_timeline)

    learner = sub.add_parser(
        "learner",
        help="per-window learner-health report of a run recorded with "
        "--learner (calibration, drift evidence, retrain causes)",
    )
    learner.add_argument(
        "run", nargs="?", default="latest",
        help="run ref (id, unique prefix, 'latest', 'latest~N'); "
        "default latest",
    )
    learner.add_argument(
        "--ledger", metavar="DIR", default=None,
        help="ledger directory (default $REPRO_LEDGER_DIR or .repro/runs)",
    )
    learner.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    learner.add_argument(
        "--no-timeline", action="store_true",
        help="omit the per-window drift-evidence timeline table",
    )
    learner.set_defaults(func=cmd_learner)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
