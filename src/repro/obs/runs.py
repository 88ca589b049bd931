"""Persistent run ledger: append-only cross-run experiment tracking.

Every ``simulate`` / ``compare`` / workload-lab invocation can persist
a :class:`RunRecord` — run id, UTC timestamp, git revision, config
digest, final metrics snapshot, per-cell results, an event digest
(drift/retrain/failure counts) and the per-window time series — into a
:class:`RunLedger` rooted at a directory.  The ledger is what makes the
paper's longitudinal questions answerable *across* runs: LHR's
advantage over LRU/HRO shows up in per-window hit-ratio trajectories
under drift, and a single end-of-run scalar (or a single hand-committed
baseline file) cannot carry that history.

Layout on disk (append-only; one directory per run)::

    <root>/<run_id>/manifest.json   # provenance + metrics + cells
    <root>/<run_id>/series.npz      # per-cell per-window columns
    <root>/<run_id>/spans.json      # timeline spans (traced runs only)
    <root>/<run_id>/learner.npz     # learner-health columns (telemetry runs)

``run_id`` is ``<UTC timestamp>-<config digest prefix>`` so a plain
lexicographic sort is chronological.  Writes are atomic at the run
granularity: the series file lands first and the manifest is renamed
into place last, so a reader never sees a manifest without its series
and a crashed writer leaves at worst an ignorable manifest-less
directory.

The consumer surface is the ``repro runs`` CLI family (``list`` /
``show`` / ``diff`` / ``export`` / ``check`` / ``gc``).  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.obs.learner import series_to_columns as learner_series_to_columns

RUN_SCHEMA = "repro-run/1"

#: The npz column names stored per cell, in manifest order.  They mirror
#: :class:`~repro.sim.metrics.WindowMetrics` exactly (plus the eviction
#: pressure column the engine tracks per window), so the on-disk series
#: bit-matches the in-memory stream of a seeded run.
SERIES_FIELDS = ("requests", "hits", "hit_bytes", "total_bytes", "evictions")

__all__ = [
    "RUN_SCHEMA",
    "SERIES_FIELDS",
    "RunDiff",
    "RunLedger",
    "RunRecord",
    "config_digest",
    "current_git_rev",
    "default_ledger_root",
    "digest_events",
    "diff_records",
    "record_from_results",
    "series_from_results",
]


# ----------------------------------------------------------------------
# Provenance helpers
# ----------------------------------------------------------------------


def config_digest(config: dict) -> str:
    """Stable 16-hex-digit digest of a JSON-able config mapping.

    Canonical JSON (sorted keys, no whitespace variance) in, SHA-256
    prefix out — two runs share a digest iff they share a config.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_GIT_REV: str | None = None


def current_git_rev() -> str:
    """The repo HEAD revision, or ``"unknown"`` outside a git checkout.

    ``REPRO_GIT_REV`` overrides (CI images without a .git directory);
    the subprocess result is cached per process — provenance stamping
    must never add per-run fork cost.
    """
    global _GIT_REV
    override = os.environ.get("REPRO_GIT_REV")
    if override:
        return override
    if _GIT_REV is None:
        try:
            _GIT_REV = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=Path(__file__).resolve().parent,
                check=True,
            ).stdout.strip() or "unknown"
        except Exception:  # noqa: BLE001 — no git, no .git, no permission
            _GIT_REV = "unknown"
    return _GIT_REV


def default_ledger_root() -> Path:
    """``$REPRO_LEDGER_DIR`` when set, else ``.repro/runs`` in the CWD."""
    override = os.environ.get("REPRO_LEDGER_DIR")
    if override:
        return Path(override)
    return Path(".repro") / "runs"


def digest_events(events) -> dict:
    """Fold an event stream into the ledger's compact activity digest.

    Counts the learner lifecycle (windows inspected / drift detections /
    retrains) and failed sweep cells — the numbers SLO rules and
    cross-run diffs care about, without persisting the full stream.
    """
    digest = {
        "drift_windows": 0,
        "drift_detections": 0,
        "retrains": 0,
        "failures": 0,
    }
    for event in events or ():
        kind = event.get("event")
        if kind == "lhr.drift":
            digest["drift_windows"] += 1
            if event.get("drifted"):
                digest["drift_detections"] += 1
        elif kind == "lhr.retrain":
            digest["retrains"] += 1
        elif kind == "sweep.cell_failed":
            digest["failures"] += 1
    return digest


# ----------------------------------------------------------------------
# RunRecord
# ----------------------------------------------------------------------


@dataclass
class RunRecord:
    """One persisted invocation: provenance, outcome, and time series.

    ``series`` maps ``"c<i>.<field>"`` (cell position in ``cells``,
    field from :data:`SERIES_FIELDS`) to an int64 column of per-window
    values; it rides a sidecar npz, everything else the JSON manifest.
    ``spans`` holds the run's timeline span dicts
    (:meth:`~repro.obs.spans.SpanRecorder.as_dicts`) when the run was
    traced; they ride a ``spans.json`` sidecar and feed ``repro
    timeline``.  Empty provenance fields (``run_id``, ``created_utc``,
    ``git_rev``, ``config_digest``) are stamped by
    :meth:`RunLedger.record`.
    """

    command: str
    name: str = ""
    run_id: str = ""
    schema: str = RUN_SCHEMA
    created_utc: str = ""
    git_rev: str = ""
    config: dict = field(default_factory=dict)
    config_digest: str = ""
    metrics: dict = field(default_factory=dict)
    cells: list = field(default_factory=list)
    events: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    #: Per-cell learner-health columns (``"c<i>.<column>"`` →
    #: float64 array, see :mod:`repro.obs.learner`); rides a
    #: ``learner.npz`` sidecar and feeds ``repro learner``.
    learner: dict = field(default_factory=dict)
    #: Manifest-recorded span count; lets summaries report "traced"
    #: without loading the ``spans.json`` sidecar.
    _manifest_span_count: int = field(default=0, repr=False, compare=False)
    #: Manifest-recorded learner window total; lets summaries report
    #: "learner telemetry present" without loading ``learner.npz``.
    _manifest_learner_windows: int = field(default=0, repr=False, compare=False)

    def manifest(self) -> dict:
        """The JSON-able manifest (everything except the raw columns)."""
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "created_utc": self.created_utc,
            "command": self.command,
            "name": self.name,
            "git_rev": self.git_rev,
            "config": self.config,
            "config_digest": self.config_digest,
            "metrics": self.metrics,
            "cells": list(self.cells),
            "events": dict(self.events),
            "extra": dict(self.extra),
            "series_cells": sorted(
                {key.split(".", 1)[0] for key in self.series}
            ),
            "span_count": len(self.spans),
            "learner_windows": self.learner_window_count(),
        }

    def summary(self) -> dict:
        """One ``repro runs list`` row."""
        return {
            "run_id": self.run_id,
            "created_utc": self.created_utc,
            "command": self.command,
            "name": self.name,
            "git_rev": self.git_rev[:12],
            "config_digest": self.config_digest,
            "cells": len(self.cells),
            "windows": self.window_count(),
            "spans": self.span_count(),
            "learner_windows": self.learner_window_count(),
        }

    def window_count(self) -> int:
        """Windows in the longest per-cell series (0 when unwindowed).

        Falls back to the manifest's per-cell ``windows`` counts so
        summaries stay correct when the npz columns were not loaded.
        """
        if self.series:
            return max((len(col) for col in self.series.values()), default=0)
        return max(
            (int(cell.get("windows", 0)) for cell in self.cells), default=0
        )

    def span_count(self) -> int:
        """Timeline spans recorded for this run (0 when untraced).

        Falls back to the manifest's ``span_count`` so summaries stay
        correct when the ``spans.json`` sidecar was not loaded.
        """
        return len(self.spans) if self.spans else self._manifest_span_count

    def learner_window_count(self) -> int:
        """Learner-telemetry windows across all cells (0 when off).

        Falls back to the manifest's ``learner_windows`` so summaries
        stay correct when the ``learner.npz`` sidecar was not loaded.
        """
        if self.learner:
            return sum(
                int(np.asarray(column).size)
                for key, column in self.learner.items()
                if key.endswith(".window")
            )
        return self._manifest_learner_windows

    def cell_learner(self, index: int) -> dict:
        """The ``{column: array}`` learner series of cell ``index``."""
        prefix = f"c{index}."
        return {
            key[len(prefix):]: column
            for key, column in self.learner.items()
            if key.startswith(prefix)
        }

    def cell_key(self, cell: dict) -> str:
        """The stable identity of one cell for cross-run matching."""
        key = f"{cell.get('policy')}@{cell.get('capacity')}"
        scenario = cell.get("scenario")
        return f"{scenario}/{key}" if scenario else key

    def cell_series(self, index: int) -> dict:
        """The ``{field: column}`` series of cell ``index`` (may be {})."""
        prefix = f"c{index}."
        return {
            key[len(prefix):]: column
            for key, column in self.series.items()
            if key.startswith(prefix)
        }

    @classmethod
    def from_manifest(
        cls,
        manifest: dict,
        series: dict | None = None,
        spans: list | None = None,
        learner: dict | None = None,
    ) -> "RunRecord":
        if manifest.get("schema") != RUN_SCHEMA:
            raise ValueError(
                f"unknown run schema {manifest.get('schema')!r}; "
                f"expected {RUN_SCHEMA!r}"
            )
        return cls(
            command=manifest.get("command", ""),
            name=manifest.get("name", ""),
            run_id=manifest.get("run_id", ""),
            schema=manifest["schema"],
            created_utc=manifest.get("created_utc", ""),
            git_rev=manifest.get("git_rev", ""),
            config=manifest.get("config", {}),
            config_digest=manifest.get("config_digest", ""),
            metrics=manifest.get("metrics", {}),
            cells=manifest.get("cells", []),
            events=manifest.get("events", {}),
            extra=manifest.get("extra", {}),
            series=dict(series or {}),
            spans=list(spans or []),
            learner=dict(learner or {}),
            _manifest_span_count=int(manifest.get("span_count", 0)),
            _manifest_learner_windows=int(manifest.get("learner_windows", 0)),
        )


def series_from_results(results) -> dict:
    """Columnarize every result's per-window metrics into npz columns.

    Cell ``i`` is ``results[i]``; unwindowed results contribute nothing.
    Values are copied straight off each
    :class:`~repro.sim.metrics.WindowMetrics` so the stored columns
    bit-match the in-memory stream.
    """
    series: dict = {}
    for i, result in enumerate(results):
        windows = getattr(result, "windows", None)
        if not windows:
            continue
        for field_name in SERIES_FIELDS:
            series[f"c{i}.{field_name}"] = np.array(
                [getattr(w, field_name) for w in windows], dtype=np.int64
            )
    return series


def record_from_results(
    command: str,
    config: dict,
    results,
    name: str = "",
    events=None,
    cell_tags=None,
    extra: dict | None = None,
    spans=None,
) -> RunRecord:
    """Build a :class:`RunRecord` from a grid of ``SimulationResult``.

    ``cell_tags`` optionally supplies one extra mapping per result (the
    workload lab tags cells with their scenario).  The event digest
    comes from ``events`` when the run was observed; an unobserved run
    carries a zero digest with ``events_observed: false``.  ``spans``
    optionally attaches the run's timeline span dicts
    (:meth:`~repro.obs.spans.SpanRecorder.as_dicts`) for ``repro
    timeline``.
    """
    results = list(results)
    cells = []
    for i, result in enumerate(results):
        cell = {
            "policy": result.policy,
            "capacity": result.capacity,
            "requests": result.requests,
            "hits": result.hits,
            "hit_bytes": result.hit_bytes,
            "total_bytes": result.total_bytes,
            "object_hit_ratio": round(result.object_hit_ratio, 6),
            "byte_hit_ratio": round(result.byte_hit_ratio, 6),
            "evictions": result.evictions,
            "admissions": result.admissions,
            "runtime_seconds": round(result.runtime_seconds, 6),
            "windows": len(result.windows),
        }
        if cell_tags is not None:
            cell.update(cell_tags[i])
        cells.append(cell)
    metrics = {
        "requests": sum(r.requests for r in results),
        "hits": sum(r.hits for r in results),
        "hit_bytes": sum(r.hit_bytes for r in results),
        "total_bytes": sum(r.total_bytes for r in results),
        "wall_seconds": round(sum(r.runtime_seconds for r in results), 6),
    }
    event_digest = digest_events(events)
    event_digest["events_observed"] = events is not None
    return RunRecord(
        command=command,
        name=name,
        config=dict(config),
        metrics=metrics,
        cells=cells,
        events=event_digest,
        extra=dict(extra or {}),
        series=series_from_results(results),
        spans=list(spans or []),
        learner=learner_series_to_columns(results),
    )


# ----------------------------------------------------------------------
# RunLedger
# ----------------------------------------------------------------------


class RunLedger:
    """Append-only, file-based store of :class:`RunRecord` directories.

    ``clock`` injects the UTC timestamp source (tests pin it); the root
    directory is created lazily on the first :meth:`record`, so merely
    constructing a ledger (e.g. for ``repro runs list`` against a
    missing directory) touches nothing.
    """

    MANIFEST = "manifest.json"
    SERIES = "series.npz"
    SPANS = "spans.json"
    LEARNER = "learner.npz"

    def __init__(self, root: str | Path | None = None, clock=None) -> None:
        self.root = Path(root) if root is not None else default_ledger_root()
        self._clock = clock or (lambda: datetime.now(timezone.utc))

    # -- write ---------------------------------------------------------

    def record(self, record: RunRecord) -> str:
        """Persist ``record``, stamping missing provenance; returns the
        run id.  Never overwrites: a colliding id gets a ``-N`` suffix."""
        if not record.created_utc:
            record.created_utc = self._clock().strftime("%Y-%m-%dT%H:%M:%SZ")
        if not record.git_rev:
            record.git_rev = current_git_rev()
        if not record.config_digest:
            record.config_digest = config_digest(record.config)
        if not record.run_id:
            # Microsecond stamp: ids of same-second runs still sort in
            # recording order, which list/gc/latest~N all rely on.
            stamp = self._clock().strftime("%Y%m%dT%H%M%S.%fZ")
            record.run_id = f"{stamp}-{record.config_digest[:8]}"
        record.run_id = self._unique_id(record.run_id)
        run_dir = self.root / record.run_id
        run_dir.mkdir(parents=True)
        if record.series:
            # Uncompressed on purpose: a run writes once and the <2%
            # overhead budget (bench_obs_overhead) rules out deflate.
            with open(run_dir / self.SERIES, "wb") as handle:
                np.savez(handle, **record.series)
        if record.spans:
            # Sidecars land before the manifest rename commits the run,
            # so a committed run never points at a missing spans file.
            (run_dir / self.SPANS).write_text(
                json.dumps(record.spans, separators=(",", ":")) + "\n"
            )
        if record.learner:
            # Learner-health sidecar: same commit discipline as spans.
            with open(run_dir / self.LEARNER, "wb") as handle:
                np.savez(handle, **record.learner)
        tmp = run_dir / (self.MANIFEST + ".tmp")
        tmp.write_text(
            json.dumps(record.manifest(), indent=2, sort_keys=True) + "\n"
        )
        # The manifest is the commit marker: rename it into place last.
        os.replace(tmp, run_dir / self.MANIFEST)
        return record.run_id

    def _unique_id(self, run_id: str) -> str:
        candidate = run_id
        suffix = 1
        while (self.root / candidate).exists():
            candidate = f"{run_id}-{suffix}"
            suffix += 1
        return candidate

    # -- read ----------------------------------------------------------

    def run_ids(self) -> list[str]:
        """Committed run ids, oldest first (ids sort chronologically)."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if (entry / self.MANIFEST).is_file()
        )

    def resolve(self, ref: str) -> str:
        """Resolve ``latest``/``latest~N`` or a unique id prefix."""
        ids = self.run_ids()
        if not ids:
            raise ValueError(f"run ledger at {self.root} is empty")
        if ref == "latest":
            return ids[-1]
        if ref.startswith("latest~"):
            back = int(ref.split("~", 1)[1])
            if back >= len(ids):
                raise ValueError(
                    f"{ref!r} reaches past the {len(ids)} recorded run(s)"
                )
            return ids[-1 - back]
        if ref in ids:  # an exact id always wins over prefix ambiguity
            return ref
        matches = [run_id for run_id in ids if run_id.startswith(ref)]
        if not matches:
            raise ValueError(f"no run matching {ref!r} in {self.root}")
        if len(matches) > 1:
            raise ValueError(
                f"ambiguous run ref {ref!r}: matches {', '.join(matches)}"
            )
        return matches[0]

    def load(
        self,
        ref: str,
        series: bool = True,
        spans: bool = True,
        learner: bool = False,
    ) -> RunRecord:
        """Load one run (manifest always; sidecars unless disabled).

        ``learner`` defaults off — only ``repro learner`` pays for the
        per-window learner columns.
        """
        run_id = self.resolve(ref)
        run_dir = self.root / run_id
        manifest = json.loads((run_dir / self.MANIFEST).read_text())
        columns: dict = {}
        series_path = run_dir / self.SERIES
        if series and series_path.is_file():
            with np.load(series_path) as npz:
                columns = {key: npz[key] for key in npz.files}
        span_dicts: list = []
        spans_path = run_dir / self.SPANS
        if spans and spans_path.is_file():
            span_dicts = json.loads(spans_path.read_text())
        learner_columns: dict = {}
        learner_path = run_dir / self.LEARNER
        if learner and learner_path.is_file():
            with np.load(learner_path) as npz:
                learner_columns = {key: npz[key] for key in npz.files}
        return RunRecord.from_manifest(
            manifest, columns, span_dicts, learner_columns
        )

    def records(self):
        """All runs oldest→newest, without sidecars."""
        return [
            self.load(run_id, series=False, spans=False)
            for run_id in self.run_ids()
        ]

    def summaries(self, limit: int = 0) -> list[dict]:
        """``repro runs list`` rows, oldest first."""
        rows = [record.summary() for record in self.records()]
        return rows[-limit:] if limit else rows

    # -- retention -----------------------------------------------------

    def gc(self, keep: int, dry_run: bool = False) -> list[str]:
        """Prune all but the newest ``keep`` runs; returns pruned ids.

        Deterministic: runs are ordered by id (chronological), so two
        ``gc --keep N`` calls over the same ledger prune identically.
        """
        if keep < 0:
            raise ValueError("keep must be non-negative")
        ids = self.run_ids()
        doomed = ids[: max(len(ids) - keep, 0)]
        if not dry_run:
            for run_id in doomed:
                shutil.rmtree(self.root / run_id)
        return doomed

    # -- export --------------------------------------------------------

    def export_csv(self, ref: str, path: str | Path) -> int:
        """Write one run's per-window series as flat CSV rows; returns
        the number of data rows written."""
        record = self.load(ref)
        path = Path(path)
        rows = 0
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["cell", "policy", "capacity", "window", *SERIES_FIELDS,
                 "hit_ratio"]
            )
            for i, cell in enumerate(record.cells):
                columns = record.cell_series(i)
                if not columns:
                    continue
                length = len(next(iter(columns.values())))
                for w in range(length):
                    requests = int(columns["requests"][w])
                    hits = int(columns["hits"][w])
                    writer.writerow(
                        [
                            i,
                            cell.get("policy"),
                            cell.get("capacity"),
                            w,
                            *(int(columns[f][w]) for f in SERIES_FIELDS),
                            round(hits / requests, 6) if requests else 0.0,
                        ]
                    )
                    rows += 1
        return rows


# ----------------------------------------------------------------------
# Cross-run diff
# ----------------------------------------------------------------------


@dataclass
class CellDelta:
    """Aggregate + per-window comparison of one matched cell pair."""

    key: str
    hit_ratio_a: float
    hit_ratio_b: float
    requests_delta: int
    hits_delta: int
    evictions_delta: int
    windows_compared: int = 0
    windows_differing: int = 0
    max_window_hit_ratio_delta: float = 0.0

    @property
    def hit_ratio_delta(self) -> float:
        return self.hit_ratio_b - self.hit_ratio_a

    @property
    def identical(self) -> bool:
        return (
            self.requests_delta == 0
            and self.hits_delta == 0
            and self.evictions_delta == 0
            and self.windows_differing == 0
        )

    def as_dict(self) -> dict:
        return {
            "cell": self.key,
            "hit_ratio_a": self.hit_ratio_a,
            "hit_ratio_b": self.hit_ratio_b,
            "hit_ratio_delta": round(self.hit_ratio_delta, 6),
            "requests_delta": self.requests_delta,
            "hits_delta": self.hits_delta,
            "evictions_delta": self.evictions_delta,
            "windows_compared": self.windows_compared,
            "windows_differing": self.windows_differing,
            "max_window_hit_ratio_delta": round(
                self.max_window_hit_ratio_delta, 6
            ),
            "identical": self.identical,
        }


@dataclass
class RunDiff:
    """Outcome of ``repro runs diff A B``."""

    run_a: str
    run_b: str
    deltas: list = field(default_factory=list)
    only_a: list = field(default_factory=list)
    only_b: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return (
            not self.only_a
            and not self.only_b
            and all(delta.identical for delta in self.deltas)
        )

    def as_dict(self) -> dict:
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "identical": self.identical,
            "cells": [delta.as_dict() for delta in self.deltas],
            "only_a": list(self.only_a),
            "only_b": list(self.only_b),
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        lines = [f"runs diff: {self.run_a} (a) vs {self.run_b} (b)"]
        header = (
            f"  {'cell':<28}{'hit a':>9}{'hit b':>9}{'delta':>9}"
            f"{'win!=':>7}{'max win d':>11}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for delta in self.deltas:
            lines.append(
                f"  {delta.key:<28}{delta.hit_ratio_a:>9.4f}"
                f"{delta.hit_ratio_b:>9.4f}{delta.hit_ratio_delta:>+9.4f}"
                f"{delta.windows_differing:>5}/{delta.windows_compared:<2}"
                f"{delta.max_window_hit_ratio_delta:>10.4f}"
            )
        for key in self.only_a:
            lines.append(f"  only in a: {key}")
        for key in self.only_b:
            lines.append(f"  only in b: {key}")
        lines += [f"  note: {note}" for note in self.notes]
        lines.append(
            "verdict: IDENTICAL" if self.identical else "verdict: DIFFERENT"
        )
        return "\n".join(lines)


def diff_records(a: RunRecord, b: RunRecord) -> RunDiff:
    """Per-cell and per-window comparison of two runs.

    Cells match on ``[scenario/]policy@capacity``; two identical-seed
    runs of the same config diff to zero everywhere (counters and
    window columns are deterministic), so any nonzero delta is signal.
    """
    diff = RunDiff(run_a=a.run_id, run_b=b.run_id)
    if a.config_digest != b.config_digest:
        diff.notes.append(
            f"config digests differ ({a.config_digest} vs {b.config_digest})"
        )
    if a.git_rev != b.git_rev:
        diff.notes.append(
            f"git revisions differ ({a.git_rev[:12]} vs {b.git_rev[:12]})"
        )
    cells_a = {a.cell_key(cell): (i, cell) for i, cell in enumerate(a.cells)}
    cells_b = {b.cell_key(cell): (i, cell) for i, cell in enumerate(b.cells)}
    diff.only_a = sorted(set(cells_a) - set(cells_b))
    diff.only_b = sorted(set(cells_b) - set(cells_a))
    for key in sorted(set(cells_a) & set(cells_b)):
        index_a, cell_a = cells_a[key]
        index_b, cell_b = cells_b[key]
        delta = CellDelta(
            key=key,
            hit_ratio_a=cell_a.get("object_hit_ratio", 0.0),
            hit_ratio_b=cell_b.get("object_hit_ratio", 0.0),
            requests_delta=cell_b.get("requests", 0) - cell_a.get("requests", 0),
            hits_delta=cell_b.get("hits", 0) - cell_a.get("hits", 0),
            evictions_delta=(
                cell_b.get("evictions", 0) - cell_a.get("evictions", 0)
            ),
        )
        series_a = a.cell_series(index_a)
        series_b = b.cell_series(index_b)
        if series_a and series_b:
            _diff_series(delta, series_a, series_b)
        elif series_a or series_b:
            diff.notes.append(f"{key}: window series present in only one run")
        diff.deltas.append(delta)
    return diff


def _diff_series(delta: CellDelta, series_a: dict, series_b: dict) -> None:
    """Fill the per-window fields of one cell delta (in place)."""
    n = min(len(series_a["requests"]), len(series_b["requests"]))
    if len(series_a["requests"]) != len(series_b["requests"]):
        delta.windows_differing += abs(
            len(series_a["requests"]) - len(series_b["requests"])
        )
    delta.windows_compared = n
    if n == 0:
        return
    differing = np.zeros(n, dtype=bool)
    for field_name in SERIES_FIELDS:
        col_a = series_a.get(field_name)
        col_b = series_b.get(field_name)
        if col_a is None or col_b is None:
            continue
        differing |= col_a[:n] != col_b[:n]
    delta.windows_differing += int(differing.sum())
    req_a = np.maximum(series_a["requests"][:n], 1)
    req_b = np.maximum(series_b["requests"][:n], 1)
    ratio_a = series_a["hits"][:n] / req_a
    ratio_b = series_b["hits"][:n] / req_b
    delta.max_window_hit_ratio_delta = float(np.abs(ratio_b - ratio_a).max())
