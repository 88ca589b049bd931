"""Learner observatory: per-window model-health telemetry for LHR.

The paper's central claim is that LHR *learns* a good admission policy
from HRO's optimal decisions — but hit ratios alone cannot say whether
the learned model is healthy between retrains.  This module adds a
fourth observation sink, ``obs.learner``, threaded through the window
pipeline (:mod:`repro.core.lhr`, :mod:`repro.core.detection`,
:mod:`repro.core.threshold`, :mod:`repro.core.gbm`) that records, per
sliding window:

* **prediction-score histograms** and the admit rate at the current
  ``delta`` — the shape of the model's output distribution;
* **online calibration** of the admission probability ``p_i`` against
  realized reuse (whether the scored content was re-referenced within
  the window — the same signal HRO's verdicts are built from), as a
  Brier score plus reliability bins kept as *mergeable moments* so
  parallel sweep shards combine associatively;
* the **Zipf-alpha fit with its standard error** — the noise scale the
  detector's fixed ``epsilon`` is blind to (ROADMAP item 5);
* **shadow drift statistics** candidate detectors would consume — a
  noise-scaled epsilon verdict, top-k overlap and Kendall-tau of the
  window popularity ranks — evaluated counterfactually: they never
  affect control flow;
* the **threshold/delta trajectory** and **retrain-cause attribution**
  (first window / drift / degenerate fit / every-window ablation);
* **GBM model fingerprints** (feature importances, tree count/depth,
  node count) on each refit.

Everything is collected at window close from buffers LHR already
maintains, so the per-request span kernels are undisturbed; the
disabled sink (:data:`NULL_LEARNER`) costs one attribute check per
window.  Like ``obs.spans``, the learner sink is deliberately *not*
covered by ``Observation.enabled``.

See ``docs/OBSERVABILITY.md`` ("Learner observatory") for the signal
catalog and calibration semantics.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

#: Reliability / prediction-score histogram bins over [0, 1].
CAL_BINS = 10
#: Popularity ranks compared between consecutive windows.
TOP_K = 32
#: Multiplier on the combined alpha standard error for the shadow
#: noise-scaled drift verdict: shadow-drift iff
#: ``|alpha_k - alpha_{k-1}| >= max(epsilon, NOISE_SCALE * se)``.
NOISE_SCALE = 3.0

#: Retrain causes, in code order (the ``cause`` column stores the index).
RETRAIN_CAUSES = ("none", "first_window", "drift", "degenerate", "every_window")
_CAUSE_CODE = {name: code for code, name in enumerate(RETRAIN_CAUSES)}


# ----------------------------------------------------------------------
# Streaming calibration (mergeable moments)
# ----------------------------------------------------------------------


@dataclass
class CalibrationStats:
    """Brier score + reliability bins as mergeable sufficient statistics.

    Stores only sums — sample count, sum of squared errors, and per-bin
    (count, sum of predictions, sum of outcomes) — so two shards merge
    by component-wise addition.  Merging is associative and commutative,
    which is what lets parallel sweep cells combine grid-ordered into
    exactly the serial aggregate.
    """

    count: int = 0
    sq_error: float = 0.0
    bin_count: np.ndarray = field(
        default_factory=lambda: np.zeros(CAL_BINS, dtype=np.int64)
    )
    bin_p_sum: np.ndarray = field(
        default_factory=lambda: np.zeros(CAL_BINS, dtype=np.float64)
    )
    bin_y_sum: np.ndarray = field(
        default_factory=lambda: np.zeros(CAL_BINS, dtype=np.float64)
    )

    @classmethod
    def from_arrays(cls, probabilities, outcomes) -> "CalibrationStats":
        """Accumulate a batch of (p, realized) pairs.

        NaN-safe on empty input: a window with no scored requests yields
        the identity element of ``merge``.
        """
        p = np.asarray(probabilities, dtype=np.float64)
        y = np.asarray(outcomes, dtype=np.float64)
        stats = cls()
        if p.size == 0:
            return stats
        p = np.clip(p, 0.0, 1.0)
        stats.count = int(p.size)
        err = p - y
        stats.sq_error = float(np.dot(err, err))
        bins = np.minimum((p * CAL_BINS).astype(np.int64), CAL_BINS - 1)
        stats.bin_count = np.bincount(bins, minlength=CAL_BINS).astype(np.int64)
        stats.bin_p_sum = np.bincount(bins, weights=p, minlength=CAL_BINS)
        stats.bin_y_sum = np.bincount(bins, weights=y, minlength=CAL_BINS)
        return stats

    def merge(self, other: "CalibrationStats") -> "CalibrationStats":
        """Associative combine: the aggregate of both shards."""
        merged = CalibrationStats()
        merged.count = self.count + other.count
        merged.sq_error = self.sq_error + other.sq_error
        merged.bin_count = self.bin_count + other.bin_count
        merged.bin_p_sum = self.bin_p_sum + other.bin_p_sum
        merged.bin_y_sum = self.bin_y_sum + other.bin_y_sum
        return merged

    @property
    def brier(self) -> float:
        """Mean squared error of p against realized reuse; NaN when empty."""
        return self.sq_error / self.count if self.count else float("nan")

    def reliability_rows(self) -> list[dict]:
        """Per-bin ``(lo, hi, count, mean_p, frequency)`` — the reliability
        diagram's rows.  Empty bins report NaN means rather than raising."""
        rows = []
        for b in range(CAL_BINS):
            n = int(self.bin_count[b])
            rows.append(
                {
                    "lo": b / CAL_BINS,
                    "hi": (b + 1) / CAL_BINS,
                    "count": n,
                    "mean_p": self.bin_p_sum[b] / n if n else float("nan"),
                    "frequency": self.bin_y_sum[b] / n if n else float("nan"),
                }
            )
        return rows

    def expected_calibration_error(self) -> float:
        """Bin-count-weighted |mean_p - frequency|; NaN when empty."""
        if not self.count:
            return float("nan")
        total = 0.0
        for b in range(CAL_BINS):
            n = int(self.bin_count[b])
            if n:
                total += n * abs(
                    self.bin_p_sum[b] / n - self.bin_y_sum[b] / n
                )
        return total / self.count


def realized_reuse(obj_ids) -> np.ndarray:
    """Per-request realized-reuse labels for one window.

    ``reuse[i] = 1`` iff the same content id appears again later in the
    window — the within-window re-reference signal HRO's verdicts (the
    model's training target) are derived from.  O(n) backward walk.
    """
    n = len(obj_ids)
    reuse = np.zeros(n, dtype=np.float64)
    seen: set = set()
    for i in range(n - 1, -1, -1):
        oid = obj_ids[i]
        if oid in seen:
            reuse[i] = 1.0
        else:
            seen.add(oid)
    return reuse


# ----------------------------------------------------------------------
# Shadow drift statistics (rank-aware, counterfactual)
# ----------------------------------------------------------------------


def top_ranked_ids(counts: dict, k: int = TOP_K) -> list[int]:
    """The window's top-``k`` content ids by request count.

    Ties break on the id so the ranking is deterministic regardless of
    dict iteration order (serial == parallel).
    """
    return [
        oid
        for oid, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    ]


def rank_overlap(previous: list[int], current: list[int]) -> float:
    """Top-k overlap |A ∩ B| / min(|A|, |B|); NaN when either is empty."""
    if not previous or not current:
        return float("nan")
    inter = len(set(previous) & set(current))
    return inter / min(len(previous), len(current))


def kendall_tau(previous: list[int], current: list[int]) -> float:
    """Kendall rank correlation of the ids common to both top-k lists.

    O(m^2) pair counting over at most ``TOP_K`` common items; NaN when
    fewer than two ids are shared (no pairs to compare).
    """
    prev_rank = {oid: r for r, oid in enumerate(previous)}
    common = [oid for oid in current if oid in prev_rank]
    m = len(common)
    if m < 2:
        return float("nan")
    ranks = [prev_rank[oid] for oid in common]
    concordant = 0
    discordant = 0
    for i in range(m):
        for j in range(i + 1, m):
            if ranks[i] < ranks[j]:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (m * (m - 1) / 2)


def noise_threshold(
    epsilon: float, stderr_now: float, stderr_prev: float | None
) -> float:
    """The noise-scaled drift threshold a sharpened detector would use.

    ``max(epsilon, NOISE_SCALE * se_diff)`` where ``se_diff`` combines
    the two windows' alpha standard errors in quadrature.  Infinite when
    either stderr is unknown/infinite (the verdict then never fires —
    conservative by construction).
    """
    if stderr_prev is None or not math.isfinite(stderr_prev):
        return float("inf")
    if not math.isfinite(stderr_now):
        return float("inf")
    se_diff = math.sqrt(stderr_now * stderr_now + stderr_prev * stderr_prev)
    return max(epsilon, NOISE_SCALE * se_diff)


# ----------------------------------------------------------------------
# The telemetry sink
# ----------------------------------------------------------------------

#: 1-D float64 per-window columns, in serialization order.
SCALAR_COLUMNS = (
    "window",
    "alpha",
    "alpha_stderr",
    "r_squared",
    "fit_contents",
    "drifted",
    "degenerate",
    "shadow_drift",
    "noise_threshold",
    "topk_overlap",
    "kendall_tau",
    "delta",
    "threshold_adopted",
    "incumbent_ratio",
    "best_ratio",
    "samples",
    "admit_rate",
    "mean_p",
    "brier",
    "retrained",
    "cause",
    "train_rows",
    "trees",
    "max_tree_depth",
    "tree_nodes",
    "train_seconds",
    "importance_top_feature",
    "importance_top_share",
    "importance_entropy",
)

#: 2-D (windows x CAL_BINS) columns.
MATRIX_COLUMNS = ("score_hist", "cal_count", "cal_p_sum", "cal_y_sum")

#: Columns that carry wall-clock measurements — everything else is a
#: pure function of (trace, config, seed), so serial and parallel runs
#: must agree bit for bit on all columns *except* these.
TIMING_COLUMNS = ("train_seconds",)


def series_equal(a: "LearnerSeries", b: "LearnerSeries") -> bool:
    """Deterministic equality: every column identical (NaN == NaN),
    ignoring the wall-clock :data:`TIMING_COLUMNS`."""
    if set(a.columns) != set(b.columns):
        return False
    for name, left in a.columns.items():
        if name in TIMING_COLUMNS:
            continue
        right = b.columns[name]
        if left.shape != right.shape or not np.array_equal(
            left, right, equal_nan=True
        ):
            return False
    return True


@dataclass
class LearnerSeries:
    """One policy run's per-window learner-health series, columnar.

    ``columns`` maps every name in :data:`SCALAR_COLUMNS` to a 1-D
    float64 array and every name in :data:`MATRIX_COLUMNS` to a
    ``(windows, CAL_BINS)`` array.  Plain numpy + strings, so the series
    pickles across the worker→driver pipe and round-trips through npz.
    """

    policy: str = ""
    capacity: int = 0
    columns: dict = field(default_factory=dict)

    @property
    def windows(self) -> int:
        col = self.columns.get("window")
        return int(col.size) if col is not None else 0

    def calibration(self) -> CalibrationStats:
        """The run-level calibration aggregate: the merge of every
        window's mergeable moments (associative, so any grouping of the
        windows — serial or sharded — yields the same aggregate)."""
        stats = CalibrationStats()
        if not self.windows:
            return stats
        stats.count = int(self.columns["samples"].sum())
        brier = self.columns["brier"]
        samples = self.columns["samples"]
        finite = np.isfinite(brier)
        stats.sq_error = float(np.dot(brier[finite], samples[finite]))
        stats.bin_count = self.columns["cal_count"].sum(axis=0).astype(np.int64)
        stats.bin_p_sum = self.columns["cal_p_sum"].sum(axis=0)
        stats.bin_y_sum = self.columns["cal_y_sum"].sum(axis=0)
        return stats

    def cause_counts(self) -> dict:
        """Retrain-cause attribution: cause name -> window count."""
        codes = self.columns.get("cause")
        counts = dict.fromkeys(RETRAIN_CAUSES, 0)
        if codes is not None:
            for code in codes.astype(np.int64):
                counts[RETRAIN_CAUSES[int(code)]] += 1
        return counts

    def noise_dominated_detections(self) -> int:
        """Windows the epsilon detector fired on but the noise-scaled
        shadow verdict would not have — the drift-thrash signal."""
        if not self.windows:
            return 0
        cols = self.columns
        mask = (
            (cols["drifted"] > 0)
            & (cols["degenerate"] == 0)
            & (cols["shadow_drift"] == 0)
            & np.isfinite(cols["noise_threshold"])
        )
        return int(mask.sum())


class LearnerTelemetry:
    """The live learner sink: per-window recorder *and* driver-side hub.

    On the recording side, the LHR window pipeline calls the
    ``record_*`` hooks as each window closes; ``record_window`` (always
    last, from :meth:`LhrCache._close_window`) folds the pending drift /
    threshold / refit fragments into one completed row.  On the driver
    side, sweep cells that ran with their own telemetry ship a
    :class:`LearnerSeries` back on the result and the driver ``absorb``s
    them keyed by grid index — per-cell series are independent, so
    absorption order cannot change content and serial and parallel
    sweeps produce identical series.
    """

    enabled = True

    def __init__(self) -> None:
        self._pending: dict = {}
        self._rows: list[dict] = []
        self._cells: dict[int, LearnerSeries] = {}
        self._lock = threading.Lock()

    # -- recorder hooks (window pipeline) ------------------------------

    def record_drift(self, **fields) -> None:
        """Drift-detector fragment: alpha±stderr plus shadow statistics."""
        self._pending.update(fields)

    def record_threshold(self, **fields) -> None:
        """Threshold-estimator fragment: delta trajectory for the window."""
        self._pending.update(fields)

    def record_refit(self, **fields) -> None:
        """GBM fragment: model fingerprint for this window's refit."""
        self._pending.update(fields)

    def record_window(
        self,
        window: int,
        delta: float,
        samples: int,
        admit_rate: float,
        mean_p: float,
        retrained: bool,
        cause: str,
        calibration: CalibrationStats,
        score_hist: np.ndarray,
    ) -> None:
        """Finalize one window: merge pending fragments into a full row."""
        row = {name: float("nan") for name in SCALAR_COLUMNS}
        row.update(
            {
                "drifted": 0.0,
                "degenerate": 0.0,
                "shadow_drift": 0.0,
                "threshold_adopted": 0.0,
                "retrained": 0.0,
                "train_rows": 0.0,
                "trees": 0.0,
                "max_tree_depth": 0.0,
                "tree_nodes": 0.0,
                "train_seconds": 0.0,
            }
        )
        row.update(self._pending)
        self._pending = {}
        row["window"] = float(window)
        row["delta"] = float(delta)
        row["samples"] = float(samples)
        row["admit_rate"] = float(admit_rate)
        row["mean_p"] = float(mean_p)
        row["retrained"] = float(bool(retrained))
        row["cause"] = float(_CAUSE_CODE[cause])
        row["brier"] = calibration.brier
        row["score_hist"] = np.asarray(score_hist, dtype=np.float64)
        row["cal_count"] = calibration.bin_count.astype(np.float64)
        row["cal_p_sum"] = calibration.bin_p_sum.copy()
        row["cal_y_sum"] = calibration.bin_y_sum.copy()
        with self._lock:
            self._rows.append(row)

    # -- series / hub --------------------------------------------------

    def series(self, policy: str = "", capacity: int = 0) -> LearnerSeries:
        """Columnarize the recorded rows (non-destructive)."""
        with self._lock:
            rows = list(self._rows)
        columns: dict = {}
        for name in SCALAR_COLUMNS:
            columns[name] = np.array(
                [row[name] for row in rows], dtype=np.float64
            )
        for name in MATRIX_COLUMNS:
            if rows:
                columns[name] = np.vstack([row[name] for row in rows])
            else:
                columns[name] = np.zeros((0, CAL_BINS), dtype=np.float64)
        return LearnerSeries(policy=policy, capacity=capacity, columns=columns)

    def absorb(
        self, index: int, series: LearnerSeries | None
    ) -> None:
        """Driver-side merge: file one cell's series under its grid index."""
        if series is None:
            return
        with self._lock:
            self._cells[index] = series

    def cells(self) -> list[tuple[int, LearnerSeries]]:
        """Absorbed cell series in grid order."""
        with self._lock:
            return sorted(self._cells.items())


class _NullLearner:
    """Disabled learner sink — one attribute check per window, no state."""

    enabled = False

    def record_drift(self, **fields) -> None:
        pass

    def record_threshold(self, **fields) -> None:
        pass

    def record_refit(self, **fields) -> None:
        pass

    def record_window(self, *args, **kwargs) -> None:
        pass

    def absorb(self, index, series) -> None:
        pass

    def series(self, policy: str = "", capacity: int = 0) -> LearnerSeries:
        return LearnerSeries(policy=policy, capacity=capacity)


#: Shared disabled learner sink; the default on every Observation.
NULL_LEARNER = _NullLearner()


# ----------------------------------------------------------------------
# Ledger (de)serialization
# ----------------------------------------------------------------------


def series_to_columns(results) -> dict:
    """Flatten per-cell learner series into ``c{i}.{column}`` npz keys.

    ``results`` is the grid-ordered sweep result list; cells without a
    series contribute nothing.  Returns {} when no cell recorded one —
    the ledger then skips the sidecar entirely.
    """
    columns: dict = {}
    for i, result in enumerate(results):
        series = getattr(result, "learner", None)
        if series is None or not series.windows:
            continue
        for name, values in series.columns.items():
            columns[f"c{i}.{name}"] = values
    return columns


def columns_to_series(columns: dict, cells: list[dict]) -> list[tuple[int, LearnerSeries]]:
    """Rebuild per-cell :class:`LearnerSeries` from loaded npz columns.

    ``cells`` is the manifest's cell list (policy/capacity per index).
    """
    per_cell: dict[int, dict] = {}
    for key, values in columns.items():
        prefix, _, name = key.partition(".")
        if not prefix.startswith("c"):
            continue
        try:
            index = int(prefix[1:])
        except ValueError:
            continue
        per_cell.setdefault(index, {})[name] = np.asarray(values)
    out = []
    for index in sorted(per_cell):
        meta = cells[index] if 0 <= index < len(cells) else {}
        out.append(
            (
                index,
                LearnerSeries(
                    policy=str(meta.get("policy", "")),
                    capacity=int(meta.get("capacity", 0)),
                    columns=per_cell[index],
                ),
            )
        )
    return out


# ----------------------------------------------------------------------
# The `repro learner` report
# ----------------------------------------------------------------------


def _json_float(value) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def _fmt(value, digits: int = 4) -> str:
    value = float(value)
    if math.isnan(value):
        return "-"
    if math.isinf(value):
        return "inf"
    return f"{value:.{digits}f}"


@dataclass
class LearnerCellReport:
    """Learner-health digest of one (policy, capacity) cell."""

    cell: int
    series: LearnerSeries

    def as_dict(self) -> dict:
        series = self.series
        cols = series.columns
        cal = series.calibration()
        causes = series.cause_counts()
        windows = series.windows
        alpha = cols.get("alpha", np.empty(0))
        stderr = cols.get("alpha_stderr", np.empty(0))
        finite_alpha = alpha[np.isfinite(alpha)] if windows else np.empty(0)
        finite_se = stderr[np.isfinite(stderr)] if windows else np.empty(0)
        detections = int(cols["drifted"].sum()) if windows else 0
        shadow = int(cols["shadow_drift"].sum()) if windows else 0
        noise_dominated = series.noise_dominated_detections()
        overlap = cols.get("topk_overlap", np.empty(0))
        tau = cols.get("kendall_tau", np.empty(0))
        finite_overlap = overlap[np.isfinite(overlap)] if windows else np.empty(0)
        finite_tau = tau[np.isfinite(tau)] if windows else np.empty(0)
        return {
            "cell": self.cell,
            "policy": series.policy,
            "capacity": series.capacity,
            "windows": windows,
            "calibration": {
                "samples": cal.count,
                "brier": _json_float(cal.brier),
                "ece": _json_float(cal.expected_calibration_error()),
                "bins": [
                    {
                        "lo": row["lo"],
                        "hi": row["hi"],
                        "count": row["count"],
                        "mean_p": _json_float(row["mean_p"]),
                        "frequency": _json_float(row["frequency"]),
                    }
                    for row in cal.reliability_rows()
                ],
            },
            "alpha": {
                "mean": _json_float(finite_alpha.mean())
                if finite_alpha.size
                else None,
                "mean_stderr": _json_float(finite_se.mean())
                if finite_se.size
                else None,
            },
            "drift": {
                "detections": detections,
                "shadow_detections": shadow,
                "noise_dominated_detections": noise_dominated,
                "mean_topk_overlap": _json_float(finite_overlap.mean())
                if finite_overlap.size
                else None,
                "mean_kendall_tau": _json_float(finite_tau.mean())
                if finite_tau.size
                else None,
            },
            "retrains": {
                "total": int(cols["retrained"].sum()) if windows else 0,
                "causes": {k: v for k, v in causes.items() if v},
                "train_seconds": _json_float(cols["train_seconds"].sum())
                if windows
                else 0.0,
            },
            "delta": {
                "first": _json_float(cols["delta"][0]) if windows else None,
                "last": _json_float(cols["delta"][-1]) if windows else None,
                "adoptions": int(cols["threshold_adopted"].sum())
                if windows
                else 0,
            },
        }

    def thrash_diagnosis(self) -> str | None:
        """Flag the epsilon=0.002-style pathology: most detections are
        noise-dominated (the fixed epsilon sits below the alpha-fit
        sampling noise, so the detector fires on estimator jitter — the
        stationary-control thrash documented in docs/WORKLOADS.md)."""
        series = self.series
        windows = series.windows
        if not windows:
            return None
        detections = int(series.columns["drifted"].sum())
        noise_dominated = series.noise_dominated_detections()
        if detections >= 3 and noise_dominated * 2 > detections:
            return (
                f"cell {self.cell} ({series.policy}/{series.capacity}): "
                f"{noise_dominated}/{detections} drift detections are "
                "noise-dominated (|d-alpha| below the noise-scaled "
                "threshold) — epsilon sits inside the alpha-fit sampling "
                "noise; see docs/WORKLOADS.md (drift thrash) and ROADMAP "
                "item 5."
            )
        return None


@dataclass
class LearnerReport:
    """The ``repro learner`` report over one ledger run."""

    run: str
    cells: list[LearnerCellReport]

    def as_dict(self) -> dict:
        return {
            "run": self.run,
            "cells": [cell.as_dict() for cell in self.cells],
            "thrash": [
                diag
                for cell in self.cells
                if (diag := cell.thrash_diagnosis()) is not None
            ],
        }

    def render_text(self, timeline: bool = True) -> str:
        lines = [f"learner observatory — run {self.run}"]
        if not self.cells:
            lines.append("  (no learner series recorded)")
            return "\n".join(lines)
        for cell in self.cells:
            digest = cell.as_dict()
            series = cell.series
            cols = series.columns
            lines.append("")
            lines.append(
                f"cell {digest['cell']}: {digest['policy']} @ "
                f"{digest['capacity']} bytes — {digest['windows']} windows"
            )
            cal = digest["calibration"]
            lines.append(
                f"  calibration: brier={_fmt(cal['brier'] if cal['brier'] is not None else float('nan'))} "
                f"ece={_fmt(cal['ece'] if cal['ece'] is not None else float('nan'))} "
                f"over {cal['samples']} scored requests"
            )
            lines.append("    bin        count  mean_p  realized")
            for row in cal["bins"]:
                if not row["count"]:
                    continue
                mean_p = row["mean_p"] if row["mean_p"] is not None else float("nan")
                freq = (
                    row["frequency"]
                    if row["frequency"] is not None
                    else float("nan")
                )
                lines.append(
                    f"    [{row['lo']:.1f},{row['hi']:.1f})"
                    f"  {row['count']:>6}  {_fmt(mean_p, 3):>6}  {_fmt(freq, 3):>8}"
                )
            alpha = digest["alpha"]
            drift = digest["drift"]
            lines.append(
                "  alpha: mean="
                + _fmt(alpha["mean"] if alpha["mean"] is not None else float("nan"))
                + " ± "
                + _fmt(
                    alpha["mean_stderr"]
                    if alpha["mean_stderr"] is not None
                    else float("nan")
                )
                + " (mean stderr)"
            )
            lines.append(
                f"  drift: {drift['detections']} detections, "
                f"{drift['shadow_detections']} shadow (noise-scaled), "
                f"{drift['noise_dominated_detections']} noise-dominated; "
                f"top-k overlap={_fmt(drift['mean_topk_overlap'] if drift['mean_topk_overlap'] is not None else float('nan'), 3)} "
                f"tau={_fmt(drift['mean_kendall_tau'] if drift['mean_kendall_tau'] is not None else float('nan'), 3)}"
            )
            retrains = digest["retrains"]
            causes = ", ".join(
                f"{name}={count}" for name, count in retrains["causes"].items()
            )
            lines.append(
                f"  retrains: {retrains['total']} "
                f"({causes or 'none'}) in {_fmt(retrains['train_seconds'], 3)}s"
            )
            delta = digest["delta"]
            lines.append(
                "  delta: "
                + _fmt(delta["first"] if delta["first"] is not None else float("nan"), 2)
                + " -> "
                + _fmt(delta["last"] if delta["last"] is not None else float("nan"), 2)
                + f" ({delta['adoptions']} adoptions)"
            )
            if timeline and series.windows:
                lines.append(
                    "    win  alpha     stderr    drift shadow overlap tau     cause"
                )
                for w in range(series.windows):
                    cause = RETRAIN_CAUSES[int(cols["cause"][w])]
                    lines.append(
                        f"    {int(cols['window'][w]):>3}"
                        f"  {_fmt(cols['alpha'][w]):>8}"
                        f"  {_fmt(cols['alpha_stderr'][w]):>8}"
                        f"  {'*' if cols['drifted'][w] else '.':>5}"
                        f" {'*' if cols['shadow_drift'][w] else '.':>6}"
                        f" {_fmt(cols['topk_overlap'][w], 2):>7}"
                        f" {_fmt(cols['kendall_tau'][w], 2):>7}"
                        f" {cause if cause != 'none' else '':>12}"
                    )
        diagnoses = [
            diag
            for cell in self.cells
            if (diag := cell.thrash_diagnosis()) is not None
        ]
        lines.append("")
        if diagnoses:
            lines.append("thrash diagnosis:")
            for diag in diagnoses:
                lines.append(f"  ! {diag}")
        else:
            lines.append("thrash diagnosis: no noise-dominated retrain pathology")
        return "\n".join(lines)


def analyze_learner(run: str, cells: list[tuple[int, LearnerSeries]]) -> LearnerReport:
    """Build the ``repro learner`` report from per-cell series.

    Cells with zero windows (policies without a window pipeline — LRU
    and friends record nothing) are dropped: the report covers learner
    health, and they have no learner."""
    return LearnerReport(
        run=run,
        cells=[
            LearnerCellReport(cell=i, series=s)
            for i, s in cells
            if s.windows
        ],
    )
