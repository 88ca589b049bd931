"""LHR ↔ HRO divergence auditing over decision traces.

The paper's central claim is that LHR works because it *imitates* HRO's
per-request verdicts (Sections 4–5).  This module quantifies how well
that imitation holds on a given trace: it joins a policy's decision
trace (:mod:`repro.obs.trace`) against an HRO decision trace of the same
requests and produces a per-window **divergence report**:

* **agreement rate** — the fraction of requests where the policy's
  cacheability verdict (hit, or miss-and-admitted) matches HRO's
  (content in the current hazard top set);
* **false admits** — the policy admits/holds a content HRO would not
  cache;
* **false rejects** — the policy rejects/lacks a content HRO would
  cache (the verdicts the imitation loss actually penalizes);
* **hit-ratio gap attribution** — of the requests HRO classifies as
  hits but the policy missed, how many fall into each miss-taxonomy
  class (``admission_rejected``, ``evicted_early``, …), which localizes
  the gap the same way the paper's Figs. 9–11 ablations do.

``analyze_trace`` is the one-call entry point behind the ``repro
analyze`` CLI subcommand: run the policy (traced) and HRO (traced) over
one trace and assemble an :class:`AnalysisReport` renderable as text,
JSON, or a per-window CSV time series.  The report also carries the
policy's residency diagnostics (admission and dead-on-arrival ratios,
eviction age, hits per residency; see :mod:`repro.obs.trace`).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.hro import HroBound
from repro.obs.trace import MISS_CLASSES, DecisionTracer, MissTaxonomy


def decision_verdict(record) -> bool:
    """A record's cacheability verdict: the policy holds (hit) or wants
    (miss-and-admitted) the content after this request."""
    return record.hit or bool(record.admitted)


def trace_hro(
    trace,
    capacity: int,
    window_multiple: float = 4.0,
    min_window_requests: int = 0,
    hazard_model: str = "poisson",
    tracer: DecisionTracer | None = None,
) -> tuple[DecisionTracer, HroBound]:
    """Run HRO over ``trace`` recording a per-request decision trace.

    Each record's ``admitted`` carries HRO's cacheability verdict — the
    content sits in the current hazard top set (or everything, before
    the first window closes) — for hits and misses alike, so
    :func:`decision_verdict` works on both sides of the join.
    ``threshold`` is the marginal size-normalized hazard and
    ``hazard_rank`` the content's position in the ranking that decided
    the request — for a window-closing request, the ranking in force
    before the close.
    HRO has no explicit evictions; a previously-cacheable content that
    drops out of the top set shows up as an *unattributed*
    ``evicted_early`` miss in the taxonomy.
    """
    bound = HroBound(
        capacity,
        window_multiple,
        min_window_requests=min_window_requests,
        hazard_model=hazard_model,
    )
    if tracer is None:
        tracer = DecisionTracer()
    for req in trace:
        # Read the ranking before ``process``: a request that closes a
        # window was classified under the ranking in force, not the next.
        threshold = bound.hazard_threshold
        hazard_rank = bound.hazard_rank(req.obj_id)
        hit = bound.process(req)
        tracer.observe(
            req,
            hit=hit,
            admitted=bound.last_would_cache,
            threshold=threshold,
            hazard_rank=hazard_rank,
        )
    return tracer, bound


@dataclass
class WindowDivergence:
    """Policy-vs-HRO decision agreement over one reporting window."""

    index: int
    requests: int = 0
    policy_hits: int = 0
    hro_hits: int = 0
    agreements: int = 0
    false_admits: int = 0
    false_rejects: int = 0
    #: HRO-hit-but-policy-miss counts by the policy's miss class.
    gap_by_class: dict[str, int] = field(default_factory=dict)

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.requests if self.requests else 0.0

    @property
    def policy_hit_ratio(self) -> float:
        return self.policy_hits / self.requests if self.requests else 0.0

    @property
    def hro_hit_ratio(self) -> float:
        return self.hro_hits / self.requests if self.requests else 0.0

    @property
    def hit_ratio_gap(self) -> float:
        """HRO hit ratio minus policy hit ratio (>= 0 in expectation:
        HRO upper-bounds every non-anticipative policy)."""
        return self.hro_hit_ratio - self.policy_hit_ratio

    def as_row(self) -> dict:
        """Flat dict for CSV/JSON time series."""
        row = {
            "window": self.index,
            "requests": self.requests,
            "policy_hits": self.policy_hits,
            "hro_hits": self.hro_hits,
            "policy_hit_ratio": round(self.policy_hit_ratio, 6),
            "hro_hit_ratio": round(self.hro_hit_ratio, 6),
            "hit_ratio_gap": round(self.hit_ratio_gap, 6),
            "agreement_rate": round(self.agreement_rate, 6),
            "false_admits": self.false_admits,
            "false_rejects": self.false_rejects,
        }
        for name in MISS_CLASSES:
            row[f"gap_{name}"] = self.gap_by_class.get(name, 0)
        return row


@dataclass
class DivergenceReport:
    """Per-window and aggregate LHR↔HRO decision divergence."""

    policy: str
    windows: list[WindowDivergence]
    totals: WindowDivergence

    @property
    def agreement_rate(self) -> float:
        return self.totals.agreement_rate

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "totals": {**self.totals.as_row(), "window": None},
            "windows": [w.as_row() for w in self.windows],
        }

    def csv_rows(self) -> list[dict]:
        return [w.as_row() for w in self.windows]

    def write_csv(self, path: str | Path) -> None:
        """Per-window divergence time series as CSV."""
        rows = self.csv_rows()
        fieldnames = list(
            rows[0] if rows else WindowDivergence(index=0).as_row()
        )
        with Path(path).open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)


def divergence_report(
    policy_tracer: DecisionTracer,
    hro_tracer: DecisionTracer,
    window_requests: int = 1000,
    policy: str = "policy",
) -> DivergenceReport:
    """Join two complete decision traces of the same request stream.

    Both tracers must be complete (no ring buffering, no sampling) and
    cover the same number of requests; records are joined positionally
    and verified to refer to the same content.
    """
    if not policy_tracer.is_complete or not hro_tracer.is_complete:
        raise ValueError(
            "divergence analysis needs complete decision traces "
            "(buffer=None, sample_every=1)"
        )
    if policy_tracer.requests != hro_tracer.requests:
        raise ValueError(
            f"traces cover different request counts: "
            f"{policy_tracer.requests} vs {hro_tracer.requests}"
        )
    if window_requests <= 0:
        raise ValueError("window_requests must be positive")
    windows: list[WindowDivergence] = []
    totals = WindowDivergence(index=-1)
    current: WindowDivergence | None = None
    for position, (mine, theirs) in enumerate(
        zip(policy_tracer.records, hro_tracer.records)
    ):
        if mine.obj_id != theirs.obj_id:
            raise ValueError(
                f"decision traces disagree on request {position}: "
                f"obj {mine.obj_id} vs {theirs.obj_id} — not the same trace"
            )
        if current is None or current.requests >= window_requests:
            current = WindowDivergence(index=len(windows))
            windows.append(current)
        policy_verdict = decision_verdict(mine)
        hro_verdict = decision_verdict(theirs)
        for bucket in (current, totals):
            bucket.requests += 1
            bucket.policy_hits += mine.hit
            bucket.hro_hits += theirs.hit
            if policy_verdict == hro_verdict:
                bucket.agreements += 1
            elif policy_verdict:
                bucket.false_admits += 1
            else:
                bucket.false_rejects += 1
        if theirs.hit and not mine.hit:
            missed_class = policy_tracer.class_of(mine)
            if missed_class is not None:
                for bucket in (current, totals):
                    bucket.gap_by_class[missed_class] = (
                        bucket.gap_by_class.get(missed_class, 0) + 1
                    )
    return DivergenceReport(policy=policy, windows=windows, totals=totals)


@dataclass
class AnalysisReport:
    """Everything ``repro analyze`` reports for one (trace, capacity)."""

    trace: str
    policy: str
    capacity: int
    requests: int
    policy_taxonomy: MissTaxonomy
    hro_taxonomy: MissTaxonomy
    divergence: DivergenceReport
    policy_hit_ratio: float
    hro_hit_ratio: float
    top_evictors: list[tuple[int, int]]
    #: The policy's residency diagnostics (``DecisionTracer.residency``);
    #: HRO reports no evictions, so it has none.
    residency: dict

    def as_dict(self) -> dict:
        return {
            "trace": self.trace,
            "policy": self.policy,
            "capacity": self.capacity,
            "requests": self.requests,
            "policy_hit_ratio": round(self.policy_hit_ratio, 6),
            "hro_hit_ratio": round(self.hro_hit_ratio, 6),
            "miss_taxonomy": self.policy_taxonomy.as_dict(),
            "hro_miss_taxonomy": self.hro_taxonomy.as_dict(),
            "residency": self.residency,
            "top_evictors": [
                {"obj_id": obj_id, "misses_caused": count}
                for obj_id, count in self.top_evictors
            ],
            "divergence": self.divergence.as_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def render_text(self) -> str:
        """Human-readable report: taxonomy table, divergence summary and
        the per-window time series."""
        tax = self.policy_taxonomy
        lines = [
            f"analysis: {self.policy} vs hro on {self.trace!r} "
            f"(capacity {self.capacity} bytes, {self.requests} requests)",
            "",
            f"hit ratio: {self.policy_hit_ratio:.4f} ({self.policy})  "
            f"{self.hro_hit_ratio:.4f} (hro bound)  "
            f"gap {self.hro_hit_ratio - self.policy_hit_ratio:+.4f}",
            "",
            f"miss taxonomy ({self.policy}): {tax.total} misses",
        ]
        for name, count in tax.counts().items():
            share = count / tax.total if tax.total else 0.0
            detail = ""
            if name == "admission_rejected" and tax.rejected_below_threshold:
                detail = f"  (p < delta: {tax.rejected_below_threshold})"
            if name == "evicted_early" and tax.unattributed_evictions:
                detail = f"  (unattributed: {tax.unattributed_evictions})"
            lines.append(f"  {name:<20} {count:>8}  {share:>6.1%}{detail}")
        if self.top_evictors:
            evictors = ", ".join(
                f"{obj_id} ({count})" for obj_id, count in self.top_evictors
            )
            lines.append(f"  top evictors (obj_id (misses caused)): {evictors}")
        res = self.residency
        lines += [
            "",
            f"residency ({self.policy}): admitted {res['admission_ratio']:.1%} "
            f"of misses; {res['completed_residencies']} evicted, "
            f"{res['dead_on_arrival_ratio']:.1%} dead on arrival",
            f"  eviction age mean {res['mean_eviction_age_s']:.2f} s, "
            f"p90 {res['p90_eviction_age_s']:.2f} s; "
            f"hits per residency {res['mean_hits_per_residency']:.3f}",
        ]
        totals = self.divergence.totals
        lines += [
            "",
            f"divergence vs hro: agreement {totals.agreement_rate:.4f}  "
            f"false admits {totals.false_admits}  "
            f"false rejects {totals.false_rejects}",
        ]
        gap = totals.gap_by_class
        if gap:
            attributed = ", ".join(
                f"{name}={gap[name]}" for name in MISS_CLASSES if name in gap
            )
            lines.append(f"hit-ratio gap attribution (hro hit, we missed): {attributed}")
        rows = self.divergence.csv_rows()
        if rows:
            lines.append("")
            lines.append(
                f"{'window':>6}{'requests':>10}{'hit':>8}{'hro':>8}"
                f"{'gap':>8}{'agree':>8}{'f.adm':>7}{'f.rej':>7}"
            )
            for row in rows:
                lines.append(
                    f"{row['window']:>6}{row['requests']:>10}"
                    f"{row['policy_hit_ratio']:>8.3f}{row['hro_hit_ratio']:>8.3f}"
                    f"{row['hit_ratio_gap']:>8.3f}{row['agreement_rate']:>8.3f}"
                    f"{row['false_admits']:>7}{row['false_rejects']:>7}"
                )
        return "\n".join(lines)


def analyze_trace(
    trace,
    capacity: int,
    policy: str = "lhr",
    window_requests: int = 1000,
    policy_kwargs: dict | None = None,
    window_multiple: float = 4.0,
    min_window_requests: int = 512,
) -> AnalysisReport:
    """Run ``policy`` (traced) and HRO (traced) over ``trace`` and join
    them into an :class:`AnalysisReport`.

    ``window_multiple``/``min_window_requests`` configure the HRO
    reference bound; when the policy is an LHR variant the same values
    are passed to it so both sides window the trace identically.
    """
    # Imported here: repro.sim imports repro.obs at package init, so a
    # top-level import would be circular.
    from repro.sim.engine import simulate
    from repro.sim.runner import build_policy

    kwargs = dict(policy_kwargs or {})
    if policy in ("lhr", "d-lhr", "n-lhr"):
        kwargs.setdefault("window_multiple", window_multiple)
        kwargs.setdefault("min_window_requests", min_window_requests)
    policy_obj = build_policy(policy, capacity, **kwargs)
    policy_tracer = DecisionTracer()
    simulate(policy_obj, trace, tracer=policy_tracer)
    hro_tracer, _ = trace_hro(
        trace,
        capacity,
        window_multiple=window_multiple,
        min_window_requests=min_window_requests,
    )
    divergence = divergence_report(
        policy_tracer,
        hro_tracer,
        window_requests=window_requests,
        policy=policy_obj.name,
    )
    return AnalysisReport(
        trace=getattr(trace, "name", "trace"),
        policy=policy_obj.name,
        capacity=capacity,
        requests=policy_tracer.requests,
        policy_taxonomy=policy_tracer.taxonomy(),
        hro_taxonomy=hro_tracer.taxonomy(),
        divergence=divergence,
        policy_hit_ratio=policy_tracer.hit_ratio,
        hro_hit_ratio=hro_tracer.hit_ratio,
        top_evictors=policy_tracer.top_evictors(),
        residency=policy_tracer.residency(),
    )
