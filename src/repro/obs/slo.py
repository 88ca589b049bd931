"""Declarative SLOs over run-ledger records.

An :class:`SloSpec` is a small JSON document — hit-ratio floors per
policy/scenario, retrain-rate ceilings, runtime budgets, a failed-cell
cap — evaluated against one :class:`~repro.obs.runs.RunRecord` by
``repro runs check``, which exits 0 when every rule holds and 1 on any
violation (0 with ``--warn-only``).

Spec format (``schema: repro-slo/1``)::

    {
      "schema": "repro-slo/1",
      "rules": [
        {"metric": "object_hit_ratio", "min": 0.25, "policy": "lhr"},
        {"metric": "retrains", "max": 5, "scenario": "churn"},
        {"metric": "wall_seconds", "max": 60},
        {"metric": "failures", "max": 0}
      ]
    }

Cell-scope metrics (``object_hit_ratio``, ``byte_hit_ratio``,
``requests``, ``hits``, ``evictions``, ``admissions``,
``runtime_seconds``) are checked against **every** cell matched by the
optional ``policy`` / ``scenario`` / ``capacity`` selectors; a rule
that matches no cells *fails* (a missing cell must never pass a floor
silently).  Run-scope metrics (``wall_seconds`` from the metrics
snapshot; ``failures`` from the event digest) are checked once per run
and reject selectors.  The learner-activity
metrics (``retrains``, ``drift_windows``, ``drift_detections``) exist
at both scopes: with a selector they read each matched cell's counts
(workload-lab records carry them per cell), without one they read the
run-wide event digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

SLO_SCHEMA = "repro-slo/1"

#: Metrics read off each matched cell dict.  The learner-activity trio
#: (``retrains``/``drift_windows``/``drift_detections``) is cell-scope
#: only when the rule has a selector; see :attr:`SloRule.is_run_scope`.
CELL_METRICS = (
    "object_hit_ratio",
    "byte_hit_ratio",
    "requests",
    "hits",
    "evictions",
    "admissions",
    "runtime_seconds",
    "retrains",
    "drift_windows",
    "drift_detections",
)

#: Metrics read once per run, from the event digest...
RUN_EVENT_METRICS = (
    "failures",
    "retrains",
    "drift_windows",
    "drift_detections",
)

#: ...or from the run-level metrics snapshot.
RUN_SNAPSHOT_METRICS = ("wall_seconds", "requests_total")

__all__ = [
    "CELL_METRICS",
    "RUN_EVENT_METRICS",
    "RUN_SNAPSHOT_METRICS",
    "SLO_SCHEMA",
    "RuleResult",
    "SloReport",
    "SloRule",
    "SloSpec",
    "evaluate_slo",
]


@dataclass
class SloRule:
    """One bound: ``min <= metric <= max`` over its scope."""

    metric: str
    min: float | None = None
    max: float | None = None
    policy: str | None = None
    scenario: str | None = None
    capacity: int | None = None

    def __post_init__(self) -> None:
        known = sorted(
            set(CELL_METRICS + RUN_EVENT_METRICS + RUN_SNAPSHOT_METRICS)
        )
        if self.metric not in known:
            raise ValueError(
                f"unknown SLO metric {self.metric!r}; "
                f"expected one of {', '.join(known)}"
            )
        if self.min is None and self.max is None:
            raise ValueError(
                f"SLO rule for {self.metric!r} needs a min and/or max bound"
            )
        if self.has_selector and self.metric not in CELL_METRICS:
            raise ValueError(
                f"{self.metric!r} is run-scoped; policy/scenario/capacity "
                "selectors do not apply"
            )

    @property
    def has_selector(self) -> bool:
        return (
            self.policy is not None
            or self.scenario is not None
            or self.capacity is not None
        )

    @property
    def is_run_scope(self) -> bool:
        if self.metric in RUN_SNAPSHOT_METRICS:
            return True
        if self.metric not in RUN_EVENT_METRICS:
            return False
        # Dual-scope learner-activity metric: a selector pins it to the
        # matched cells, no selector reads the run-wide digest.
        return not self.has_selector

    def matches(self, cell: dict) -> bool:
        if self.policy is not None and cell.get("policy") != self.policy:
            return False
        if self.scenario is not None and cell.get("scenario") != self.scenario:
            return False
        if self.capacity is not None and cell.get("capacity") != self.capacity:
            return False
        return True

    def bounds_text(self) -> str:
        parts = []
        if self.min is not None:
            parts.append(f">= {self.min}")
        if self.max is not None:
            parts.append(f"<= {self.max}")
        return " and ".join(parts)

    def selector_text(self) -> str:
        parts = [
            f"{key}={value}"
            for key, value in (
                ("policy", self.policy),
                ("scenario", self.scenario),
                ("capacity", self.capacity),
            )
            if value is not None
        ]
        return f" [{', '.join(parts)}]" if parts else ""

    def describe(self) -> str:
        return f"{self.metric} {self.bounds_text()}{self.selector_text()}"

    def check_value(self, value: float) -> bool:
        if self.min is not None and value < self.min:
            return False
        if self.max is not None and value > self.max:
            return False
        return True

    @classmethod
    def from_dict(cls, raw: dict) -> "SloRule":
        unknown = set(raw) - {
            "metric", "min", "max", "policy", "scenario", "capacity"
        }
        if unknown:
            raise ValueError(
                f"unknown SLO rule field(s): {', '.join(sorted(unknown))}"
            )
        if "metric" not in raw:
            raise ValueError("SLO rule is missing 'metric'")
        return cls(
            metric=raw["metric"],
            min=raw.get("min"),
            max=raw.get("max"),
            policy=raw.get("policy"),
            scenario=raw.get("scenario"),
            capacity=raw.get("capacity"),
        )

    def as_dict(self) -> dict:
        out: dict = {"metric": self.metric}
        for key in ("min", "max", "policy", "scenario", "capacity"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass
class SloSpec:
    """A named bundle of :class:`SloRule`."""

    rules: list = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("SLO spec has no rules")

    @classmethod
    def from_dict(cls, raw: dict) -> "SloSpec":
        schema = raw.get("schema")
        if schema != SLO_SCHEMA:
            raise ValueError(
                f"unknown SLO schema {schema!r}; expected {SLO_SCHEMA!r}"
            )
        rules = raw.get("rules")
        if not isinstance(rules, list) or not rules:
            raise ValueError("SLO spec needs a non-empty 'rules' list")
        return cls(
            rules=[SloRule.from_dict(rule) for rule in rules],
            name=raw.get("name", ""),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "SloSpec":
        spec = cls.from_dict(json.loads(Path(path).read_text()))
        if not spec.name:
            spec.name = Path(path).name
        return spec

    def as_dict(self) -> dict:
        out: dict = {
            "schema": SLO_SCHEMA,
            "rules": [rule.as_dict() for rule in self.rules],
        }
        if self.name:
            out["name"] = self.name
        return out


@dataclass
class RuleResult:
    """One evaluated rule: worst observed value across its scope."""

    rule: SloRule
    ok: bool
    observed: float | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "rule": self.rule.describe(),
            "ok": self.ok,
            "observed": self.observed,
            "detail": self.detail,
        }


@dataclass
class SloReport:
    """Verdict of one spec over one run."""

    run_id: str
    spec_name: str
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def violations(self) -> list:
        return [result for result in self.results if not result.ok]

    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "slo": self.spec_name,
            "ok": self.ok,
            "rules": [result.as_dict() for result in self.results],
        }

    def render_text(self) -> str:
        lines = [f"slo check: {self.spec_name or 'spec'} vs run {self.run_id}"]
        for result in self.results:
            mark = "PASS" if result.ok else "FAIL"
            observed = (
                "n/a" if result.observed is None else f"{result.observed:g}"
            )
            line = f"  [{mark}] {result.rule.describe()}  observed {observed}"
            if result.detail:
                line += f"  ({result.detail})"
            lines.append(line)
        lines.append("verdict: " + ("OK" if self.ok else "VIOLATED"))
        return "\n".join(lines)


def evaluate_slo(spec: SloSpec, record) -> SloReport:
    """Evaluate every rule of ``spec`` against one ledger record."""
    report = SloReport(run_id=record.run_id, spec_name=spec.name)
    for rule in spec.rules:
        if rule.is_run_scope:
            report.results.append(_check_run_rule(rule, record))
        else:
            report.results.append(_check_cell_rule(rule, record.cells))
    return report


def _check_run_rule(rule: SloRule, record) -> RuleResult:
    if rule.metric in RUN_EVENT_METRICS:
        source = record.events
        detail = "event digest"
        if not source.get("events_observed", True):
            # An unobserved run has no event stream to bound.
            return RuleResult(
                rule=rule,
                ok=False,
                observed=None,
                detail="run was not observed; no event digest to check",
            )
    else:
        source = record.metrics
        detail = "metrics snapshot"
    if rule.metric == "requests_total":
        value = source.get("requests")
    else:
        value = source.get(rule.metric)
    if value is None:
        return RuleResult(
            rule=rule,
            ok=False,
            observed=None,
            detail=f"{rule.metric} absent from {detail}",
        )
    return RuleResult(rule=rule, ok=rule.check_value(value), observed=value)


def _check_cell_rule(rule: SloRule, cells) -> RuleResult:
    matched = [cell for cell in cells if rule.matches(cell)]
    if not matched:
        return RuleResult(
            rule=rule,
            ok=False,
            observed=None,
            detail="no cells matched the rule's selectors",
        )
    worst_cell = None
    worst_value = None
    ok = True
    for cell in matched:
        value = cell.get(rule.metric)
        if value is None:
            return RuleResult(
                rule=rule,
                ok=False,
                observed=None,
                detail=f"cell {cell.get('policy')!r} lacks {rule.metric}",
            )
        if not rule.check_value(value):
            ok = False
        # Report the worst value: lowest against a floor, highest
        # against a ceiling (floor wins when both bounds are set).
        is_worse = (
            worst_value is None
            or (rule.min is not None and value < worst_value)
            or (rule.min is None and value > worst_value)
        )
        if is_worse:
            worst_value = value
            worst_cell = cell
    detail = ""
    if worst_cell is not None and len(matched) > 1:
        detail = (
            f"worst of {len(matched)} cells: {worst_cell.get('policy')}"
            f"@{worst_cell.get('capacity')}"
        )
    return RuleResult(rule=rule, ok=ok, observed=worst_value, detail=detail)
