"""LHR↔HRO divergence analyzer: trace joining, windowing, the taxonomy
invariant end-to-end, and input validation."""

import json

import pytest

from repro.core.hro import HroBound
from repro.obs import DecisionTracer
from repro.obs.analyze import (
    analyze_trace,
    decision_verdict,
    divergence_report,
    trace_hro,
)
from repro.sim import build_policy, simulate
from repro.traces.synthetic import irm_trace


@pytest.fixture(scope="module")
def small_trace():
    return irm_trace(4000, 250, alpha=0.9, mean_size=1 << 10, seed=13)


@pytest.fixture(scope="module")
def capacity(small_trace):
    return int(0.08 * small_trace.unique_bytes())


@pytest.fixture(scope="module")
def hro_traced(small_trace, capacity):
    return trace_hro(small_trace, capacity, min_window_requests=512)


class TestTraceHro:
    def test_trace_matches_bound_counters(self, small_trace, hro_traced):
        tracer, bound = hro_traced
        assert tracer.requests == len(small_trace)
        assert tracer.hits == bound.hits
        assert tracer.is_complete
        assert tracer.taxonomy().total == tracer.misses

    def test_records_carry_verdicts_and_ranks(self, hro_traced):
        tracer, _ = hro_traced
        assert all(r.admitted is not None for r in tracer.records)
        ranks = [r.hazard_rank for r in tracer.records if r.hazard_rank is not None]
        assert ranks, "HRO never reported a hazard rank"
        assert all(rank >= 0 for rank in ranks)
        # Once the first window closes a marginal hazard exists.
        assert any(r.threshold is not None for r in tracer.records)

    def test_closing_request_carries_the_ranking_that_decided_it(
        self, small_trace, capacity, hro_traced
    ):
        """The ranking changes only at a close, so every request of a
        window — the one that closes it included — was classified under
        one threshold and one rank per content."""
        tracer, bound = hro_traced
        records = tracer.records
        # The bound keeps only its last two windows; an accountant fed the
        # same requests closes the same windows and hands each to its hook.
        accountant = HroBound(capacity, min_window_requests=512)
        windows = []
        accountant.on_window = windows.append
        for req in small_trace:
            accountant.process_scalar(req.obj_id, req.size, req.time)
        assert bound.windows_closed == len(windows)
        assert bound.windows == windows[-2:]
        assert len(windows) >= 3
        assert sum(w.num_requests for w in windows) < len(records)
        start = 0
        moved = 0
        for window in windows:
            end = start + window.num_requests
            span = records[start:end]
            assert {r.threshold for r in span} == {span[0].threshold}
            ranks = {}
            for record in span:
                ranks.setdefault(record.obj_id, set()).add(record.hazard_rank)
            assert all(len(seen) == 1 for seen in ranks.values())
            moved += records[end].threshold != span[-1].threshold
            start = end
        assert moved == len(windows)


class TestDivergenceReport:
    @pytest.fixture(scope="class")
    def report(self, small_trace, capacity, hro_traced):
        policy_tracer = DecisionTracer()
        simulate(build_policy("lru", capacity), small_trace, tracer=policy_tracer)
        return divergence_report(
            policy_tracer, hro_traced[0], window_requests=1000, policy="lru"
        )

    def test_verdict_counts_partition_requests(self, report, small_trace):
        totals = report.totals
        assert totals.requests == len(small_trace)
        assert (
            totals.agreements + totals.false_admits + totals.false_rejects
            == totals.requests
        )
        assert 0.0 <= report.agreement_rate <= 1.0

    def test_windows_partition_the_trace(self, report, small_trace):
        assert sum(w.requests for w in report.windows) == len(small_trace)
        assert [w.index for w in report.windows] == list(range(len(report.windows)))
        for window in report.windows:
            assert 0.0 <= window.agreement_rate <= 1.0

    def test_gap_attribution_bounded_by_gap(self, report):
        totals = report.totals
        # Each attributed gap request is an HRO hit the policy missed.
        assert sum(totals.gap_by_class.values()) <= totals.hro_hits
        assert all(v >= 0 for v in totals.gap_by_class.values())

    def test_csv_roundtrip(self, report, tmp_path):
        import csv

        path = tmp_path / "divergence.csv"
        report.write_csv(path)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == len(report.windows)
        assert int(rows[0]["requests"]) == report.windows[0].requests
        assert "gap_evicted_early" in rows[0]

    def test_incomplete_trace_rejected(self, hro_traced):
        sampled = DecisionTracer(sample_every=2)
        with pytest.raises(ValueError, match="complete"):
            divergence_report(sampled, hro_traced[0])

    def test_length_mismatch_rejected(self, small_trace, capacity, hro_traced):
        short = DecisionTracer()
        simulate(
            build_policy("lru", capacity),
            irm_trace(100, 20, seed=0),
            tracer=short,
        )
        with pytest.raises(ValueError, match="request counts"):
            divergence_report(short, hro_traced[0])

    def test_different_trace_rejected(self, small_trace, capacity, hro_traced):
        other = DecisionTracer()
        simulate(
            build_policy("lru", capacity),
            irm_trace(len(small_trace), 250, alpha=0.9,
                      mean_size=1 << 10, seed=99),
            tracer=other,
        )
        with pytest.raises(ValueError, match="not the same trace"):
            divergence_report(other, hro_traced[0])

    def test_bad_window_rejected(self, hro_traced):
        with pytest.raises(ValueError, match="window_requests"):
            divergence_report(hro_traced[0], hro_traced[0], window_requests=0)


class TestAnalyzeTrace:
    """The acceptance path: taxonomy sums exactly to total misses and the
    divergence report carries a per-window agreement rate."""

    @pytest.fixture(scope="class")
    def report(self, small_trace, capacity):
        return analyze_trace(
            small_trace, capacity, policy="lhr", window_requests=1000
        )

    def test_taxonomy_sums_to_misses(self, report):
        expected_misses = round(
            report.requests * (1.0 - report.policy_hit_ratio)
        )
        assert report.policy_taxonomy.total == expected_misses
        assert (
            sum(report.policy_taxonomy.counts().values())
            == report.policy_taxonomy.total
        )
        assert report.hro_taxonomy.total == round(
            report.requests * (1.0 - report.hro_hit_ratio)
        )

    def test_agreement_rate_in_unit_interval(self, report):
        assert 0.0 <= report.divergence.agreement_rate <= 1.0
        for window in report.divergence.windows:
            assert 0.0 <= window.agreement_rate <= 1.0

    def test_report_serializes(self, report):
        payload = json.loads(report.to_json())
        assert payload["miss_taxonomy"]["total_misses"] == (
            report.policy_taxonomy.total
        )
        assert payload["residency"] == report.residency
        text = report.render_text()
        assert "miss taxonomy" in text
        assert "agreement" in text
        assert "dead on arrival" in text

    def test_residency_is_the_policy_tracers(self, report, small_trace, capacity):
        tracer = DecisionTracer()
        simulate(
            build_policy(
                "lhr", capacity, window_multiple=4.0, min_window_requests=512
            ),
            small_trace,
            tracer=tracer,
        )
        assert report.residency == tracer.residency()
        assert report.residency["completed_residencies"] > 0

    def test_lru_policy_works_too(self, small_trace, capacity):
        report = analyze_trace(
            small_trace, capacity, policy="lru", window_requests=2000
        )
        assert report.policy == "lru"
        # LRU admits everything that fits: no below-threshold rejections.
        assert report.policy_taxonomy.rejected_below_threshold == 0


class TestDecisionVerdict:
    def test_hit_or_admitted(self):
        from repro.obs.trace import DecisionRecord

        hit = DecisionRecord(index=0, time=0.0, obj_id=1, size=1, hit=True)
        admitted = DecisionRecord(
            index=1, time=0.0, obj_id=1, size=1, hit=False, admitted=True
        )
        rejected = DecisionRecord(
            index=2, time=0.0, obj_id=1, size=1, hit=False, admitted=False
        )
        assert decision_verdict(hit) is True
        assert decision_verdict(admitted) is True
        assert decision_verdict(rejected) is False
