"""Production-trace stand-ins: Table 1 calibration at reduced scale."""

from collections import Counter

import numpy as np
import pytest

from repro.traces.packed import PackedTrace
from repro.traces.production import (
    GB,
    MB,
    PRODUCTION_SPECS,
    TraceSpec,
    generate_production_trace,
)
from repro.traces.stats import summarize_trace


class TestSpecs:
    def test_all_four_traces_present(self):
        assert set(PRODUCTION_SPECS) == {"cdn-a", "cdn-b", "cdn-c", "wiki"}

    def test_table1_headline_numbers(self):
        # Spot-check the specs against Table 1 of the paper.
        a = PRODUCTION_SPECS["cdn-a"]
        assert a.duration_hours == 24.0
        assert a.unique_contents == 330_446
        assert a.mean_size_mb == pytest.approx(25.5)
        wiki = PRODUCTION_SPECS["wiki"]
        assert wiki.total_requests == 1_000_000
        assert wiki.max_size_mb == pytest.approx(92_100.0)

    def test_request_rate(self):
        spec = PRODUCTION_SPECS["cdn-b"]
        assert spec.request_rate == pytest.approx(
            1_000_000 / (9.9 * 3600), rel=1e-6
        )

    def test_scaled_cache_bytes(self):
        spec = PRODUCTION_SPECS["cdn-a"]
        assert spec.scaled_cache_bytes(512, 0.01) == int(512 * GB * 0.01)
        with pytest.raises(ValueError):
            spec.scaled_cache_bytes(512, 0)


class TestGeneration:
    @pytest.fixture(scope="class", params=list(PRODUCTION_SPECS))
    def trace_and_spec(self, request):
        spec = PRODUCTION_SPECS[request.param]
        return generate_production_trace(spec, scale=0.01, seed=7), spec

    def test_valid(self, trace_and_spec):
        trace, _ = trace_and_spec
        PackedTrace.from_trace(trace)
        # One size per content.
        assert len({(r.obj_id, r.size) for r in trace}) == len(trace.unique_contents())

    def test_request_and_content_counts_scale(self, trace_and_spec):
        trace, spec = trace_and_spec
        assert len(trace) == pytest.approx(spec.total_requests * 0.01, rel=0.01)
        # Some head contents draw zero requests, so the observed catalogue
        # is slightly below the provisioned one but never above it.
        provisioned = spec.unique_contents * 0.01
        observed = len(trace.unique_contents())
        assert 0.75 * provisioned <= observed <= provisioned * 1.01

    def test_duration_matches_spec(self, trace_and_spec):
        trace, spec = trace_and_spec
        assert trace.duration == pytest.approx(spec.duration_seconds, rel=0.01)

    def test_mean_size_matches_spec(self, trace_and_spec):
        trace, spec = trace_and_spec
        summary = summarize_trace(trace)
        assert summary.mean_size_mb == pytest.approx(spec.mean_size_mb, rel=0.25)

    def test_max_size_within_spec(self, trace_and_spec):
        trace, spec = trace_and_spec
        summary = summarize_trace(trace)
        assert summary.max_size_mb <= spec.max_size_mb * 1.01

    def test_one_hit_fraction_close(self, trace_and_spec):
        trace, spec = trace_and_spec
        counts = Counter(req.obj_id for req in trace)
        one_hit = sum(1 for count in counts.values() if count == 1)
        fraction = one_hit / len(counts)
        # The Zipf tail adds extra one-hit contents beyond the spec floor.
        assert fraction >= spec.one_hit_fraction * 0.9

    def test_determinism(self):
        a = generate_production_trace("wiki", scale=0.005, seed=3)
        b = generate_production_trace("wiki", scale=0.005, seed=3)
        assert [r.obj_id for r in a] == [r.obj_id for r in b]

    def test_seed_changes_trace(self):
        a = generate_production_trace("wiki", scale=0.005, seed=3)
        b = generate_production_trace("wiki", scale=0.005, seed=4)
        assert [r.obj_id for r in a] != [r.obj_id for r in b]

    def test_accepts_spec_by_name_case_insensitive(self):
        trace = generate_production_trace("CDN-C", scale=0.005, seed=0)
        assert trace.name == "cdn-c"

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            generate_production_trace("cdn-a", scale=0.0)

    def test_cdn_c_near_constant_sizes(self):
        trace = generate_production_trace("cdn-c", scale=0.01, seed=1)
        sizes = np.array(list(trace.unique_contents().values()), dtype=float)
        assert sizes.std() / sizes.mean() < 0.1
        assert sizes.max() <= 101 * MB

    def test_size_popularity_correlation_sign(self):
        trace = generate_production_trace("cdn-b", scale=0.01, seed=1)
        counts = Counter(req.obj_id for req in trace)
        sizes = trace.unique_contents()
        repeated = [oid for oid, count in counts.items() if count > 1]
        count_arr = np.array([counts[oid] for oid in repeated], dtype=float)
        size_arr = np.array([sizes[oid] for oid in repeated], dtype=float)
        count_ranks = count_arr.argsort().argsort()
        size_ranks = size_arr.argsort().argsort()
        rho = np.corrcoef(count_ranks, size_ranks)[0, 1]
        assert rho > 0.15  # video workload: popular titles are larger


class TestCustomSpec:
    def test_custom_spec_roundtrip(self):
        spec = TraceSpec(
            name="custom",
            duration_hours=1.0,
            unique_contents=50_000,
            total_requests=200_000,
            mean_size_mb=2.0,
            max_size_mb=100.0,
            size_sigma=1.0,
            alpha=0.9,
            one_hit_fraction=0.3,
            drift_segments=4,
            drift_alpha_amplitude=0.05,
            size_popularity_corr=0.2,
            cache_sizes_gb=(1, 2),
            prototype_cache_gb=2,
            caffeine_cache_gb=1,
        )
        trace = generate_production_trace(spec, scale=0.02, seed=0)
        PackedTrace.from_trace(trace)
        assert len({(r.obj_id, r.size) for r in trace}) == len(trace.unique_contents())
        assert trace.name == "custom"
