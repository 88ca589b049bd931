"""Trace transformations: scaling, splitting, filtering, interleaving."""

import pytest

from repro.traces.packed import PackedTrace
from repro.traces.request import Trace
from repro.traces.synthetic import irm_trace
from repro.traces.transform import (
    filter_by_size,
    interleave,
    split,
    subsample,
    time_scale,
    truncate_requests,
)


@pytest.fixture(scope="module")
def base_trace():
    return irm_trace(1000, 60, mean_size=1 << 12, seed=31, name="base")


class TestTimeScale:
    def test_rejects_bad_factor(self, base_trace):
        with pytest.raises(ValueError):
            time_scale(base_trace, 0.0)

    def test_scales_duration(self, base_trace):
        scaled = time_scale(base_trace, 2.0)
        assert scaled.duration == pytest.approx(2 * base_trace.duration)
        assert len(scaled) == len(base_trace)

    def test_preserves_ids_and_sizes(self, base_trace):
        scaled = time_scale(base_trace, 0.5)
        assert [r.obj_id for r in scaled] == [r.obj_id for r in base_trace]
        assert [r.size for r in scaled] == [r.size for r in base_trace]

    def test_source_untouched(self, base_trace):
        before = base_trace[0].time
        time_scale(base_trace, 3.0)
        assert base_trace[0].time == before


class TestSplit:
    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2])
    def test_rejects_bad_fraction(self, base_trace, fraction):
        with pytest.raises(ValueError):
            split(base_trace, fraction)

    def test_partition(self, base_trace):
        head, tail = split(base_trace, 0.3)
        assert len(head) == 300
        assert len(tail) == 700
        assert head[-1].time <= tail[0].time

    def test_reindexed(self, base_trace):
        head, tail = split(base_trace, 0.5)
        assert tail[0].index == 0
        assert head[0].index == 0


class TestFilterBySize:
    def test_bounds_respected(self, base_trace):
        filtered = filter_by_size(base_trace, min_bytes=2048, max_bytes=8192)
        assert all(2048 <= r.size <= 8192 for r in filtered)

    def test_rejects_inverted_bounds(self, base_trace):
        with pytest.raises(ValueError):
            filter_by_size(base_trace, min_bytes=100, max_bytes=10)

    def test_no_bounds_keeps_all(self, base_trace):
        assert len(filter_by_size(base_trace)) == len(base_trace)


class TestSubsample:
    def test_rejects_bad_fraction(self, base_trace):
        with pytest.raises(ValueError):
            subsample(base_trace, 0.0)

    def test_content_consistent(self, base_trace):
        sampled = subsample(base_trace, 0.4, seed=1)
        kept = set(sampled.unique_contents())
        # Every request to a kept content survives.
        expected = sum(1 for r in base_trace if r.obj_id in kept)
        assert len(sampled) == expected

    def test_fraction_of_contents(self, base_trace):
        sampled = subsample(base_trace, 0.5, seed=2)
        total = len(base_trace.unique_contents())
        assert len(sampled.unique_contents()) <= total // 2 + 1

    def test_deterministic(self, base_trace):
        a = subsample(base_trace, 0.3, seed=5)
        b = subsample(base_trace, 0.3, seed=5)
        assert [r.obj_id for r in a] == [r.obj_id for r in b]

    def test_full_fraction_identity(self, base_trace):
        assert len(subsample(base_trace, 1.0)) == len(base_trace)


class TestInterleave:
    def test_time_ordered(self, base_trace):
        other = irm_trace(500, 30, mean_size=1 << 10, seed=32, name="other")
        merged = interleave(base_trace, other)
        PackedTrace.from_trace(merged)
        assert len({(r.obj_id, r.size) for r in merged}) == len(merged.unique_contents())
        assert len(merged) == 1500

    def test_id_spaces_disjoint(self, base_trace):
        other = irm_trace(500, 30, mean_size=1 << 10, seed=33)
        merged = interleave(base_trace, other)
        first_ids = {r.obj_id for r in base_trace}
        offset = merged.metadata["id_offset"]
        assert offset == max(first_ids) + 1
        merged_ids = {r.obj_id for r in merged}
        assert len(merged_ids) == len(first_ids) + len(other.unique_contents())

    def test_empty_first(self):
        empty = Trace([], name="empty")
        other = irm_trace(10, 5, seed=34)
        merged = interleave(empty, other)
        assert len(merged) == 10
        assert merged.metadata["id_offset"] == 0


class TestTruncate:
    def test_truncates(self, base_trace):
        assert len(truncate_requests(base_trace, 10)) == 10

    def test_rejects_non_positive(self, base_trace):
        with pytest.raises(ValueError):
            truncate_requests(base_trace, 0)


class TestDiurnal:
    def test_rejects_bad_parameters(self, base_trace):
        from repro.traces.transform import diurnal

        with pytest.raises(ValueError):
            diurnal(base_trace, amplitude=1.0)
        with pytest.raises(ValueError):
            diurnal(base_trace, period_seconds=0)

    def test_preserves_order_ids_duration(self, base_trace):
        from repro.traces.transform import diurnal

        warped = diurnal(base_trace, period_seconds=base_trace.duration / 3,
                         amplitude=0.8)
        PackedTrace.from_trace(warped)
        assert len({(r.obj_id, r.size) for r in warped}) == len(warped.unique_contents())
        assert [r.obj_id for r in warped] == [r.obj_id for r in base_trace]
        assert warped.duration == pytest.approx(base_trace.duration, rel=1e-3)

    def test_zero_amplitude_identity(self, base_trace):
        from repro.traces.transform import diurnal

        same = diurnal(base_trace, amplitude=0.0)
        assert [r.time for r in same] == [r.time for r in base_trace]

    def test_rate_varies_over_period(self):
        from repro.traces.transform import diurnal
        from repro.traces.request import Trace

        # Uniform arrivals over one period; after warping the first
        # quarter (rising sine: peak rate) must hold more requests than
        # the third quarter (trough).
        flat = Trace.from_tuples([(float(i), i, 1) for i in range(4000)])
        period = flat.duration
        warped = diurnal(flat, period_seconds=period, amplitude=0.9)
        quarter = period / 4
        start = warped[0].time
        counts = [0, 0, 0, 0]
        for req in warped:
            idx = min(int((req.time - start) / quarter), 3)
            counts[idx] += 1
        assert counts[0] > counts[2] * 1.3
