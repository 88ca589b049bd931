"""Hash-sharded single-trace replay: partition determinism, global-window
accounting, serial/parallel bit-equivalence, and leak-safe failure.

The sharded contract (see ``repro.sim.parallel``): the id-space partition
is a pure function of the object id, sharded-parallel equals
sharded-serial bit for bit for every registered policy, and one shard is
exactly the unsharded packed replay.  Sharding with N > 1 is a
*different* cache (per-shard eviction is decoupled), so nothing here
compares N > 1 against the unsharded cache's hit ratios.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.policies import POLICY_REGISTRY
from repro.sim import (
    SweepCellError,
    known_policies,
    run_sharded,
    shard_assignments,
    shard_capacities,
    shard_of,
    simulate,
)
from repro.sim.parallel import CellSpec, _run_cell
from repro.sim.runner import build_policy
from repro.traces.packed import PackedTrace, live_segment_names
from repro.traces.synthetic import irm_trace
from repro.util.bloom import _mix64

from tests.sim.test_parallel import _ExplodingCache  # noqa: F401 — reused class

#: Trimmed learner settings so the heavyweight policies train at this
#: trace size without dominating suite wall time.
SHARD_KWARGS = {
    "lrb": {"training_batch": 256, "max_training_data": 1024},
    "lfo": {"window_requests": 200},
}

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method to inherit test-local policies",
)


@pytest.fixture(scope="module")
def shard_trace():
    return irm_trace(
        900, 80, alpha=0.9, mean_size=1 << 10, size_sigma=1.0, seed=11,
        name="sharded",
    )


@pytest.fixture(scope="module")
def shard_packed(shard_trace):
    return PackedTrace.from_trace(shard_trace)


@pytest.fixture(scope="module")
def shard_capacity(shard_trace):
    return max(int(0.2 * shard_trace.unique_bytes()), 16)


def result_key(result):
    """Everything sharded equivalence must preserve."""
    return (
        result.policy,
        result.capacity,
        result.counters(),
        result.object_hit_ratio,
        result.byte_hit_ratio,
        result.window_series(),
        [w.evictions for w in result.windows],
        result.peak_metadata_bytes,
    )


class TestShardAssignment:
    def test_vectorized_matches_scalar_mixer(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 2**63 - 1, size=2000, dtype=np.int64)
        for shards in (1, 2, 3, 7, 16):
            vec = shard_assignments(ids, shards)
            ref = [shard_of(int(obj_id), shards) for obj_id in ids.tolist()]
            assert vec.tolist() == ref, f"shards={shards}"

    def test_assignment_is_pure_function_of_id(self):
        # Never Python hash(): the partition must survive interpreter
        # restarts and PYTHONHASHSEED, so it goes through the SplitMix64
        # mixer — pin a few values against the reference mixer directly.
        for obj_id in (0, 1, 42, 2**40, 2**63 - 1):
            assert shard_of(obj_id, 8) == _mix64(obj_id) % 8

    def test_one_shard_takes_everything(self):
        ids = np.arange(100, dtype=np.int64)
        assert shard_assignments(ids, 1).tolist() == [0] * 100

    def test_partition_is_complete_and_disjoint(self, shard_packed):
        assignment = shard_assignments(shard_packed.obj_ids, 4)
        counts = np.bincount(assignment, minlength=4)
        assert int(counts.sum()) == len(shard_packed)
        # Mixing an IRM id space should touch every shard.
        assert (counts > 0).all()


class TestShardCapacities:
    def test_slices_sum_to_capacity(self):
        for capacity, shards in ((100, 3), (17, 4), (1 << 30, 7), (5, 5)):
            caps = shard_capacities(capacity, shards)
            assert sum(caps) == capacity
            assert len(caps) == shards
            assert max(caps) - min(caps) <= 1
            assert caps == sorted(caps, reverse=True)

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ValueError, match="shards"):
            shard_capacities(100, 0)

    def test_rejects_capacity_smaller_than_shards(self):
        with pytest.raises(ValueError, match="cannot be split"):
            shard_capacities(3, 4)


class TestOneShardIsUnsharded:
    """``shards=1`` must reproduce the unsharded packed replay exactly —
    counters, window series, window evictions and metadata peaks."""

    @pytest.mark.parametrize("name", known_policies())
    def test_every_policy(self, name, shard_trace, shard_packed, shard_capacity):
        kwargs = SHARD_KWARGS.get(name, {})
        base = simulate(
            build_policy(name, shard_capacity, **kwargs), shard_packed,
            window_requests=250, warmup_requests=100,
        )
        one = run_sharded(
            shard_packed, name, shard_capacity, shards=1, kwargs=kwargs,
            window_requests=250, warmup_requests=100,
        )
        assert result_key(base)[:6] == result_key(one)[:6]
        assert [w.evictions for w in base.windows] == [
            w.evictions for w in one.windows
        ]
        assert base.peak_metadata_bytes == one.peak_metadata_bytes


class TestSerialParallelEquivalence:
    """The headline sharded guarantee: pooled execution is bit-identical
    to serial execution for every registered policy."""

    @pytest.mark.parametrize("name", known_policies())
    def test_every_policy(self, name, shard_packed, shard_capacity):
        kwargs = SHARD_KWARGS.get(name, {})
        serial = run_sharded(
            shard_packed, name, shard_capacity, shards=3, kwargs=kwargs,
            window_requests=250, warmup_requests=100, jobs=0,
        )
        pooled = run_sharded(
            shard_packed, name, shard_capacity, shards=3, kwargs=kwargs,
            window_requests=250, warmup_requests=100, jobs=2,
        )
        assert result_key(serial) == result_key(pooled)
        assert live_segment_names() == ()

    def test_repeated_runs_identical(self, shard_packed, shard_capacity):
        runs = [
            run_sharded(
                shard_packed, "lhr", shard_capacity, shards=3,
                kwargs={"seed": 0}, window_requests=250,
            )
            for _ in range(2)
        ]
        assert result_key(runs[0]) == result_key(runs[1])


class TestGlobalWindowAccounting:
    def test_windows_align_with_the_global_grid(self, shard_packed, shard_capacity):
        window = 250
        merged = run_sharded(
            shard_packed, "lru", shard_capacity, shards=4, window_requests=window
        )
        total = len(shard_packed)
        expected = [
            min(window, total - k * window)
            for k in range(-(-total // window))
        ]
        assert [w.requests for w in merged.windows] == expected
        assert sum(w.hits for w in merged.windows) == merged.hits

    def test_merged_aggregates_cover_every_request(
        self, shard_packed, shard_capacity
    ):
        warmup = 150
        merged = run_sharded(
            shard_packed, "lru", shard_capacity, shards=3,
            warmup_requests=warmup,
        )
        assert merged.requests == len(shard_packed) - warmup
        assert merged.extra["shards"] == 3
        assert merged.total_bytes == int(shard_packed.sizes[warmup:].sum())

    def test_shard_results_partition_the_measured_stream(
        self, shard_packed, shard_capacity
    ):
        # Per-shard results (driven directly through the engine) must
        # sum to the merged aggregates.
        caps = shard_capacities(shard_capacity, 3)
        assignment = shard_assignments(shard_packed.obj_ids, 3)
        per_shard = []
        for shard in range(3):
            policy = build_policy("lru", caps[shard])
            positions = np.nonzero(assignment == shard)[0]
            per_shard.append(
                simulate(
                    policy, shard_packed, window_requests=250,
                    warmup_requests=100, positions=positions,
                )
            )
        merged = run_sharded(
            shard_packed, "lru", shard_capacity, shards=3,
            window_requests=250, warmup_requests=100,
        )
        assert sum(r.requests for r in per_shard) == merged.requests
        assert sum(r.hits for r in per_shard) == merged.hits
        assert sum(r.evictions for r in per_shard) == merged.evictions


@pytest.fixture()
def exploding_policy():
    POLICY_REGISTRY["exploding"] = _ExplodingCache
    try:
        yield "exploding"
    finally:
        POLICY_REGISTRY.pop("exploding", None)


class TestValidationAndFailure:
    def test_rejects_bad_shard_count(self, shard_packed, shard_capacity):
        with pytest.raises(ValueError, match="shards"):
            run_sharded(shard_packed, "lru", shard_capacity, shards=0)

    def test_rejects_warmup_beyond_trace(self, shard_packed, shard_capacity):
        with pytest.raises(ValueError, match="warmup"):
            run_sharded(
                shard_packed, "lru", shard_capacity, shards=2,
                warmup_requests=len(shard_packed),
            )

    def test_unknown_policy_fails_fast_in_driver(
        self, shard_packed, shard_capacity
    ):
        with pytest.raises(ValueError, match="unknown policy"):
            run_sharded(shard_packed, "nope", shard_capacity, shards=2)

    def test_serial_failure_names_every_shard(
        self, shard_packed, shard_capacity, exploding_policy
    ):
        with pytest.raises(SweepCellError) as excinfo:
            run_sharded(shard_packed, exploding_policy, shard_capacity, shards=3)
        failures = excinfo.value.failures
        # Every shard sees > fail_after requests, so all three detonate —
        # and all three are reported (run-to-completion, like sweeps).
        assert len(failures) == 3
        assert all("synthetic mid-simulation failure" in f.error for f in failures)
        assert sorted(f.index for f in failures) == [0, 1, 2]

    @requires_fork
    def test_pooled_failure_releases_the_segment(
        self, shard_packed, shard_capacity, exploding_policy
    ):
        fork = multiprocessing.get_context("fork")
        with pytest.raises(SweepCellError):
            run_sharded(
                shard_packed, exploding_policy, shard_capacity, shards=3,
                jobs=2, mp_context=fork,
            )
        assert live_segment_names() == ()

    def test_interrupt_releases_the_segment(
        self, shard_packed, shard_capacity, monkeypatch
    ):
        import repro.sim.parallel as parallel_module

        def interrupt(futures):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel_module, "as_completed", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_sharded(
                shard_packed, "lru", shard_capacity, shards=2, jobs=2
            )
        assert live_segment_names() == ()

    def test_worker_entry_never_raises(self, shard_packed, shard_capacity):
        import repro.sim.parallel as parallel_module

        previous = parallel_module._WORKER_TRACE
        parallel_module._WORKER_TRACE = shard_packed
        try:
            spec = CellSpec(
                policy="lru", capacity=shard_capacity, index=0, shard=0,
                shards=2, kwargs=(("bogus_kwarg", 1),),
            )
            shard, result, failure = _run_cell(spec, 0, 0, False)[:3]
        finally:
            parallel_module._WORKER_TRACE = previous
        assert shard == 0
        assert result is None
        assert failure is not None
        assert failure.error.startswith("shard 0/2: ")
        assert "bogus_kwarg" in failure.traceback
