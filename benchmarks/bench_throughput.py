"""Engineering benchmark: request-processing throughput per policy.

Not a paper experiment — this measures the *simulator's* requests/second
for representative policies, which determines how large a trace each
policy can replay in reasonable time (and documents the constant-factor
cost of the learning-based designs).  Uses pytest-benchmark's normal
multi-round timing, unlike the experiment benchmarks which run once, and
reports each test's rates in pytest-benchmark's ``extra_info``.  Speed
claims come from ``python -m benchmarks.suite``; the profiles' exact hit
counts are pinned in ``tests/sim/test_golden.py``.
"""

import os
import time

import pytest

from benchmarks.common import cache_bytes, trace
from repro.sim import build_policy, run_comparison, simulate
from repro.traces.packed import PackedTrace
from repro.traces.request import Trace

#: (policy, constructor overrides) — a cheap classic, a heap-based
#: classic, a sketch-based filter, the paper's LHR and the heavyweight LRB.
PROFILES = [
    ("lru", {}),
    ("gdsf", {}),
    ("w-tinylfu", {}),
    ("lhd", {}),
    ("lhr", {"seed": 0}),
    ("lrb", {"training_batch": 4096, "max_training_data": 8192, "seed": 0}),
]


@pytest.fixture(scope="module")
def workload():
    t = trace("cdn-a")
    return list(t.requests[:4000])


@pytest.fixture(scope="module")
def packed_workload(workload):
    # Packed outside the timed region; each replay lists its own chunks.
    return PackedTrace.from_trace(Trace(workload, name="throughput"))


@pytest.mark.parametrize("name,kwargs", PROFILES, ids=[p[0] for p in PROFILES])
def test_policy_throughput(benchmark, workload, name, kwargs):
    capacity = cache_bytes("cdn-a", 512)

    def replay():
        policy = build_policy(name, capacity, **kwargs)
        for req in workload:
            policy.request(req)
        return policy

    policy = benchmark.pedantic(replay, rounds=3, iterations=1)
    # Sanity: the run did real cache work.
    assert policy.hits + policy.misses == len(workload)
    benchmark.extra_info["requests_per_second"] = round(
        len(workload) / benchmark.stats.stats.mean
    )
    benchmark.extra_info["object_hit_ratio"] = round(policy.object_hit_ratio, 3)


@pytest.mark.parametrize("name,kwargs", PROFILES, ids=[p[0] for p in PROFILES])
def test_policy_throughput_fastpath(
    benchmark, workload, packed_workload, name, kwargs
):
    """The columnar fast path: replay a ``PackedTrace`` through the engine
    (span kernels with no per-request ``Request``, or the base walker)."""
    capacity = cache_bytes("cdn-a", 512)

    def replay():
        policy = build_policy(name, capacity, **kwargs)
        simulate(policy, packed_workload)
        return policy

    policy = benchmark.pedantic(replay, rounds=3, iterations=1)
    assert policy.hits + policy.misses == len(workload)
    benchmark.extra_info["requests_per_second"] = round(
        len(workload) / benchmark.stats.stats.mean
    )
    benchmark.extra_info["object_hit_ratio"] = round(policy.object_hit_ratio, 3)


@pytest.mark.parametrize("name", ["lru", "lhr"])
def test_fast_path_speedup(benchmark, workload, packed_workload, name):
    """Packed replay vs the ``request`` reference path, in the same run.

    Each round replays the workload through a fresh policy on both paths,
    reference first; the two must end with identical counters.  The
    speedup is the ratio of each path's fastest round.  It is reported,
    not asserted: only arms measured together are compared.
    """
    capacity = cache_bytes("cdn-a", 512)
    kwargs = {"seed": 0} if name == "lhr" else {}
    references = []

    def replay_reference():
        start = time.perf_counter()
        policy = build_policy(name, capacity, **kwargs)
        for req in workload:
            policy.request(req)
        references.append((time.perf_counter() - start, policy))

    def replay():
        policy = build_policy(name, capacity, **kwargs)
        simulate(policy, packed_workload)
        return policy

    policy = benchmark.pedantic(replay, setup=replay_reference, rounds=3, iterations=1)
    reference = references[-1][1]
    assert (policy.hits, policy.misses, policy.evictions) == (
        reference.hits,
        reference.misses,
        reference.evictions,
    )
    rps = len(workload) / benchmark.stats.stats.min
    reference_rps = len(workload) / min(seconds for seconds, _ in references)
    speedup = rps / reference_rps
    benchmark.extra_info.update(
        requests_per_second=round(rps),
        reference_rps=round(reference_rps),
        speedup=round(speedup, 2),
    )
    print(
        f"\nfast path [{name}]: packed {rps:,.0f} rps vs request path "
        f"{reference_rps:,.0f} rps = {speedup:.2f}x (same run)"
    )


#: GBM inference variants measured by the micro-bench: the public batch
#: ``predict`` (flat-tree, vectorized sigmoid), the scalar ``predict_one``
#: loop, and ``predict_batch`` (flat-tree, scalar-exact sigmoid — the
#: variant the batched LHR backend calls).
GBM_VARIANTS = ["predict", "predict_one", "predict_batch"]


@pytest.mark.parametrize("variant", GBM_VARIANTS)
def test_gbm_inference_microbench(benchmark, variant):
    """Per-row inference cost of the three GBM prediction entry points.

    All three run over the same fitted model and probe matrix;
    ``predict_one`` and ``predict_batch`` must agree to float equality
    (``predict`` uses a vectorized sigmoid, so it is only checked to be
    finite — the exactness pin lives in tests/core/test_gbm.py).
    """
    import numpy as np

    from repro.core.gbm import GradientBoostingRegressor

    rng = np.random.default_rng(0)
    X = rng.random((2000, 23))
    y = (rng.random(2000) > 0.5).astype(float)
    model = GradientBoostingRegressor(
        n_estimators=32, max_depth=6, loss="logistic"
    ).fit(X, y)
    probes = rng.random((4096, 23))

    if variant == "predict":
        run = lambda: model.predict(probes)  # noqa: E731
    elif variant == "predict_one":
        run = lambda: [model.predict_one(row) for row in probes]  # noqa: E731
    else:
        run = lambda: model.predict_batch(probes)  # noqa: E731

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(out) == len(probes)
    assert np.isfinite(np.asarray(out)).all()
    if variant == "predict_batch":
        reference = [model.predict_one(row) for row in probes[:64]]
        assert np.asarray(out)[:64].tolist() == reference
    benchmark.extra_info["rows_per_second"] = round(
        len(probes) / benchmark.stats.stats.min
    )


#: ≥4-cell grid of compute-heavy cells for the parallel-sweep speedup
#: demonstration (cheap cells would measure pool overhead, not fan-out).
SWEEP_POLICIES = ["lru", "gdsf", "lhd", "s4lru"]


def test_parallel_sweep_speedup(benchmark):
    """Parallel `run_comparison` vs serial on the same grid.

    Asserts bit-identical results always; asserts the ≥2× speedup only
    on machines with ≥4 cores (set REPRO_ASSERT_SPEEDUP=0 to waive it on
    loaded CI runners).
    """
    t = trace("cdn-a")
    capacities = [cache_bytes("cdn-a", gb) for gb in (256, 1024)]
    jobs = min(4, os.cpu_count() or 1)

    serial_start = time.perf_counter()
    serial = run_comparison(t, SWEEP_POLICIES, capacities)
    serial_seconds = time.perf_counter() - serial_start

    parallel = benchmark.pedantic(
        lambda: run_comparison(t, SWEEP_POLICIES, capacities, parallel=jobs),
        rounds=1,
        iterations=1,
    )
    parallel_seconds = benchmark.stats.stats.mean

    assert [
        (r.policy, r.capacity, r.counters()) for r in serial
    ] == [(r.policy, r.capacity, r.counters()) for r in parallel]

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    benchmark.extra_info.update(
        jobs=jobs,
        grid_cells=len(serial),
        serial_seconds=round(serial_seconds, 3),
        parallel_seconds=round(parallel_seconds, 3),
        speedup=round(speedup, 2),
    )
    print(
        f"\nparallel sweep: {len(serial)} cells, jobs={jobs}, "
        f"serial {serial_seconds:.2f}s -> parallel {parallel_seconds:.2f}s "
        f"({speedup:.2f}x)"
    )
    if jobs >= 4 and os.environ.get("REPRO_ASSERT_SPEEDUP", "1") != "0":
        assert speedup >= 2.0, (
            f"expected >=2x speedup with {jobs} workers, got {speedup:.2f}x"
        )
