"""The layer tracer: coverage of the layer table, and tracing that
changes nothing the program computes."""

import pytest

from benchmarks.suite import catalog
from benchmarks.suite.layers import LayerTracer, kernel_classes
from benchmarks.suite.workloads import build_inputs, replay, run_worker
from repro.core import features, gbm, hro, lhr, threshold
from repro.core.detection import DriftDetector
from repro.core.model_backends import BatchedBackend, ScalarBackend
from repro.policies.base import CachePolicy
from repro.sim import engine, parallel
from repro.traces.packed import SharedTraceBuffers
from repro.util.indexed_set import IndexedSet

#: Tiny stand-ins for the real workloads: same code paths, ~1k requests.
TINY_LHR = catalog.Workload(
    "tiny-lhr", "cdn-c", 0.002, (64,), ("lhr",), {"lhr": {"seed": 0}}
)
TINY_CLASSIC = catalog.Workload(
    "tiny-classic", "cdn-a", 0.001, (512,), catalog.CLASSIC_POLICIES
)
TINY_SWEEP = catalog.Workload(
    "tiny-sweep", "cdn-a", 0.001, (256, 512), ("lru", "lhr"), jobs=2
)

#: Every entry point the layer table names, as (owner, attribute).
ENTRY_POINTS = [
    (engine, "simulate"),
    (CachePolicy, "replay_span"),
    (lhr.LhrCache, "replay_span"),
    (lhr.LhrCache, "_window_closed"),
    (IndexedSet, "sample"),
    (features.FeatureStore, "feature_matrix"),
    (features.FeatureStore, "observe_scalar"),
    (features.FeatureStore, "prune"),
    (BatchedBackend, "score_block"),
    (ScalarBackend, "score_block"),
    (hro.HroBound, "process_scalar"),
    (hro, "window_labels_for_ids"),
    (lhr, "window_labels_for_ids"),
    (threshold.ThresholdEstimator, "update"),
    (threshold, "shadow_hit_ratio"),
    (gbm.GradientBoostingRegressor, "fit"),
    (DriftDetector, "observe_window"),
    (SharedTraceBuffers, "create"),
] + [(cls, "replay_span") for cls in kernel_classes()]


def _raw(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def _is_wrapped(owner, attr) -> bool:
    raw = _raw(owner, attr)
    func = raw.__func__ if isinstance(raw, classmethod) else raw
    return hasattr(func, "__layer_key__")


def test_native_kernels_are_the_four_classics():
    names = {cls.__name__ for cls in kernel_classes()}
    assert names == {"LruCache", "LruKCache", "LfuDaCache", "BloomLruCache"}


def test_wrappers_cover_every_entry_point_and_uninstall_cleanly():
    before = {(id(o), a): _raw(o, a) for o, a in ENTRY_POINTS}
    tracer = LayerTracer().install()
    try:
        missing = [(o, a) for o, a in ENTRY_POINTS if not _is_wrapped(o, a)]
        assert not missing
    finally:
        tracer.uninstall()
    assert all(_raw(o, a) is before[(id(o), a)] for o, a in ENTRY_POINTS)
    assert not any(_is_wrapped(o, a) for o, a in ENTRY_POINTS)


def test_parent_side_install_leaves_worker_code_alone():
    tracer = LayerTracer().install(("sim.parallel",))
    try:
        assert _is_wrapped(SharedTraceBuffers, "create")
        assert not _is_wrapped(lhr.LhrCache, "replay_span")
        assert parallel.simulate is not None and not hasattr(
            parallel.simulate, "__layer_key__"
        )
    finally:
        tracer.uninstall()


def test_traced_lhr_counters_equal_untraced():
    inputs = build_inputs(TINY_LHR, seed=3)
    untraced = replay(TINY_LHR, inputs)
    tracer = LayerTracer().install()
    try:
        traced = replay(TINY_LHR, inputs)
    finally:
        tracer.uninstall()
    assert traced.counters == untraced.counters
    assert traced.problems == untraced.problems == [[]]
    metrics = tracer.metrics()
    assert metrics["core.hro.windows"] > 0
    assert metrics["core.gbm.fits"] > 0
    assert metrics["core.features.matrix_rows"] >= inputs.requests
    assert metrics["sim.engine.chunks"] > 0
    # Self times partition the traced time: none negative, sum <= wall.
    self_times = tracer.self_times()
    assert min(self_times.values()) >= 0
    assert sum(self_times.values()) <= traced.wall_s


@pytest.mark.parametrize("workload", [TINY_LHR, TINY_CLASSIC, TINY_SWEEP], ids=lambda w: w.name)
def test_worker_reports_every_layer_metric(workload, tmp_path):
    inputs = build_inputs(workload, seed=1)
    trace_out = tmp_path / "trace.json"
    payload = run_worker(
        workload, inputs, seed=1, seconds=None, repeats=None, trace=True, trace_out=trace_out
    )
    assert payload["ops_failed"] == 0, payload["failures"]
    # warm-up + untraced + traced + untraced, per cell
    cells = len(inputs.capacities) * len(workload.policies)
    assert payload["ops_attempted"] == 4 * cells
    layers = payload["traced"]["layers"]
    expected = {m["name"] for m in catalog.load_benchmark()["per_layer"]}
    # Only metrics of layers the workload bypasses may be absent (read 0).
    bypassed = ["policies.replay_s."] if workload is not TINY_CLASSIC else []
    if not workload.jobs:
        bypassed.append("sim.parallel.")
    missing = expected - set(layers)
    assert all(m.startswith(tuple(bypassed)) for m in missing), missing
    if workload is TINY_CLASSIC:
        assert layers["policies.shim_requests"] == 4 * inputs.requests
    if workload.jobs:
        assert layers["sim.parallel.cell_s_sum"] > 0
        assert layers["sim.parallel.scatter_s"] > 0
    else:
        assert trace_out.stat().st_size > 0
