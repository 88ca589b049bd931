"""What the suite measures: workloads, metric bounds and layer predictions.

``BENCHMARK.json`` at the repository root is the contract every runner of
the suite reads: metric names, units, directions and regression bounds,
and each workload's name and one-line reason.  Everything it has no field
for lives here: the exact configuration of each workload, which layer each
per-layer metric belongs to, and which end-to-end metric on which workload
each layer is predicted to move.  ``tests/test_catalog.py`` keeps the two
in step.

This module never imports :mod:`repro`, so the orchestrating process
stays light.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the suite measures (``benchmarks/suite/..``).
ROOT = Path(__file__).resolve().parents[2]

#: The contract file, shared with any external runner of the suite.
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: Seed the ``run`` subcommand uses unless told otherwise.
DEFAULT_SEED = 1

#: Timed repeats per workload in ``run`` (each metric is their median).
#: Before them, one discarded replay of the workload's first trace warms
#: the process up.
REPEATS = 5

#: Traced repeats per workload in ``run``, each between untraced ones.
#: Tracing costs a few percent while the machine's speed drifts by more
#: between neighbouring repeats, so one pair cannot resolve it.
TRACED_REPEATS = 3

#: Extra set-up-only subprocesses per workload, so ``setup_s`` is the
#: median of ``SETUP_PROBES + 1`` cold starts.
SETUP_PROBES = 2

#: End-to-end metrics ``run`` reports and ``compare`` judges besides those
#: in ``BENCHMARK.json``.  Each is a pure function of the seed, so any
#: change between two runs of one seed is a behaviour change: ``compare``
#: holds them to exact equality.  They stay out of ``BENCHMARK.json``
#: because across seeds they move more than any bound its runners accept
#: (the byte hit ratio of the CDN-A stand-in by up to 28%), and
#: ``error_rate`` reads 0 on every correct run; runners get failures from
#: ``attempted``/``failed`` instead.
EXACT_METRICS = (
    {"name": "object_hit_ratio", "unit": "fraction", "better": "higher", "bound": 0.0},
    {"name": "byte_hit_ratio", "unit": "fraction", "better": "higher", "bound": 0.0},
    {"name": "error_rate", "unit": "fraction", "better": "lower", "bound": 0.0},
)


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the policy cells replayed over them.

    Trace ``i`` of ``traces`` is ``generate_production_trace(spec, scale,
    1000 * seed + i)``; cell capacities are the paper cache sizes in
    ``cache_gb`` shrunk by the same ``scale``
    (``TraceSpec.scaled_cache_bytes``).  Every (capacity, policy) cell
    runs over every trace.  ``jobs == 0`` replays the cells serially
    through ``repro.sim.simulate`` in this process; ``jobs > 1`` hands each
    trace's grid to ``repro.sim.run_comparison(parallel=jobs)``.
    """

    name: str
    spec: str
    scale: float
    cache_gb: tuple[int, ...]
    policies: tuple[str, ...]
    policy_kwargs: dict = field(default_factory=dict)
    jobs: int = 0
    traces: int = 1

    def trace_seeds(self, seed: int) -> list[int]:
        """Seeds of the workload's independently generated traces."""
        return [seed * 1000 + index for index in range(self.traces)]

    def config(self) -> dict:
        return {
            "trace": f"generate_production_trace({self.spec!r}, scale={self.scale}, "
            "seed=1000 * <seed> + i)",
            "traces": self.traces,
            "cache_gb": list(self.cache_gb),
            "policies": list(self.policies),
            "policy_kwargs": self.policy_kwargs,
            "jobs": self.jobs,
        }


#: Policies of ``classic-cdn-a``: four with native span kernels, then
#: four that replay through the shim tier (``CachePolicy.replay_span``).
CLASSIC_POLICIES = (
    "lru", "lru-2", "lfu-da", "b-lru", "gdsf", "s4lru", "arc", "w-tinylfu",
)

#: The three CDN-A workloads share their inputs: ``sweep-cdn-a`` replays
#: the first of the two traces the other two replay.  LHR on CDN-A closes
#: only about eight windows per trace and retrains on five to seven of
#: them depending on the seed, so one trace's replay rate moves a lot
#: between seeds (10k to 16k req/s over ten seeds at scale 0.1); two
#: half-size traces average that down.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "lhr-cdn-a", "cdn-a", 0.05, (512,), ("lhr",), {"lhr": {"seed": 0}}, traces=2
        ),
        Workload(
            "lhr-cdn-c", "cdn-c", 0.1, (64,), ("lhr",), {"lhr": {"seed": 0}}
        ),
        Workload("classic-cdn-a", "cdn-a", 0.05, (512,), CLASSIC_POLICIES, traces=2),
        Workload(
            "sweep-cdn-a",
            "cdn-a",
            0.05,
            (256, 512),
            ("lru", "gdsf", "w-tinylfu", "lhd", "lhr"),
            jobs=2,
        ),
    )
}

LHR = ("lhr-cdn-a", "lhr-cdn-c")
LHR_C_FIRST = ("lhr-cdn-c", "lhr-cdn-a")
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Layer:
    """A module of the program and the per-layer metrics measured at its
    boundary.  ``moves`` lists the ``(end-to-end metric, workload)``
    pairs a change to this layer should move, strongest first; ``holds``
    lists pairs it should leave unchanged (the workload that bypasses
    the layer)."""

    name: str
    metrics: tuple[str, ...]
    moves: tuple[tuple[str, str], ...]
    holds: tuple[tuple[str, str], ...] = ()


def _pairs(metrics, workloads) -> tuple[tuple[str, str], ...]:
    metrics = (metrics,) if isinstance(metrics, str) else metrics
    return tuple((m, w) for m in metrics for w in workloads)


LAYERS: tuple[Layer, ...] = (
    Layer(
        "traces",
        ("traces.generate_s", "traces.pack_s"),
        _pairs("setup_s", ALL),
    ),
    Layer(
        "sim.engine",
        ("sim.engine.self_s", "sim.engine.chunks"),
        _pairs("replay_rps", ("classic-cdn-a",)),
        _pairs("replay_rps", LHR),
    ),
    Layer(
        "policies",
        ("policies.kernel_s", "policies.shim_s", "policies.shim_requests")
        + tuple(f"policies.replay_s.{p}" for p in CLASSIC_POLICIES),
        _pairs(("replay_rps", "cpu_s_per_mreq"), ("classic-cdn-a",)),
        _pairs("replay_rps", LHR),
    ),
    Layer(
        "core.lhr",
        ("core.lhr.kernel_self_s", "core.lhr.evict_sample_s", "core.lhr.evict_samples"),
        _pairs("replay_rps", LHR_C_FIRST),
        _pairs("replay_rps", ("classic-cdn-a",)),
    ),
    Layer(
        "core.features",
        (
            "core.features.matrix_s",
            "core.features.matrix_rows",
            "core.features.rows_regathered",
            "core.features.observe_s",
            "core.features.prune_s",
        ),
        _pairs("replay_rps", LHR) + (("peak_rss_mb", "lhr-cdn-c"),),
        _pairs("replay_rps", ("classic-cdn-a",)),
    ),
    Layer(
        "core.model_backends",
        ("core.model_backends.score_s", "core.model_backends.rows_scored"),
        _pairs("replay_rps", LHR),
        _pairs("replay_rps", ("classic-cdn-a",)),
    ),
    Layer(
        "core.hro",
        ("core.hro.process_self_s", "core.hro.windows", "core.hro.labels_s"),
        _pairs("replay_rps", LHR),
        _pairs("replay_rps", ("classic-cdn-a",)),
    ),
    Layer(
        "core.threshold",
        (
            "core.threshold.update_s",
            "core.threshold.updates",
            "core.threshold.shadow_replays",
            "core.threshold.shadow_samples",
        ),
        _pairs("replay_rps", LHR),
        _pairs("replay_rps", ("classic-cdn-a",)),
    ),
    Layer(
        "core.gbm",
        ("core.gbm.fit_s", "core.gbm.fits", "core.gbm.rows_trained"),
        _pairs("replay_rps", LHR_C_FIRST),
        _pairs("replay_rps", ("classic-cdn-a",)),
    ),
    Layer(
        "core.detection",
        ("core.detection.observe_s", "core.detection.detections"),
        _pairs("replay_rps", ("lhr-cdn-c",)),
        _pairs("replay_rps", ("classic-cdn-a",)),
    ),
    Layer(
        "sim.parallel",
        (
            "sim.parallel.wall_s",
            "sim.parallel.cell_s_sum",
            "sim.parallel.cell_s_max",
            "sim.parallel.efficiency",
            "sim.parallel.overhead_s",
            "sim.parallel.scatter_s",
        ),
        _pairs("replay_rps", ("sweep-cdn-a",)),
        _pairs("replay_rps", ("lhr-cdn-a", "lhr-cdn-c", "classic-cdn-a")),
    ),
    Layer("bench", ("bench.trace_overhead_pct",), ()),
)


def load_benchmark() -> dict:
    """The parsed contract file."""
    return json.loads(BENCHMARK_FILE.read_text())


def layer_of(metric: str) -> Layer:
    for layer in LAYERS:
        if metric in layer.metrics:
            return layer
    raise KeyError(f"no layer declares per-layer metric {metric!r}")


def end_to_end_metrics(benchmark: dict) -> dict[str, dict]:
    """Every end-to-end metric ``run`` reports and ``compare`` judges, by
    name, with ``unit``/``better``/``bound`` and whether it must match
    exactly."""
    table = {m["name"]: dict(m, exact=False) for m in benchmark["end_to_end"]}
    table.update({m["name"]: dict(m, exact=True) for m in EXACT_METRICS})
    return table
