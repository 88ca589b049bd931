"""repro — a reproduction of "Learning from Optimal Caching for Content
Delivery" (Yan, Li, Towsley; CoNEXT 2021).

The package implements the paper's two contributions and every substrate
they are evaluated on:

* :mod:`repro.core` — HRO, the online upper bound on optimal caching,
  and LHR, the cache that learns from it (plus the GBM, feature store,
  drift detector and threshold estimator they are built from).
* :mod:`repro.policies` — the SOTA baselines (LRB, Hawkeye, LRU, LRU-4,
  LFU-DA, AdaptSize, B-LRU, W-TinyLFU, ...).
* :mod:`repro.bounds` — offline bounds on OPT (Bélády, Bélády-size,
  InfiniteCap, PFOO-U/L) and the exact hazard-rate bound.
* :mod:`repro.traces` — synthetic workloads and calibrated stand-ins for
  the paper's four production traces.
* :mod:`repro.sim` — the trace-driven simulator, metrics and the
  network/latency model.
* :mod:`repro.proto` — emulated ATS and Caffeine prototype deployments.
* :mod:`repro.obs` — the observability substrate: structured events,
  metrics registry and profiling timers (``docs/OBSERVABILITY.md``).

The packages bind their public names on first access (PEP 562;
:mod:`repro.policies` and :mod:`repro.proto` bind theirs when they load):
``import repro`` loads no submodule, and ``from repro.sim import simulate``
loads only the modules a replay runs.

Quickstart::

    from repro import LhrCache, generate_production_trace, simulate

    trace = generate_production_trace("wiki", scale=0.02, seed=7)
    cache = LhrCache(capacity=trace.unique_bytes() // 20)
    result = simulate(cache, trace)
    print(result.object_hit_ratio)
"""

import sys
import types

__version__ = "1.0.0"


def _lazy_exports(package: str, sources: dict[str, tuple[str, ...]]):
    """PEP 562 hooks that bind each public name of ``package`` on first
    access.

    ``sources`` maps each defining module to the names the package
    exports from it.  Returns ``(exports, __getattr__, __dir__)``:
    ``exports`` maps each name to its module, and ``__getattr__`` imports
    that module the first time the name is read and binds the object into
    the package, so later reads are plain attribute lookups.

    ``__getattr__`` runs only for a missing attribute, and importing a
    submodule binds the submodule on its package.  A name exported from
    a submodule of the same name (``repro.bounds.infinite_cap``) would
    then read as the submodule once anything imported it, so the
    package's class keeps the export in its place.
    """
    exports = {name: module for module, names in sources.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # ``__import__`` (not ``importlib.import_module``) takes the
        # interpreter's own import path, which ``-X importtime`` reports.
        __import__(module)
        value = getattr(sys.modules[module], name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    class Package(types.ModuleType):
        def __setattr__(self, name: str, value) -> None:
            submodule = isinstance(value, types.ModuleType)
            if submodule and value.__name__ == exports.get(name):
                value = getattr(value, name)
            super().__setattr__(name, value)

    sys.modules[package].__class__ = Package
    return exports, __getattr__, __dir__


_EXPORTS, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.gbm": ("GradientBoostingRegressor",),
        "repro.core.hro": ("HroBound", "hro_bound"),
        "repro.core.lhr": ("LhrCache",),
        "repro.obs.observation": ("NULL_OBS", "Observation"),
        "repro.obs.registry": ("MetricsRegistry",),
        "repro.policies": ("SOTA_POLICIES", "make_policy"),
        "repro.sim.engine": ("simulate",),
        "repro.sim.network": ("measure_latency",),
        "repro.sim.runner": ("build_policy", "run_comparison"),
        "repro.traces.production": ("PRODUCTION_SPECS", "generate_production_trace"),
        "repro.traces.request": ("Request", "Trace"),
        "repro.traces.stats": ("summarize_trace",),
        "repro.traces.synthetic": ("irm_trace", "syn_one_trace", "syn_two_trace"),
        "repro.workloads.lab": ("run_workload_lab",),
        "repro.workloads.scenarios": ("ScenarioConfig", "known_scenarios"),
    },
)

__all__ = ["__version__", *_EXPORTS]
