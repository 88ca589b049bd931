"""Non-stationary scenario generators — the workload lab's registry.

The paper evaluates LHR on stationary-ish CDN traces; its drift detector
and retraining loop only earn their keep under *non*-stationarity.  This
module provides a registry of parameterized scenario generators covering
the regimes the related work treats as the default for edge content
delivery:

* ``churn`` — popularity churn at a controllable mixing rate: a fraction
  of the rank→content mapping is re-shuffled every phase.
* ``flash-crowd`` — a stationary Zipf background interrupted by a burst
  in which a handful of previously-cold contents absorb most traffic at
  an elevated arrival rate.
* ``diurnal`` — day/night popularity cycling: requests blend two Zipf
  profiles with a sinusoidal mixing weight, arrival rate modulated in
  phase.
* ``one-hit-flood`` — an admission-poisoning adversary: a window of the
  trace is flooded with never-repeated one-hit-wonder objects.
* ``size-shift`` — a correlated size/popularity shift: popularity mass
  moves from the small-object half of the catalogue to the large-object
  half at a configurable point.

Every scenario is generated from one seeded ``numpy`` RNG and emitted
through a single column builder; :func:`generate_trace` is
:func:`generate_packed` unpacked, so the ``Request`` records it reads as
are bit-identical to the packed columns by construction —
``tests/workloads/test_generators.py`` pins that, plus seeded
determinism, monotone timestamps and positive sizes, for every
registered scenario.

Scenario selection is declarative: a :class:`ScenarioConfig` names the
scenario, its parameter overrides, the seed and the length, and
round-trips through plain dicts (``repro workload`` drives everything
from it).  Seeds are mandatory — ``seed=None`` raises instead of
silently drawing OS entropy, so two runs of the same config can never
diverge.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.traces.packed import PackedTrace
from repro.traces.request import Trace
from repro.util.sampling import lognormal_sizes, require_seed, zipf_weights

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "ScenarioColumns",
    "generate_packed",
    "generate_trace",
    "get_scenario",
    "known_scenarios",
    "register_scenario",
    "require_seed",
]


# ----------------------------------------------------------------------
# Declarative configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario instance: name, length, seed and parameter overrides.

    ``params`` is stored as a sorted item tuple (like
    :class:`~repro.sim.parallel.CellSpec`) so configs hash, pickle and
    compare deterministically.  Unknown parameters are rejected against
    the scenario's declared defaults at construction time.
    """

    scenario: str
    num_requests: int
    seed: int
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        spec = get_scenario(self.scenario)
        object.__setattr__(self, "seed", require_seed(self.seed))
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        unknown = sorted(set(dict(self.params)) - set(spec.defaults))
        if unknown:
            known = ", ".join(sorted(spec.defaults))
            raise ValueError(
                f"unknown parameters {unknown} for scenario "
                f"{self.scenario!r}; known: {known}"
            )

    @classmethod
    def make(
        cls,
        scenario: str,
        num_requests: int,
        seed: int,
        **params: float,
    ) -> "ScenarioConfig":
        return cls(
            scenario=scenario,
            num_requests=int(num_requests),
            seed=seed,
            params=tuple(sorted(params.items())),
        )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ScenarioConfig":
        """Build from the declarative dict schema ``{name, length, seed,
        params}`` (``scenario``/``num_requests`` accepted as aliases)."""
        data = dict(payload)
        name = data.pop("name", None) or data.pop("scenario", None)
        if not name:
            raise ValueError("scenario config needs a 'name'")
        length = data.pop("length", None) or data.pop("num_requests", None)
        if length is None:
            raise ValueError("scenario config needs a 'length'")
        seed = require_seed(data.pop("seed", None))
        params = dict(data.pop("params", {}))
        if data:
            raise ValueError(f"unknown scenario config keys: {sorted(data)}")
        return cls.make(name, int(length), seed, **params)

    def as_dict(self) -> dict:
        return {
            "name": self.scenario,
            "length": self.num_requests,
            "seed": self.seed,
            "params": dict(self.params),
        }

    def resolved_params(self) -> dict:
        """Scenario defaults overlaid with this config's overrides."""
        spec = get_scenario(self.scenario)
        resolved = dict(spec.defaults)
        resolved.update(dict(self.params))
        return resolved

    def describe(self) -> str:
        params = ", ".join(
            f"{key}={value}" for key, value in sorted(self.resolved_params().items())
        )
        return (
            f"{self.scenario}(length={self.num_requests}, seed={self.seed}, "
            f"{params})"
        )


#: ``(times, obj_ids, sizes, metadata)`` — what every column builder returns.
ScenarioColumns = tuple[np.ndarray, np.ndarray, np.ndarray, dict]


@dataclass(frozen=True)
class Scenario:
    """A registered scenario generator."""

    name: str
    description: str
    defaults: dict = field(default_factory=dict)
    build_columns: Callable[[int, int, dict], ScenarioColumns] = None

    def columns(self, config: ScenarioConfig) -> ScenarioColumns:
        """The scenario's raw ``(times, obj_ids, sizes, metadata)``."""
        params = config.resolved_params()
        times, obj_ids, sizes, metadata = self.build_columns(
            config.num_requests, config.seed, params
        )
        metadata = {
            "scenario": self.name,
            "seed": config.seed,
            "params": params,
            **metadata,
        }
        return times, obj_ids, sizes, metadata


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

SCENARIO_REGISTRY: dict[str, Scenario] = {}


def register_scenario(
    name: str, description: str, defaults: dict
) -> Callable[[Callable], Callable]:
    """Register ``fn(num_requests, seed, params) -> ScenarioColumns``."""

    def wrap(fn: Callable[[int, int, dict], ScenarioColumns]) -> Callable:
        if name in SCENARIO_REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        SCENARIO_REGISTRY[name] = Scenario(
            name=name,
            description=description,
            defaults=dict(defaults),
            build_columns=fn,
        )
        return fn

    return wrap


def known_scenarios() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIO_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario; ValueError names the known set."""
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        known = ", ".join(known_scenarios())
        raise ValueError(f"unknown scenario {name!r}; known: {known}") from None


def generate_packed(config: ScenarioConfig) -> PackedTrace:
    """The scenario as a columnar :class:`PackedTrace` (fast-path native)."""
    times, obj_ids, sizes, metadata = get_scenario(config.scenario).columns(config)
    return PackedTrace.from_arrays(
        times, obj_ids, sizes, name=config.scenario, metadata=metadata
    )


def generate_trace(config: ScenarioConfig) -> Trace:
    """The scenario as a :class:`Trace`: the columns of
    :func:`generate_packed`, read as ``Request`` records on demand."""
    return generate_packed(config).unpack()


# ----------------------------------------------------------------------
# Shared building blocks
# ----------------------------------------------------------------------


def _arrival_times(
    rng: np.random.Generator, rates: float | np.ndarray, count: int
) -> np.ndarray:
    """Poisson arrival times; ``rates`` may vary per request."""
    gaps = rng.exponential(1.0, size=count) / rates
    return np.cumsum(gaps)


def _catalogue_sizes(
    rng: np.random.Generator, count: int, mean_size: float
) -> np.ndarray:
    """Per-content sizes, fixed for the trace (ids never change size)."""
    return lognormal_sizes(count, mean_size, 1.2, 64.0 * mean_size, rng=rng)


def _zipf_cdf(num_contents: int, alpha: float) -> np.ndarray:
    cdf = np.cumsum(zipf_weights(num_contents, alpha))
    cdf[-1] = 1.0
    return cdf


def _draw_ranks(
    rng: np.random.Generator, cdf: np.ndarray, count: int
) -> np.ndarray:
    return np.searchsorted(cdf, rng.random(count), side="right").astype(np.int64)


# ----------------------------------------------------------------------
# Scenario: popularity churn at a controllable mixing rate
# ----------------------------------------------------------------------


@register_scenario(
    "churn",
    "popularity churn: a fraction of the rank→content mapping is "
    "re-shuffled every phase (mixing rate = churn_fraction / phase_requests)",
    defaults={
        "num_contents": 300,
        "alpha": 0.8,
        "phase_requests": 1000,
        "churn_fraction": 0.4,
        "request_rate": 100.0,
        "mean_size": float(1 << 16),
    },
)
def _churn_columns(num_requests: int, seed: int, params: dict) -> ScenarioColumns:
    rng = np.random.default_rng(seed)
    num_contents = int(params["num_contents"])
    phase_requests = max(int(params["phase_requests"]), 1)
    churn_fraction = float(params["churn_fraction"])
    if not 0.0 <= churn_fraction <= 1.0:
        raise ValueError("churn_fraction must be in [0, 1]")
    sizes_by_id = _catalogue_sizes(rng, num_contents, params["mean_size"])
    cdf = _zipf_cdf(num_contents, params["alpha"])
    ranks = _draw_ranks(rng, cdf, num_requests)
    mapping = np.arange(num_contents, dtype=np.int64)
    shuffled = max(int(round(churn_fraction * num_contents)), 0)
    obj_ids = np.empty(num_requests, dtype=np.int64)
    boundaries = []
    for start in range(0, num_requests, phase_requests):
        if start:
            boundaries.append(start)
            if shuffled > 1:
                chosen = rng.choice(num_contents, size=shuffled, replace=False)
                mapping[chosen] = mapping[rng.permutation(chosen)]
        stop = min(start + phase_requests, num_requests)
        obj_ids[start:stop] = mapping[ranks[start:stop]]
    times = _arrival_times(rng, params["request_rate"], num_requests)
    return times, obj_ids, sizes_by_id[obj_ids], {"phase_boundaries": boundaries}


# ----------------------------------------------------------------------
# Scenario: flash crowd
# ----------------------------------------------------------------------


@register_scenario(
    "flash-crowd",
    "stationary Zipf background interrupted by a burst in which "
    "flash_contents cold objects absorb flash_weight of the traffic at "
    "rate_boost times the arrival rate",
    defaults={
        "num_contents": 300,
        "alpha": 0.8,
        "flash_contents": 20,
        "flash_start": 0.4,
        "flash_duration": 0.25,
        "flash_weight": 0.7,
        "rate_boost": 4.0,
        "request_rate": 100.0,
        "mean_size": float(1 << 16),
    },
)
def _flash_crowd_columns(
    num_requests: int, seed: int, params: dict
) -> ScenarioColumns:
    rng = np.random.default_rng(seed)
    num_contents = int(params["num_contents"])
    flash_contents = max(int(params["flash_contents"]), 1)
    flash_weight = float(params["flash_weight"])
    if not 0.0 <= flash_weight <= 1.0:
        raise ValueError("flash_weight must be in [0, 1]")
    start = int(float(params["flash_start"]) * num_requests)
    stop = min(start + int(float(params["flash_duration"]) * num_requests),
               num_requests)
    sizes_by_id = _catalogue_sizes(
        rng, num_contents + flash_contents, params["mean_size"]
    )
    cdf = _zipf_cdf(num_contents, params["alpha"])
    background = _draw_ranks(rng, cdf, num_requests)
    # During the flare, each request defects to the flash set with
    # probability flash_weight; flash popularity is itself Zipf so the
    # crowd has a head, like a viral release would.
    flash_cdf = _zipf_cdf(flash_contents, 1.0)
    defect = rng.random(num_requests) < flash_weight
    flash_ids = num_contents + _draw_ranks(rng, flash_cdf, num_requests)
    in_flare = np.zeros(num_requests, dtype=bool)
    in_flare[start:stop] = True
    flare_mask = in_flare & defect
    obj_ids = np.where(flare_mask, flash_ids, background)
    rates = np.full(num_requests, float(params["request_rate"]))
    rates[start:stop] *= float(params["rate_boost"])
    times = _arrival_times(rng, rates, num_requests)
    metadata = {"flash_window": [start, stop]}
    return times, obj_ids, sizes_by_id[obj_ids], metadata


# ----------------------------------------------------------------------
# Scenario: diurnal cycle
# ----------------------------------------------------------------------


@register_scenario(
    "diurnal",
    "day/night popularity cycle: requests blend a day profile and a "
    "rank-reversed night profile with sinusoidal weight, arrival rate "
    "modulated in phase",
    defaults={
        "num_contents": 300,
        "alpha_day": 1.0,
        "alpha_night": 0.6,
        "cycle_requests": 2000,
        "request_rate": 100.0,
        "rate_amplitude": 0.5,
        "mean_size": float(1 << 16),
    },
)
def _diurnal_columns(num_requests: int, seed: int, params: dict) -> ScenarioColumns:
    rng = np.random.default_rng(seed)
    num_contents = int(params["num_contents"])
    cycle = max(int(params["cycle_requests"]), 1)
    amplitude = float(params["rate_amplitude"])
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("rate_amplitude must be in [0, 1)")
    sizes_by_id = _catalogue_sizes(rng, num_contents, params["mean_size"])
    day_cdf = _zipf_cdf(num_contents, params["alpha_day"])
    night_weights = zipf_weights(num_contents, params["alpha_night"])[::-1]
    night_cdf = np.cumsum(night_weights)
    night_cdf[-1] = 1.0
    phase = 2.0 * np.pi * np.arange(num_requests) / cycle
    day_weight = 0.5 * (1.0 + np.sin(phase))
    is_day = rng.random(num_requests) < day_weight
    draws = rng.random(num_requests)
    day_ids = np.searchsorted(day_cdf, draws, side="right")
    night_ids = np.searchsorted(night_cdf, draws, side="right")
    obj_ids = np.where(is_day, day_ids, night_ids).astype(np.int64)
    rates = float(params["request_rate"]) * (1.0 + amplitude * np.sin(phase))
    times = _arrival_times(rng, rates, num_requests)
    return times, obj_ids, sizes_by_id[obj_ids], {"cycle_requests": cycle}


# ----------------------------------------------------------------------
# Scenario: one-hit-wonder flood (admission-poisoning adversary)
# ----------------------------------------------------------------------


@register_scenario(
    "one-hit-flood",
    "admission-poisoning adversary: a window of the trace is flooded "
    "with never-repeated one-hit-wonder objects at flood_rate",
    defaults={
        "num_contents": 300,
        "alpha": 0.8,
        "flood_rate": 0.5,
        "flood_start": 0.3,
        "flood_duration": 0.4,
        "request_rate": 100.0,
        "mean_size": float(1 << 16),
    },
)
def _one_hit_flood_columns(
    num_requests: int, seed: int, params: dict
) -> ScenarioColumns:
    rng = np.random.default_rng(seed)
    num_contents = int(params["num_contents"])
    flood_rate = float(params["flood_rate"])
    if not 0.0 <= flood_rate <= 1.0:
        raise ValueError("flood_rate must be in [0, 1]")
    start = int(float(params["flood_start"]) * num_requests)
    stop = min(start + int(float(params["flood_duration"]) * num_requests),
               num_requests)
    sizes_by_id = _catalogue_sizes(rng, num_contents, params["mean_size"])
    cdf = _zipf_cdf(num_contents, params["alpha"])
    obj_ids = _draw_ranks(rng, cdf, num_requests)
    sizes = sizes_by_id[obj_ids]
    flooded = np.zeros(num_requests, dtype=bool)
    flooded[start:stop] = rng.random(stop - start) < flood_rate
    count = int(flooded.sum())
    if count:
        # Fresh ids beyond the catalogue, each requested exactly once.
        obj_ids[flooded] = num_contents + np.arange(count, dtype=np.int64)
        sizes[flooded] = _catalogue_sizes(rng, count, params["mean_size"])
    times = _arrival_times(rng, params["request_rate"], num_requests)
    metadata = {"flood_window": [start, stop], "flood_requests": count}
    return times, obj_ids, sizes, metadata


# ----------------------------------------------------------------------
# Scenario: correlated size/popularity shift
# ----------------------------------------------------------------------


@register_scenario(
    "size-shift",
    "correlated size/popularity shift: popularity mass moves from the "
    "small-object half of the catalogue to the large-object half at "
    "shift_at",
    defaults={
        "num_contents": 400,
        "alpha": 0.8,
        "shift_at": 0.5,
        "small_mean_size": float(1 << 14),
        "large_mean_size": float(1 << 18),
        "request_rate": 100.0,
    },
)
def _size_shift_columns(
    num_requests: int, seed: int, params: dict
) -> ScenarioColumns:
    rng = np.random.default_rng(seed)
    num_contents = int(params["num_contents"])
    half = max(num_contents // 2, 1)
    shift_at = float(params["shift_at"])
    if not 0.0 <= shift_at <= 1.0:
        raise ValueError("shift_at must be in [0, 1]")
    shift_index = int(shift_at * num_requests)
    small_sizes = _catalogue_sizes(rng, half, params["small_mean_size"])
    large_sizes = _catalogue_sizes(
        rng, num_contents - half, params["large_mean_size"]
    )
    sizes_by_id = np.concatenate([small_sizes, large_sizes])
    cdf = _zipf_cdf(num_contents, params["alpha"])
    ranks = _draw_ranks(rng, cdf, num_requests)
    # Phase 1: top ranks map onto the small-object ids (0..half-1);
    # phase 2: onto the large-object ids — same skew, shifted mass.
    before = np.concatenate(
        [np.arange(half), np.arange(half, num_contents)]
    ).astype(np.int64)
    after = np.concatenate(
        [np.arange(half, num_contents), np.arange(half)]
    ).astype(np.int64)
    obj_ids = np.where(
        np.arange(num_requests) < shift_index, before[ranks], after[ranks]
    )
    times = _arrival_times(rng, params["request_rate"], num_requests)
    return times, obj_ids, sizes_by_id[obj_ids], {"shift_index": shift_index}
