"""Property suite for every registered scenario generator.

Parametrized over :func:`known_scenarios` so a newly registered scenario
is covered automatically: seeded determinism, monotone non-decreasing
timestamps, positive sizes, and bit-identical Request-list vs PackedTrace
emission.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.packed import PackedTrace
from repro.workloads import (
    SCENARIO_REGISTRY,
    ScenarioConfig,
    generate_packed,
    generate_trace,
    get_scenario,
    known_scenarios,
    require_seed,
)

#: Small but long enough to cross every scenario's change point at the
#: default parameters (phase_requests=1000, cycle_requests=2000, ...).
NUM_REQUESTS = 2500
SEED = 11


def config_for(name: str, seed: int = SEED) -> ScenarioConfig:
    return ScenarioConfig.make(name, NUM_REQUESTS, seed)


@pytest.mark.parametrize("name", known_scenarios())
class TestScenarioProperties:
    def test_seeded_determinism(self, name):
        a = generate_packed(config_for(name))
        b = generate_packed(config_for(name))
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.obj_ids, b.obj_ids)
        np.testing.assert_array_equal(a.sizes, b.sizes)

    def test_different_seed_diverges(self, name):
        a = generate_packed(config_for(name, seed=SEED))
        b = generate_packed(config_for(name, seed=SEED + 1))
        assert not np.array_equal(a.obj_ids, b.obj_ids)

    def test_requested_length(self, name):
        packed = generate_packed(config_for(name))
        assert len(packed) == NUM_REQUESTS

    def test_timestamps_monotone_nondecreasing(self, name):
        packed = generate_packed(config_for(name))
        assert np.all(np.diff(packed.times) >= 0)
        assert packed.times[0] >= 0

    def test_sizes_positive(self, name):
        packed = generate_packed(config_for(name))
        assert np.all(packed.sizes > 0)

    def test_constant_size_per_content(self, name):
        # The packed and list emissions share columns, so checking the
        # trace covers both.
        trace = generate_trace(config_for(name))
        assert len({(r.obj_id, r.size) for r in trace}) == len(trace.unique_contents())

    def test_packed_and_request_list_bit_identical(self, name):
        config = config_for(name)
        packed = generate_packed(config)
        roundtrip = PackedTrace.from_trace(generate_trace(config))
        np.testing.assert_array_equal(packed.times, roundtrip.times)
        np.testing.assert_array_equal(packed.obj_ids, roundtrip.obj_ids)
        np.testing.assert_array_equal(packed.sizes, roundtrip.sizes)

    def test_metadata_stamped(self, name):
        packed = generate_packed(config_for(name))
        assert packed.metadata["scenario"] == name
        assert packed.metadata["seed"] == SEED
        assert packed.metadata["params"] == config_for(name).resolved_params()


class TestRegistry:
    def test_five_scenarios_registered(self):
        assert set(known_scenarios()) >= {
            "churn", "flash-crowd", "diurnal", "one-hit-flood", "size-shift"
        }

    def test_registry_entries_are_described(self):
        for name in known_scenarios():
            spec = SCENARIO_REGISTRY[name]
            assert spec.description
            assert spec.defaults

    def test_get_scenario_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        from repro.workloads import register_scenario

        with pytest.raises(ValueError, match="already registered"):
            register_scenario("churn", "dup", {})(lambda n, s, p: None)


class TestScenarioConfig:
    def test_seed_none_raises(self):
        with pytest.raises(ValueError, match="seed"):
            ScenarioConfig.make("churn", 100, None)

    def test_require_seed_none_raises(self):
        with pytest.raises(ValueError, match="OS entropy"):
            require_seed(None)

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            ScenarioConfig.make("churn", 100, 0, bogus=1.0)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError, match="num_requests"):
            ScenarioConfig.make("churn", 0, 0)

    def test_dict_roundtrip(self):
        config = ScenarioConfig.make("churn", 500, 3, alpha=1.1)
        assert ScenarioConfig.from_dict(config.as_dict()) == config

    def test_from_dict_aliases(self):
        config = ScenarioConfig.from_dict(
            {"scenario": "diurnal", "num_requests": 400, "seed": 2}
        )
        assert config.scenario == "diurnal"
        assert config.num_requests == 400

    def test_from_dict_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ScenarioConfig.from_dict({"name": "churn", "length": 100})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scenario config keys"):
            ScenarioConfig.from_dict(
                {"name": "churn", "length": 100, "seed": 0, "oops": 1}
            )

    def test_override_changes_output(self):
        base = generate_packed(config_for("churn"))
        skewed = generate_packed(
            ScenarioConfig.make("churn", NUM_REQUESTS, SEED, alpha=1.4)
        )
        assert not np.array_equal(base.obj_ids, skewed.obj_ids)


class TestScenarioShapes:
    """Each scenario actually exhibits its advertised non-stationarity."""

    def test_churn_reshuffles_head(self):
        config = ScenarioConfig.make(
            "churn", 4000, 7, phase_requests=2000.0, churn_fraction=0.9
        )
        packed = generate_packed(config)
        first = set(np.unique(packed.obj_ids[:2000])[:20].tolist())
        # With 90% of the mapping permuted the phase-1 and phase-2 head
        # request distributions must differ.
        half1 = packed.obj_ids[:2000]
        half2 = packed.obj_ids[2000:]
        top1 = np.bincount(half1).argmax()
        assert np.count_nonzero(half2 == top1) != np.count_nonzero(half1 == top1)
        assert packed.metadata["phase_boundaries"]
        assert first  # head exists

    def test_flash_crowd_window_dominated_by_flash_ids(self):
        config = ScenarioConfig.make("flash-crowd", 4000, 7)
        packed = generate_packed(config)
        params = config.resolved_params()
        start, stop = packed.metadata["flash_window"]
        in_flash = packed.obj_ids[start:stop]
        flash_share = np.mean(in_flash >= params["num_contents"])
        assert flash_share == pytest.approx(params["flash_weight"], abs=0.1)
        outside = np.concatenate([packed.obj_ids[:start], packed.obj_ids[stop:]])
        assert np.mean(outside >= params["num_contents"]) == 0.0

    def test_one_hit_flood_ids_never_repeat(self):
        packed = generate_packed(ScenarioConfig.make("one-hit-flood", 4000, 7))
        num_contents = packed.metadata["params"]["num_contents"]
        flood_ids = packed.obj_ids[packed.obj_ids >= num_contents]
        assert packed.metadata["flood_requests"] == len(flood_ids)
        assert len(np.unique(flood_ids)) == len(flood_ids)

    def test_size_shift_moves_byte_mass(self):
        packed = generate_packed(ScenarioConfig.make("size-shift", 4000, 7))
        shift = packed.metadata["shift_index"]
        before = packed.sizes[:shift].mean()
        after = packed.sizes[shift:].mean()
        assert after > 2 * before

    def test_diurnal_head_rotates(self):
        config = ScenarioConfig.make(
            "diurnal", 4000, 7, cycle_requests=4000.0, alpha_day=1.2
        )
        packed = generate_packed(config)
        day_head = np.bincount(packed.obj_ids[:1000]).argmax()
        night = packed.obj_ids[1500:2500]  # trough of the cycle
        day = packed.obj_ids[:1000]
        night_share = np.count_nonzero(night == day_head) / len(night)
        day_share = np.count_nonzero(day == day_head) / len(day)
        assert night_share < day_share
