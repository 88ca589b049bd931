"""Synthetic generators: IRM and the Markov-modulated Syn One / Syn Two."""

from collections import Counter

import numpy as np
import pytest

from repro.traces.packed import PackedTrace
from repro.traces.synthetic import (
    MarkovModulatedGenerator,
    irm_trace,
    syn_one_trace,
    syn_two_trace,
)
from repro.util.sampling import ZipfSampler, lognormal_sizes


class TestIrmTrace:
    def test_basic_shape(self):
        trace = irm_trace(1000, 50, seed=0)
        assert len(trace) == 1000
        assert len(trace.unique_contents()) <= 50
        PackedTrace.from_trace(trace)
        assert len({(r.obj_id, r.size) for r in trace}) == len(trace.unique_contents())

    def test_equal_size_mode(self):
        trace = irm_trace(500, 20, equal_size=64, seed=0)
        assert all(req.size == 64 for req in trace)

    def test_rejects_bad_equal_size(self):
        with pytest.raises(ValueError):
            irm_trace(100, 10, equal_size=0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            irm_trace(0, 10)

    def test_zipf_popularity_head_dominates(self):
        trace = irm_trace(20_000, 100, alpha=1.0, seed=1)
        counts = Counter(req.obj_id for req in trace)
        top = counts.most_common(10)
        assert sum(count for _, count in top) > 0.35 * len(trace)

    def test_poisson_arrival_rate(self):
        trace = irm_trace(10_000, 50, request_rate=200.0, seed=2)
        rate = len(trace) / trace.duration
        assert rate == pytest.approx(200.0, rel=0.1)

    def test_deterministic_for_seed(self):
        a = irm_trace(200, 20, seed=5)
        b = irm_trace(200, 20, seed=5)
        assert [r.obj_id for r in a] == [r.obj_id for r in b]
        c = irm_trace(200, 20, seed=6)
        assert [r.obj_id for r in a] != [r.obj_id for r in c]

    def test_metadata_recorded(self):
        trace = irm_trace(100, 10, alpha=0.7, seed=3)
        assert trace.metadata["alpha"] == 0.7
        assert trace.metadata["seed"] == 3


class TestMarkovModulated:
    def _samplers(self, rng):
        return [
            ZipfSampler(50, 0.9, rng=rng),
            ZipfSampler(50, 0.9, reverse=True, rng=rng),
        ]

    def test_requires_exactly_one_of_transitions_or_cycle(self):
        rng = np.random.default_rng(0)
        samplers = self._samplers(rng)
        with pytest.raises(ValueError):
            MarkovModulatedGenerator(samplers, 10)
        with pytest.raises(ValueError):
            MarkovModulatedGenerator(
                samplers, 10, transitions=np.eye(2), cycle=[0, 1]
            )

    def test_rejects_bad_transition_matrix(self):
        rng = np.random.default_rng(0)
        samplers = self._samplers(rng)
        with pytest.raises(ValueError):
            MarkovModulatedGenerator(
                samplers, 10, transitions=np.array([[0.5, 0.2], [1.0, 0.0]])
            )
        with pytest.raises(ValueError):
            MarkovModulatedGenerator(samplers, 10, transitions=np.eye(3))

    def test_rejects_bad_cycle_state(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            MarkovModulatedGenerator(self._samplers(rng), 10, cycle=[0, 5])

    def test_state_sequence_blocks(self):
        rng = np.random.default_rng(1)
        generator = MarkovModulatedGenerator(
            self._samplers(rng), 100, cycle=[0, 1], rng=rng
        )
        states = generator.state_sequence(350)
        assert states[:100] == [0] * 100
        assert states[100:200] == [1] * 100
        assert states[200:300] == [0] * 100
        assert len(states) == 350

    def test_generate_length_and_sizes(self):
        rng = np.random.default_rng(2)
        sizes = lognormal_sizes(50, 1e6, 1.0, 1e8, rng=rng)
        generator = MarkovModulatedGenerator(
            self._samplers(rng), 50, cycle=[0, 1], rng=rng
        )
        trace = generator.generate(300, sizes)
        assert len(trace) == 300
        PackedTrace.from_trace(trace)
        for req in trace:
            assert req.size == sizes[req.obj_id]

    def test_deterministic_without_explicit_rng(self):
        # Seeded fallback generator: two default-constructed chains must
        # emit identical traces (whole-package determinism guarantee).
        def build():
            sizes = lognormal_sizes(50, 1e6, 1.0, 1e8)
            generator = MarkovModulatedGenerator(
                [ZipfSampler(50, 0.9), ZipfSampler(50, 0.9, reverse=True)],
                50,
                cycle=[0, 1],
            )
            return generator.generate(300, sizes)

        assert build().requests == build().requests


class TestSynTraces:
    def test_syn_one_popularity_flip(self):
        trace = syn_one_trace(
            num_requests=20_000,
            num_contents=100,
            requests_per_state=10_000,
            alpha=1.2,
            seed=0,
        )
        first = Counter(req.obj_id for req in trace[:10_000])
        second = Counter(req.obj_id for req in trace[10_000:])
        # The most popular content of phase 1 should be unpopular in
        # phase 2 (the ranking is reversed).
        top_first = first.most_common(1)[0][0]
        assert second.get(top_first, 0) < 0.2 * first[top_first]

    def test_syn_two_alpha_progression(self):
        trace = syn_two_trace(
            num_requests=12_000,
            num_contents=200,
            requests_per_state=3_000,
            seed=1,
        )
        states = trace.metadata["states"]
        assert states[0] == 0
        assert states[3_000] == 1
        assert states[6_000] == 2
        assert states[9_000] == 1

    def test_syn_defaults_match_paper_scale(self):
        # Section 7.6: 1M requests, N=1000 contents, r=200k per state.
        trace = syn_one_trace(num_requests=1_000, requests_per_state=500, num_contents=50)
        assert trace.name == "syn-one"


class TestSeedDiscipline:
    """``seed=None`` must raise, never silently draw OS entropy.

    Every generator keeps a seeded default (0) for back-compat, but an
    *explicit* None used to fall through to ``np.random.default_rng(None)``
    and produce a different trace on every call — poison for a regression
    corpus.
    """

    def test_irm_trace_rejects_none_seed(self):
        with pytest.raises(ValueError, match="seed"):
            irm_trace(100, 10, seed=None)

    def test_syn_traces_reject_none_seed(self):
        with pytest.raises(ValueError, match="seed"):
            syn_one_trace(100, 10, 50, seed=None)
        with pytest.raises(ValueError, match="seed"):
            syn_two_trace(100, 10, 50, seed=None)

    def test_markov_generator_rejects_none_seed(self):
        rng = np.random.default_rng(0)
        samplers = [ZipfSampler(10, 0.9, rng=rng)]
        with pytest.raises(ValueError, match="seed"):
            MarkovModulatedGenerator(samplers, 10, cycle=[0], seed=None)

    def test_sampler_and_sizes_reject_none_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ZipfSampler(10, 0.9, seed=None)
        with pytest.raises(ValueError, match="seed"):
            lognormal_sizes(10, 1e6, 1.0, 1e8, seed=None)

    def test_explicit_rng_still_accepted(self):
        # An rng handle is the caller's responsibility; only the seed
        # fallback path enforces explicitness.
        rng = np.random.default_rng(0)
        assert len(ZipfSampler(10, 0.9, rng=rng).sample(5)) == 5

    def test_production_and_subsample_reject_none_seed(self):
        from repro.traces.production import generate_production_trace
        from repro.traces.transform import subsample

        with pytest.raises(ValueError, match="seed"):
            generate_production_trace("wiki", scale=0.001, seed=None)
        with pytest.raises(ValueError, match="seed"):
            subsample(irm_trace(50, 10, seed=0), 0.5, seed=None)
