"""Synthetic workload generators.

Three families are provided:

* ``irm_trace`` — the Independent Reference Model: ids drawn i.i.d. from a
  Zipf distribution with Poisson arrivals.  This is the stationary
  baseline used throughout the paper's analysis (Section 3, Appendix A.2).
* ``syn_one_trace`` / ``syn_two_trace`` — the Markov-modulated request
  processes from the responsiveness experiments (Section 7.6).
* ``MarkovModulatedGenerator`` — the general mechanism underlying both:
  a Markov chain over per-state Zipf distributions, emitting a fixed
  number ``r`` of requests per state before transitioning.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.traces.packed import PackedTrace
from repro.traces.request import Trace
from repro.util.sampling import ZipfSampler, lognormal_sizes, require_seed


def _draw_sizes(
    num_contents: int,
    rng: np.random.Generator,
    mean_bytes: float,
    sigma: float,
    max_bytes: float,
    equal_size: int | None,
) -> np.ndarray:
    if equal_size is not None:
        if equal_size <= 0:
            raise ValueError("equal_size must be positive")
        return np.full(num_contents, equal_size, dtype=np.int64)
    return lognormal_sizes(num_contents, mean_bytes, sigma, max_bytes, rng=rng)


def irm_trace(
    num_requests: int,
    num_contents: int,
    alpha: float = 0.9,
    request_rate: float = 100.0,
    mean_size: float = 1 << 20,
    size_sigma: float = 1.5,
    max_size: float = 1 << 30,
    equal_size: int | None = None,
    seed: int | None = 0,
    name: str = "irm",
) -> Trace:
    """Independent Reference Model trace: Zipf popularity, Poisson arrivals.

    Parameters
    ----------
    num_requests, num_contents:
        Stream length and catalogue size.
    alpha:
        Zipf skew.
    request_rate:
        Aggregate arrival rate in requests/second (exponential gaps).
    equal_size:
        If given, all contents share this size (the classic paging model
        in which Bélády is exactly optimal); otherwise sizes are
        heavy-tailed lognormal.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    seed = require_seed(seed)
    rng = np.random.default_rng(seed)
    sampler = ZipfSampler(num_contents, alpha, rng=rng)
    sizes = _draw_sizes(num_contents, rng, mean_size, size_sigma, max_size, equal_size)
    ids = sampler.sample(num_requests)
    gaps = rng.exponential(1.0 / request_rate, size=num_requests)
    times = np.cumsum(gaps)
    return PackedTrace.from_arrays(
        times,
        ids,
        sizes[ids],
        name=name,
        metadata={"alpha": alpha, "num_contents": num_contents, "seed": seed},
    ).unpack()


class MarkovModulatedGenerator:
    """Markov-modulated Zipf request process (Section 7.6).

    Each Markov state carries its own Zipf distribution over the shared
    catalogue.  While the chain sits in a state, ``requests_per_state``
    requests are drawn from that state's distribution, then the chain
    transitions according to ``transitions`` (a row-stochastic matrix) or,
    if ``cycle`` is given, deterministically through that state cycle.
    """

    def __init__(
        self,
        samplers: Sequence[ZipfSampler],
        requests_per_state: int,
        transitions: np.ndarray | None = None,
        cycle: Sequence[int] | None = None,
        rng: np.random.Generator | None = None,
        seed: int | None = 0,
    ):
        if not samplers:
            raise ValueError("need at least one per-state sampler")
        if requests_per_state <= 0:
            raise ValueError("requests_per_state must be positive")
        if (transitions is None) == (cycle is None):
            raise ValueError("provide exactly one of transitions or cycle")
        self._samplers = list(samplers)
        self._requests_per_state = requests_per_state
        self._rng = rng if rng is not None else np.random.default_rng(require_seed(seed))
        self._cycle = list(cycle) if cycle is not None else None
        if transitions is not None:
            matrix = np.asarray(transitions, dtype=np.float64)
            if matrix.shape != (len(samplers), len(samplers)):
                raise ValueError("transition matrix shape mismatch")
            if not np.allclose(matrix.sum(axis=1), 1.0):
                raise ValueError("transition matrix rows must sum to 1")
            self._transitions = matrix
        else:
            self._transitions = None
            for state in self._cycle:
                if not 0 <= state < len(samplers):
                    raise ValueError(f"cycle state {state} out of range")

    def state_sequence(self, num_requests: int) -> list[int]:
        """The per-request Markov state, for labeling ground-truth drift."""
        states: list[int] = []
        position = 0
        state = self._cycle[0] if self._cycle is not None else 0
        while len(states) < num_requests:
            states.extend([state] * min(self._requests_per_state, num_requests - len(states)))
            position += 1
            if self._cycle is not None:
                state = self._cycle[position % len(self._cycle)]
            else:
                state = int(
                    self._rng.choice(len(self._samplers), p=self._transitions[state])
                )
        return states

    def generate(
        self,
        num_requests: int,
        sizes: np.ndarray,
        request_rate: float = 100.0,
        name: str = "mmpp",
    ) -> Trace:
        """Materialize a trace of ``num_requests`` requests."""
        states = self.state_sequence(num_requests)
        gaps = self._rng.exponential(1.0 / request_rate, size=num_requests)
        times = np.cumsum(gaps)
        ids = np.empty(num_requests, dtype=np.int64)
        start = 0
        while start < num_requests:
            state = states[start]
            end = start
            while end < num_requests and states[end] == state:
                end += 1
            ids[start:end] = self._samplers[state].sample(end - start)
            start = end
        return PackedTrace.from_arrays(
            times, ids, np.asarray(sizes)[ids], name=name, metadata={"states": states}
        ).unpack()


def syn_one_trace(
    num_requests: int = 1_000_000,
    num_contents: int = 1_000,
    requests_per_state: int = 200_000,
    alpha: float = 0.9,
    mean_size: float = 16 << 20,
    seed: int | None = 0,
) -> Trace:
    """"Syn One" (Section 7.6): two-state chain alternating between a Zipf
    distribution in increasing rank order and the same distribution with
    the ranking reversed, switching every ``requests_per_state`` requests.
    """
    rng = np.random.default_rng(require_seed(seed))
    samplers = [
        ZipfSampler(num_contents, alpha, reverse=False, rng=rng),
        ZipfSampler(num_contents, alpha, reverse=True, rng=rng),
    ]
    sizes = lognormal_sizes(num_contents, mean_size, 1.2, 64 * mean_size, rng=rng)
    generator = MarkovModulatedGenerator(
        samplers,
        requests_per_state,
        transitions=np.array([[0.0, 1.0], [1.0, 0.0]]),
        rng=rng,
    )
    return generator.generate(num_requests, sizes, name="syn-one")


def syn_two_trace(
    num_requests: int = 1_000_000,
    num_contents: int = 1_000,
    requests_per_state: int = 200_000,
    alphas: Sequence[float] = (0.7, 0.9, 1.1),
    mean_size: float = 16 << 20,
    seed: int | None = 0,
) -> Trace:
    """"Syn Two" (Section 7.6): three Zipf states with alpha in
    ``alphas``, visited deterministically 0 -> 1 -> 2 -> 1 -> 0 -> ...
    """
    rng = np.random.default_rng(require_seed(seed))
    samplers = [ZipfSampler(num_contents, a, rng=rng) for a in alphas]
    sizes = lognormal_sizes(num_contents, mean_size, 1.2, 64 * mean_size, rng=rng)
    generator = MarkovModulatedGenerator(
        samplers,
        requests_per_state,
        cycle=[0, 1, 2, 1],
        rng=rng,
    )
    return generator.generate(num_requests, sizes, name="syn-two")
