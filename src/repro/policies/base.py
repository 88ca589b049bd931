"""Cache-policy framework.

Every caching algorithm in the paper — the seven SOTA baselines, the
prototype baselines and LHR itself — is expressed as a subclass of
:class:`CachePolicy`.  The base class owns the byte-accurate cache state
(what is cached, how many bytes are used) and the admission/eviction
control flow; subclasses supply the policy logic through four hooks:

* ``_should_admit(req)``  — admission decision on a miss (default: admit).
* ``_select_victim(req)`` — which cached object to evict when space is
  needed (abstract).
* ``_on_hit(req)`` / ``_on_access(req)`` / ``_on_admit(req)`` /
  ``_on_evict(obj_id)`` — bookkeeping notifications.

The framework follows the paper's accounting rules: an object larger than
the cache is never admitted, every miss costs its size in WAN traffic
regardless of admission, and per-policy metadata is reported via
``metadata_bytes`` so experiments can deduct it from usable capacity
(Section 7.1 "Overhead").
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.obs import NULL_OBS, Observation
from repro.obs.trace import DecisionTracer
from repro.traces.request import Request


class CachePolicy(ABC):
    """Byte-accurate cache with pluggable admission and eviction."""

    #: Human-readable policy name used in result tables.
    name = "base"

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._sizes: dict[int, int] = {}
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0
        self.admissions = 0
        self.evictions = 0
        #: Observation handle; disabled by default (one attribute check).
        self.obs: Observation = NULL_OBS
        #: Decision tracer; None by default.  Attaching one swaps the
        #: ``request`` dispatch (see ``attach_tracer``), so the untraced
        #: path carries zero added per-request cost.
        self.tracer: DecisionTracer | None = None
        #: Victim collector; a list only while a traced request is in
        #: flight.
        self._trace_victims: list[int] | None = None
        #: The exact classes an inlined ``replay_span`` was written for;
        #: empty for every other policy (see ``_pin_span_kernel``).
        self._kernel_classes: tuple[type, ...] = ()

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def num_objects(self) -> int:
        return len(self._sizes)

    def contains(self, obj_id: int) -> bool:
        return obj_id in self._sizes

    def cached_objects(self) -> dict[int, int]:
        """Snapshot of ``obj_id -> size`` for everything currently cached."""
        return dict(self._sizes)

    def request(self, req: Request) -> bool:
        """Process one request; return True on a cache hit."""
        self._on_access(req)
        if req.obj_id in self._sizes:
            self.hits += 1
            self.hit_bytes += req.size
            self._on_hit(req)
            return True
        self.misses += 1
        self.miss_bytes += req.size
        self._on_miss(req)
        if req.size <= self.capacity and self._should_admit(req):
            self._admit(req)
        return False

    def _request_traced(self, req: Request) -> bool:
        """``request`` with decision recording.

        Installed over ``request`` via the instance dict by
        ``attach_tracer``.  It runs the class's own ``request`` with
        ``_remove`` shadowed by ``_capture_remove``, so every eviction
        the request causes lands in its record, whether an admission or
        a hook made it (an S4LRU hit cascades).  Then it hands the tracer
        the verdict, whether a miss was admitted (the ``admissions``
        counter moved) and ``decision_inputs`` read after the request.
        """
        admissions = self.admissions
        victims = self._trace_victims = []
        self._remove = self._capture_remove
        try:
            hit = type(self).request(self, req)
        finally:
            self._trace_victims = None
            del self.__dict__["_remove"]
        probability, threshold, rank = self.decision_inputs(req)
        self.tracer.observe(
            req,
            hit=hit,
            admitted=None if hit else self.admissions > admissions,
            probability=probability,
            threshold=threshold,
            hazard_rank=rank,
            victims=tuple(victims),
        )
        return hit

    def replay_span(self, obj_ids, sizes, times, begin: int, end: int) -> None:
        """Replay requests ``[begin, end)`` of parallel trace columns.

        The engine feeds every trace through this, one bookkeeping-free
        chunk per call.  The column contract: ``obj_ids``, ``sizes`` and
        ``times`` are a ``PackedTrace``'s whole NumPy columns and
        ``[begin, end)`` is global.  An implementation turns into lists
        only the chunk's slice of the columns it reads
        (``col[begin:end].tolist()``) and iterates over them, so no
        replay holds a whole-trace list; a ``Request`` it builds carries
        its global index ``begin + j``.

        This base walker builds a ``Request`` per request and calls
        :meth:`request`, so it is exact for every policy and carries
        every hook and decision record.  Four classic policies (LRU,
        LRU-K, LFU-DA, B-LRU) override it with a span kernel: ``request``
        with their hooks inlined, state held in locals and counters
        written back once at the span edge.  The engine reads counters
        only at span boundaries, so deferred write-back is
        observationally identical.  ``_pin_span_kernel`` decides which
        of the two runs.  LHR's override block-scores the span and then
        walks ``request`` like this walker, so it needs no pin;
        (W-)TinyLFU's hashes the span's keys once and walks it the same
        way.
        """
        request = self.request
        for index, obj_id, size, time in zip(
            range(begin, end),
            obj_ids[begin:end].tolist(),
            sizes[begin:end].tolist(),
            times[begin:end].tolist(),
        ):
            request(Request(time, obj_id, size, index))

    def _pin_span_kernel(self, *kernel_classes: type) -> None:
        """The pin rule: keep this instance on the base walker unless its
        inlined span kernel is safe to run.

        An inlined span kernel copies the base control flow and its
        class's hooks, and skips decision tracing.  So the walker is
        pinned through the instance dict while a tracer is attached, and
        whenever ``type(self)`` is not one of the classes the kernel was
        written for (a subclass overriding a hook or ``request`` would
        silently lose it).  An attached observation never pins: events,
        metrics, spans and learner telemetry all come from the engine's
        chunk edges and the window-close pipeline, which both tiers
        share.  Kernel-bearing classes call this from ``__init__`` with
        those exact classes; ``attach_tracer`` calls it again, and
        detaching restores the kernel.  A policy that registered no
        classes is never pinned: its ``replay_span``, the base walker or
        one that walks ``request`` like LHR's, runs whatever ``request``
        and hooks the instance carries.
        """
        if kernel_classes:
            self._kernel_classes = kernel_classes
        if not self._kernel_classes:
            return
        if type(self) in self._kernel_classes and self.tracer is None:
            self.__dict__.pop("replay_span", None)
        else:
            self.__dict__["replay_span"] = CachePolicy.replay_span.__get__(self)

    def process(self, requests) -> None:
        """Convenience: run a request iterable through the cache."""
        for req in requests:
            self.request(req)

    @property
    def object_hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def byte_hit_ratio(self) -> float:
        total = self.hit_bytes + self.miss_bytes
        return self.hit_bytes / total if total else 0.0

    def metadata_bytes(self) -> int:
        """Approximate policy metadata footprint for overhead accounting.

        The default charges a conservative 64 bytes per cached object for
        the id/size bookkeeping; subclasses add their own structures.
        """
        return 64 * len(self._sizes)

    def attach_observation(self, obs: Observation) -> None:
        """Point this policy's instrumentation at ``obs``.

        Attaching changes nothing about which code replays the requests:
        the span kernel, if any, stays engaged (see ``_pin_span_kernel``).
        Subclasses with internal components that observe (LHR's detector,
        threshold estimator, HRO bound) override this to propagate the
        handle; they must call ``super().attach_observation(obs)``.
        """
        self.obs = obs

    def attach_tracer(self, tracer: DecisionTracer | None) -> None:
        """Record every admission/eviction decision into ``tracer``.

        Attaching shadows ``request`` with ``_request_traced`` through
        the instance dict, so untraced policies run the seed's exact
        instruction stream — no per-request guard on the disabled path
        (``bench_obs_overhead`` asserts this stays true).  The wrapper
        sees decisions only through ``_remove`` and the counters, so a
        class that overrides ``request`` (and could bypass both) is
        rejected with ``ValueError``.  An inlined span kernel is
        pinned to the base walker while the tracer is attached
        (``_pin_span_kernel``); LHR's kernel walks ``request`` and keeps
        running.

        Subclasses whose decision inputs need extra bookkeeping (LHR's
        hazard-rank tracking) override this; they must call
        ``super().attach_tracer(tracer)``.  Pass ``None`` to detach.
        """
        self.tracer = tracer
        if tracer is None:
            self.__dict__.pop("request", None)
            self._pin_span_kernel()
            return
        if type(self).request is not CachePolicy.request:
            raise ValueError(
                f"{self.name}: request() is overridden, so decision "
                "tracing cannot see its admissions; tracing supports "
                "only policies on the base control flow"
            )
        self.request = self._request_traced
        self._pin_span_kernel()

    def decision_inputs(
        self, req: Request
    ) -> tuple[float | None, float | None, int | None]:
        """The ``(probability, threshold, hazard_rank)`` inputs behind the
        decision for ``req``, for decision-trace records.  Policies
        without a probabilistic admission model return all-``None``.
        """
        return (None, None, None)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def _on_access(self, req: Request) -> None:
        """Called for every request, hit or miss, before the lookup result
        is known to the caller.  Feature trackers live here."""

    def _on_hit(self, req: Request) -> None:
        """Called when ``req`` hits."""

    def _on_miss(self, req: Request) -> None:
        """Called when ``req`` misses (before any admission decision)."""

    def _should_admit(self, req: Request) -> bool:
        """Admission decision for a missed object that fits in the cache."""
        return True

    def _on_admit(self, req: Request) -> None:
        """Called after ``req.obj_id`` has been inserted."""

    def _on_evict(self, obj_id: int) -> None:
        """Called after ``obj_id`` has been removed."""

    @abstractmethod
    def _select_victim(self, incoming: Request) -> int:
        """Return the obj_id to evict to make room for ``incoming``.

        Only called while the cache genuinely needs space; must return a
        currently cached object id.
        """

    # ------------------------------------------------------------------
    # Internal mechanics
    # ------------------------------------------------------------------

    def _admit(self, req: Request) -> None:
        while self._used + req.size > self.capacity:
            victim = self._select_victim(req)
            if victim not in self._sizes:
                raise RuntimeError(
                    f"{self.name}: victim {victim} is not cached"
                )
            self._remove(victim)
        self._sizes[req.obj_id] = req.size
        self._used += req.size
        self.admissions += 1
        self._on_admit(req)

    def _remove(self, obj_id: int) -> None:
        size = self._sizes.pop(obj_id)
        self._used -= size
        self.evictions += 1
        self._on_evict(obj_id)

    def _capture_remove(self, obj_id: int) -> None:
        """``_remove`` plus victim capture; shadows ``_remove`` through
        the instance dict only while a traced request is in flight, so
        untraced evictions pay no guard."""
        self._trace_victims.append(obj_id)
        type(self)._remove(self, obj_id)


class NoCache(CachePolicy):
    """Degenerate policy that never admits anything (admit-nothing model).

    Useful as a floor in experiments and as the "simple admit-nothing
    model" Section 4.2 mentions.
    """

    name = "no-cache"

    def _should_admit(self, req: Request) -> bool:
        return False

    def _select_victim(self, incoming: Request) -> int:
        raise RuntimeError("no-cache never stores objects")
