"""TinyLFU and W-TinyLFU (Einziger, Friedman, Manes).

TinyLFU is a frequency-based admission filter: on a miss, the incoming
object is admitted only if its sketch-estimated frequency exceeds that of
the would-be eviction victim.  W-TinyLFU ("windowed") prepends a small
unfiltered LRU window (~1% of capacity) and protects the main region with
a segmented LRU, which fixes TinyLFU's cold-start bias against new items.
W-TinyLFU is Caffeine's default policy — the baseline of Appendix A.3.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.policies.base import CachePolicy
from repro.traces.request import Request
from repro.util.bloom import HASH_BLOCK
from repro.util.sketch import CountMinSketch


class _SketchAdmission(CachePolicy):
    """The count-min frequency oracle (W-)TinyLFU admit through.

    Every request increments its content's counters.  Aging is driven
    here, not by the sketch: Caffeine halves the sketch every ~10x as
    many increments as the cache holds entries, which keeps the frequency
    window proportional to cache churn regardless of object sizes.
    """

    def __init__(self, capacity: int, sketch_width: int, sample_multiplier: int):
        super().__init__(capacity)
        self._sketch = CountMinSketch(width=sketch_width, depth=4, sample_size=0)
        self._sample_multiplier = sample_multiplier
        self._increments = 0
        #: The current request's sketch cells while ``replay_span`` walks
        #: a span; None outside one.
        self._cells: list[int] | None = None
        #: Each cached object's cells, so the admission duel reads the
        #: victim's estimate without hashing its key again.  Only the
        #: replay's speed needs it, so ``metadata_bytes`` does not charge
        #: it.
        self._cached_cells: dict[int, list[int]] = {}

    def replay_span(self, obj_ids, sizes, times, begin: int, end: int) -> None:
        """Hash the span's keys a block at a time, then walk ``request``.

        Each request's ``_on_access``, admission duel and ``_on_admit``
        take the cells hashed for it instead of hashing its key again.
        Like LHR's kernel this walks whatever ``request`` and hooks the
        instance carries, so it needs no pin: decision tracers and
        subclass hooks see every request.
        """
        request = self.request
        hash_cells = self._sketch.cells
        try:
            for block in range(begin, end, HASH_BLOCK):
                stop = min(block + HASH_BLOCK, end)
                ids = obj_ids[block:stop]
                for index, obj_id, size, time, cells in zip(
                    range(block, stop),
                    ids.tolist(),
                    sizes[block:stop].tolist(),
                    times[block:stop].tolist(),
                    hash_cells(ids),
                ):
                    self._cells = cells
                    request(Request(time, obj_id, size, index))
        finally:
            self._cells = None

    def _frequency(self, req: Request) -> int:
        """The sketch's estimate for ``req``, the request in flight."""
        cells = self._cells
        if cells is None:
            return self._sketch.estimate(req.obj_id)
        return self._sketch.estimate_at(cells)

    def _on_access(self, req: Request) -> None:
        cells = self._cells
        if cells is None:
            self._sketch.add(req.obj_id)
        else:
            self._sketch.add_at(cells)
        self._increments += 1
        if self._increments >= max(1024, self._sample_multiplier * max(self.num_objects, 1)):
            self._sketch.age()
            self._increments = 0

    def _victim_frequency(self, victim: int) -> int:
        """The sketch's estimate for ``victim``, a cached object."""
        return self._sketch.estimate_at(self._cached_cells[victim])

    def _on_admit(self, req: Request) -> None:
        cells = self._cells
        if cells is None:
            cells = self._sketch._cells(req.obj_id)
        self._cached_cells[req.obj_id] = cells

    def _on_evict(self, obj_id: int) -> None:
        del self._cached_cells[obj_id]

    def metadata_bytes(self) -> int:
        return super().metadata_bytes() + self._sketch.metadata_bytes()


class TinyLfuCache(_SketchAdmission):
    """Plain TinyLFU: LRU eviction with frequency-duel admission."""

    name = "tinylfu"

    def __init__(
        self,
        capacity: int,
        sketch_width: int = 16_384,
        sample_multiplier: int = 10,
    ):
        super().__init__(capacity, sketch_width, sample_multiplier)
        self._order: OrderedDict[int, None] = OrderedDict()

    def _on_hit(self, req: Request) -> None:
        self._order.move_to_end(req.obj_id)

    def _should_admit(self, req: Request) -> bool:
        if self._used + req.size <= self.capacity or not self._order:
            return True
        victim = next(iter(self._order))
        return self._frequency(req) > self._victim_frequency(victim)

    def _on_admit(self, req: Request) -> None:
        super()._on_admit(req)
        self._order[req.obj_id] = None

    def _on_evict(self, obj_id: int) -> None:
        super()._on_evict(obj_id)
        self._order.pop(obj_id, None)

    def _select_victim(self, incoming: Request) -> int:
        return next(iter(self._order))


class _Segment:
    """Byte-accounted LRU segment for W-TinyLFU's window/probation/protected."""

    def __init__(self) -> None:
        self._items: OrderedDict[int, int] = OrderedDict()
        self.bytes = 0

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self._items

    def __len__(self) -> int:
        return len(self._items)

    def add(self, obj_id: int, size: int) -> None:
        self._items[obj_id] = size
        self.bytes += size

    def touch(self, obj_id: int) -> None:
        self._items.move_to_end(obj_id)

    def remove(self, obj_id: int) -> int:
        size = self._items.pop(obj_id)
        self.bytes -= size
        return size

    def lru(self) -> int:
        return next(iter(self._items))


class WTinyLfuCache(_SketchAdmission):
    """W-TinyLFU: admission window + TinyLFU-filtered segmented-LRU main.

    Caffeine's default window is 1% of capacity, which is tuned for
    unit-size in-memory entries; with CDN-size objects (tens of MB) a 1%
    window holds at most a couple of objects and the policy degenerates,
    so the default here is 10% (Caffeine's adaptive sizing moves toward
    larger windows on such workloads too).  The main region is 20%
    probation / 80% protected, and ties in the frequency duel go to the
    fresher candidate.
    """

    name = "w-tinylfu"

    def __init__(
        self,
        capacity: int,
        window_fraction: float = 0.1,
        protected_fraction: float = 0.8,
        sketch_width: int = 16_384,
        sample_multiplier: int = 10,
    ):
        super().__init__(capacity, sketch_width, sample_multiplier)
        if not 0.0 < window_fraction < 1.0:
            raise ValueError("window_fraction must lie in (0, 1)")
        if not 0.0 < protected_fraction < 1.0:
            raise ValueError("protected_fraction must lie in (0, 1)")
        self._window_capacity = max(int(capacity * window_fraction), 1)
        main_capacity = capacity - self._window_capacity
        self._protected_capacity = int(main_capacity * protected_fraction)
        self._window = _Segment()
        self._probation = _Segment()
        self._protected = _Segment()

    def _on_hit(self, req: Request) -> None:
        if req.obj_id in self._window:
            self._window.touch(req.obj_id)
        elif req.obj_id in self._protected:
            self._protected.touch(req.obj_id)
        else:
            # Probation hit: promote to protected, demoting overflow back.
            size = self._probation.remove(req.obj_id)
            self._protected.add(req.obj_id, size)
            while self._protected.bytes > self._protected_capacity and len(
                self._protected
            ) > 1:
                demoted = self._protected.lru()
                demoted_size = self._protected.remove(demoted)
                self._probation.add(demoted, demoted_size)

    def _should_admit(self, req: Request) -> bool:
        # The TinyLFU duel runs at admission time: when the cache is full,
        # the incoming object must beat the would-be victim's frequency to
        # enter.  While there is free space everything is admitted (the
        # window absorbs new arrivals unfiltered).
        if self._used + req.size <= self.capacity:
            return True
        victim = self._select_victim(req)
        return self._frequency(req) >= self._victim_frequency(victim)

    def _on_admit(self, req: Request) -> None:
        super()._on_admit(req)
        self._window.add(req.obj_id, req.size)
        # Window overflow spills into probation (no drop — eviction is the
        # base loop's job, driven by _select_victim).
        while self._window.bytes > self._window_capacity and len(self._window) > 1:
            spilled = self._window.lru()
            size = self._window.remove(spilled)
            self._probation.add(spilled, size)

    def _on_evict(self, obj_id: int) -> None:
        super()._on_evict(obj_id)
        for segment in (self._window, self._probation, self._protected):
            if obj_id in segment:
                segment.remove(obj_id)
                return

    def _select_victim(self, incoming: Request) -> int:
        if len(self._probation):
            return self._probation.lru()
        if len(self._protected):
            return self._protected.lru()
        return self._window.lru()
