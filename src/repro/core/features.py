"""Per-content feature extraction (Section 5.2.1).

LHR's feature vector for content ``i`` at time ``t`` is:

* ``IRT_1`` — time since the content's last request (dynamic; recomputed
  at prediction time),
* ``IRT_2 .. IRT_k`` — the content's most recent inter-request gaps,
* static features — log size, lifetime request count, age since first
  request.

The paper evaluates 10-30 IRTs (Figure 6) and settles on 20; the store
keeps up to ``max_irts`` gaps per content and can emit vectors with any
smaller ``num_irts``, which is what the Figure 6 ablation sweeps.

Missing IRTs (young contents) are filled with ``missing_value`` — a large
sentinel that the tree model can split away from real gaps.

Gaps live in fixed-size per-content ring buffers (most recent at the
ring head, the appendleft order the model was designed around) so
``vector`` fills the IRT block with at most two array-slice copies
instead of a Python loop over a deque.  A content's ring is allocated by
its first gap: most contents are requested once and never need one.
"""

from __future__ import annotations

import numpy as np

from repro.traces.request import Request

#: Default sentinel for unavailable inter-request times.
DEFAULT_MISSING = 1.0e9

#: Number of static (non-IRT) features appended to the vector.
NUM_STATIC_FEATURES = 3


def feature_dim(num_irts: int) -> int:
    """Length of a feature vector with ``num_irts`` inter-request times."""
    return num_irts + NUM_STATIC_FEATURES


class _ContentRecord:
    __slots__ = ("gaps", "head", "length", "last_time", "first_time", "count", "size")

    def __init__(self, time: float, size: int):
        # Ring buffer of recent gaps, most recent at ``head`` and older
        # entries following (wrapping); ``length`` counts the filled slots.
        # None until the first gap: only a ring with ``length > 0`` is read.
        self.gaps: np.ndarray | None = None
        self.head = 0
        self.length = 0
        self.last_time = time
        self.first_time = time
        self.count = 1
        self.size = size

    def push_gap(self, gap: float, capacity: int) -> int:
        """Prepend a gap (appendleft semantics) to a ring of ``capacity``
        slots, allocated on the first push; returns slots grown (0/1)."""
        if capacity == 0:
            return 0
        buf = self.gaps
        if buf is None:
            buf = self.gaps = np.empty(capacity, dtype=np.float64)
        head = self.head - 1
        if head < 0:
            head = capacity - 1
        buf[head] = gap
        self.head = head
        if self.length < capacity:
            self.length += 1
            return 1
        return 0


class FeatureStore:
    """Tracks request history per content and emits feature vectors.

    Parameters
    ----------
    max_irts:
        Gaps retained per content (>= the largest ``num_irts`` requested).
    missing_value:
        Sentinel for IRTs that do not exist yet.
    """

    def __init__(self, max_irts: int = 32, missing_value: float = DEFAULT_MISSING):
        if max_irts < 1:
            raise ValueError("max_irts must be >= 1")
        self.max_irts = max_irts
        self.missing_value = missing_value
        self._records: dict[int, _ContentRecord] = {}
        #: Total filled gap slots across contents — maintained
        #: incrementally so ``metadata_bytes`` is O(1) under the engine's
        #: probe loop instead of walking every record.
        self._gap_slots = 0

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self._records

    def observe(self, req: Request) -> None:
        """Record a request (call once per request, before ``vector``)."""
        self.observe_scalar(req.obj_id, req.size, req.time)

    def observe_scalar(self, obj_id: int, size: int, time: float) -> None:
        """``observe`` without a ``Request`` — the columnar fast path."""
        record = self._records.get(obj_id)
        if record is None:
            self._records[obj_id] = _ContentRecord(time, size)
            return
        self._gap_slots += record.push_gap(
            time - record.last_time, self.max_irts - 1
        )
        record.last_time = time
        record.count += 1

    def last_access(self, obj_id: int) -> float | None:
        record = self._records.get(obj_id)
        return record.last_time if record is not None else None

    def request_count(self, obj_id: int) -> int:
        record = self._records.get(obj_id)
        return record.count if record is not None else 0

    def vector(self, obj_id: int, now: float, num_irts: int = 20) -> np.ndarray:
        """Feature vector for ``obj_id`` at time ``now``.

        ``IRT_1`` is ``now - last_request``; the remaining IRTs come from
        the stored gaps (most recent first).  Unknown contents get an
        all-missing IRT block with zero static features.
        """
        if num_irts < 1 or num_irts > self.max_irts:
            raise ValueError(f"num_irts must lie in [1, {self.max_irts}]")
        row = np.empty(feature_dim(num_irts), dtype=np.float64)
        record = self._records.get(obj_id)
        if record is None:
            row[:num_irts] = self.missing_value
            row[num_irts:] = 0.0
            return row
        row[0] = now - record.last_time
        length = record.length
        available = length if length < num_irts - 1 else num_irts - 1
        if available:
            buf = record.gaps
            head = record.head
            first = buf.shape[0] - head
            if first >= available:
                row[1 : 1 + available] = buf[head : head + available]
            else:
                row[1 : 1 + first] = buf[head:]
                row[1 + first : 1 + available] = buf[: available - first]
        row[1 + available : num_irts] = self.missing_value
        row[num_irts] = np.log1p(record.size)
        row[num_irts + 1] = record.count
        row[num_irts + 2] = now - record.first_time
        return row

    def feature_matrix(
        self,
        obj_ids,
        sizes,
        times,
        begin: int,
        end: int,
        num_irts: int = 20,
    ) -> np.ndarray:
        """Feature rows for a span of requests, in one gather.

        Row ``k`` equals ``vector(obj_ids[begin + k], times[begin + k])``
        evaluated *as if* every earlier request in the span had already
        been observed — without mutating the store.  Repeats inside the
        span are handled by a virtual overlay: per object we track the
        pending last-access time, count delta and the gaps the span
        would have pushed, and compose them with the real record at
        emit time.  Every float op (gap subtraction, ``log1p``, age)
        matches the interleaved ``vector``/``observe_scalar`` sequence
        exactly, so the rows are bit-identical to the scalar path's.

        The caller observes the requests afterwards as usual; the store
        is left untouched here.
        """
        if num_irts < 1 or num_irts > self.max_irts:
            raise ValueError(f"num_irts must lie in [1, {self.max_irts}]")
        n = end - begin
        dim = feature_dim(num_irts)
        matrix = np.empty((n, dim), dtype=np.float64)
        matrix[:, :num_irts] = self.missing_value
        ids = list(obj_ids[begin:end])
        szs = list(sizes[begin:end])
        tms = times[begin:end]
        tms_list = tms.tolist() if hasattr(tms, "tolist") else list(tms)
        records = self._records
        cap = num_irts - 1
        lasts = [0.0] * n
        counts = [0] * n
        firsts = [0.0] * n
        raw_sizes = [0] * n
        unknown: list[int] = []
        # obj_id -> [last_time, virtual_count, first_time, size, gaps]
        # ``gaps`` accumulates oldest-to-newest (appended), read reversed.
        pending: dict[int, list] = {}
        for k in range(n):
            oid = ids[k]
            now = tms_list[k]
            pend = pending.get(oid)
            record = records.get(oid)
            if pend is None and record is None:
                unknown.append(k)
            else:
                if pend is not None:
                    lasts[k] = pend[0]
                    if record is not None:
                        counts[k] = record.count + pend[1]
                        firsts[k] = record.first_time
                        raw_sizes[k] = record.size
                    else:
                        counts[k] = pend[1]
                        firsts[k] = pend[2]
                        raw_sizes[k] = pend[3]
                    pgaps = pend[4]
                    npend = len(pgaps)
                    if npend > cap:
                        npend = cap
                    if npend:
                        matrix[k, 1 : 1 + npend] = pgaps[: -npend - 1 : -1]
                    start = 1 + npend
                    room = cap - npend
                else:
                    lasts[k] = record.last_time
                    counts[k] = record.count
                    firsts[k] = record.first_time
                    raw_sizes[k] = record.size
                    start = 1
                    room = cap
                if record is not None and room > 0:
                    length = record.length
                    available = length if length < room else room
                    if available:
                        buf = record.gaps
                        head = record.head
                        first = buf.shape[0] - head
                        if first >= available:
                            matrix[k, start : start + available] = buf[
                                head : head + available
                            ]
                        else:
                            matrix[k, start : start + first] = buf[head:]
                            matrix[k, start + first : start + available] = buf[
                                : available - first
                            ]
            # Virtual observe of request k, mirroring ``observe_scalar``.
            if pend is None:
                if record is None:
                    pending[oid] = [now, 1, now, szs[k], []]
                else:
                    pending[oid] = [now, 1, 0.0, 0, [now - record.last_time]]
            else:
                pend[4].append(now - pend[0])
                pend[0] = now
                pend[1] += 1
        times_col = np.asarray(tms_list, dtype=np.float64)
        matrix[:, 0] = times_col - np.asarray(lasts, dtype=np.float64)
        matrix[:, num_irts] = np.log1p(np.asarray(raw_sizes, dtype=np.float64))
        matrix[:, num_irts + 1] = counts
        matrix[:, num_irts + 2] = times_col - np.asarray(firsts, dtype=np.float64)
        if unknown:
            matrix[unknown, :num_irts] = self.missing_value
            matrix[unknown, num_irts:] = 0.0
        return matrix

    def prune(self, now: float, horizon: float) -> int:
        """Forget contents idle for more than ``horizon`` seconds.

        Bounds the store's memory to roughly the contents active within
        the last few sliding windows.  Returns the number pruned.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        stale = [
            obj_id
            for obj_id, record in self._records.items()
            if now - record.last_time > horizon
        ]
        for obj_id in stale:
            self._gap_slots -= self._records.pop(obj_id).length
        return len(stale)

    def metadata_bytes(self) -> int:
        """Approximate footprint: gaps + 4 scalars per content."""
        return 8 * (self._gap_slots + 4 * len(self._records))
