"""Request and trace records — the common currency of the whole package.

Every policy, bound and prototype consumes a stream of
``(time, content id, size)`` tuples; nothing downstream depends on where
the stream came from (synthetic generator, production stand-in or a CSV on
disk).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

_INF = math.inf
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_NOT_INT64 = "is not an integer that fits int64"


def _fits_int64(value) -> bool:
    """The trace contract's id and size rule: an integer that fits int64
    (NaN and infinities compare False, so they never fit)."""
    return _INT64_MIN <= value <= _INT64_MAX and value == int(value)


@dataclass(frozen=True, slots=True, init=False)
class Request:
    """A single content request.

    Attributes
    ----------
    time:
        Arrival timestamp in seconds.  A trace's times must not decrease;
        :func:`repro.traces.packed.checked_columns` holds the whole trace
        input contract.
    obj_id:
        Integer content identifier.
    size:
        Content size in bytes.
    index:
        Zero-based sequence number within the trace; ``-1`` if unknown.
    """

    time: float
    obj_id: int
    size: int
    index: int = -1

    def __init__(self, time: float, obj_id: int, size: int, index: int = -1) -> None:
        # Written by hand because every replayed request builds one: the
        # generated frozen ``__init__`` sets each field through
        # ``object.__setattr__``, while this one validates first and then
        # writes the slots through their descriptors.
        if size <= 0:
            raise ValueError(f"request size must be positive, got {size}")
        # One chain rejects negative, NaN (every comparison is False) and
        # infinite times, at the cost of a single ``time < 0``.
        if not 0.0 <= time < _INF:
            raise ValueError(
                f"request time must be finite and non-negative, got {time}"
            )
        _set_time(self, time)
        _set_obj_id(self, obj_id)
        _set_size(self, size)
        _set_index(self, index)


# Slot descriptors' setters: they bypass the frozen ``__setattr__``.
_set_time = Request.time.__set__
_set_obj_id = Request.obj_id.__set__
_set_size = Request.size.__set__
_set_index = Request.index.__set__


@dataclass
class Trace:
    """A materialized request trace with optional provenance metadata."""

    requests: list[Request]
    name: str = "trace"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.requests = [
            req if req.index == idx else Request(req.time, req.obj_id, req.size, idx)
            for idx, req in enumerate(self.requests)
        ]

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Trace(list(self.requests[item]), name=self.name, metadata=dict(self.metadata))
        return self.requests[item]

    @classmethod
    def from_tuples(
        cls, rows: Iterable[tuple[float, int, int]], name: str = "trace"
    ) -> "Trace":
        """Build a trace from ``(time, obj_id, size)`` tuples.

        An id or size that is not an integer fitting int64 raises
        ``ValueError`` in the trace contract's words instead of being
        truncated; the time order is checked where the trace is packed
        (:func:`repro.traces.packed.checked_columns`).
        """
        requests = []
        for i, (t, o, s) in enumerate(rows):
            for field_name, value in (("obj_id", o), ("size", s)):
                if not _fits_int64(value):
                    raise ValueError(f"request {i}: {field_name}={value} {_NOT_INT64}")
            requests.append(Request(time=float(t), obj_id=int(o), size=int(s), index=i))
        return cls(requests, name=name)

    @property
    def duration(self) -> float:
        """Trace span in seconds (0 for traces with fewer than 2 requests)."""
        if len(self.requests) < 2:
            return 0.0
        return self.requests[-1].time - self.requests[0].time

    def unique_contents(self) -> dict[int, int]:
        """Map of content id -> size for every distinct content (its last
        requested size: a content may change size)."""
        sizes: dict[int, int] = {}
        for req in self.requests:
            sizes[req.obj_id] = req.size
        return sizes

    def total_bytes(self) -> int:
        return sum(req.size for req in self.requests)

    def unique_bytes(self) -> int:
        return sum(self.unique_contents().values())
