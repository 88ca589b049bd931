"""Request and trace records — the common currency of the whole package.

Every policy, bound and prototype consumes a stream of
``(time, content id, size)`` tuples; nothing downstream depends on where
the stream came from (synthetic generator, production stand-in or a CSV on
disk).

A :class:`Trace` holds that stream in one of two forms.  Generators and
loaders return the checked columns of a
:class:`~repro.traces.packed.PackedTrace` (``PackedTrace.unpack``); the
replay engine packs such a trace back to those same columns without
building a single :class:`Request`.  Code that reads the trace as
requests (``requests``, iteration, indexing) builds the ``Request`` list
once, and from then on that list is the trace.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

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


class Trace:
    """A request trace with optional provenance metadata.

    Built from a ``Request`` list (re-indexed in list order), or by
    :meth:`PackedTrace.unpack <repro.traces.packed.PackedTrace.unpack>`
    from checked columns.  A column-backed trace builds its ``Request``
    list on the first read of :attr:`requests`, iteration, indexing or
    ``==`` against a list-backed trace; after that read the list is the
    trace, and editing it changes what packs.  ``len``, :attr:`duration`,
    :meth:`total_bytes`, :meth:`unique_contents`, :meth:`unique_bytes`,
    pickling and ``==`` between two column-backed traces read the columns
    while the trace has them.
    """

    def __init__(
        self,
        requests: list[Request],
        name: str = "trace",
        metadata: dict | None = None,
    ) -> None:
        self._columns = None
        self._requests = [
            req if req.index == idx else Request(req.time, req.obj_id, req.size, idx)
            for idx, req in enumerate(requests)
        ]
        self.name = name
        self.metadata = {} if metadata is None else metadata

    @classmethod
    def _of_columns(cls, columns, name: str, metadata: dict) -> "Trace":
        """A trace reading from ``columns`` (a checked ``PackedTrace``)."""
        trace = cls.__new__(cls)
        trace._columns = columns
        trace._requests = None
        trace.name = name
        trace.metadata = metadata
        return trace

    @property
    def columns(self):
        """The :class:`~repro.traces.packed.PackedTrace` this trace still
        reads from, or None once it has been read as requests."""
        return self._columns

    @property
    def requests(self) -> list[Request]:
        """The trace as ``Request`` records, each carrying its index."""
        if self._requests is None:
            columns = self._columns
            self._requests = [
                Request(t, o, s, i)
                for i, (t, o, s) in enumerate(
                    zip(
                        columns.times.tolist(),
                        columns.obj_ids.tolist(),
                        columns.sizes.tolist(),
                    )
                )
            ]
            self._columns = None
        return self._requests

    @requests.setter
    def requests(self, requests: list[Request]) -> None:
        self._requests = requests
        self._columns = None

    def __len__(self) -> int:
        columns = self._columns
        return len(self._requests) if columns is None else len(columns)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Trace(list(self.requests[item]), name=self.name, metadata=dict(self.metadata))
        return self.requests[item]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.name, self.metadata) != (other.name, other.metadata):
            return False
        mine, theirs = self._columns, other._columns
        if mine is None or theirs is None:
            return self.requests == other.requests
        return all(
            np.array_equal(getattr(mine, column), getattr(theirs, column))
            for column in ("times", "obj_ids", "sizes")
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, requests={len(self)}, "
            f"metadata={self.metadata!r})"
        )

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
        if len(self) < 2:
            return 0.0
        columns = self._columns
        if columns is None:
            return self._requests[-1].time - self._requests[0].time
        return float(columns.times[-1]) - float(columns.times[0])

    def unique_contents(self) -> dict[int, int]:
        """Map of content id -> size for every distinct content, in order
        of first request (its last requested size: a content may change
        size)."""
        columns = self._columns
        if columns is None:
            return {req.obj_id: req.size for req in self._requests}
        return dict(zip(columns.obj_ids.tolist(), columns.sizes.tolist()))

    def total_bytes(self) -> int:
        columns = self._columns
        if columns is None:
            return sum(req.size for req in self._requests)
        # Python ints, as the loop sums: an int64 column sum could wrap.
        return sum(columns.sizes.tolist())

    def unique_bytes(self) -> int:
        return sum(self.unique_contents().values())
