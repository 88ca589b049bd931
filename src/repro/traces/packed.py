"""Columnar trace representation — the replay engine's native format.

``PackedTrace`` holds a request trace as three primitive NumPy columns
``(times, obj_ids, sizes)``, checked once against the trace input
contract (:func:`checked_columns`):

* :func:`repro.sim.engine.simulate` replays every trace from these
  columns, handing them to ``CachePolicy.replay_span`` one chunk
  ``[begin, end)`` at a time — native span kernels allocate no
  per-request ``Request`` on the hot path,
* it pickles in a few contiguous buffers instead of per-object records,
* :class:`SharedTraceBuffers` places the columns in POSIX shared memory
  once so sweep workers map them read-only instead of unpickling their
  own copy of a million-request trace.

A :class:`~repro.traces.request.Trace` is the same stream read as
``Request`` records.  ``unpack()`` returns a ``Trace`` that holds these
columns and builds its ``Request`` list only when something reads it;
until then :meth:`PackedTrace.from_trace` hands the columns straight
back.  Every generator and loader ends in ``unpack()``, so a generated
trace reaches the replay loop without one ``Request`` being built.
``CachePolicy.request`` remains the semantic reference: the equivalence
suites (``tests/sim/test_fastpath.py``,
``tests/sim/test_span_differential.py``) pin every span kernel to
bit-identical hit/miss streams.

The column contract: a span kernel receives these NumPy columns whole,
with global ``[begin, end)``, and turns into Python lists only its
chunk's slice of the columns it reads (``col[begin:end].tolist()``).
No replay keeps a whole-trace list, and this class caches none, so a
replay holds the columns plus the cache's live state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro.traces.request import _NOT_INT64, Trace, _fits_int64


def _int64_column(values) -> tuple[np.ndarray, np.ndarray | None]:
    """``values`` as int64, and a mask of those that are not an integer
    that fits int64 (stored as 1); None when all are signed integers."""
    raw = np.asarray(values)
    if raw.dtype.kind in "bi":
        return raw.astype(np.int64, copy=False), None
    # Floats, unsigned or huge Python ints: compare exactly (NaN never fits).
    misfits = np.array(
        [not _fits_int64(v) for v in raw.tolist()],
        dtype=bool,
    )
    return np.where(misfits, 1, raw).astype(np.int64), misfits


def checked_columns(
    times, obj_ids, sizes, where="request {}".format
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trace input contract: ``(times, obj_ids, sizes)`` as float64,
    int64 and int64 columns, or ``ValueError`` at the first request that
    breaks it.

    A time must be finite, non-negative and no lower than the time
    before it.  An id must be an integer, and a size a positive integer,
    that fits int64.  A content may change size.  The error names
    ``where(index)`` (a loader maps the index to ``path:line``), the
    rule and the value.  A request that breaks several rules reports the
    first in that order, so ``[0, inf, 1]`` fails on the infinite time,
    not on the decrease after it.
    """
    times = np.asarray(times, dtype=np.float64)
    id_column, id_misfits = _int64_column(obj_ids)
    size_column, size_misfits = _int64_column(sizes)
    rules = (
        (
            ~((times >= 0.0) & (times < np.inf)),
            lambda i: f"time must be finite and non-negative, got {times[i]}",
        ),
        (
            np.concatenate(([False], times[1:] < times[:-1])),
            lambda i: f"time {times[i]} decreases from {times[i - 1]}",
        ),
        (id_misfits, lambda i: f"obj_id={obj_ids[i]} {_NOT_INT64}"),
        (size_misfits, lambda i: f"size={sizes[i]} {_NOT_INT64}"),
        (size_column <= 0, lambda i: f"size must be positive, got {sizes[i]}"),
    )
    # The first request that breaks a rule, and the first rule it breaks.
    broken = [
        (int(mask.argmax()), rank)
        for rank, (mask, _) in enumerate(rules)
        if mask is not None and mask.any()
    ]
    if broken:
        index, rank = min(broken)
        raise ValueError(f"{where(index)}: {rules[rank][1](index)}")
    return times, id_column, size_column


@dataclass(frozen=True)
class PackedTrace:
    """Columnar ``(times, obj_ids, sizes)`` view of a request trace.

    ``times`` is float64; ``obj_ids`` and ``sizes`` are int64.  The
    ``from_*`` constructors check their input with :func:`checked_columns`.
    """

    times: np.ndarray
    obj_ids: np.ndarray
    sizes: np.ndarray
    name: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {
            self.times.shape[0],
            self.obj_ids.shape[0],
            self.sizes.shape[0],
        }
        if len(lengths) != 1:
            raise ValueError(
                "packed columns disagree on length: "
                f"times={self.times.shape[0]}, obj_ids={self.obj_ids.shape[0]}, "
                f"sizes={self.sizes.shape[0]}"
            )

    @classmethod
    def from_trace(cls, trace: Trace) -> "PackedTrace":
        """Pack ``trace``: the columns of a trace never read as requests,
        as they are (they were checked when packed), or else its
        ``Request`` list, checked against :func:`checked_columns`."""
        held = trace.columns
        if held is not None:
            return cls(
                held.times, held.obj_ids, held.sizes, trace.name, dict(trace.metadata)
            )
        # Each list becomes an array before the next is built: one list
        # alive at a time sets packing's peak memory.
        columns = checked_columns(
            np.asarray([req.time for req in trace], dtype=np.float64),
            np.asarray([req.obj_id for req in trace]),
            np.asarray([req.size for req in trace]),
        )
        return cls(*columns, trace.name, dict(trace.metadata))

    @classmethod
    def from_arrays(
        cls,
        times,
        obj_ids,
        sizes,
        name: str = "trace",
        metadata: dict | None = None,
    ) -> "PackedTrace":
        """Build from array-likes, checking them against
        :func:`checked_columns`."""
        columns = checked_columns(times, obj_ids, sizes)
        return cls(*columns, name, dict(metadata or {}))

    def unpack(self) -> Trace:
        """This trace as a :class:`Trace` that holds these columns; it
        builds its ``Request`` list (requests carry their indices) only
        when first read."""
        return Trace._of_columns(self, self.name, dict(self.metadata))

    def scalar_columns(self) -> tuple[list, list, list]:
        """``(obj_ids, sizes, times)`` as plain Python lists, built anew
        on every call; replays never need them (see the module
        docstring)."""
        return self.obj_ids.tolist(), self.sizes.tolist(), self.times.tolist()

    def iter_scalars(self):
        """Yield ``(obj_id, size, time)`` per request, in trace order."""
        obj_ids, sizes, times = self.scalar_columns()
        return zip(obj_ids, sizes, times)

    def __len__(self) -> int:
        return int(self.times.shape[0])


# ----------------------------------------------------------------------
# Shared-memory transport (driver creates, workers attach read-only)
# ----------------------------------------------------------------------

#: Segment names created by this process and not yet released — the leak
#: check surface for tests and post-mortem debugging.
_LIVE_SEGMENTS: set[str] = set()


def live_segment_names() -> tuple[str, ...]:
    """Names of shared trace segments this process currently owns."""
    return tuple(sorted(_LIVE_SEGMENTS))


@dataclass(frozen=True)
class SharedTraceDescriptor:
    """Picklable handle a worker needs to map a shared packed trace."""

    segment: str
    count: int
    name: str
    metadata: dict = field(default_factory=dict)


class SharedTraceBuffers:
    """Driver-side owner of one shared-memory segment holding the packed
    columns back to back (``times | obj_ids | sizes``, 24 bytes/request).

    The creating process owns the segment's lifetime: ``release()`` (or
    process exit via the resource tracker) unlinks it.  Workers attach
    through :func:`attach_shared_trace` with the picklable ``descriptor``.
    """

    def __init__(self, shm: shared_memory.SharedMemory, descriptor: SharedTraceDescriptor):
        self._shm = shm
        self.descriptor = descriptor
        self._released = False

    @classmethod
    def create(cls, packed: PackedTrace) -> "SharedTraceBuffers":
        count = len(packed)
        # A zero-length segment is invalid; one spare byte keeps the empty
        # trace on the same code path.
        shm = shared_memory.SharedMemory(create=True, size=max(24 * count, 1))
        try:
            np.ndarray(count, dtype=np.float64, buffer=shm.buf)[:] = packed.times
            np.ndarray(count, dtype=np.int64, buffer=shm.buf, offset=8 * count)[
                :
            ] = packed.obj_ids
            np.ndarray(count, dtype=np.int64, buffer=shm.buf, offset=16 * count)[
                :
            ] = packed.sizes
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        descriptor = SharedTraceDescriptor(
            segment=shm.name,
            count=count,
            name=packed.name,
            metadata=dict(packed.metadata),
        )
        _LIVE_SEGMENTS.add(shm.name)
        return cls(shm, descriptor)

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Close and unlink the segment; safe to call more than once."""
        if self._released:
            return
        self._released = True
        _LIVE_SEGMENTS.discard(self._shm.name)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover — already gone
            pass


def attach_shared_trace(
    descriptor: SharedTraceDescriptor,
) -> tuple[PackedTrace, shared_memory.SharedMemory]:
    """Map a shared packed trace read-only (worker side).

    Returns the columnar view plus the ``SharedMemory`` handle the caller
    must keep alive while the arrays are in use (dropping it invalidates
    the buffer).

    Resource-tracker note: ``SharedMemory`` registers every attach with
    the resource tracker, which sweep workers *share* with the driver
    (both fork and spawn children inherit the tracker process), so the
    duplicate registration is an idempotent set-add there.  The driver's
    ``release()`` unlinks and removes the single cache entry; explicitly
    unregistering here would strip the driver's registration instead —
    producing tracker KeyError noise at exit and losing the crash
    protection that unlinks the segment if the driver dies hard.
    """
    shm = shared_memory.SharedMemory(name=descriptor.segment)
    count = descriptor.count
    times = np.ndarray(count, dtype=np.float64, buffer=shm.buf)
    obj_ids = np.ndarray(count, dtype=np.int64, buffer=shm.buf, offset=8 * count)
    sizes = np.ndarray(count, dtype=np.int64, buffer=shm.buf, offset=16 * count)
    for column in (times, obj_ids, sizes):
        column.flags.writeable = False
    packed = PackedTrace(
        times, obj_ids, sizes, descriptor.name, dict(descriptor.metadata)
    )
    return packed, shm
