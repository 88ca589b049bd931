"""Structured event log: typed JSONL events with a no-op fast path.

Events are flat dicts with an ``event`` type drawn from a registered
catalog (:data:`EVENT_TYPES`), a monotonically increasing ``seq`` number
assigned by the recorder, and event-specific fields.  Recorders never
stamp wall-clock time — emitters pass simulation time when it matters —
so event streams from repeated runs of a seeded simulation are
byte-identical, which is what the parallel/serial equivalence tests pin.

The catalog (see ``docs/OBSERVABILITY.md`` for field-level details):

* ``sim.window`` — one reporting window of the replay loop closed.
* ``lhr.retrain`` — the LHR admission model was (re)trained.
* ``lhr.drift`` — the Zipf-alpha drift detector inspected a window.
* ``lhr.threshold_update`` — the admission threshold was re-estimated.
* ``sweep.cell_start`` / ``sweep.cell_done`` / ``sweep.cell_failed`` —
  lifecycle of one (policy, capacity) sweep cell.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO

#: The known event catalog.  ``register_event_type`` extends it (e.g. a
#: later subsystem adding its own lifecycle events).
EVENT_TYPES: set[str] = {
    "sim.window",
    "lhr.retrain",
    "lhr.drift",
    "lhr.threshold_update",
    "sweep.cell_start",
    "sweep.cell_done",
    "sweep.cell_failed",
}


def register_event_type(name: str) -> str:
    """Add a new event type to the catalog; returns the name."""
    if not name or "." not in name:
        raise ValueError(
            f"event type must look like 'subsystem.event', got {name!r}"
        )
    EVENT_TYPES.add(name)
    return name


class NullRecorder:
    """The disabled recorder: every emit is a no-op.

    ``enabled`` is False so instrumentation sites can skip building the
    event payload entirely — the disabled path costs one attribute check.

    Every recorder is a context manager: ``__exit__`` closes, and close
    implies flush, so an exception mid-run can never truncate an event
    log held open by a recorder used via ``with``.
    """

    enabled = False

    def emit(self, event: str, **fields) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryRecorder(NullRecorder):
    """Collects events in memory — tests, and the worker side of a
    parallel sweep (events ship back to the parent with the result)."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: str, **fields) -> None:
        if event not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event!r}; register it first")
        self.events.append({"event": event, "seq": len(self.events), **fields})

    def by_type(self, event: str) -> list[dict]:
        return [e for e in self.events if e["event"] == event]


def _json_default(value):
    """Fallback serializer for event fields ``json`` can't encode.

    Numpy scalars unwrap via ``.item()`` (instrumentation sites often
    pass them straight out of arrays); anything else degrades to
    ``repr`` — a lossy but never-crashing event beats a lost one.
    """
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except Exception:
            pass
    return repr(value)


class JsonlRecorder(NullRecorder):
    """Appends one JSON object per event to a file (JSON Lines).

    Durability: ``flush`` pushes buffered events to the OS and ``close``
    (hence context-manager exit) always flushes first, so a run that
    exits cleanly — or crashes anywhere outside a partially buffered
    write — leaves a replayable log the run ledger can ingest.  Pass
    ``fsync=True`` to additionally ``os.fsync`` on every flush/close for
    power-loss durability (measurably slower; off by default).  A log
    truncated mid-line by a hard kill is still readable via
    :func:`read_events_jsonl` with ``strict=False``.
    """

    enabled = True

    def __init__(self, path: str | Path, fsync: bool = False):
        self.path = Path(path)
        self.fsync = fsync
        self._file: IO[str] | None = self.path.open("w")
        self._seq = 0

    def emit(self, event: str, **fields) -> None:
        if event not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event!r}; register it first")
        if self._file is None:
            raise RuntimeError("recorder is closed")
        record = {"event": event, "seq": self._seq, **fields}
        self._seq += 1
        self._file.write(
            json.dumps(record, sort_keys=False, default=_json_default) + "\n"
        )

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None


def read_events_jsonl(path: str | Path, strict: bool = True) -> list[dict]:
    """Read an event log written by :class:`JsonlRecorder`.

    With ``strict=False`` a final line truncated mid-write (the process
    was killed between a flush and the next one) is skipped instead of
    raising, so a crashed run's log remains ingestible; malformed JSON
    anywhere *before* the last line still raises — that is corruption,
    not a crash artifact.
    """
    lines = Path(path).read_text().splitlines()
    events: list[dict] = []
    for number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if not strict and number == len(lines) - 1:
                break  # torn trailing write from a killed process
            raise ValueError(
                f"{path}: line {number + 1} is not valid JSON: {line[:80]!r}"
            ) from None
    return events


class TextRecorder(NullRecorder):
    """Human-readable one-line-per-event output (the CLI's ``--verbose``)."""

    enabled = True

    def __init__(self, stream: IO[str]):
        self._stream = stream

    def emit(self, event: str, **fields) -> None:
        if event not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event!r}; register it first")
        parts = " ".join(f"{k}={_compact(v)}" for k, v in fields.items())
        self._stream.write(f"[{event}] {parts}\n")

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        # The stream (typically stderr) is borrowed, not owned: flush it
        # so buffered events survive, but never close it.
        self._stream.flush()


def _compact(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class FanoutRecorder(NullRecorder):
    """Broadcasts each event to several recorders (e.g. JSONL + verbose).

    One failing sink never starves the others: every recorder receives
    the event (or the close/flush) before the first exception is
    re-raised, so a crashing verbose stream cannot truncate the JSONL
    log sharing its fanout.
    """

    enabled = True

    def __init__(self, *recorders):
        self.recorders = [r for r in recorders if r is not None]

    def _broadcast(self, method: str, *args, **kwargs) -> None:
        error: BaseException | None = None
        for recorder in self.recorders:
            try:
                getattr(recorder, method)(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 — deliver to all first
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def emit(self, event: str, **fields) -> None:
        self._broadcast("emit", event, **fields)

    def flush(self) -> None:
        self._broadcast("flush")

    def close(self) -> None:
        self._broadcast("close")
