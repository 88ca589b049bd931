"""Span-based timeline tracing: who ran what, when, in which process.

Histograms (:mod:`repro.obs.registry`) answer "how much total time did
GBM refits take", but not *when* — which sweep worker sat idle, which
cell straggled, how a refit lands relative to a window close.  Spans
do: a :class:`SpanRecorder` records begin/end pairs on the monotonic
clock with a name, a category, freeform attributes and a parent (the
innermost span open on the same thread), and the recorded timeline
exports to Chrome trace-event JSON (loadable in Perfetto or
``chrome://tracing``) or feeds :mod:`repro.obs.timeline` for critical-
path and straggler analysis.

Design constraints:

* **Zero disabled cost** — :data:`NULL_SPANS` mirrors the
  :data:`~repro.obs.observation.NULL_OBS` pattern: ``enabled`` is False
  and every method is a shared no-op, so instrumentation sites pay one
  attribute check (or nothing, where the engine hoists the check out of
  the loop).
* **Cross-process mergeable** — spans are stamped with the recording
  process's pid and ship across the sweep's result path as plain dicts;
  :meth:`SpanRecorder.absorb` re-ids them into the driver's recorder
  (optionally reparenting onto the driver's sweep span) so a parallel
  run merges into one coherent multi-process timeline.  Timestamps are
  ``time.perf_counter()`` readings; on Linux that is ``CLOCK_MONOTONIC``,
  which all processes of one boot share, so driver and worker spans
  align without clock translation.
* **Thread-correct nesting** — the open-span stack is thread-local, so
  spans begun on another thread never adopt the driver's replay span as
  a parent.

See ``docs/OBSERVABILITY.md`` ("Timeline tracing") for the span catalog
and CLI usage (``--trace-out``, ``repro timeline``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "NULL_SPANS",
    "Span",
    "SpanRecorder",
    "chrome_trace",
    "write_chrome_trace",
]


@dataclass
class Span:
    """One completed (or in-flight) timeline interval.

    ``end == 0.0`` marks a span still open.  ``parent_pid`` is only set
    when :meth:`SpanRecorder.absorb` reparents a foreign span onto a
    driver span in another process; within one recorder a parent is
    always same-pid.
    """

    span_id: int
    name: str
    cat: str
    start: float
    end: float = 0.0
    pid: int = 0
    tid: int = 0
    parent_id: int | None = None
    parent_pid: int | None = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0) if self.end else 0.0

    def as_dict(self) -> dict:
        payload = {
            "id": self.span_id,
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "tid": self.tid,
            "parent": self.parent_id,
        }
        if self.parent_pid is not None:
            payload["parent_pid"] = self.parent_pid
        if self.args:
            payload["args"] = dict(self.args)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            span_id=int(payload["id"]),
            name=str(payload["name"]),
            cat=str(payload.get("cat", "default")),
            start=float(payload["start"]),
            end=float(payload.get("end", 0.0)),
            pid=int(payload.get("pid", 0)),
            tid=int(payload.get("tid", 0)),
            parent_id=(
                int(payload["parent"]) if payload.get("parent") is not None else None
            ),
            parent_pid=(
                int(payload["parent_pid"])
                if payload.get("parent_pid") is not None
                else None
            ),
            args=dict(payload.get("args", {})),
        )


class _SpanContext:
    """Context manager pairing one begin with its end."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "SpanRecorder", span: Span):
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._recorder.end(self._span)


class SpanRecorder:
    """Collects spans for one process; thread-safe, cheap to carry.

    ``begin``/``end`` are the primitive API (the engine uses them to
    bracket loop phases without ``with``-block restructuring);
    :meth:`span` is the context-manager convenience.  The parent of a
    new span is the innermost span still open *on the calling thread*.
    """

    enabled = True

    def __init__(self, role: str = "driver", clock=time.perf_counter):
        self.role = role
        self.pid = os.getpid()
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        #: Completed spans, in end order.
        self.spans: list[Span] = []
        #: Thread names keyed by the recorder-local small tid.
        self.thread_names: dict[int, str] = {}
        self._tids: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _alloc_id_locked(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _thread_tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
                self.thread_names.setdefault(
                    tid, threading.current_thread().name
                )
        return tid

    def begin(self, name: str, cat: str = "default", **args) -> Span:
        """Open a span; the caller must :meth:`end` it."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._alloc_id_locked()
        span = Span(
            span_id=span_id,
            name=name,
            cat=cat,
            start=self._clock(),
            pid=self.pid,
            tid=self._thread_tid(),
            parent_id=parent,
            args=args,
        )
        stack.append(span)
        return span

    def end(self, span: Span, **args) -> Span:
        """Close ``span``; extra ``args`` merge into its attributes."""
        span.end = self._clock()
        if args:
            span.args.update(args)
        stack = self._stack()
        if span in stack:
            stack.remove(span)
        with self._lock:
            self.spans.append(span)
        return span

    def span(self, name: str, cat: str = "default", **args) -> _SpanContext:
        """``with recorder.span("lhr.gbm_refit", cat="lhr"): ...``"""
        return _SpanContext(self, self.begin(name, cat, **args))

    # ------------------------------------------------------------------
    # Merging (worker → driver)
    # ------------------------------------------------------------------

    def absorb(self, span_dicts, parent: Span | None = None) -> int:
        """Merge foreign spans (as dicts) into this recorder.

        Ids are reallocated from this recorder's counter so two worker
        batches — or an inline cell sharing the driver's pid — can never
        collide; parent links *within* the batch are remapped, and
        batch-top-level spans are reparented onto ``parent`` (a driver
        span, possibly in another process) when given.  Returns the
        number of spans absorbed.
        """
        batch = [Span.from_dict(d) for d in span_dicts or ()]
        if not batch:
            return 0
        with self._lock:
            id_map = {}
            for span in batch:
                old = (span.pid, span.span_id)
                span.span_id = self._alloc_id_locked()
                id_map[old] = span.span_id
            for span in batch:
                if span.parent_id is not None:
                    key = (span.parent_pid or span.pid, span.parent_id)
                    remapped = id_map.get(key)
                    if remapped is not None:
                        span.parent_id = remapped
                        span.parent_pid = None
                    else:
                        span.parent_id = None
                        span.parent_pid = None
                if span.parent_id is None and parent is not None:
                    span.parent_id = parent.span_id
                    if parent.pid != span.pid:
                        span.parent_pid = parent.pid
            self.spans.extend(batch)
        return len(batch)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def as_dicts(self) -> list[dict]:
        """Completed spans as JSON/pickle-able dicts (the wire format)."""
        with self._lock:
            return [span.as_dict() for span in self.spans]

    def chrome_trace(self) -> dict:
        return chrome_trace(
            self.as_dicts(), driver_pid=self.pid, thread_names=self.thread_names
        )

    def write_chrome_trace(self, path: str | Path) -> Path:
        return write_chrome_trace(
            path,
            self.as_dicts(),
            driver_pid=self.pid,
            thread_names=self.thread_names,
        )


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN_CTX = _NullSpanContext()


class _NullSpans:
    """The disabled recorder: every call is a shared no-op."""

    enabled = False
    role = "null"
    spans: list[Span] = []

    def begin(self, name: str, cat: str = "default", **args) -> None:
        return None

    def end(self, span, **args) -> None:
        pass

    def span(self, name: str, cat: str = "default", **args) -> _NullSpanContext:
        return _NULL_SPAN_CTX

    def absorb(self, span_dicts, parent=None) -> int:
        return 0

    def as_dicts(self) -> list[dict]:
        return []

    def __len__(self) -> int:
        return 0


#: Shared disabled span recorder; the default everywhere.
NULL_SPANS = _NullSpans()


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------


def chrome_trace(
    span_dicts,
    driver_pid: int | None = None,
    thread_names: dict[int, str] | None = None,
) -> dict:
    """Spans → Chrome trace-event JSON (the Perfetto/``chrome://tracing``
    interchange format).

    Every span becomes one complete (``"ph": "X"``) event with
    microsecond ``ts``/``dur`` relative to the earliest span, plus
    ``process_name`` metadata events labelling one lane per pid (the
    driver first, workers after) so a parallel sweep renders as stacked
    per-process tracks.
    """
    spans = [d for d in span_dicts or () if d.get("end")]
    events: list[dict] = []
    if not spans:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    t0 = min(d["start"] for d in spans)
    pids = sorted({d.get("pid", 0) for d in spans})
    if driver_pid is None:
        # The outermost (longest) span belongs to the driver.
        driver_pid = max(spans, key=lambda d: d["end"] - d["start"]).get("pid", 0)
    for sort_index, pid in enumerate(
        sorted(pids, key=lambda p: (p != driver_pid, p))
    ):
        label = "driver" if pid == driver_pid else f"worker {pid}"
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": sort_index},
            }
        )
    for tid, name in (thread_names or {}).items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "ts": 0,
                "pid": driver_pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    for d in spans:
        event = {
            "ph": "X",
            "name": d["name"],
            "cat": d.get("cat", "default"),
            "ts": round((d["start"] - t0) * 1e6, 3),
            "dur": round((d["end"] - d["start"]) * 1e6, 3),
            "pid": d.get("pid", 0),
            "tid": d.get("tid", 0),
        }
        if d.get("args"):
            event["args"] = d["args"]
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path,
    span_dicts,
    driver_pid: int | None = None,
    thread_names: dict[int, str] | None = None,
) -> Path:
    """Write :func:`chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    payload = chrome_trace(
        span_dicts, driver_pid=driver_pid, thread_names=thread_names
    )
    path.write_text(json.dumps(payload) + "\n")
    return path
