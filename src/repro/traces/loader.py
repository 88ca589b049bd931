"""Trace file I/O.

Two on-disk formats are supported:

* ``csv`` — ``time,obj_id,size`` with a header row (this package's native
  format).
* ``webcachesim`` — whitespace-separated ``time id size`` lines with no
  header, the de-facto interchange format used by the LRB/webcachesim
  simulators the paper builds on.

Both loaders fail closed: a row with an unparsable field, a non-finite or
negative time, a time below the previous row's, or a non-positive size
raises ``ValueError`` naming ``path:line``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from repro.traces.request import Request, Trace


def save_trace_csv(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` as a headered CSV file."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "obj_id", "size"])
        for req in trace:
            writer.writerow([f"{req.time:.6f}", req.obj_id, req.size])


def load_trace_csv(path: str | Path, name: str | None = None) -> Trace:
    """Read a headered CSV trace written by :func:`save_trace_csv`."""
    path = Path(path)
    requests: list[Request] = []
    with path.open() as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty")
        expected = ["time", "obj_id", "size"]
        if [col.strip().lower() for col in header] != expected:
            raise ValueError(f"{path} header {header!r} != {expected!r}")
        for index, row in enumerate(reader):
            if len(row) != 3:
                raise ValueError(f"{path}:{index + 2}: expected 3 columns, got {len(row)}")
            requests.append(_parse_request(row, requests, f"{path}:{index + 2}"))
    return Trace(requests, name=name or path.stem)


def save_trace_webcachesim(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` in the webcachesim ``time id size`` format."""
    path = Path(path)
    with path.open("w") as handle:
        for req in trace:
            handle.write(f"{req.time:.6f} {req.obj_id} {req.size}\n")


def load_trace_webcachesim(path: str | Path, name: str | None = None) -> Trace:
    """Read a webcachesim-format trace (no header, whitespace separated)."""
    path = Path(path)
    requests: list[Request] = []
    with path.open() as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{index + 1}: expected 3 fields, got {len(parts)}")
            requests.append(_parse_request(parts, requests, f"{path}:{index + 1}"))
    return Trace(requests, name=name or path.stem)


def _parse_request(fields: list[str], previous: list[Request], where: str) -> Request:
    """The request in one ``time, id, size`` row, appended after
    ``previous``; ``where`` (``path:line``) prefixes every error."""
    try:
        time, obj_id, size = float(fields[0]), int(fields[1]), int(fields[2])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if not math.isfinite(time) or time < 0:
        raise ValueError(f"{where}: time must be finite and non-negative, got {fields[0]}")
    if previous and time < previous[-1].time:
        raise ValueError(f"{where}: time {time} decreases from {previous[-1].time}")
    if size <= 0:
        raise ValueError(f"{where}: size must be positive, got {size}")
    return Request(time=time, obj_id=obj_id, size=size, index=len(previous))
