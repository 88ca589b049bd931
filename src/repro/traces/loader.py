"""Trace file I/O.

Two on-disk formats are supported:

* ``csv`` — ``time,obj_id,size`` with a header row (this package's native
  format).
* ``webcachesim`` — whitespace-separated ``time id size`` lines with no
  header, the de-facto interchange format used by the LRB/webcachesim
  simulators the paper builds on.

Both loaders fail closed: a row with an unparsable field or the wrong
number of fields, or a request that breaks the trace input contract
(:func:`repro.traces.packed.checked_columns`), raises ``ValueError``
naming ``path:line``.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.traces.packed import PackedTrace, checked_columns
from repro.traces.request import Trace


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
    rows, lines = [], []
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
            rows.append(_parse_request(row, f"{path}:{index + 2}"))
            lines.append(index + 2)
    return _checked_trace(rows, lines, path, name)


def save_trace_webcachesim(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` in the webcachesim ``time id size`` format."""
    path = Path(path)
    with path.open("w") as handle:
        for req in trace:
            handle.write(f"{req.time:.6f} {req.obj_id} {req.size}\n")


def load_trace_webcachesim(path: str | Path, name: str | None = None) -> Trace:
    """Read a webcachesim-format trace (no header, whitespace separated)."""
    path = Path(path)
    rows, lines = [], []
    with path.open() as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{index + 1}: expected 3 fields, got {len(parts)}")
            rows.append(_parse_request(parts, f"{path}:{index + 1}"))
            lines.append(index + 1)
    return _checked_trace(rows, lines, path, name)


def _parse_request(fields: list[str], where: str) -> tuple[float, int, int]:
    """The ``time, id, size`` in one row; ``where`` (``path:line``)
    prefixes a parse error."""
    try:
        return float(fields[0]), int(fields[1]), int(fields[2])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _checked_trace(rows: list, lines: list[int], path: Path, name: str | None) -> Trace:
    """The parsed ``rows`` of ``path`` as a trace, checked by
    :func:`checked_columns` with errors naming ``path:line``."""
    columns = zip(*rows) if rows else ((), (), ())
    checked = checked_columns(*columns, where=lambda index: f"{path}:{lines[index]}")
    return PackedTrace(*checked, name or path.stem).unpack()
