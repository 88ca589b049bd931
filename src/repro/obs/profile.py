"""Sampling profiler and per-phase cost attribution.

Two complementary answers to "where does a multi-hour replay spend its
time":

* :class:`SamplingProfiler` — a thread-based statistical profiler that
  periodically snapshots the target thread's stack via
  ``sys._current_frames()`` and aggregates identical stacks.  Output is
  the collapsed-stack format flamegraph tooling consumes
  (``thread;frame;frame;frame count`` per line — stacks are rooted at
  the thread's name, so driver vs. heartbeat vs. server threads
  separate in flamegraphs instead of merging indistinguishably; pass
  ``all_threads=True`` to sample every live thread, not just the
  target).  A sampler thread is used
  instead of ``signal.setitimer`` because signals only deliver to the
  main thread and would collide with libraries that install their own
  handlers; the GIL makes a cross-thread frame snapshot consistent
  enough for statistical profiling.
* the span phase table — exact per-phase accounting from the timeline
  spans the replay records (``sim.replay``, ``sim.chunk``, ``hro.rank``,
  ``lhr.window_close``, ``lhr.gbm_refit``, ...), aggregated per span
  name by :func:`repro.obs.timeline.analyze_spans`, the same table
  ``repro timeline`` prints.

``repro profile <trace> <policy>`` (see :func:`profile_simulation`)
combines both: it replays the trace under a span recorder plus a
sampler and reports the phase table and a collapsed-stack file.  Span
recording does not change which code runs, so the profile measures the
kernel an unobserved replay ships.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.observation import Observation
from repro.obs.server import current_rss_bytes
from repro.obs.spans import SpanRecorder
from repro.obs.timeline import PhaseStat, analyze_spans


class SamplingProfiler:
    """Statistical profiler sampling one thread's stack at an interval.

    Use as a context manager around the code to profile; the profiled
    thread is the one that entered the context (override with
    ``target_ident``, or sample every live thread with
    ``all_threads=True``).  ``samples`` maps stack tuples — thread name
    first, then root→leaf frames — to the number of times they were
    observed.  Thread names come from :func:`threading.enumerate`
    (matched on ``ident``); a thread that cannot be matched falls back
    to ``thread-<ident>``.
    """

    def __init__(
        self,
        interval_seconds: float = 0.005,
        target_ident: int | None = None,
        all_threads: bool = False,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.interval_seconds = interval_seconds
        self.all_threads = all_threads
        self.samples: Counter[tuple[str, ...]] = Counter()
        self._target_ident = target_ident
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self._target_ident is None:
            self._target_ident = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _sample_loop(self) -> None:
        target = self._target_ident
        own = threading.get_ident()
        while not self._stop.wait(self.interval_seconds):
            frames = sys._current_frames()
            if frames.get(target) is None:  # target thread exited
                return
            names = {t.ident: t.name for t in threading.enumerate()}
            if self.all_threads:
                snapshot = [
                    (ident, frame)
                    for ident, frame in frames.items()
                    if ident != own  # never sample the sampler itself
                ]
            else:
                snapshot = [(target, frames[target])]
            for ident, frame in snapshot:
                stack: list[str] = []
                while frame is not None:
                    stack.append(_format_frame(frame))
                    frame = frame.f_back
                stack.append(names.get(ident) or f"thread-{ident}")
                self.samples[tuple(reversed(stack))] += 1

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    @property
    def sample_count(self) -> int:
        return sum(self.samples.values())

    def collapsed(self) -> str:
        """Collapsed-stack text (``thread;a;b;c 42`` per line,
        flamegraph.pl and speedscope compatible), heaviest stacks first.
        The first element of every stack is the sampled thread's name.
        """
        lines = [
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(
                self.samples.items(), key=lambda item: (-item[1], item[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.collapsed())
        return path

    def hottest(self, top: int = 10) -> list[tuple[str, int]]:
        """Leaf frames ranked by inclusive sample count."""
        leaves: Counter[str] = Counter()
        for stack, count in self.samples.items():
            leaves[stack[-1]] += count
        return leaves.most_common(top)


def _format_frame(frame) -> str:
    code = frame.f_code
    module = Path(code.co_filename).stem
    return f"{module}.{code.co_name}"


@dataclass
class ProfileReport:
    """Everything ``repro profile`` prints or writes for one run."""

    policy: str
    trace: str
    capacity: int
    wall_seconds: float
    rss_bytes: int
    requests: int
    hit_ratio: float
    phases: list[PhaseStat] = field(default_factory=list)
    profiler: SamplingProfiler | None = None
    #: Requests replayed before measurement began; the timed replay
    #: processed ``warmup_requests + requests`` requests.
    warmup_requests: int = 0

    @property
    def sample_count(self) -> int:
        return self.profiler.sample_count if self.profiler else 0

    def write_collapsed(self, path: str | Path) -> Path:
        if self.profiler is None:
            raise ValueError("report has no attached profiler")
        return self.profiler.write_collapsed(path)

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "trace": self.trace,
            "capacity": self.capacity,
            "wall_seconds": round(self.wall_seconds, 4),
            "rss_bytes": self.rss_bytes,
            "requests": self.requests,
            "hit_ratio": round(self.hit_ratio, 6),
            "samples": self.sample_count,
            "phases": [phase.as_dict() for phase in self.phases],
        }

    def render_text(self) -> str:
        # The rate counts every request the timed replay processed.
        replayed = self.warmup_requests + self.requests
        rate = replayed / self.wall_seconds if self.wall_seconds else 0.0
        lines = [
            f"profile: {self.policy} on {self.trace!r} "
            f"(capacity {self.capacity} bytes)",
            f"wall {self.wall_seconds:.3f}s  "
            f"{rate:,.0f} req/s  "
            f"hit ratio {self.hit_ratio:.4f}  "
            f"rss {self.rss_bytes / (1 << 20):.1f} MB  "
            f"{self.sample_count} stack samples",
            "",
            f"{'span':<26}{'count':>10}{'total_s':>12}{'self_s':>12}{'% self':>9}",
        ]
        for phase in self.phases:
            lines.append(
                f"{phase.name:<26}{phase.count:>10}"
                f"{phase.total_seconds:>12.4f}"
                f"{phase.self_seconds:>12.4f}"
                f"{100 * phase.self_share:>8.1f}%"
            )
        if self.profiler and self.profiler.samples:
            lines.append("")
            lines.append("hottest frames (inclusive samples):")
            for frame, count in self.profiler.hottest(5):
                share = 100 * count / self.sample_count
                lines.append(f"  {frame:<40} {count:>6}  {share:5.1f}%")
        return "\n".join(lines)


def profile_simulation(
    trace,
    policy_name: str,
    capacity: int,
    window_requests: int = 0,
    warmup_requests: int = 0,
    interval_seconds: float = 0.005,
    policy_kwargs: dict | None = None,
) -> ProfileReport:
    """Replay ``trace`` through ``policy_name`` under the sampler and a
    span recorder; return the combined :class:`ProfileReport`.

    The phase table is the recorded spans' per-name aggregate.  Spans
    ride a sidecars-only observation, so the replay runs the same code
    as an unobserved one (a policy's span kernel, if it has one).
    """
    # Imported here: repro.sim imports repro.obs at module load, so a
    # top-level import would be circular.
    from repro.sim.engine import simulate
    from repro.sim.runner import build_policy

    policy = build_policy(policy_name, capacity, **(policy_kwargs or {}))
    recorder = SpanRecorder()
    profiler = SamplingProfiler(interval_seconds=interval_seconds)
    start = time.perf_counter()
    with profiler:
        result = simulate(
            policy,
            trace,
            window_requests=window_requests,
            warmup_requests=warmup_requests,
            obs=Observation.sidecars_only(spans=recorder),
        )
    wall = time.perf_counter() - start
    return ProfileReport(
        policy=result.policy,
        trace=trace.name,
        capacity=capacity,
        wall_seconds=wall,
        rss_bytes=current_rss_bytes(),
        requests=result.requests,
        hit_ratio=result.object_hit_ratio,
        phases=analyze_spans(recorder.as_dicts()).phases,
        profiler=profiler,
        warmup_requests=warmup_requests,
    )
