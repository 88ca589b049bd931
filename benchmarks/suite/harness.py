"""Orchestrator: one subprocess per workload, medians, reports.

The orchestrating process never imports :mod:`repro`.  It starts each
workload in its own subprocess (``python -m benchmarks.suite worker``),
times that subprocess from start to its ``READY`` line (``setup_s``), and
turns the samples it returns into end-to-end and per-layer metrics.
``setup_s`` is the median over ``SETUP_PROBES`` extra set-up-only starts
plus the measuring one.
"""

from __future__ import annotations

import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.suite.catalog import (
    LAYERS,
    REPEATS,
    ROOT,
    SETUP_PROBES,
    TRACED_REPEATS,
    WORKLOADS,
    end_to_end_metrics,
    layer_of,
)

#: Seconds a worker may take before it is killed and counted as failed.
WORKER_TIMEOUT = 170.0


class WorkerError(RuntimeError):
    """A workload subprocess failed to start, crashed or timed out."""


def program_present() -> bool:
    """Whether the checkout holds the program the suite measures."""
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def _worker_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(workload: str, seed: int, *extra: str) -> tuple[float, dict | None]:
    """Run one worker; returns ``(setup seconds, payload or None)``."""
    cmd = [
        sys.executable, "-m", "benchmarks.suite", "worker",
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT)
        first = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"{workload}: worker timed out after {WORKER_TIMEOUT}s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(
            f"{workload}: worker exited with code {proc.returncode} "
            f"(first line {first.strip()!r})"
        )
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def measure(
    workload: str,
    seed: int,
    *,
    seconds: float | None = None,
    repeats: int | None = None,
    trace: bool = False,
    trace_out: Path | None = None,
) -> dict:
    """Measure one workload; an untraced run also probes set-up time."""
    extra = []
    if seconds is not None:
        extra += ["--seconds", str(seconds)]
    if repeats is not None:
        extra += ["--repeats", str(repeats)]
    if trace:
        extra.append("--trace")
    if trace_out is not None:
        extra += ["--trace-out", str(trace_out)]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(spawn(workload, seed, "--setup-only")[0])
    seconds_to_ready, payload = spawn(workload, seed, *extra)
    setup.append(seconds_to_ready)
    payload["setup_s"] = setup
    return payload


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def summary(samples: list[float]) -> dict:
    """Median, quartiles and count of ``samples``."""
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def end_to_end(payload: dict, benchmark: dict) -> dict:
    """Every end-to-end metric of one untraced workload run."""
    requests = payload["requests"]
    repeats = payload["repeats"]
    samples = {
        "replay_rps": [requests / r["wall_s"] for r in repeats],
        "cpu_s_per_mreq": [r["cpu_s"] / (requests / 1e6) for r in repeats],
        "setup_s": payload["setup_s"],
        "peak_rss_mb": [payload["peak_rss_mb"]],
        "object_hit_ratio": [payload["hits"] / (payload["counted_requests"] or 1)],
        "byte_hit_ratio": [payload["hit_bytes"] / (payload["total_bytes"] or 1)],
        "error_rate": [payload["ops_failed"] / payload["ops_attempted"]],
    }
    return {
        name: {"unit": metric["unit"], **summary(samples[name])}
        for name, metric in end_to_end_metrics(benchmark).items()
    }


def per_layer(payload: dict, benchmark: dict) -> dict:
    """Every per-layer metric of one traced workload run (absent ones read
    0: the workload never entered that layer)."""
    layers = payload["traced"]["layers"]
    return {
        m["name"]: {
            "unit": m["unit"],
            "layer": layer_of(m["name"]).name,
            "value": layers.get(m["name"], 0),
        }
        for m in benchmark["per_layer"]
    }


def contract_line(payload: dict, benchmark: dict, trace: bool) -> dict:
    """The single JSON object external runners read."""
    if trace:
        metrics = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in per_layer(payload, benchmark).items()
        }
    else:
        table = end_to_end(payload, benchmark)
        metrics = {
            m["name"]: {"value": table[m["name"]]["median"], "unit": m["unit"]}
            for m in benchmark["end_to_end"]
        }
    return {
        "correct": payload["ops_failed"] == 0,
        "attempted": payload["ops_attempted"],
        "failed": payload["ops_failed"],
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# The full run
# ----------------------------------------------------------------------


def run_suite(seed: int, out: Path, benchmark: dict) -> dict:
    """Every workload untraced (``REPEATS`` timed repeats) and traced."""
    started = time.perf_counter()
    report = {
        "seed": seed,
        "repeats": REPEATS,
        "traced_repeats": TRACED_REPEATS,
        "warmup": "one discarded replay of each workload's first trace",
        "setup_samples": SETUP_PROBES + 1,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    for name in WORKLOADS:
        print(f"[{name}] untraced ...", file=sys.stderr, flush=True)
        untraced = measure(name, seed, repeats=REPEATS)
        print(f"[{name}] traced ...", file=sys.stderr, flush=True)
        trace_out = out.with_name(f"{out.stem}.{name}.trace.json")
        traced = measure(
            name, seed, repeats=TRACED_REPEATS, trace=True, trace_out=trace_out
        )
        report["workloads"][name] = {
            "config": WORKLOADS[name].config(),
            "end_to_end": end_to_end(untraced, benchmark),
            "per_layer": per_layer(traced, benchmark),
            "traced": {k: v for k, v in traced["traced"].items() if k != "layers"},
            "traced_counters_match": not any(
                f.startswith("traced ") for f in traced["failures"]
            ),
            "ops_attempted": untraced["ops_attempted"] + traced["ops_attempted"],
            "ops_failed": untraced["ops_failed"] + traced["ops_failed"],
            "failures": untraced["failures"] + traced["failures"],
            "trace_file": trace_out.name,
        }
    runs = report["workloads"].values()
    report["ops_attempted"] = sum(w["ops_attempted"] for w in runs)
    report["ops_failed"] = sum(w["ops_failed"] for w in runs)
    report["total_wall_s"] = time.perf_counter() - started
    out.write_text(json.dumps(report, indent=1) + "\n")
    return report


# ----------------------------------------------------------------------
# Text reports
# ----------------------------------------------------------------------


def fmt_value(value: float) -> str:
    if isinstance(value, int) or abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    if abs(value) >= 0.01:
        return f"{value:.4f}"
    return f"{value:.3g}"


def text_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(header, widths))]
    lines.append("-" * len(lines[0]))
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)


def render(report: dict) -> str:
    """End-to-end and per-layer tables of a ``run`` report."""
    names = list(report["workloads"])
    runs = [report["workloads"][n] for n in names]
    metrics = list(runs[0]["end_to_end"])
    rows = []
    for metric in metrics:
        cells = []
        for run in runs:
            entry = run["end_to_end"][metric]
            text = fmt_value(entry["median"])
            if entry["n"] > 1:
                text += f" [{fmt_value(entry['q1'])}, {fmt_value(entry['q3'])}]"
            cells.append(text)
        rows.append([metric, runs[0]["end_to_end"][metric]["unit"], *cells])
    parts = [
        f"end to end, seed {report['seed']}: median [q1, q3] of "
        f"{report['repeats']} repeats (setup_s: {report['setup_samples']} starts)",
        text_table(["metric", "unit", *names], rows),
    ]
    rows = []
    for layer in LAYERS:
        for metric in layer.metrics:
            entry = runs[0]["per_layer"][metric]
            rows.append(
                [metric, entry["unit"], *(fmt_value(r["per_layer"][metric]["value"]) for r in runs)]
            )
    heading = (
        f"per layer: the median-time traced repeat of {report['traced_repeats']}"
    )
    parts += ["", heading, text_table(["metric", "unit", *names], rows)]
    parts += ["", "where the traced time goes", text_table(*share_table(report))]
    parts.append(
        f"\nops attempted {report['ops_attempted']}, failed {report['ops_failed']}; "
        f"total wall {report['total_wall_s']:.1f} s"
    )
    return "\n".join(parts)


#: Rows of the time-share table: label and the per-layer metric it reads.
SHARES = (
    ("threshold update (shadow replay)", "core.threshold.update_s"),
    ("GBM refit", "core.gbm.fit_s"),
    ("feature gather (feature_matrix)", "core.features.matrix_s"),
    ("feature observe", "core.features.observe_s"),
    ("feature prune", "core.features.prune_s"),
    ("block scoring", "core.model_backends.score_s"),
    ("HRO accounting (self)", "core.hro.process_self_s"),
    ("HRO labels", "core.hro.labels_s"),
    ("drift detection", "core.detection.observe_s"),
    ("eviction sampling", "core.lhr.evict_sample_s"),
    ("LHR kernel (self)", "core.lhr.kernel_self_s"),
    ("native kernels", "policies.kernel_s"),
    ("shim tier", "policies.shim_s"),
    ("engine (self)", "sim.engine.self_s"),
)


def share_table(report: dict) -> tuple[list[str], list[list[str]]]:
    """Each layer's time as a share of the traced repeat's wall time."""
    names = list(report["workloads"])
    runs = [report["workloads"][n] for n in names]
    rows = []
    for label, metric in SHARES:
        cells = []
        for run in runs:
            wall = run["traced"]["wall_s"]
            cells.append(f"{100.0 * run['per_layer'][metric]['value'] / wall:.1f}%")
        rows.append([label, *cells])
    return ["layer", *names], rows
