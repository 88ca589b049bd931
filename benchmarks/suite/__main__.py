"""Command line of the benchmark suite.

    python -m benchmarks.suite run [--seed 1] [--out run.json]
    python -m benchmarks.suite compare base.json new.json
    python -m benchmarks.suite measure --workload NAME --seed N --seconds S --trace 0|1

``run`` measures every workload (five timed repeats each, then three traced
repeats in a separate subprocess), prints every metric with its unit and
writes the report plus one Chrome trace per workload next to ``--out``.
``compare`` judges two reports metric by metric.  ``measure`` is the
single-workload, time-budgeted form that external runners call (the
``command`` in ``BENCHMARK.json``): its last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``worker`` is internal: the subprocess each workload runs in.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.suite import catalog


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure every workload and write a report")
    run.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    run.add_argument("--out", default="run.json", help="report path (JSON)")

    compare = sub.add_parser("compare", help="judge new.json against base.json")
    compare.add_argument("base")
    compare.add_argument("new")

    measure = sub.add_parser("measure", help="one workload, time-budgeted")
    measure.add_argument("--workload", required=True, choices=list(catalog.WORKLOADS))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)

    worker = sub.add_parser("worker")
    worker.add_argument("--workload", required=True, choices=list(catalog.WORKLOADS))
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--seconds", type=float)
    worker.add_argument("--repeats", type=int)
    worker.add_argument("--trace", action="store_true")
    worker.add_argument("--trace-out")
    worker.add_argument("--setup-only", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "worker":
        from benchmarks.suite import workloads

        return workloads.main(args)

    from benchmarks.suite import harness

    if args.command == "compare":
        from benchmarks.suite import compare

        base = json.loads(Path(args.base).read_text())
        new = json.loads(Path(args.new).read_text())
        bounds = catalog.end_to_end_metrics(catalog.load_benchmark())
        rows, failed = compare.compare_reports(base, new, bounds)
        print(compare.render(rows, base, new))
        return 1 if failed else 0

    if not harness.program_present():
        print(
            f"no program to measure: {catalog.ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    benchmark = catalog.load_benchmark()
    try:
        if args.command == "measure":
            payload = harness.measure(
                args.workload, args.seed, seconds=args.seconds, trace=bool(args.trace)
            )
            for failure in payload["failures"]:
                print(f"FAILED {failure}", file=sys.stderr)
            line = harness.contract_line(payload, benchmark, bool(args.trace))
            print(json.dumps(line))
            return 0 if line["correct"] else 1
        out = Path(args.out)
        report = harness.run_suite(args.seed, out, benchmark)
    except harness.WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(harness.render(report))
    for name, run in report["workloads"].items():
        for failure in run["failures"]:
            print(f"FAILED [{name}] {failure}", file=sys.stderr)
    print(f"report -> {out}")
    return 1 if report["ops_failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
