"""The repository's benchmark: batch trace replay measured from outside.

See ``README.md`` in this directory for the workloads, the metric
catalogue and how to run and compare; ``BENCHMARK.json`` at the
repository root holds the metric bounds.
"""
