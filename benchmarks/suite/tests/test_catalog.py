"""``BENCHMARK.json`` is well-formed and agrees with the suite's catalog."""

import re

import pytest

from benchmarks.suite import catalog

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench():
    return catalog.load_benchmark()


def test_top_level_keys(bench):
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= len(bench["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/") for part in bench["command"])
    assert bench["paths"] == ["benchmarks/suite"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_names_units_and_limits(bench):
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 2 <= len(bench["workloads"]) <= 8


def test_end_to_end_bounds(bench):
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = {m["name"]: m for m in bench["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_workloads_match_catalog(bench):
    assert [w["name"] for w in bench["workloads"]] == list(catalog.WORKLOADS)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_per_layer_metrics_match_layers(bench):
    declared = [m for layer in catalog.LAYERS for m in layer.metrics]
    assert [m["name"] for m in bench["per_layer"]] == declared
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_predictions_name_real_metrics_and_workloads(bench):
    end_to_end = set(catalog.end_to_end_metrics(bench))
    for layer in catalog.LAYERS:
        for metric, workload in layer.moves + layer.holds:
            assert metric in end_to_end, (layer.name, metric)
            assert workload in catalog.WORKLOADS, (layer.name, workload)
        assert not set(layer.moves) & set(layer.holds), layer.name


def test_exact_metrics_are_judged_but_not_in_the_contract(bench):
    table = catalog.end_to_end_metrics(bench)
    exact = {m["name"] for m in catalog.EXACT_METRICS}
    assert {name for name, m in table.items() if m["exact"]} == exact
    assert not exact & {m["name"] for m in bench["end_to_end"]}
    assert all(m["bound"] == 0 for m in catalog.EXACT_METRICS)
