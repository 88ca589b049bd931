"""The command line's output contract."""

from benchmarks.suite import __main__ as cli
from benchmarks.suite import catalog, harness


def _payload(failed=0):
    return {
        "requests": 1000,
        "counted_requests": 1000,
        "repeats": [{"wall_s": 0.5, "cpu_s": 0.5}, {"wall_s": 0.4, "cpu_s": 0.4}],
        "setup_s": [0.3, 0.2, 0.25],
        "peak_rss_mb": 80.0,
        "hits": 400,
        "hit_bytes": 3000,
        "total_bytes": 9000,
        "ops_attempted": 4,
        "ops_failed": failed,
        "traced": {"layers": {"core.gbm.fits": 3}},
    }


def test_contract_line_lists_every_metric():
    bench = catalog.load_benchmark()
    line = harness.contract_line(_payload(), bench, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and (line["attempted"], line["failed"]) == (4, 0)
    assert list(line["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    assert line["metrics"]["replay_rps"] == {"value": 2250.0, "unit": "req/s"}
    assert line["metrics"]["setup_s"]["value"] == 0.25
    traced = harness.contract_line(_payload(failed=1), bench, trace=True)
    assert not traced["correct"]
    assert list(traced["metrics"]) == [m["name"] for m in bench["per_layer"]]
    assert traced["metrics"]["core.gbm.fits"]["value"] == 3
    assert traced["metrics"]["core.hro.windows"]["value"] == 0


def test_measure_refuses_a_checkout_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    code = cli.main(
        ["measure", "--workload", "lhr-cdn-a", "--seed", "1", "--seconds", "1"]
    )
    assert code != 0
    assert capsys.readouterr().out == ""
