"""Command-line interface: size parsing, trace IO, subcommand wiring."""

import argparse
import json

import pytest

from repro.cli import build_parser, load_any_trace, main, parse_size
from repro.traces.loader import save_trace_csv, save_trace_webcachesim
from repro.traces.synthetic import irm_trace


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("1kb", 1 << 10),
            ("512MB", 512 << 20),
            ("4GB", 4 << 30),
            ("1.5gb", int(1.5 * (1 << 30))),
            ("1tb", 1 << 40),
            ("100 b", 100),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["abc", "4XB", ""])
    def test_invalid(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size(text)

    @pytest.mark.parametrize("text", ["0", "-5", "-1GB", "0kb", "-0.5mb"])
    def test_non_positive_rejected(self, text):
        """A negative or zero size is a typo, not a tiny cache — it must
        be rejected, never silently clamped to one byte."""
        with pytest.raises(argparse.ArgumentTypeError, match="positive"):
            parse_size(text)

    def test_sub_byte_fraction_rounds_up_to_one(self):
        assert parse_size("0.5b") == 1


class TestLoadAnyTrace:
    def test_dispatch_by_extension(self, tmp_path):
        trace = irm_trace(50, 10, seed=0)
        csv_path = tmp_path / "t.csv"
        wcs_path = tmp_path / "t.tr"
        save_trace_csv(trace, csv_path)
        save_trace_webcachesim(trace, wcs_path)
        assert len(load_any_trace(str(csv_path))) == 50
        assert len(load_any_trace(str(wcs_path))) == 50

    def test_missing_file(self):
        with pytest.raises(SystemExit, match="does not exist"):
            load_any_trace("/nonexistent/file.csv")


class TestSubcommands:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(irm_trace(400, 40, mean_size=1 << 12, seed=1), path)
        return str(path)

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_generate_and_summarize(self, tmp_path, capsys):
        out = str(tmp_path / "gen.csv")
        assert main(
            ["trace", "generate", "--spec", "cdn-c", "--scale", "0.005",
             "-o", out]
        ) == 0
        assert main(["trace", "summarize", out]) == 0
        captured = capsys.readouterr().out
        assert "Unique contents" in captured

    def test_trace_convert(self, trace_file, tmp_path, capsys):
        out = str(tmp_path / "out.tr")
        assert main(["trace", "convert", trace_file, out]) == 0
        assert "webcachesim" in capsys.readouterr().out

    def test_simulate(self, trace_file, capsys):
        assert main(
            ["simulate", "--trace", trace_file, "--policy", "lru",
             "--capacity", "1MB", "--window", "100"]
        ) == 0
        captured = capsys.readouterr().out
        assert "object_hit_ratio" in captured
        assert "per-window hit ratio" in captured

    def test_compare(self, trace_file, capsys):
        assert main(
            ["compare", "--trace", trace_file, "--policies", "lru,gdsf",
             "--capacities", "512KB", "1MB"]
        ) == 0
        captured = capsys.readouterr().out
        assert "gdsf" in captured and "lru" in captured

    def test_compare_parallel_jobs_matches_serial(self, trace_file, capsys):
        args = ["compare", "--trace", trace_file, "--policies", "lru,gdsf",
                "--capacities", "512KB", "1MB"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main([*args, "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # Identical tables modulo the wall-clock runtime column.
        def strip(text):
            return [
                [c for i, c in enumerate(line.split()) if i != 8]
                for line in text.splitlines() if line
            ]

        assert strip(serial_out) == strip(parallel_out)

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--policy", "lru", "--capacity", "1MB"],
            ["compare", "--policies", "lru,gdsf", "--capacities", "1MB"],
        ],
        ids=["simulate", "compare"],
    )
    def test_bad_trace_file_is_an_error_line(self, tmp_path, command):
        path = tmp_path / "bad.csv"
        path.write_text("time,obj_id,size\n1.0,1,10\n0.5,2,10\n")
        with pytest.raises(SystemExit) as caught:
            main([*command, "--trace", str(path)])
        assert caught.value.code == f"error: {path}:3: time 0.5 decreases from 1.0"

    def test_compare_rejects_warmup_covering_trace(self, trace_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--trace", trace_file, "--policies", "lru,gdsf",
                  "--capacities", "1MB", "--warmup", "400"])
        message = str(excinfo.value)
        assert message.startswith("error: warmup_requests (400) must be smaller")
        assert "\n" not in message

    def test_simulate_warmup_excludes_requests(self, trace_file, capsys):
        assert main(
            ["simulate", "--trace", trace_file, "--policy", "lru",
             "--capacity", "1MB", "--warmup", "100"]
        ) == 0
        captured = capsys.readouterr().out
        # 400-request trace minus 100 warmup requests.
        assert " 300 " in captured

    def test_bounds(self, trace_file, capsys):
        assert main(
            ["bounds", "--trace", trace_file, "--capacity", "1MB"]
        ) == 0
        captured = capsys.readouterr().out
        for name in ("infinite-cap", "pfoo-u", "hro", "belady-size", "pfoo-l"):
            assert name in captured

    def test_simulate_rejects_unknown_policy(self, trace_file):
        with pytest.raises(SystemExit):
            main(["simulate", "--trace", trace_file, "--policy", "bogus",
                  "--capacity", "1MB"])

    def test_prototype_caffeine(self, capsys):
        assert main(
            ["prototype", "--spec", "cdn-c", "--system", "caffeine",
             "--scale", "0.003"]
        ) == 0
        captured = capsys.readouterr().out
        assert "caffeine" in captured and "lhr" in captured

    def test_curve(self, trace_file, capsys):
        assert main(
            ["curve", "--trace", trace_file, "--points", "6",
             "--target", "0.2"]
        ) == 0
        captured = capsys.readouterr().out
        assert "object hit" in captured
        assert "target 20%" in captured


class TestAnalyze:
    """``repro analyze``: decision-trace a policy and HRO over one trace
    and report miss taxonomy + divergence."""

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("analyze") / "trace.csv"
        save_trace_csv(
            irm_trace(2500, 150, alpha=0.9, mean_size=1 << 10, seed=17), path
        )
        return str(path)

    def test_text_report(self, trace_file, capsys):
        assert main(
            ["analyze", "--trace", trace_file, "--policy", "lru",
             "--capacity", "32KB", "--window", "500"]
        ) == 0
        out = capsys.readouterr().out
        assert "miss taxonomy" in out
        assert "agreement" in out
        assert "evicted_early" in out

    def test_json_report_taxonomy_sums(self, trace_file, capsys):
        assert main(
            ["analyze", "--trace", trace_file, "--policy", "lru",
             "--capacity", "32KB", "--window", "500", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        tax = payload["miss_taxonomy"]
        classes = ("cold", "one_hit_wonder", "admission_rejected",
                   "evicted_early")
        assert sum(tax[c] for c in classes) == tax["total_misses"]
        totals = payload["divergence"]["totals"]
        assert 0.0 <= totals["agreement_rate"] <= 1.0
        residency = payload["residency"]
        assert 0.0 <= residency["admission_ratio"] <= 1.0
        assert 0.0 <= residency["dead_on_arrival_ratio"] <= 1.0
        assert residency["dead_on_arrival"] <= residency["completed_residencies"]
        assert payload["requests"] == 2500
        assert sum(w["requests"] for w in payload["divergence"]["windows"]) \
            == 2500

    def test_csv_output(self, trace_file, tmp_path, capsys):
        csv_path = tmp_path / "divergence.csv"
        assert main(
            ["analyze", "--trace", trace_file, "--policy", "lru",
             "--capacity", "32KB", "--window", "500", "--format", "json",
             "--csv", str(csv_path)]
        ) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("window,requests,")
        assert len(lines) == 1 + 5  # header + 2500/500 windows
        captured = capsys.readouterr()
        # The confirmation goes to stderr so stdout stays one JSON document.
        assert json.loads(captured.out)["requests"] == 2500
        assert "wrote per-window divergence series" in captured.err

    def test_unknown_policy_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            main(["analyze", "--trace", trace_file, "--policy", "bogus",
                  "--capacity", "32KB"])


class TestObservabilityFlags:
    """--log-json / --metrics-out / --verbose on simulate, compare and
    prototype (the acceptance path for the instrumentation layer)."""

    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(irm_trace(800, 60, mean_size=1 << 12, seed=2), path)
        return str(path)

    def test_simulate_log_json_emits_windows(self, trace_file, tmp_path):
        log = tmp_path / "events.jsonl"
        assert main(
            ["simulate", "--trace", trace_file, "--policy", "lru",
             "--capacity", "64KB", "--window", "200",
             "--log-json", str(log)]
        ) == 0
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert events, "event log is empty"
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert sum(e["event"] == "sim.window" for e in events) == 4

    def test_simulate_lhr_emits_lifecycle_events(self, tmp_path):
        # Long enough for LHR's internal sliding window to close at
        # least once, so the learner lifecycle events actually fire.
        trace_path = tmp_path / "long.csv"
        save_trace_csv(
            irm_trace(2000, 120, alpha=0.8, mean_size=1 << 10, seed=11),
            trace_path,
        )
        log = tmp_path / "events.jsonl"
        assert main(
            ["simulate", "--trace", str(trace_path), "--policy", "lhr",
             "--capacity", "16KB", "--window", "500",
             "--log-json", str(log)]
        ) == 0
        types = {
            json.loads(line)["event"]
            for line in log.read_text().splitlines()
        }
        assert "sim.window" in types
        assert types & {"lhr.retrain", "lhr.drift"}

    def test_simulate_metrics_out_json(self, trace_file, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(
            ["simulate", "--trace", trace_file, "--policy", "lru",
             "--capacity", "64KB", "--metrics-out", str(out)]
        ) == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["sim_requests_total"]["value"] == 800
        assert snapshot["sim_replay_seconds"]["count"] == 1

    def test_simulate_metrics_out_prometheus(self, trace_file, tmp_path):
        out = tmp_path / "metrics.prom"
        assert main(
            ["simulate", "--trace", trace_file, "--policy", "lru",
             "--capacity", "64KB", "--metrics-out", str(out)]
        ) == 0
        text = out.read_text()
        assert "# TYPE sim_requests_total counter" in text
        assert 'sim_replay_seconds_bucket{le="+Inf"} 1' in text

    def test_simulate_verbose_prints_events(self, trace_file, capsys):
        assert main(
            ["simulate", "--trace", trace_file, "--policy", "lru",
             "--capacity", "64KB", "--window", "400", "--verbose"]
        ) == 0
        assert "[sim.window]" in capsys.readouterr().err

    def test_compare_parallel_log_json(self, trace_file, tmp_path):
        log = tmp_path / "events.jsonl"
        out = tmp_path / "metrics.json"
        assert main(
            ["compare", "--trace", trace_file, "--policies", "lru,gdsf",
             "--capacities", "64KB", "--jobs", "2", "--warmup", "100",
             "--log-json", str(log), "--metrics-out", str(out)]
        ) == 0
        events = [json.loads(line) for line in log.read_text().splitlines()]
        types = [e["event"] for e in events]
        assert types.count("sweep.cell_start") == 2
        assert types.count("sweep.cell_done") == 2
        snapshot = json.loads(out.read_text())
        # Two cells, each replaying 800 - 100 counted requests.
        assert snapshot["sim_requests_total"]["value"] == 2 * 700

    def test_prototype_obs_flags(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main(
            ["prototype", "--spec", "cdn-c", "--system", "caffeine",
             "--scale", "0.003", "--log-json", str(log)]
        ) == 0
        assert "lhr" in capsys.readouterr().out
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert all(e["event"].split(".")[0] in ("lhr", "policy", "sim")
                   for e in events)

    def test_no_flags_means_no_output_files(self, trace_file, capsys):
        assert main(
            ["simulate", "--trace", trace_file, "--policy", "lru",
             "--capacity", "64KB"]
        ) == 0
        captured = capsys.readouterr()
        assert "wrote event log" not in captured.out + captured.err
        assert "wrote metrics snapshot" not in captured.out + captured.err


class TestRunLedgerCli:
    """The tentpole surface: default-on recording + the runs family."""

    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(irm_trace(600, 50, mean_size=1 << 10, seed=4), path)
        return str(path)

    def _compare(self, trace_file, seed_trace=None):
        return main(
            ["compare", "--trace", seed_trace or trace_file,
             "--policies", "lru,s4lru", "--capacities", "8kb",
             "--window", "150"]
        )

    def test_compare_records_run_and_list_shows_it(
        self, trace_file, capsys, monkeypatch
    ):
        assert self._compare(trace_file) == 0
        err = capsys.readouterr().err
        assert "run ledger: recorded" in err
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert "compare" in out
        assert "trace.csv" in out

    def test_ledger_output_stays_off_stdout(self, trace_file, capsys):
        """Stdout is compared across serial/parallel runs elsewhere; the
        ledger must only ever talk on stderr."""
        assert self._compare(trace_file) == 0
        captured = capsys.readouterr()
        assert "run ledger" not in captured.out
        assert "run ledger" in captured.err

    def test_no_ledger_opt_out(self, trace_file, capsys, tmp_path):
        assert main(
            ["compare", "--trace", trace_file, "--policies", "lru",
             "--capacities", "8kb", "--no-ledger"]
        ) == 0
        assert "run ledger" not in capsys.readouterr().err
        assert main(["runs", "list"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_show_and_diff_identical_runs(self, trace_file, capsys):
        assert self._compare(trace_file) == 0
        assert self._compare(trace_file) == 0
        capsys.readouterr()
        assert main(["runs", "show", "latest"]) == 0
        shown = capsys.readouterr().out
        assert "lru" in shown and "s4lru" in shown
        assert main(["runs", "diff", "latest~1", "latest"]) == 0
        assert "verdict: IDENTICAL" in capsys.readouterr().out

    def test_diff_different_seeds_is_nonzero_per_window(
        self, trace_file, tmp_path, capsys
    ):
        other = tmp_path / "other.csv"
        save_trace_csv(irm_trace(600, 50, mean_size=1 << 10, seed=9), other)
        assert self._compare(trace_file) == 0
        assert self._compare(trace_file, seed_trace=str(other)) == 0
        capsys.readouterr()
        assert main(["runs", "diff", "latest~1", "latest", "--format", "json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["identical"] is False
        assert any(c["windows_differing"] > 0 for c in diff["cells"])

    def test_check_exit_codes(
        self, trace_file, tmp_path, capsys
    ):
        assert self._compare(trace_file) == 0
        ok_spec = tmp_path / "ok.json"
        ok_spec.write_text(json.dumps({
            "schema": "repro-slo/1",
            "rules": [{"metric": "object_hit_ratio", "min": 0.0}],
        }))
        bad_spec = tmp_path / "bad.json"
        bad_spec.write_text(json.dumps({
            "schema": "repro-slo/1",
            "rules": [{"metric": "object_hit_ratio", "min": 0.99}],
        }))
        assert main(["runs", "check", "latest", "--slo", str(ok_spec)]) == 0
        assert "verdict: OK" in capsys.readouterr().out
        assert main(["runs", "check", "latest", "--slo", str(bad_spec)]) == 1
        assert "verdict: VIOLATED" in capsys.readouterr().out
        assert main(
            ["runs", "check", "latest", "--slo", str(bad_spec), "--warn-only"]
        ) == 0

    def test_check_bad_spec_is_a_clean_error(self, trace_file, tmp_path):
        assert self._compare(trace_file) == 0
        spec = tmp_path / "nonsense.json"
        spec.write_text(json.dumps({"schema": "repro-slo/1", "rules": [
            {"metric": "no_such_metric", "max": 1}]}))
        with pytest.raises(SystemExit, match="unknown SLO metric"):
            main(["runs", "check", "latest", "--slo", str(spec)])

    def test_export_csv(self, trace_file, tmp_path, capsys):
        assert self._compare(trace_file) == 0
        out = tmp_path / "series.csv"
        assert main(["runs", "export", "latest", "--csv", str(out)]) == 0
        assert "window rows" in capsys.readouterr().err
        header = out.read_text().splitlines()[0]
        assert header.startswith("cell,policy,capacity,window,requests")

    def test_gc_keeps_newest(self, trace_file, capsys):
        for _ in range(3):
            assert self._compare(trace_file) == 0
        capsys.readouterr()
        assert main(["runs", "gc", "--keep", "1"]) == 0
        assert "pruned 2 run(s), kept 1" in capsys.readouterr().out

    def test_unknown_ref_is_a_clean_error(self, trace_file):
        assert self._compare(trace_file) == 0
        with pytest.raises(SystemExit, match="no run matching"):
            main(["runs", "show", "zzz"])

    def test_simulate_records_too(self, trace_file, capsys):
        assert main(
            ["simulate", "--trace", trace_file, "--policy", "lru",
             "--capacity", "8kb", "--window", "150"]
        ) == 0
        assert "run ledger: recorded" in capsys.readouterr().err
        assert main(["runs", "list"]) == 0
        assert "simulate" in capsys.readouterr().out


class TestTimelineTracingCli:
    """--trace-out span capture, Chrome export, and `repro timeline`."""

    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(irm_trace(400, 40, mean_size=1 << 12, seed=1), path)
        return str(path)

    def test_simulate_trace_out_writes_chrome_json(
        self, trace_file, tmp_path, capsys
    ):
        out = tmp_path / "trace.json"
        assert main(
            ["simulate", "--trace", trace_file, "--policy", "lru",
             "--capacity", "64KB", "--trace-out", str(out)]
        ) == 0
        assert "wrote timeline trace" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events
        for event in events:
            assert {"ph", "ts", "pid", "name"} <= set(event)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "cli.simulate" in names
        assert "sim.replay" in names

    def test_compare_parallel_trace_out_has_worker_lanes(
        self, trace_file, tmp_path
    ):
        out = tmp_path / "trace.json"
        assert main(
            ["compare", "--trace", trace_file, "--policies", "lru,gdsf",
             "--capacities", "32KB", "64KB", "--jobs", "2",
             "--trace-out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        lanes = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "driver" in lanes
        assert any(name.startswith("worker") for name in lanes)
        # One X event per sweep cell: 2 policies x 2 capacities.
        cells = [e for e in events if e["ph"] == "X" and e.get("cat") == "cell"]
        assert len(cells) == 4

    def test_timeline_renders_recorded_run(self, trace_file, tmp_path, capsys):
        assert main(
            ["compare", "--trace", trace_file, "--policies", "lru,s4lru",
             "--capacities", "32KB", "--jobs", "2",
             "--trace-out", str(tmp_path / "t.json")]
        ) == 0
        capsys.readouterr()
        assert main(["runs", "show", "latest"]) == 0
        assert "spans" in capsys.readouterr().out
        assert main(["timeline", "latest"]) == 0
        report = capsys.readouterr().out
        assert "phase self-time breakdown" in report
        assert "critical path" in report
        assert "worker utilization" in report
        assert "stragglers" in report

    def test_timeline_json_format(self, trace_file, tmp_path, capsys):
        assert main(
            ["simulate", "--trace", trace_file, "--policy", "lru",
             "--capacity", "64KB", "--trace-out", str(tmp_path / "t.json")]
        ) == 0
        capsys.readouterr()
        assert main(["timeline", "latest", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["span_count"] > 0
        assert payload["phases"]
        assert payload["critical_path"]

    def test_timeline_on_untraced_run_reports_cleanly(self, trace_file, capsys):
        # A run without a spans sidecar is a normal state, not an error:
        # the command says so and exits 0 (both formats).
        assert main(
            ["compare", "--trace", trace_file, "--policies", "lru",
             "--capacities", "32KB"]
        ) == 0
        capsys.readouterr()
        assert main(["timeline", "latest"]) == 0
        out = capsys.readouterr().out
        assert "recorded no spans" in out
        assert "--trace-out" in out
        assert main(["timeline", "latest", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 0

    def test_trace_out_does_not_change_results(self, trace_file, tmp_path, capsys):
        args = ["compare", "--trace", trace_file, "--policies", "lru,gdsf",
                "--capacities", "64KB"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main([*args, "--trace-out", str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr().out

        def strip(text):
            return [
                [c for i, c in enumerate(line.split()) if i != 8]
                for line in text.splitlines()
                if line
            ]

        assert strip(plain) == strip(traced)
