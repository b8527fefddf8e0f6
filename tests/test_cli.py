"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli")
    code = main(
        [
            "generate",
            "--customers", "30",
            "--days", "14",
            "--seed", "5",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    return out_dir


class TestGenerate:
    def test_writes_both_csvs(self, generated):
        assert (generated / "customers.csv").exists()
        assert (generated / "readings.csv").exists()

    def test_csvs_load_back(self, generated):
        from repro.data.loader import load_customers, load_readings_wide

        customers = load_customers(generated / "customers.csv")
        readings = load_readings_wide(generated / "readings.csv")
        assert len(customers) == 30
        assert readings.n_steps == 14 * 24


class TestDashboard:
    def test_from_csvs(self, generated, tmp_path, capsys):
        out = tmp_path / "dash.html"
        code = main(
            [
                "dashboard",
                "--customers-csv", str(generated / "customers.csv"),
                "--readings-csv", str(generated / "readings.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert text.count("<svg") == 3

    def test_mismatched_inputs_rejected(self, generated):
        with pytest.raises(SystemExit):
            main(
                [
                    "dashboard",
                    "--customers-csv", str(generated / "customers.csv"),
                ]
            )


class TestQuality:
    def test_prints_report(self, generated, capsys):
        code = main(["quality", str(generated / "readings.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "missing_fraction" in out
        assert "n_suspected_spikes" in out


class TestSql:
    def test_query_runs(self, generated, capsys):
        code = main(
            [
                "sql",
                str(generated / "customers.csv"),
                "SELECT zone, count(*) AS n FROM customers GROUP BY zone",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "zone\tn" in out

    def test_bad_sql_is_exit_code_1(self, generated, capsys):
        code = main(["sql", str(generated / "customers.csv"), "DELETE FROM x"])
        assert code == 1
        assert "SQL error" in capsys.readouterr().err

    def test_no_rows(self, generated, capsys):
        code = main(
            [
                "sql",
                str(generated / "customers.csv"),
                "SELECT customer_id FROM customers WHERE lon > 999",
            ]
        )
        assert code == 0
        assert "(no rows)" in capsys.readouterr().out


class TestStats:
    def test_pretty_output_has_counters_and_histograms(self, capsys):
        code = main(["stats", "--customers", "20", "--days", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "http_requests_total" in out
        assert "pipeline_cache_total" in out
        assert "db_query_seconds" in out

    def test_json_output_parses(self, capsys):
        import json

        code = main(["stats", "--customers", "20", "--days", "7", "--json"])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "counters" in snapshot
        names = {c["name"] for c in snapshot["counters"]}
        assert "http_requests_total" in names

    def test_spans_flag_prints_trees(self, capsys):
        code = main(
            ["stats", "--customers", "20", "--days", "7", "--spans", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "span trees" in out
        assert "http.request" in out

    def test_leaves_global_defaults_untouched(self):
        from repro import obs

        before_registry, before_tracer = obs.get_registry(), obs.get_tracer()
        before_window, before_slow = obs.get_window_store(), obs.get_slow_log()
        assert main(["stats", "--customers", "20", "--days", "7"]) == 0
        assert obs.get_registry() is before_registry
        assert obs.get_tracer() is before_tracer
        assert obs.get_window_store() is before_window
        assert obs.get_slow_log() is before_slow

    def test_json_output_includes_slow_ops_and_windows(self, capsys):
        import json

        code = main(["stats", "--customers", "20", "--days", "7", "--json"])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert any(r["name"] == "http.request" for r in snapshot["slow_ops"])
        window_names = {s["name"] for s in snapshot["windows"]}
        assert "http_request" in window_names

    def test_pretty_output_lists_slowest_operations(self, capsys):
        code = main(["stats", "--customers", "20", "--days", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slowest operations" in out
        assert "req=" in out

    def test_dashboard_flag_writes_wellformed_svg(self, tmp_path, capsys):
        import xml.etree.ElementTree as ET

        out_svg = tmp_path / "telemetry.svg"
        code = main(
            [
                "stats", "--customers", "20", "--days", "7",
                "--dashboard", str(out_svg),
            ]
        )
        assert code == 0
        assert f"telemetry dashboard written to {out_svg}" in (
            capsys.readouterr().out
        )
        root = ET.fromstring(out_svg.read_text())
        assert root.tag.endswith("svg")
        assert "VAP telemetry" in out_svg.read_text()


class TestBench:
    def test_quick_single_kernel_writes_document(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_PERF.json"
        code = main(["bench", "--quick", "--kernel", "dtw", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "dtw" in printed
        assert f"perf document written to {out}" in printed
        document = json.loads(out.read_text())
        assert document["schema"] == 1
        assert document["quick"] is True
        run = document["kernels"]["dtw"]["runs"][0]
        assert run["identical"] is True
        assert run["exact_seconds"] >= 0.0

    def test_profiler_overhead_block_recorded(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_PERF.json"
        code = main(["bench", "--quick", "--kernel", "dtw", "--out", str(out)])
        assert code == 0
        assert "profiler overhead @ 100 hz" in capsys.readouterr().out
        prof = json.loads(out.read_text())["profiler"]
        assert prof["hz"] == 100.0
        assert prof["baseline_ops_per_s"] > 0
        assert prof["profiled_ops_per_s"] > 0
        assert prof["samples"] > 0
        assert 0.0 <= prof["overhead_pct"] <= 100.0

    def test_no_profiler_flag_skips_overhead_block(self, tmp_path, capsys):
        import json

        out = tmp_path / "b.json"
        code = main(
            ["bench", "--quick", "--kernel", "dtw", "--no-profiler",
             "--out", str(out)]
        )
        assert code == 0
        assert "profiler overhead" not in capsys.readouterr().out
        assert "profiler" not in json.loads(out.read_text())

    def test_unknown_kernel_rejected(self, tmp_path):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="unknown kernels"):
            main(
                ["bench", "--quick", "--kernel", "sorting",
                 "--out", str(tmp_path / "b.json")]
            )


class TestRollup:
    def test_status_prints_tables(self, capsys):
        code = main(
            ["rollup", "status", "--customers", "15", "--days", "5",
             "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rollup store: 15 customers" in out
        assert "lag 0 h" in out
        assert "hourly" in out and "weekly" in out

    def test_ticks_stream_through_router(self, capsys):
        code = main(
            ["rollup", "rebuild", "--customers", "12", "--days", "4",
             "--seed", "3", "--ticks", "6", "--json"]
        )
        assert code == 0
        import json

        status = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert status["hours_applied_total"] == 6
        assert status["last_applied_hour"] == 4 * 24 + 6
        assert status["lag_hours"] == 0
