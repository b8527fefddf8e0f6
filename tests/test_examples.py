"""Smoke tests: every shipped example must run and produce its artefacts.

Examples are a deliverable, not decoration — these tests execute each one
in a temporary working directory (so written files don't pollute the repo)
and assert on its stdout and outputs.  The examples use small-but-real
configurations, so this module is the slowest part of the suite.
"""

import os
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


@pytest.fixture()
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, in_tmp_dir, capsys):
        out = _run("quickstart.py", capsys)
        assert "dashboard written" in out
        assert (in_tmp_dir / "vap_dashboard.html").exists()
        assert "pattern" in out

    def test_typical_patterns(self, in_tmp_dir, capsys):
        out = _run("typical_patterns.py", capsys)
        assert "early birds" in out
        assert "precision" in out
        assert "visual analysis" in out
        # The S1 comparisons must report all three reducers.
        for method in ("tsne", "mds", "mds_classical"):
            assert method in out

    def test_shift_patterns(self, in_tmp_dir, capsys):
        out = _run("shift_patterns.py", capsys)
        assert "hourly" in out and "yearly" in out
        assert "headline flow" in out
        assert (in_tmp_dir / "vap_shift_map.svg").exists()

    def test_rest_api_tour(self, in_tmp_dir, capsys):
        out = _run("rest_api_tour.py", capsys)
        assert "GET /api/health" in out
        assert "-> 404" in out and "-> 405" in out

    def test_forecasting(self, in_tmp_dir, capsys):
        out = _run("forecasting.py", capsys)
        assert "profile (patterns)" in out
        assert "cold-start" in out

    def test_anomaly_audit(self, in_tmp_dir, capsys):
        out = _run("anomaly_audit.py", capsys)
        assert "top suspicious candidates" in out
        assert (in_tmp_dir / "vap_fingerprint_suspicious.svg").exists()
        assert (in_tmp_dir / "vap_choropleth.svg").exists()

    def test_demand_response(self, in_tmp_dir, capsys):
        out = _run("demand_response.py", capsys)
        assert "system peak" in out
        assert "EV adoption" in out
        assert "target order" in out

    def test_every_example_is_covered(self):
        """Adding an example without a smoke test fails this meta-check."""
        scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        covered = {
            "quickstart.py",
            "typical_patterns.py",
            "shift_patterns.py",
            "rest_api_tour.py",
            "forecasting.py",
            "anomaly_audit.py",
            "demand_response.py",
        }
        assert scripts == covered
